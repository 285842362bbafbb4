"""Domain partition induced by range bubbles, and piecewise renormalization.

Every bubble owns a main value band around its center, buffered by two gap
bands of width ``window``; whatever value range is left between widened
bands is the vanishing range.  Pulling the bands back through u labels
every cell as main/gap/vanishing, giving a discrete Caccioppoli partition
whose inter-piece faces are either jump faces or get charged to the
``outside_jump`` statistic.

Renormalization reads the partition alone: it subtracts each bubble center
on its main piece and assigns the datum value (zero after reduction) on gap
and vanishing cells; the perturbed variant also offsets each piece by a
distinct constant in [0,1] so that every partition boundary face jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bubbles import Bubble
from .grid import (
    CellSet,
    GridFunction,
    InvariantError,
    Record,
    check_real,
    check_step,
    face_pairs,
    read_only,
    require_same_geometry,
)
from .profile import ConcentrationProfile

KIND_MAIN = 0
KIND_GAP_PLUS = 1
KIND_GAP_MINUS = 2
KIND_VANISHING = 3

_KIND_NAMES = ("main", "gap+", "gap-", "vanishing")  # by kind

# A label code counts the band edges at or below a cell value: code // 4 is
# the index, code % 4 the kind (vanishing, lower gap, main, upper gap).  So a
# code is even on main and vanishing cells and odd on gap cells.
_KIND_OF_REM = np.array([KIND_VANISHING, KIND_GAP_MINUS, KIND_MAIN, KIND_GAP_PLUS], np.uint8)


@dataclass(frozen=True)
class RadiusChoice(Record):
    center: float
    r_minus: float
    r_plus: float
    achieved: float  # objective value at the chosen radii
    interval_average: float  # mean of the objective over the search interval


_SCALES = np.array([1.0, 1.0, -1.0, -1.0])


def select_radii(f: ConcentrationProfile, bubbles: Sequence[Bubble],
                 base_radius: float) -> list[RadiusChoice]:
    """Choose per-bubble radii in [base_radius, base_radius + f.window) where
    the profile is thin on both edges of the prospective gap bands; one choice
    per bubble, in order.

    The objective at radius r adds the profile heights at the four band-edge
    levels center +- r and center +- (r + f.window); being piecewise constant
    it is minimized exactly over its plateaus, and the midpoint of the leftmost
    best plateau is returned so chosen thresholds avoid profile breakpoints.
    The achieved minimum never exceeds the interval average (reported
    alongside).

    All bubbles are done in one pass over flat arrays.  A center c gives the
    terms f(scale * r + shift) for the (scale, shift) offsets ``(1, c),
    (1, c + w), (-1, c), (-1, c - w)``; each offset contributes the cut
    points r = (b - shift) / scale in (lo, hi) of the breakpoints b in one
    slice, and a ``lexsort`` on (bubble, r) orders each bubble's cuts.
    """
    w = f.window
    check_step("window", w, "base_radius", base_radius)
    lo, hi = float(base_radius), float(base_radius + w)
    bp, n = f.breakpoints, len(bubbles)
    c = np.array([b.center for b in bubbles], dtype=float)
    shift = np.concatenate([c, c + w, c, c - w])  # offset-major: row o * n + bubble
    scale = _SCALES.repeat(n)
    # The levels scale * r + shift swept by r in [lo, hi].  A cut needs
    # b > lo + shift and b < hi + shift exactly (scale 1), or b > shift - hi
    # and b < shift - lo (scale -1); a float above (below) an exact sum is at
    # or above (below) its rounding, so the slices below hold every cut, and
    # the filter decides.
    ends = np.sort(shift + scale * np.array([[lo], [hi]]), axis=0)
    first = bp.searchsorted(ends[0], side="left")
    counts = bp.searchsorted(ends[1], side="right") - first
    seg = np.arange(4 * n).repeat(counts)
    idx = np.arange(seg.size) + (first - counts.cumsum() + counts).repeat(counts)
    r = (bp[idx] - shift[seg]) / scale[seg]
    inside = (lo < r) & (r < hi)
    cut = np.concatenate([r[inside], np.repeat([lo, hi], n)])
    owner = np.concatenate([seg[inside] % n, np.arange(2 * n) % n])
    order = np.lexsort((cut, owner))
    cut, owner = cut[order], owner[order]
    # between consecutive distinct cuts of one bubble lies one piece
    piece = ((owner[1:] == owner[:-1]) & (cut[1:] != cut[:-1])).nonzero()[0]
    mid = 0.5 * (cut[piece] + cut[piece + 1])
    owner = owner[piece]
    terms = f.plateau_values[bp.searchsorted(
        _SCALES[:, None] * mid + shift.reshape(4, n)[:, owner], side="right")]
    values = 0.0 + terms[0] + terms[1] + terms[2] + terms[3]  # in offset order, from 0
    pieces = np.bincount(owner, minlength=n)
    starts = pieces.cumsum() - pieces
    least = np.minimum.reduceat(values, starts)
    hits = (values == least.repeat(pieces)).nonzero()[0]
    best = hits[owner[hits].searchsorted(np.arange(n))]  # each bubble's first minimum
    # the interval average integrates each term over its swept levels
    swept = f.window_masses(ends).reshape(4, n)
    average = (0.0 + swept[0] + swept[1] + swept[2] + swept[3]) / (hi - lo)
    return [RadiusChoice(b.center, r_best, r_best, val, avg) for b, r_best, val, avg in zip(
        bubbles, mid[best].tolist(), values[best].tolist(), average.tolist())]


@dataclass(frozen=True)
class SetStats(Record):
    volume: float
    perimeter: float
    outside_jump: float


class DomainPartition:
    """Cell labeling of ``function`` into main pieces, gap bands and vanishing slots."""

    def __init__(self, u: GridFunction, radii: Sequence[RadiusChoice],
                 window: float, omega: CellSet | None = None):
        check_real("window", window)
        self.function = u
        self.geom = u.geom
        self.window = float(window)
        self.pieces = tuple(sorted(radii, key=lambda p: p.center))
        for p in self.pieces:
            if not np.isfinite(p.center):
                raise ValueError(f"piece center must be finite, got {p.center!r}")
            check_real("r_minus", p.r_minus)
            check_real("r_plus", p.r_plus)
        # per piece, its main band [c - r_minus, c + r_plus), as the labels read it
        self.bands = tuple((p.center - p.r_minus, p.center + p.r_plus) for p in self.pieces)
        w = self.window
        edges = []
        for blo, bhi in self.bands:
            edges += [blo - w, blo, bhi, bhi + w]
        # widened bands may touch (shared edge) but must not overlap
        if any(b < a for a, b in zip(edges, edges[1:])):
            raise InvariantError("bubble bands overlap; partition rejected")
        self._edges = np.asarray(edges)
        self._codes = np.searchsorted(self._edges, u.values, side="right")
        # the per-label table, one row per code: every per-cell view gathers from it
        code = np.arange(self._edges.size + 1, dtype=np.intp)
        kind = _KIND_OF_REM[code % 4]
        self._table = {"kind": kind, "index": (code // 4).astype(np.int32),
                       "piece": np.where(kind == KIND_MAIN, code // 4, len(self.pieces)),
                       "name": np.array([f"{_KIND_NAMES[k]}:{c // 4}"
                                         for c, k in enumerate(kind.tolist())], object)}
        self.datum_piece: int | None = None
        if omega is not None:
            require_same_geometry(u.geom, omega.geom)
            if not omega.mask.all():
                self.datum_piece = next((j for j, (blo, bhi) in enumerate(self.bands)
                                         if blo <= 0.0 < bhi), None)
        # per piece, the constant renormalization subtracts: its center, 0.0 on the datum piece
        self.shifts = tuple(0.0 if j == self.datum_piece else p.center
                            for j, p in enumerate(self.pieces))
        self._count_labels()

    # -- labeling helpers -------------------------------------------------

    def _gather(self, column: str) -> np.ndarray:
        """Per cell, ``column`` of its label's row in the per-label table (read-only)."""
        return read_only(self._table[column][self._codes])

    @cached_property
    def label_kind(self) -> np.ndarray:
        return self._gather("kind")

    @cached_property
    def label_index(self) -> np.ndarray:
        return self._gather("index")

    @cached_property
    def piece_ids(self) -> np.ndarray:
        """Per cell, its main piece's index, or ``len(pieces)`` on gap and vanishing cells."""
        return self._gather("piece")

    def rest_mask(self) -> np.ndarray:
        """Gap and vanishing cells together (the non-main aggregate)."""
        return self.piece_ids == len(self.pieces)

    def _count_labels(self) -> None:
        """The one pass over the label codes and faces: ``label_boundary`` (per axis,
        the read-only mask of interior faces with distinct labels on their sides);
        by bincounts, per-label volume, perimeter and box-relative outside-jump and
        each kind's cell count; by code parity, the outside-jump (its ``outside_faces``
        are the label-boundary faces off the jump set touching a main or vanishing
        cell) and gap boundary (label-boundary and box faces touching a gap cell)."""
        k = self._codes
        boundary, sides, free_sides = [], [], []  # masks; one code per boundary face side
        outside_faces = gap_faces = 0
        for axis in range(self.geom.dim):
            lo, hi = face_pairs(k, axis)
            cut = read_only(lo != hi)
            boundary.append(cut)
            free = cut & ~self.function.jump_mask(axis)
            lo_cut, hi_cut, box = lo[cut], hi[cut], k.take([0, -1], axis=axis).ravel()
            lo_free, hi_free = lo[free], hi[free]
            sides += [lo_cut, hi_cut, box]  # box faces too
            free_sides += [lo_free, hi_free]
            # odd codes are gap cells: outside-jump faces have a side that is not,
            # gap-boundary faces a side that is
            outside_faces += int(np.count_nonzero((lo_free & hi_free & 1) == 0))
            gap_faces += int(np.count_nonzero((lo_cut | hi_cut) & 1)) \
                + int(np.count_nonzero(box & 1))
        cells, perimeter, outside = (
            np.bincount(np.concatenate(c), minlength=self._edges.size + 1).tolist()
            for c in ([k.ravel()], sides, free_sides))
        kind, index, names = self._table["kind"], self._table["index"], self._table["name"]
        present = np.flatnonzero(cells)  # labels with a cell, ordered by (kind, index)
        present = present[np.lexsort((index[present], kind[present]))].tolist()
        area = self.geom.face_area
        self.label_boundary = tuple(boundary)
        self.stats = {names[c]: SetStats(volume=cells[c] * self.geom.cell_volume,
                                         perimeter=perimeter[c] * area,
                                         outside_jump=outside[c] * area)
                      for c in present}
        self.outside_faces = outside_faces
        self.outside_jump, self.gap_boundary = outside_faces * area, gap_faces * area
        self._kind_cells = np.bincount(kind, cells).tolist()  # 4 long: code 0 is vanishing

    def volume_by_kind(self, kind: int) -> float:
        return self._kind_cells[kind] * self.geom.cell_volume

    def to_csv(self) -> str:
        """Label raster, one row per leading index, cells comma-separated."""
        rows = np.atleast_2d(self._gather("name")).tolist()
        return "\n".join(",".join(row) for row in rows) + "\n"

    def as_dict(self) -> dict:
        return {
            "pieces": [{"center": p.center, "r_minus": p.r_minus, "r_plus": p.r_plus}
                       for p in self.pieces],
            "window": self.window,
            "datum_piece": self.datum_piece,
            "label_kind": self.label_kind.ravel().tolist(),
            "label_index": self.label_index.ravel().tolist(),
            "stats": {k: s.as_dict() for k, s in self.stats.items()},
            "outside_jump": self.outside_jump,
            "gap_boundary": self.gap_boundary,
            "volumes": {
                "main": self.volume_by_kind(KIND_MAIN),
                "gap": self.volume_by_kind(KIND_GAP_PLUS) + self.volume_by_kind(KIND_GAP_MINUS),
                "vanishing": self.volume_by_kind(KIND_VANISHING),
            },
        }


build_partition = DomainPartition


def renormalize(part: DomainPartition) -> GridFunction:
    """Subtract each piece's center from ``v = part.function`` on its main
    piece; zero elsewhere.

    With a datum h the partition is built on ``u.subtract(h)``: the result
    then vanishes on gap and vanishing cells and, when a datum piece exists,
    on the whole complement of the working domain (that piece's translation
    constant is pinned to zero).  Faces between different partition labels
    are added to the crack set, which keeps the jump measure within
    ``jump(v) + outside_jump``.
    """
    v, ids, n = part.function, part.piece_ids, len(part.pieces)
    values = np.where(ids < n, v.values - np.array([*part.shifts, 0.0])[ids], 0.0)
    cracks = [v.crack_mask(axis) | part.label_boundary[axis] for axis in range(v.geom.dim)]
    return GridFunction(v.geom, values, cracks)


def _dyadic_offsets():
    """0, 1, then the odd multiples of 2**-d in (0, 1), for d = 1, ..., 13."""
    yield from (0.0, 1.0)
    yield from (k / 2**d for d in range(1, 14) for k in range(1, 2**d, 2))


def perturbed_translation(part: DomainPartition) -> GridFunction:
    """Renormalize with per-piece offsets in [0,1] making every partition
    boundary face a genuine jump.

    Pieces are the main pieces plus the gap/vanishing aggregate; each gets a
    distinct dyadic offset chosen greedily so that across every inter-piece
    face the two sides differ.  The jump set of the result is exactly the
    partition boundary united with the jump faces interior to the main
    pieces (jumps interior to the aggregate are overwritten by the constant
    datum value, so they heal).
    """
    w = renormalize(part)
    # main pieces keep their index; all gap/vanishing cells form piece n
    ids, n = part.piece_ids, len(part.pieces)
    # every label-boundary face once, which covers every cross-piece face: the
    # piece ids and base values of its two sides (a face with piece n on both
    # sides, such as gap+|gap-, never faces an offset piece, so it forbids nothing)
    faces = [[a[cut] for a in (*face_pairs(ids, axis), *face_pairs(w.values, axis))]
             for axis, cut in enumerate(part.label_boundary)]
    id_lo, id_hi, base_lo, base_hi = (np.concatenate(c) for c in zip(*faces))
    alpha, done = np.zeros(n + 1), np.zeros(n + 1, dtype=bool)
    for pid in [n, *range(n)]:  # aggregate first, then by band
        # a face from value a on this piece to b on an offset one heals at alpha[other] + b - a
        lo, hi = (id_lo == pid) & done[id_hi], (id_hi == pid) & done[id_lo]
        forbidden = set(alpha[done].tolist())
        forbidden.update((alpha[id_hi[lo]] + base_hi[lo] - base_lo[lo]).tolist())
        forbidden.update((alpha[id_lo[hi]] + base_lo[hi] - base_hi[hi]).tolist())
        for cand in _dyadic_offsets():
            if cand not in forbidden:
                break
        else:
            raise InvariantError("exhausted dyadic offsets; too many conflicting faces")
        alpha[pid], done[pid] = cand, True
    return w.with_values(w.values + alpha[ids])


def vanishing_region(u: GridFunction, bubbles: Sequence[Bubble], radius: float,
                     omega: CellSet | None = None) -> CellSet:
    """Cells whose value escapes every open bubble window (center-r, center+r).

    This is the domain region responsible for the weakly vanishing part of
    the profile once the bubbles are excised.
    """
    check_real("radius", radius)
    inside_any = np.zeros(u.geom.shape, dtype=bool)
    for b in bubbles:
        inside_any |= (u.values > b.center - radius) & (u.values < b.center + radius)
    mask = ~inside_any
    if omega is not None:
        require_same_geometry(u.geom, omega.geom)
        mask &= omega.mask
    return CellSet(u.geom, mask)
