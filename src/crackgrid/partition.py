"""Domain partition induced by range bubbles, and piecewise renormalization.

Every bubble owns a main value band around its center, buffered by two gap
bands of width ``window``; whatever value range is left between widened
bands is the vanishing range.  Pulling the bands back through u labels
every cell as main/gap/vanishing, giving a discrete Caccioppoli partition
whose inter-piece faces are either jump faces or get charged to the
``outside_jump`` statistic.

Renormalization subtracts each bubble center on its main piece and assigns
the datum value (zero after reduction) on gap and vanishing cells; the
perturbed variant additionally offsets each piece by a distinct constant in
[0,1] so that every partition boundary face genuinely jumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .bubbles import Bubble, BubbleDecomposition
from .grid import CellSet, GridFunction, face_pairs, require_same_geometry
from .profile import ConcentrationProfile

KIND_MAIN = 0
KIND_GAP_PLUS = 1
KIND_GAP_MINUS = 2
KIND_VANISHING = 3

_KIND_NAMES = {
    KIND_MAIN: "main",
    KIND_GAP_PLUS: "gap+",
    KIND_GAP_MINUS: "gap-",
    KIND_VANISHING: "vanishing",
}

# A label code counts the band edges at or below a cell value: code // 4 is
# the index, code % 4 the kind (vanishing, lower gap, main, upper gap).  So a
# code is even on main and vanishing cells and odd on gap cells.
_KIND_OF_REM = np.array([KIND_VANISHING, KIND_GAP_MINUS, KIND_MAIN, KIND_GAP_PLUS], np.uint8)
_REM_OF_KIND = np.argsort(_KIND_OF_REM)


def _label_name(code: int) -> str:
    return f"{_KIND_NAMES[int(_KIND_OF_REM[code % 4])]}:{code // 4}"


def _bubble_list(bubbles) -> list[Bubble]:
    if isinstance(bubbles, BubbleDecomposition):
        return list(bubbles.bubbles)
    return list(bubbles)


@dataclass(frozen=True)
class RadiusChoice:
    center: float
    r_minus: float
    r_plus: float
    achieved: float  # objective value at the chosen radii
    interval_average: float  # mean of the objective over the search interval

    def as_dict(self) -> dict:
        return {
            "center": self.center,
            "r_minus": self.r_minus,
            "r_plus": self.r_plus,
            "achieved": self.achieved,
            "interval_average": self.interval_average,
        }


def _objective_pieces(f: ConcentrationProfile, offsets: Sequence[tuple[float, float]],
                      lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant objective r -> sum_k sign_k-shifted profile values.

    ``offsets`` holds (scale, shift) pairs meaning the term f(scale*r + shift)
    with scale in {+1,-1}.  Returns the sorted cut points on [lo, hi] and the
    objective value on each piece between consecutive cuts.
    """
    cuts = [np.array([lo, hi])]
    for scale, shift in offsets:
        r = (f.breakpoints - shift) / scale
        cuts.append(r[(lo < r) & (r < hi)])
    points = np.unique(np.concatenate(cuts))
    mid = 0.5 * (points[:-1] + points[1:])
    values = np.zeros(mid.size)
    for scale, shift in offsets:
        values += f.plateau_values[np.searchsorted(f.breakpoints, scale * mid + shift,
                                                   side="right")]
    return points, values


def _best_radius(f: ConcentrationProfile, offsets, lo: float, hi: float) -> tuple[float, float]:
    """Midpoint of the leftmost minimizing plateau (for determinism) and the minimum."""
    points, values = _objective_pieces(f, offsets, lo, hi)
    k = int(np.argmin(values))  # first occurrence
    return float(0.5 * (points[k] + points[k + 1])), float(values[k])


def _interval_average(f: ConcentrationProfile, offsets, lo: float, hi: float) -> float:
    total = 0.0
    for scale, shift in offsets:
        a, b = scale * lo + shift, scale * hi + shift
        total += f.integrate(min(a, b), max(a, b))
    return total / (hi - lo)


def select_radii(f: ConcentrationProfile, bubbles, base_radius: float,
                 width: float, window: float | None = None,
                 per_side: bool = False, equal_radii: bool = False) -> list[RadiusChoice]:
    """Choose per-bubble radii in [base_radius, base_radius + width) where the
    profile is thin on both edges of the prospective gap bands.

    The objective at radius r adds the profile heights at the four band-edge
    levels center +- r and center +- (r + window); being piecewise constant
    it is minimized exactly over its plateaus, and the midpoint of the best
    plateau is returned so chosen thresholds avoid profile breakpoints.  The
    achieved minimum never exceeds the interval average (reported alongside).
    With ``per_side`` the two sides are optimized independently; with
    ``equal_radii`` one shared radius minimizes the summed objective.
    """
    if not width > 0:
        raise ValueError("width must be positive")
    if not base_radius > 0:
        raise ValueError("base_radius must be positive")
    w = f.window if window is None else float(window)
    blist = _bubble_list(bubbles)
    lo, hi = base_radius, base_radius + width

    out = []
    if equal_radii and blist:
        offsets = []
        for b in blist:
            offsets += [(1.0, b.center), (1.0, b.center + w),
                        (-1.0, b.center), (-1.0, b.center - w)]
        r, val = _best_radius(f, offsets, lo, hi)
        avg = _interval_average(f, offsets, lo, hi)
        return [RadiusChoice(b.center, r, r, val, avg) for b in blist]
    for b in blist:
        plus = [(1.0, b.center), (1.0, b.center + w)]
        minus = [(-1.0, b.center), (-1.0, b.center - w)]
        if per_side:
            rp, vp = _best_radius(f, plus, lo, hi)
            rm, vm = _best_radius(f, minus, lo, hi)
            avg = _interval_average(f, plus + minus, lo, hi)
            out.append(RadiusChoice(b.center, rm, rp, vp + vm, avg))
        else:
            r, val = _best_radius(f, plus + minus, lo, hi)
            avg = _interval_average(f, plus + minus, lo, hi)
            out.append(RadiusChoice(b.center, r, r, val, avg))
    return out


@dataclass(frozen=True)
class PartitionPiece:
    center: float
    r_minus: float
    r_plus: float

    @property
    def band(self) -> tuple[float, float]:
        return self.center - self.r_minus, self.center + self.r_plus


@dataclass(frozen=True)
class SetStats:
    volume: float
    perimeter: float
    outside_jump: float

    def as_dict(self) -> dict:
        return {"volume": self.volume, "perimeter": self.perimeter,
                "outside_jump": self.outside_jump}


class DomainPartition:
    """Cell labeling into main pieces, gap bands and vanishing slots."""

    def __init__(self, u: GridFunction, pieces: Sequence[PartitionPiece],
                 window: float, omega: CellSet | None = None):
        self.geom = u.geom
        self.window = float(window)
        self.pieces = tuple(sorted(pieces, key=lambda p: p.center))
        w = self.window
        edges = []
        for p in self.pieces:
            blo, bhi = p.band
            edges += [blo - w, blo, bhi, bhi + w]
        # widened bands may touch (shared edge) but must not overlap
        if any(b < a for a, b in zip(edges, edges[1:])):
            raise ValueError("bubble bands overlap; partition rejected")
        self._edges = np.asarray(edges)
        self._codes = np.searchsorted(self._edges, u.values, side="right")
        self.datum_piece: int | None = None
        if omega is not None and not omega.mask.all():
            require_same_geometry(u.geom, omega.geom)
            for j, p in enumerate(self.pieces):
                blo, bhi = p.band
                if blo <= 0.0 < bhi:
                    self.datum_piece = j
                    break
        self.stats, self.outside_jump, self.gap_boundary = self._compute_stats(u)

    # -- labeling helpers -------------------------------------------------

    @cached_property
    def label_kind(self) -> np.ndarray:
        kind = _KIND_OF_REM[self._codes % 4]
        kind.flags.writeable = False
        return kind

    @cached_property
    def label_index(self) -> np.ndarray:
        index = (self._codes // 4).astype(np.int32)
        index.flags.writeable = False
        return index

    def mask(self, kind: int, index: int) -> np.ndarray:
        return self._codes == 4 * index + _REM_OF_KIND[kind]

    def _present_codes(self) -> np.ndarray:
        """Codes of the labels with at least one cell, ordered by (kind, index)."""
        codes = np.flatnonzero(np.bincount(self._codes.ravel()))
        return codes[np.lexsort((codes // 4, _KIND_OF_REM[codes % 4]))]

    def labels_present(self) -> list[tuple[int, int]]:
        return [(int(_KIND_OF_REM[c % 4]), int(c // 4)) for c in self._present_codes()]

    def rest_mask(self) -> np.ndarray:
        """Gap and vanishing cells together (the non-main aggregate)."""
        return self.label_kind != KIND_MAIN

    def _compute_stats(self, u: GridFunction) -> tuple[dict[str, SetStats], float, float]:
        """Per-label volume, ambient perimeter and box-relative outside-jump, by
        bincounts, with the partition's outside-jump (label-boundary faces off
        the jump set touching a main or vanishing cell) and gap boundary
        (label-boundary and box faces touching a gap cell), by code parity."""
        k = self._codes
        sides, free_sides = [], []  # one code per label-boundary face side
        outside_faces = gap_faces = 0
        for axis in range(self.geom.dim):
            lo, hi = face_pairs(k, axis)
            cut = lo != hi
            free = cut & ~u.jump_mask(axis)
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
        area = self.geom.face_area
        stats = {_label_name(c): SetStats(volume=cells[c] * self.geom.cell_volume,
                                          perimeter=perimeter[c] * area,
                                          outside_jump=outside[c] * area)
                 for c in self._present_codes().tolist()}
        return stats, outside_faces * area, gap_faces * area

    def label_boundary(self, axis: int) -> np.ndarray:
        """Mask over the interior faces of ``axis`` with distinct labels on the two sides."""
        lo, hi = face_pairs(self._codes, axis)
        return lo != hi

    def volume_by_kind(self, kind: int) -> float:
        return int(np.count_nonzero(self.label_kind == kind)) * self.geom.cell_volume

    def label_names(self) -> np.ndarray:
        names = np.array([_label_name(c) for c in range(self._edges.size + 1)], object)
        return names[self._codes]

    def to_csv(self) -> str:
        """Label raster, one row per leading index, cells comma-separated."""
        names = self.label_names()
        if self.geom.dim == 1:
            return ",".join(names.tolist()) + "\n"
        return "\n".join(",".join(row) for row in names.tolist()) + "\n"

    def as_dict(self) -> dict:
        return {
            "pieces": [{"center": p.center, "r_minus": p.r_minus, "r_plus": p.r_plus}
                       for p in self.pieces],
            "window": self.window,
            "datum_piece": self.datum_piece,
            "label_kind": [int(x) for x in self.label_kind.ravel()],
            "label_index": [int(x) for x in self.label_index.ravel()],
            "stats": {k: s.as_dict() for k, s in self.stats.items()},
            "outside_jump": self.outside_jump,
            "gap_boundary": self.gap_boundary,
            "volumes": {
                "main": self.volume_by_kind(KIND_MAIN),
                "gap": self.volume_by_kind(KIND_GAP_PLUS) + self.volume_by_kind(KIND_GAP_MINUS),
                "vanishing": self.volume_by_kind(KIND_VANISHING),
            },
        }


def build_partition(u: GridFunction, bubbles, radii: Sequence[RadiusChoice],
                    window: float, omega: CellSet | None = None) -> DomainPartition:
    """Label every cell by the bubble value bands; rejects overlapping bands."""
    blist = _bubble_list(bubbles)
    by_center = {rc.center: rc for rc in radii}
    pieces = []
    for b in blist:
        rc = by_center.get(b.center)
        if rc is None:
            raise ValueError(f"no radius choice for bubble centered at {b.center}")
        pieces.append(PartitionPiece(b.center, rc.r_minus, rc.r_plus))
    return DomainPartition(u, pieces, window, omega)


def renormalize(u: GridFunction, part: DomainPartition,
                datum: GridFunction | None = None) -> GridFunction:
    """Subtract each piece's center on its main piece; datum value elsewhere.

    With a datum h the input is first reduced to v = u - h (so the result
    vanishes on gap and vanishing cells and, when a datum piece exists, on
    the whole complement of the working domain: that piece's translation
    constant is pinned to zero).  Faces between different partition labels
    are added to the crack set, which keeps the jump measure within
    ``jump(v) + outside_jump`` of the original.
    """
    v = u.subtract(datum) if datum is not None else u
    require_same_geometry(v.geom, part.geom)
    values = np.zeros(v.geom.shape)
    for j, p in enumerate(part.pieces):
        m = part.mask(KIND_MAIN, j)
        a = 0.0 if part.datum_piece == j else p.center
        values[m] = v.values[m] - a
    cracks = [v.crack_mask(axis) | part.label_boundary(axis) for axis in range(v.geom.dim)]
    return GridFunction.from_masks(v.geom, values, cracks)


_DYADIC_CANDIDATES: list[float] = [0.0, 1.0]
for _depth in range(1, 14):
    _den = 2**_depth
    _DYADIC_CANDIDATES.extend(k / _den for k in range(1, _den, 2))


def perturbed_translation(u: GridFunction, part: DomainPartition,
                          datum: GridFunction | None = None) -> GridFunction:
    """Renormalize with per-piece offsets in [0,1] making every partition
    boundary face a genuine jump.

    Pieces are the main pieces plus the gap/vanishing aggregate; each gets a
    distinct dyadic offset chosen greedily so that across every inter-piece
    face the two sides differ.  The jump set of the result is exactly the
    partition boundary united with the jump faces interior to the main
    pieces (jumps interior to the aggregate are overwritten by the constant
    datum value, so they heal).
    """
    w = renormalize(u, part, datum=datum)
    # main pieces keep their index; all gap/vanishing cells share id -1
    ids = np.where(part.label_kind == KIND_MAIN, part.label_index.astype(np.int64), -1)
    piece_order = [-1] + list(range(len(part.pieces)))  # aggregate first, then by band
    # collect cross-piece faces once: (id_lo, id_hi, base_lo, base_hi)
    cross: list[tuple[int, int, float, float]] = []
    for axis in range(w.geom.dim):
        id_lo, id_hi = face_pairs(ids, axis)
        b_lo, b_hi = face_pairs(w.values, axis)
        sel = id_lo != id_hi
        cross.extend(zip(id_lo[sel].tolist(), id_hi[sel].tolist(),
                         b_lo[sel].tolist(), b_hi[sel].tolist()))
    alphas: dict[int, float] = {}
    for pid in piece_order:
        forbidden = set(alphas.values())
        for id_a, id_b, x, y in cross:
            if id_a == pid and id_b in alphas:
                forbidden.add(alphas[id_b] + y - x)
            elif id_b == pid and id_a in alphas:
                forbidden.add(alphas[id_a] + x - y)
        for cand in _DYADIC_CANDIDATES:
            if cand not in forbidden:
                alphas[pid] = cand
                break
        else:
            raise RuntimeError("exhausted dyadic offsets; too many conflicting faces")
    # ids == -1 (the aggregate) indexes the last lookup slot
    lookup = np.array([alphas[j] for j in range(len(part.pieces))] + [alphas[-1]])
    return w.with_values(w.values + lookup[ids])


def vanishing_region(u: GridFunction, bubbles, radius: float,
                     omega: CellSet | None = None) -> CellSet:
    """Cells whose value escapes every open bubble window (center-r, center+r).

    This is the domain region responsible for the weakly vanishing part of
    the profile once the bubbles are excised.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    blist = _bubble_list(bubbles)
    inside_any = np.zeros(u.geom.shape, dtype=bool)
    for b in blist:
        inside_any |= (u.values > b.center - radius) & (u.values < b.center + radius)
    mask = ~inside_any
    if omega is not None:
        require_same_geometry(u.geom, omega.geom)
        mask &= omega.mask
    return CellSet(u.geom, mask)
