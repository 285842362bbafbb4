"""Exact range-concentration profiles of grid functions.

The profile of u is a nonnegative function of the level t built from two
ingredients: the measure of the strict superlevel boundary away from the
jump set (the gradient term), and trace windows of half-width ``window``
around every one-sided trace on the jump set and the domain boundary.  On a
grid both ingredients are piecewise constant in t with breakpoints at cell
values and at traces +- window, so the profile is stored exactly as
breakpoints plus plateau heights and every integral below is breakpoint
arithmetic, not quadrature.

Trace counting rules (per face):

* non-crack face with both cells inside the domain: gradient interval
  between the two values;
* crack face with both cells inside and differing values: one window per
  side;
* healed crack (equal values): nothing;
* face with exactly one adjacent cell inside (domain edge or grid box):
  a single window around the inside value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .grid import CellSet, GridFunction, face_pairs, require_same_geometry


@dataclass(frozen=True)
class ConcentrationProfile:
    """Piecewise-constant profile: ``plateau_values[k]`` holds on
    (breakpoints[k-1], breakpoints[k]); the unbounded end plateaus are zero.

    The arrays are the profile's one form: construction merges equal
    neighbouring plateaus, so one step function has one pair of arrays."""

    breakpoints: np.ndarray
    plateau_values: np.ndarray
    window: float = 1.0

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float, copy=True)
        pv = np.array(self.plateau_values, dtype=float, copy=True)
        if bp.size + 1 != pv.size:
            raise ValueError("need exactly one more plateau than breakpoints")
        if bp.size and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if pv.size and (pv[0] != 0.0 or pv[-1] != 0.0):
            raise ValueError("profile must vanish on the unbounded plateaus")
        if np.any(pv < 0):
            raise ValueError("plateau values must be nonnegative")
        if not self.window > 0:
            raise ValueError("window must be positive")
        keep = pv[:-1] != pv[1:]
        if not keep.all():
            bp, pv = bp[keep], np.concatenate([pv[:1], pv[1:][keep]])
        bp.flags.writeable = False
        pv.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "plateau_values", pv)

    @classmethod
    def empty(cls, window: float = 1.0) -> "ConcentrationProfile":
        return cls(np.empty(0), np.zeros(1), window)

    @classmethod
    def from_intervals(cls, intervals: np.ndarray | Iterable[tuple[float, float, float]],
                       window: float = 1.0) -> "ConcentrationProfile":
        """Sum of ``weight * indicator((lo, hi))`` terms, merged exactly.

        ``intervals`` is an ``(n, 3)`` array of ``(lo, hi, weight)`` rows or an
        iterable of such tuples; rows with ``hi <= lo`` or zero weight add nothing.
        """
        if not isinstance(intervals, np.ndarray):
            intervals = list(intervals)
        rows = np.asarray(intervals, dtype=float).reshape(-1, 3)
        rows = rows[(rows[:, 1] > rows[:, 0]) & (rows[:, 2] != 0.0)]
        if not rows.size:
            return cls.empty(window)
        ends, weights = rows[:, :2], rows[:, 2]
        # raveled first, the inverse is 1-D on every numpy version: lo, hi, lo, hi, ...
        # Adding 0.0 turns -0.0 into 0.0, so a zero breakpoint does not take
        # the sign of whichever zero the sort happens to put first.
        bp, slot = np.unique(ends.ravel() + 0.0, return_inverse=True)
        delta = np.zeros(bp.size + 2)
        np.add.at(delta, slot[0::2] + 1, weights)
        np.add.at(delta, slot[1::2] + 1, -weights)
        values = np.cumsum(delta)[:-1]
        # The end plateaus are exactly zero in exact arithmetic; snap float
        # residue from the cumulative sum so the invariant holds for generic
        # weights (inputs with dyadic weights incur no residue at all).
        snap = 16 * np.finfo(float).eps * float(np.sum(np.abs(weights)))
        values[np.abs(values) <= snap] = 0.0
        values[0] = 0.0
        values[-1] = 0.0
        np.maximum(values, 0.0, out=values)
        return cls(bp, values, window)

    # -- queries --------------------------------------------------------

    def total_mass(self) -> float:
        if self.breakpoints.size < 2:
            return 0.0
        return float(np.sum(self.plateau_values[1:-1] * np.diff(self.breakpoints)))

    def max_height(self) -> float:
        return float(np.max(self.plateau_values)) if self.plateau_values.size else 0.0

    def support(self) -> tuple[float, float] | None:
        nz = np.nonzero(self.plateau_values)[0]
        if nz.size == 0:
            return None
        return float(self.breakpoints[nz[0] - 1]), float(self.breakpoints[nz[-1]])

    @cached_property
    def _cum0(self) -> np.ndarray:
        """Read-only mass below ``breakpoints[k-1]`` at k >= 1, and 0.0 at k = 0."""
        out = np.zeros(self.breakpoints.size + 1)
        if self.breakpoints.size > 1:
            np.cumsum(self.plateau_values[1:-1] * np.diff(self.breakpoints), out=out[2:])
        out.flags.writeable = False
        return out

    def _plateau_term(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Mass on plateau ``k`` below ``t`` (its right-``searchsorted`` slot).
        ``t`` is clipped into the breakpoint range, so that the zero end
        plateaus give 0.0 and not ``0 * inf``; inner terms are unchanged."""
        bp = self.breakpoints
        return self.plateau_values[k] * (np.fmin(np.fmax(t, bp[0]), bp[-1]) - bp[k - 1])

    def mass_below(self, t) -> np.ndarray | float:
        """Exact integral of the profile over (-inf, t)."""
        bp = self.breakpoints
        if np.ndim(t) == 0:
            t = float(t)
            k = int(bp.searchsorted(t, side="right"))
            if k == 0 or k == bp.size:
                return float(self._cum0[k])
            return float(self._cum0[k]) + float(self.plateau_values[k]) * (t - float(bp[k - 1]))
        t_arr = np.asarray(t, dtype=float)
        if bp.size == 0:
            return np.zeros_like(t_arr)
        k = bp.searchsorted(t_arr, side="right")
        return self._cum0[k] + self._plateau_term(k, t_arr)

    def integrate(self, a: float, b: float) -> float:
        if not b > a:
            return 0.0
        return float(self.mass_below(b) - self.mass_below(a))

    # -- surgery ---------------------------------------------------------

    def zero_on(self, a: float, b: float) -> "ConcentrationProfile":
        """Profile with values replaced by zero on the open interval (a, b):
        the breakpoints in [a, b] are cut out, and a (b) stays a breakpoint
        where the plateau left of a (right of b) is not zero."""
        return self._cut(a, b)[0]

    def _cut(self, a: float, b: float) -> tuple["ConcentrationProfile", int, int]:
        """``zero_on(a, b)`` with the slots ``i0``, ``i1`` of a and b: the old
        breakpoints cut out are ``breakpoints[i0:i1]`` (none where nothing is
        cut, and the profile is returned as it is).

        The new arrays are spliced from the old ones at the two junctions and
        need none of the constructor's checks: bp[i0-1] < a < b < bp[i1], so
        the breakpoints still increase strictly; every plateau is an old one or
        the new zero, so the values stay nonnegative and the end plateaus zero
        (pv[0] is kept, and pv[n] is kept or the zero plateau is the last);
        a (b) is kept only next to a nonzero plateau, and the zero plateau is
        an entry of its own only between two nonzero ones, so no two
        neighbouring plateaus are equal.  The cached cumulative mass is carried:
        below slot max(i0, 1) nothing changed, and above it the same running
        sum continues in the same order as a fresh ``cumsum``, so every entry
        has the bits a fresh one would."""
        bp, pv = self.breakpoints, self.plateau_values
        if not b > a or bp.size == 0:
            return self, 0, 0
        i0 = int(bp.searchsorted(a, side="left"))
        i1 = int(bp.searchsorted(b, side="right"))
        left, right = bool(pv[i0]), bool(pv[i1])  # the plateaus next to (a, b)
        new_bp = np.concatenate([bp[:i0], [x for x, on in ((a, left), (b, right)) if on],
                                 bp[i1:]])
        # pv[i0] (pv[i1]) is the zero plateau itself where it is zero; where
        # both are, the zero plateau is pv[i0] and pv[i1] goes
        new_pv = np.concatenate([pv[:i0 + 1], [0.0] if left and right else [],
                                 pv[i1 if left or right else i1 + 1:]])
        cum = np.zeros(new_bp.size + 1)
        if new_bp.size:
            s = max(i0, 1)
            cum[:s + 1] = self._cum0[:s + 1]
            tail = new_pv[s:-1] * np.diff(new_bp[s - 1:])
            if tail.size:
                tail[0] += cum[s]
                np.cumsum(tail, out=cum[s + 1:])
        new = object.__new__(ConcentrationProfile)
        for name, arr in (("breakpoints", new_bp), ("plateau_values", new_pv), ("_cum0", cum)):
            arr.flags.writeable = False
            object.__setattr__(new, name, arr)
        object.__setattr__(new, "window", self.window)
        return new, i0, i1


def _profile_faces(u: GridFunction, domain: CellSet | None):
    """Per axis, the faces the profile is built from: the two values across
    every gradient face, and the traces carried by jump faces (both sides,
    first the lower ones, then the upper ones), domain edges and box faces
    (the inside value)."""
    if domain is not None:
        require_same_geometry(u.geom, domain.geom)
        inside = domain.mask
    else:
        inside = np.ones(u.geom.shape, dtype=bool)
    out = []
    for axis in range(u.geom.dim):
        v_lo, v_hi = face_pairs(u.values, axis)
        in_lo, in_hi = face_pairs(inside, axis)
        both = in_lo & in_hi
        grad = both & ~u.crack_mask(axis) & (v_lo != v_hi)
        jump = both & u.jump_mask(axis)
        traces = [
            v_lo[jump],
            v_hi[jump],
            v_lo[in_lo & ~in_hi],  # domain edge, trace from below
            v_hi[in_hi & ~in_lo],  # domain edge, trace from above
            u.values.take(0, axis=axis)[inside.take(0, axis=axis)],  # grid box faces
            u.values.take(-1, axis=axis)[inside.take(-1, axis=axis)],
        ]
        out.append((v_lo[grad], v_hi[grad], traces))
    return out


def concentration_profile(u: GridFunction, domain: CellSet | None = None,
                          window: float = 1.0) -> ConcentrationProfile:
    """Exact concentration profile of u, optionally restricted to a domain.

    With a domain the profile is determined by the values of u inside it:
    gradient intervals come from interior non-crack faces of the domain, and
    traces are counted from inside only, on jump faces, on the domain edge
    and on the grid box.
    """
    if not window > 0:
        raise ValueError("window must be positive")
    faces = _profile_faces(u, domain)
    grad = [np.stack([np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi)], axis=1)
            for v_lo, v_hi, _ in faces]
    windows = [np.stack([tr - window, tr + window], axis=1)
               for _, _, traces in faces for tr in traces]
    ends = np.concatenate(grad + windows)
    intervals = np.column_stack([ends, np.full(len(ends), u.geom.face_area)])
    return ConcentrationProfile.from_intervals(intervals, window)


def jump_boundary_measure(u: GridFunction, domain: CellSet | None = None) -> float:
    """Measure of the jump set together with the (domain or box) boundary,
    each face counted once."""
    # the first trace list holds one entry per jump face, the others one per
    # boundary face; dropping it counts each face once
    count = sum(tr.size for _, _, traces in _profile_faces(u, domain) for tr in traces[1:])
    return count * u.geom.face_area


def window_mass(f: ConcentrationProfile, center: float, radius: float) -> float:
    """Exact integral of the profile over the open ball (center-R, center+R)."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return f.integrate(center - radius, center + radius)


class _LevyScan:
    """Levy maximization at one radius over centers outside the keep-out
    intervals, kept current while windows of the profile are zeroed.

    Window mass is piecewise linear in the center, so the maximum over the
    allowed closed set sits at a breakpoint +- radius or on a keep-out edge.
    These candidates, minus those inside an open keep-out, form one sorted
    array ``centers``.  Each stores the right-``searchsorted`` slots ``k`` of
    its query points ``c + r`` and ``c - r``, their plateau terms, and its
    mass ``(cum0[k+] + term+) - (cum0[k-] + term-)``, which is
    ``mass_below(c + r) - mass_below(c - r)`` bit for bit; ``best()`` is one
    ``argmax`` over the stored masses.

    Zeroing (a, b) on a profile, canonical by construction, removes
    breakpoints only inside [a, b] and may add a and b, so every candidate
    it adds or removes, and the keep-out (lo, hi), lies in the zone
    [min(lo, a - r), max(hi, b + r)] (rounding is monotone).  The zone's
    candidates are built again from the new profile's breakpoints near it.
    Left of the zone both query points lie below a (rounding can put one on
    a, where the mass below is unchanged too), and below a the zeroing
    changes no breakpoint, plateau or cumulative mass (``zero_on`` carries
    ``cum0`` there unchanged), so slots, terms and masses stay as they are.
    Right of it both lie above b: every slot moves by the change in
    breakpoint count, only the leading run whose old slot is the plateau
    right of b gets a new term, and every mass is scored again on the new
    cumulative mass, from the zone on.
    """

    def __init__(self, f: ConcentrationProfile, radius: float):
        self.f = f
        self.radius = radius
        self.edges: list[float] = []  # keep-out (lo, hi) pairs, flattened
        self._pm = np.array([[radius], [-radius]])  # c + _pm: the query points
        self._rebuild()

    def _rebuild(self) -> None:
        """Every candidate built and scored afresh."""
        self.centers = self._candidates(-np.inf, np.inf)
        self.k, self.term = self._slots(self.centers)
        self.masses = self._score(self.k, self.term)

    def _candidates(self, z_lo: float, z_hi: float) -> np.ndarray:
        """The sorted candidates in [z_lo, z_hi]."""
        bp, r = self.f.breakpoints, self.radius
        # the breakpoints whose +- r can land in the zone; rounding is
        # monotone, so checking the first one left out on each side suffices
        j0 = int(bp.searchsorted(z_lo - r, side="left"))
        while j0 and bp[j0 - 1] + r >= z_lo:
            j0 -= 1
        j1 = int(bp.searchsorted(z_hi + r, side="right"))
        while j1 < bp.size and bp[j1] - r <= z_hi:
            j1 += 1
        near, edges = bp[j0:j1], np.array(self.edges)
        c = np.concatenate([near - r, near + r, edges])
        keep = (c >= z_lo) & (c <= z_hi)
        keep &= ~((c[:, None] > edges[0::2]) & (c[:, None] < edges[1::2])).any(axis=1)
        c = np.sort(c[keep])
        first = np.ones(c.size, dtype=bool)  # the first of equal values, as np.unique keeps
        np.not_equal(c[1:], c[:-1], out=first[1:])
        return c[first]

    def _slots(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slots and plateau terms of the query points of ``centers``."""
        q = centers + self._pm
        k = self.f.breakpoints.searchsorted(q, side="right")
        return k, self.f._plateau_term(k, q) if self.f.breakpoints.size else np.zeros_like(q)

    def _score(self, k: np.ndarray, term: np.ndarray) -> np.ndarray:
        below = self.f._cum0[k] + term
        return below[0] - below[1]

    def best(self) -> tuple[float, float]:
        """Largest allowed window mass and its smallest maximizing center."""
        if self.f.breakpoints.size == 0:
            return 0.0, 0.0
        j = int(self.masses.argmax())  # centers ascend: the first maximum is the smallest
        return float(self.masses[j]), float(self.centers[j])

    def remove(self, a: float, b: float, lo: float, hi: float) -> None:
        """Zero the profile on (a, b) and keep centers out of (lo, hi)."""
        old, r = self.f, self.radius
        self.f, i0, i1 = old._cut(a, b)
        self.edges += [lo, hi]
        if self.f.breakpoints.size == 0:
            self._rebuild()
            return
        z_lo, z_hi = min(lo, a - r), max(hi, b + r)
        c0 = int(self.centers.searchsorted(z_lo, side="left"))
        c1 = int(self.centers.searchsorted(z_hi, side="right"))
        # [c0, c2) is slotted again: the zone's candidates, built again, and
        # the run right of it whose lower query point has the old slot i1
        c2 = c1 + int(self.k[1, c1:].searchsorted(i1, side="right"))
        block = np.concatenate([self._candidates(z_lo, z_hi), self.centers[c1:c2]])
        k, term = self._slots(block)
        right = self.k[:, c2:]
        right += self.f.breakpoints.size - old.breakpoints.size
        self.centers = np.concatenate([self.centers[:c0], block, self.centers[c2:]])
        self.k = np.concatenate([self.k[:, :c0], k, right], axis=1)
        self.term = np.concatenate([self.term[:, :c0], term, self.term[:, c2:]], axis=1)
        self.masses = np.concatenate([self.masses[:c0],
                                      self._score(self.k[:, c0:], self.term[:, c0:])])


def levy_concentration(f: ConcentrationProfile, radius: float) -> tuple[float, float]:
    """Largest window mass at the given radius and its (smallest) maximizing
    center: the first ``best()`` of a Levy scan, before any zone is removed."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    if f.breakpoints.size == 0:
        return 0.0, 0.0
    return _LevyScan(f, radius).best()


# -- derived views -----------------------------------------------------------


def profile_to_csv(f: ConcentrationProfile) -> str:
    """Step data as ``t,value`` rows; value holds immediately right of t."""
    lines = ["t,value"]
    for t, v in zip(f.breakpoints, f.plateau_values[1:]):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def profile_to_svg(f: ConcentrationProfile, width: int = 640, height: int = 240) -> str:
    """Minimal standalone SVG step plot of the profile."""
    pad = 30
    sup = f.support()
    if sup is None:
        lo, hi, top = 0.0, 1.0, 1.0
    else:
        lo, hi = sup
        span = hi - lo
        lo, hi = lo - 0.05 * span, hi + 0.05 * span
        top = f.max_height() * 1.1
    def sx(t):
        return pad + (t - lo) / (hi - lo) * (width - 2 * pad)
    def sy(v):
        return height - pad - v / top * (height - 2 * pad)
    pts = [(sx(lo), sy(0.0))]
    for k, t in enumerate(f.breakpoints):
        pts.append((sx(t), sy(float(f.plateau_values[k]))))
        pts.append((sx(t), sy(float(f.plateau_values[k + 1]))))
    pts.append((sx(hi), sy(0.0)))
    return polyline_svg([(pts, "black", None)], width, height, pad)


def polyline_svg(lines, width: int, height: int, pad: int) -> str:
    """Standalone SVG of ``(points, colour, label)`` polylines on white over a
    gray baseline ``pad`` above the bottom; a label (None for none) is written
    in its line's colour, one row per line from the top left."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for k, (points, color, label) in enumerate(lines):
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if label is not None:
            parts.append(f'<text x="{pad}" y="{14 + 14 * k}" font-size="11" '
                         f'fill="{color}">{label}</text>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="gray"/></svg>\n')
    return "".join(parts)
