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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .grid import CellSet, GridFunction, check_real, face_pairs, read_only, require_same_geometry


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
        check_real("window", self.window)
        bp = np.array(self.breakpoints, dtype=float, copy=True)
        pv = np.array(self.plateau_values, dtype=float, copy=True)
        if bp.size + 1 != pv.size:
            raise ValueError("need exactly one more plateau than breakpoints")
        if not (np.isfinite(bp).all() and np.isfinite(pv).all()):
            raise ValueError("breakpoints and plateau values must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if pv[0] != 0.0 or pv[-1] != 0.0:
            raise ValueError("profile must vanish on the unbounded plateaus")
        if np.any(pv < 0):
            raise ValueError("plateau values must be nonnegative")
        keep = pv[:-1] != pv[1:]
        if not keep.all():
            bp, pv = bp[keep], np.concatenate([pv[:1], pv[1:][keep]])
        self._set(bp, pv, self.window)

    def _set(self, bp: np.ndarray, pv: np.ndarray, window: float) -> "ConcentrationProfile":
        """Freeze ``bp`` and ``pv`` and set the three fields: the last step of
        every way a profile is made."""
        for name, value in (("breakpoints", read_only(bp)), ("plateau_values", read_only(pv)),
                            ("window", window)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def from_intervals(cls, intervals: np.ndarray | Iterable[tuple[float, float, float]],
                       window: float = 1.0) -> "ConcentrationProfile":
        """Sum of ``weight * indicator((lo, hi))`` terms, merged exactly by one
        sort of the interval ends.

        ``intervals`` is an ``(n, 3)`` array of ``(lo, hi, weight)`` rows or an
        iterable of such tuples; rows with ``hi <= lo`` or zero weight add nothing.
        Every end and weight must be finite, and no plateau's weights may sum below zero.
        """
        if not isinstance(intervals, np.ndarray):
            intervals = list(intervals)
        rows = np.asarray(intervals, dtype=float).reshape(-1, 3)
        if not np.isfinite(rows).all():
            raise ValueError("interval ends and weights must be finite")
        rows = rows[rows[:, 2] != 0.0]
        return cls._from_ends(rows[:, 0], rows[:, 1], rows[:, 2], window)

    @classmethod
    def _from_ends(cls, lo: np.ndarray, hi: np.ndarray, weight, window: float
                   ) -> "ConcentrationProfile":
        """``from_intervals`` on the rows ``(lo, hi)`` with ``hi > lo``, with one
        weight per row or one for all.  One sort of the ends gives the
        breakpoints and each end's slot, its rank among them; the lower ends add
        their weights first, then the upper ones, each in row order."""
        keep = hi > lo
        weights = np.broadcast_to(weight, keep.shape)[keep]
        # Adding 0.0 turns -0.0 into 0.0, so a zero breakpoint does not take
        # the sign of whichever zero the sort happens to put first.
        ends = np.concatenate([lo[keep], hi[keep]]) + 0.0
        order = ends.argsort()
        ends = ends[order]
        new = np.ones(ends.size, dtype=bool)  # the first of each value
        new[1:] = ends[1:] != ends[:-1]
        bp, slot = ends[new], np.empty(ends.size, dtype=np.intp)
        slot[order] = np.cumsum(new)  # the slot + 1, the delta entry right of the end
        delta = np.zeros(bp.size + 2)
        np.add.at(delta, slot[:weights.size], weights)
        np.add.at(delta, slot[weights.size:], -weights)
        values = np.cumsum(delta)[:-1]
        # The end plateaus are exactly zero in exact arithmetic; snap float
        # residue from the cumulative sum so the invariant holds for generic
        # weights (inputs with dyadic weights incur no residue at all).
        snap = 16 * np.finfo(float).eps * float(np.sum(np.abs(weights)))
        values[np.abs(values) <= snap] = 0.0
        values[0] = 0.0
        values[-1] = 0.0
        for k in np.flatnonzero(values < 0):  # residue, unless the rows covering k sum below -snap
            if math.fsum(weights[(slot[:weights.size] <= k) & (k < slot[weights.size:])]) < -snap:
                raise ValueError("plateau values must be nonnegative")
        np.maximum(values, 0.0, out=values)
        return cls(bp, values, window)

    # -- queries --------------------------------------------------------

    def total_mass(self) -> float:
        return float(np.sum(self.plateau_values[1:-1] * np.diff(self.breakpoints)))

    def max_height(self) -> float:
        return float(np.max(self.plateau_values))

    def support(self) -> tuple[float, float] | None:
        nz = np.nonzero(self.plateau_values)[0]
        if nz.size == 0:
            return None
        return float(self.breakpoints[nz[0] - 1]), float(self.breakpoints[nz[-1]])

    @cached_property
    def _cum0(self) -> np.ndarray:
        """Read-only mass below ``breakpoints[k-1]`` at k >= 1, and 0.0 at k = 0."""
        out = np.zeros(self.breakpoints.size + 1)
        np.cumsum(self.plateau_values[1:-1] * np.diff(self.breakpoints), out=out[2:])
        return read_only(out)

    def mass_below(self, t) -> np.ndarray | float:
        """Exact integral of the profile over (-inf, t)."""
        t = np.asarray(t, dtype=float)
        bp = self.breakpoints
        k = bp.searchsorted(t, side="right")
        if bp.size == 0:  # no plateau term to clip t into
            return self._cum0[k]
        # The mass on plateau k below t, taken first so that its temporaries
        # are freed before cum0[k] is; t is clipped into the breakpoint range,
        # so that the zero end plateaus give 0.0 and not 0 * inf; a NaN t stays NaN.
        below = self.plateau_values[k] * (np.minimum(np.maximum(t, bp[0]), bp[-1]) - bp[k - 1])
        below += self._cum0[k]
        return below

    def window_masses(self, ends) -> np.ndarray | float:
        """Mass of each window (ends[0], ends[1]): ``ends`` holds the lower ends
        in row 0 and the upper ends in row 1, each lower end at or below its
        upper end.  It is the one way a window is read: one ``mass_below`` call,
        the upper row's mass minus the lower row's, so a window whose two ends
        round to one float gets 0.0."""
        below = self.mass_below(ends)
        return below[1] - below[0]

    # -- surgery ---------------------------------------------------------

    def zero_on(self, a: float, b: float) -> "ConcentrationProfile":
        """Profile with values replaced by zero on the open interval (a, b):
        the breakpoints in [a, b] are cut out, and a (b) stays a breakpoint
        where the plateau left of a (right of b) is not zero.

        The new arrays are spliced from the old ones at the two junctions and
        need none of the constructor's checks: bp[i0-1] < a < b < bp[i1], so
        the breakpoints still increase strictly; every plateau is an old one or
        the new zero, so the values stay nonnegative and the end plateaus zero
        (pv[0] is kept, and pv[n] is kept or the zero plateau is the last);
        a (b) is kept only next to a nonzero plateau, and the zero plateau is
        an entry of its own only between two nonzero ones, so no two
        neighbouring plateaus are equal."""
        bp, pv = self.breakpoints, self.plateau_values
        if not b > a or bp.size == 0:
            return self
        i0 = int(bp.searchsorted(a, side="left"))
        i1 = int(bp.searchsorted(b, side="right"))
        left, right = bool(pv[i0]), bool(pv[i1])  # the plateaus next to (a, b)
        new_bp = np.concatenate([bp[:i0], [x for x, on in ((a, left), (b, right)) if on],
                                 bp[i1:]])
        # pv[i0] (pv[i1]) is the zero plateau itself where it is zero; where
        # both are, the zero plateau is pv[i0] and pv[i1] goes
        new_pv = np.concatenate([pv[:i0 + 1], [0.0] if left and right else [],
                                 pv[i1 if left or right else i1 + 1:]])
        return object.__new__(ConcentrationProfile)._set(new_bp, new_pv, self.window)


def concentration_profile(u: GridFunction, domain: CellSet | None = None,
                          window: float = 1.0) -> ConcentrationProfile:
    """Exact concentration profile of u, optionally restricted to a domain.

    With a domain the profile is determined by the values of u inside it:
    gradient intervals come from interior non-crack faces of the domain, and
    traces are counted from inside only, on jump faces, on the domain edge
    and on the grid box.  Every interval carries the one face area as its
    weight, so the profile is one sort of the interval ends.
    """
    check_real("window", window)
    if domain is not None:
        require_same_geometry(u.geom, domain.geom)
        inside = domain.mask
    else:
        inside = np.ones(u.geom.shape, dtype=bool)
    lo, hi = [], []
    for axis in range(u.geom.dim):
        v_lo, v_hi = face_pairs(u.values, axis)
        in_lo, in_hi = face_pairs(inside, axis)
        both = in_lo & in_hi
        grad = both & ~u.crack_mask(axis) & (v_lo != v_hi)
        jump = both & u.jump_mask(axis)
        a, b = v_lo[grad], v_hi[grad]  # the two values across each gradient face
        lo.append(np.minimum(a, b))
        hi.append(np.maximum(a, b))
        for tr in (v_lo[jump], v_hi[jump],  # jump faces, the trace from below, then above
                   v_lo[in_lo & ~in_hi], v_hi[in_hi & ~in_lo],  # domain edges
                   u.values.take(0, axis=axis)[inside.take(0, axis=axis)],  # grid box faces
                   u.values.take(-1, axis=axis)[inside.take(-1, axis=axis)]):
            lo.append(tr - window)
            hi.append(tr + window)
    return ConcentrationProfile._from_ends(np.concatenate(lo), np.concatenate(hi),
                                           u.geom.face_area, window)


class _LevyScan:
    """Levy maximization at one radius over centers outside the keep-out
    intervals, kept current while windows of the profile are zeroed.

    Window mass is piecewise linear in the center, so the maximum over the
    allowed closed set sits at a breakpoint +- radius or on a keep-out edge.
    These candidates, minus those inside an open keep-out, form one sorted
    array ``centers``, and ``masses`` holds a score of each:
    ``mass_below(c + r) - mass_below(c - r)``, evaluated on the profile of
    the removal that last built the candidate.

    Zeroing (a, b) on a profile, canonical by construction, removes
    breakpoints only inside [a, b] and may add a and b, so every candidate
    it adds or removes, and the keep-out (lo, hi), lies in the zone
    [z_lo, z_hi] = [min(lo, fl(a - r)), max(hi, fl(b + r))] (rounding is
    monotone).  ``remove`` builds and scores the zone's candidates again and
    keeps every other mass as it is, because the real mass of its window,
    the exact integral between its two rounded query points, has not moved.
    A center c < z_lo has both query points at or below a, as
    fl(c + r) <= a (else c + r > a, so c >= fl(a - r)); a center c > z_hi
    has both at or above b, as fl(c - r) >= b (else c - r < b, so
    c <= fl(b + r)); and zeroing (a, b) changes the mass below a point by
    nothing at or below a and by the same amount at or above b.

    A stored mass keeps its rounding from an older profile, though, so it
    can differ from a fresh score by a few ulps of the total.  Each float
    score ``(cum0[k+] + term+) - (cum0[k-] + term-)`` is within
    (2n + 10) * eps * T of the real window mass: each ``cum0`` is a recursive
    sum of at most n nonnegative rounded products whose sum is at most T
    (Higham, Accuracy and Stability, section 4.2), each term a rounded
    product of at most T, and three more roundings join them, which gives
    (2n + 9) * u * T to first order, with u = eps / 2 the unit roundoff.
    Here T is the first total mass, which zeroing only lowers, and n bounds
    every breakpoint count the scan has held: the first count plus the
    number of edges, as a removal adds at most two breakpoints and exactly
    two edges.  A stored and a fresh score of one window are thus at most
    twice that apart, and ``slack`` is twice that again, a factor of 2 to
    spare.  ``best()`` scores afresh every candidate whose stored mass is
    within ``2 * slack`` of the stored maximum M: the fresh maximum F is at
    least M - slack, so every candidate scoring F afresh is stored at
    F - slack >= M - 2 * slack or more, and the fresh argmax over that set
    is the fresh argmax over all.

    ``remove`` replaces the arrays and the edge list instead of writing into
    them, and ``best()`` writes nothing, so a shallow copy of a scan is a
    scan of its own: extraction along an eps ladder scans the profile once
    and copies that scan where the greedy steps of its rungs part.
    """

    def __init__(self, f: ConcentrationProfile, radius: float):
        self.f = f
        self.radius = radius
        self.edges: list[float] = []  # keep-out (lo, hi) pairs, flattened
        self._pm = np.array([[-radius], [radius]])  # c + _pm: the window ends
        # n and T before any removal
        self._first = f.breakpoints.size, float(f.mass_below(np.inf))
        self.centers = self._candidates(-np.inf, np.inf)
        self.masses = self._score(self.centers)

    @property
    def slack(self) -> float:
        """Twice the bound on the gap between a stored and a fresh mass (see above)."""
        n, total = self._first
        n += len(self.edges)
        return 4 * (2 * n + 10) * float(np.finfo(float).eps) * total

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

    def _score(self, centers: np.ndarray) -> np.ndarray:
        """Window masses of ``centers`` on the current profile."""
        return self.f.window_masses(centers + self._pm)

    def best(self) -> tuple[float, float]:
        """Largest allowed window mass and its smallest maximizing center, with
        the bits of an argmax over masses scored afresh."""
        if self.f.breakpoints.size == 0:
            return 0.0, 0.0
        near = np.flatnonzero(self.masses >= self.masses.max() - 2 * self.slack)
        fresh = self._score(self.centers[near])
        j = int(fresh.argmax())  # centers ascend: the first maximum is the smallest
        return float(fresh[j]), float(self.centers[near[j]])

    def remove(self, a: float, b: float, lo: float, hi: float) -> None:
        """Zero the profile on (a, b) and keep centers out of (lo, hi)."""
        r = self.radius
        self.f = self.f.zero_on(a, b)
        self.edges = self.edges + [lo, hi]
        z_lo, z_hi = min(lo, a - r), max(hi, b + r)
        c0 = int(self.centers.searchsorted(z_lo, side="left"))
        c1 = int(self.centers.searchsorted(z_hi, side="right"))
        zone = self._candidates(z_lo, z_hi)
        self.centers = np.concatenate([self.centers[:c0], zone, self.centers[c1:]])
        self.masses = np.concatenate([self.masses[:c0], self._score(zone), self.masses[c1:]])


def levy_concentration(f: ConcentrationProfile, radius: float) -> tuple[float, float]:
    """Largest window mass at the given radius and its (smallest) maximizing
    center: the first ``best()`` of a Levy scan, before any zone is removed."""
    check_real("radius", radius)
    return _LevyScan(f, radius).best()


# -- derived views -----------------------------------------------------------


def profile_to_csv(f: ConcentrationProfile) -> str:
    """Step data as ``t,value`` rows; value holds immediately right of t."""
    lines = ["t,value"]
    for t, v in zip(f.breakpoints, f.plateau_values[1:]):
        lines.append(f"{float(t)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def profile_to_svg(f: ConcentrationProfile) -> str:
    """Minimal standalone SVG step plot of the profile."""
    sup = f.support()
    if sup is None:
        lo, hi, top = 0.0, 1.0, 1.0
    else:
        lo, hi = sup
        span = hi - lo
        lo, hi = lo - 0.05 * span, hi + 0.05 * span
        top = f.max_height() * 1.1
    pts = [(lo, 0.0)]
    for k, t in enumerate(f.breakpoints):
        pts.append((t, float(f.plateau_values[k])))
        pts.append((t, float(f.plateau_values[k + 1])))
    pts.append((hi, 0.0))
    return polyline_svg([(pts, "black", None)], (lo, hi, top), pad=30)


def polyline_svg(lines, box: tuple[float, float, float], pad: int) -> str:
    """Standalone 640 x 240 SVG of ``(points, colour, label)`` polylines on white
    over a gray baseline ``pad`` above the bottom.  ``box = (lo, hi, top)``: the
    points' x from lo to hi and y from 0 to top span the plot inside ``pad``.  A
    label (None for none) is written in its line's colour, one row per line from
    the top left."""
    width, height = 640, 240
    lo, hi, top = box
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    for k, (points, color, label) in enumerate(lines):
        path = " ".join(f"{pad + (x - lo) / (hi - lo) * (width - 2 * pad):.2f},"
                        f"{height - pad - y / top * (height - 2 * pad):.2f}" for x, y in points)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if label is not None:
            parts.append(f'<text x="{pad}" y="{14 + 14 * k}" font-size="11" '
                         f'fill="{color}">{label}</text>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="gray"/></svg>\n')
    return "".join(parts)
