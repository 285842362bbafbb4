"""Exact rational references built from definitions, in ``fractions.Fraction``.

Each function reads plain inputs (cell values, crack and domain masks,
spacing, window, radius) and follows a definition the package states in its
docs, not the package's algorithm.  On dyadic inputs every float operation of
the package is exact, so its results must equal these with ``==``.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from fractions import Fraction

import numpy as np


def profile_terms(values: np.ndarray, cracks, inside: np.ndarray, spacing: float,
                  window: float) -> Counter:
    """The profile as ``{(lo, hi): weight}`` indicator terms, face by face, by
    the trace counting rules of ``crackgrid.profile``'s module docstring.

    Face ``i`` along an axis lies between cells ``i - 1`` and ``i``, so faces
    ``0`` and ``n`` are box faces; ``cracks[axis]`` is indexed by the lower
    cell of an interior face."""
    shape, dim = values.shape, values.ndim
    area = Fraction(spacing) ** (dim - 1)
    w = Fraction(window)
    terms: Counter = Counter()
    for axis in range(dim):
        faces = itertools.product(*(range(n + (k == axis)) for k, n in enumerate(shape)))
        for face in faces:
            lower = face[:axis] + (face[axis] - 1,) + face[axis + 1:]
            lo_in = face[axis] > 0 and bool(inside[lower])
            hi_in = face[axis] < shape[axis] and bool(inside[face])
            if lo_in and hi_in:
                a, b = Fraction(values[lower]), Fraction(values[face])
                if a == b:  # no gradient, and a healed crack carries nothing
                    continue
                if cracks[axis][lower]:  # a jump: one window per side
                    terms[(a - w, a + w)] += area
                    terms[(b - w, b + w)] += area
                else:  # the gradient interval between the two values
                    terms[(min(a, b), max(a, b))] += area
            elif lo_in or hi_in:  # domain edge or box face: a window from inside
                v = Fraction(values[lower if lo_in else face])
                terms[(v - w, v + w)] += area
    return terms


def step_function(terms: Counter) -> tuple[list[Fraction], list[Fraction]]:
    """Breakpoints and plateau values (the two zero end plateaus included) of
    the sum of ``weight * indicator((lo, hi))``, each plateau summed over the
    terms covering it, with equal neighbouring plateaus merged."""
    ends = sorted({t for pair in terms for t in pair})
    heights = [sum((wt for (lo, hi), wt in terms.items() if lo <= a and b <= hi), Fraction(0))
               for a, b in zip(ends, ends[1:])]
    bp, pv = [], [Fraction(0)]
    for t, v in zip(ends, heights + [Fraction(0)]):
        if v != pv[-1]:
            bp.append(t)
            pv.append(v)
    return bp, pv


def window_mass(bp, pv, center: Fraction, radius: Fraction) -> Fraction:
    """Integral of the step function over (center - radius, center + radius)."""
    lo, hi = center - radius, center + radius
    return sum((v * max(Fraction(0), min(b, hi) - max(a, lo))
                for a, b, v in zip(bp, bp[1:], pv[1:])), Fraction(0))


def levy_maximum(bp, pv, radius: float) -> tuple[Fraction, Fraction]:
    """Largest window mass at ``radius`` and its smallest maximizing center,
    by brute force over the centers ``breakpoint +- radius``, where the
    piecewise-linear window mass has its kinks; ``(0, 0)`` with no breakpoint."""
    r = Fraction(radius)
    centers = sorted({t + s for t in bp for s in (-r, r)})
    best = (Fraction(0), Fraction(0))
    for i, c in enumerate(centers):
        m = window_mass(bp, pv, c, r)
        if i == 0 or m > best[0]:
            best = (m, c)
    return best


class Step:
    """The step function ``(bp, pv)`` with its running integral: ``cum[j]`` is
    the mass below ``bp[j]``, so a mass is one bisection."""

    def __init__(self, bp, pv):
        self.bp, self.pv = list(bp), list(pv)
        self.cum = [Fraction(0)]
        for a, b, v in zip(self.bp, self.bp[1:], self.pv[1:]):
            self.cum.append(self.cum[-1] + v * (b - a))

    def below(self, t: Fraction) -> Fraction:
        """Integral over (-inf, t)."""
        k = bisect.bisect_right(self.bp, t)
        return self.cum[k - 1] + self.pv[k] * (t - self.bp[k - 1]) if k else Fraction(0)

    def integral(self, a: Fraction, b: Fraction) -> Fraction:
        """Integral over (a, b), zero unless a < b."""
        return self.below(b) - self.below(a) if b > a else Fraction(0)

    def zeroed(self, a: Fraction, b: Fraction) -> "Step":
        """The function set to zero on (a, b), equal neighbouring plateaus merged."""
        ends = sorted(set(self.bp) | {a, b})
        bp, pv = [], [Fraction(0)]
        for lo, hi in zip(ends, ends[1:] + [ends[-1] + 1]):
            mid = (lo + hi) / 2
            v = Fraction(0) if a < mid < b else self.pv[bisect.bisect_right(self.bp, mid)]
            if v != pv[-1]:
                bp.append(lo)
                pv.append(v)
        return Step(bp, pv)


def grow_window(F: Step, center: Fraction, ref_radius: Fraction, gap_delta: Fraction,
                leak: Fraction, cap: Fraction | None = None, zones=()) -> tuple:
    """``(inner, outer, capped)`` by the growth rule of ``bubbles._grow_window``:
    the first ``R = ref_radius + j * gap_delta`` with ``R + gap_delta`` within
    ``cap`` (None: no cap) whose annulus ``(R, R + gap_delta)`` on either side
    holds at most ``leak``, and whose window ``center +- (R + gap_delta)`` leaves
    no strip narrower than ``2 * ref_radius`` holding more than ``leak``
    between its edge and the nearest zone ``(lo, hi)`` on that side; the last
    ``R`` the cap allows, capped, if there is none."""
    R = ref_radius
    while cap is None or R + gap_delta <= cap:
        lo, hi = center - R - gap_delta, center + R + gap_delta
        annulus = F.integral(lo, hi) - F.integral(center - R, center + R)
        left = [z_hi for _, z_hi in zones if z_hi <= lo]
        right = [z_lo for z_lo, _ in zones if z_lo >= hi]
        strips = ([(max(left), lo)] if left else []) + ([(hi, min(right))] if right else [])
        if annulus <= leak and not any(0 < b - a < 2 * ref_radius and F.integral(a, b) > leak
                                       for a, b in strips):
            return R, R + gap_delta, False
        R += gap_delta
    return R, R + gap_delta, True


def extract(F: Step, eps: float, gap_delta: float, ref_radius: float,
            max_bubbles: int | None = None):
    """The greedy extraction ``bubbles.extract_bubbles`` describes, in
    extraction order: ``([(center, inner, outer, captured, removed, capped)],
    remainder)``, of at most ``max_bubbles`` bubbles (None: no limit).  Each center is the smallest maximizer of the window mass
    at ``ref_radius`` over the centers outside every open keep-out
    ``center_i +- (inner_i + ref_radius + gap_delta)``, by brute force over the
    kinks ``breakpoint +- ref_radius`` and the keep-out edges; extraction stops
    once that mass is at most ``eps`` times the total mass.  Each window grows
    by :func:`grow_window`, capped so that the separation
    ``inner_i + inner + gap_delta`` holds and against the zones removed so
    far, and its outer window is then zeroed."""
    r, g = Fraction(ref_radius), Fraction(gap_delta)
    threshold = Fraction(eps) * F.cum[-1]
    found, keep_out = [], []
    while F.bp and (max_bubbles is None or len(found) < max_bubbles):
        edges = [t for pair in keep_out for t in pair]
        centers = sorted(c for c in {t + s for t in F.bp for s in (-r, r)} | set(edges)
                         if not any(lo < c < hi for lo, hi in keep_out))
        mass, center = max((F.integral(c - r, c + r), -c) for c in centers)
        center = -center
        if mass <= threshold:
            break
        caps = [abs(center - c) - inner - g for c, inner, *_ in found]
        zones = [(c - outer, c + outer) for c, _, outer, *_ in found]
        inner, outer, capped = grow_window(F, center, r, g, threshold,
                                           min(caps) if caps else None, zones)
        found.append((center, inner, outer, F.integral(center - inner, center + inner),
                      F.integral(center - outer, center + outer), capped))
        keep_out.append((center - inner - r - g, center + inner + r + g))
        F = F.zeroed(center - outer, center + outer)
    return found, F


def classify(F: Step, eps: float, gap_delta: float, ref_radius: float):
    """The trichotomy verdict ``bubbles.classify`` states, as ``(kind, witness,
    split, total)``: vanishing when the largest window mass at ``ref_radius``
    is at most ``eps`` times the total mass (always for the zero function),
    compactness when it is at least ``1 - eps`` times it, dichotomy otherwise.
    The witness is the first bubble of :func:`extract`, ``(center, inner,
    outer, captured)``, and the split its captured mass and the rest."""
    total, e = F.cum[-1], Fraction(eps)
    m_star = levy_maximum(F.bp, F.pv, ref_radius)[0]
    if m_star <= e * total:
        return "vanishing", None, None, total
    witness = extract(F, eps, gap_delta, ref_radius, max_bubbles=1)[0][0][:4]
    if m_star >= (1 - e) * total:
        return "compactness", witness, None, total
    return "dichotomy", witness, (witness[3], total - witness[3]), total


def select_radii(bp, pv, centers, base_radius: float, window: float) -> list[tuple]:
    """``(center, radius, achieved, average, plateau values)`` per center, by the rule
    ``partition.select_radii`` states: the objective ``g(r) = f(c - r) + f(c + r)
    + f(c - r - w) + f(c + r + w)`` on ``[base, base + w)`` is constant between
    consecutive cut radii, where one of its four levels meets a breakpoint; the
    radius is the midpoint of the leftmost such plateau of least value (two
    terms that change in opposite ways at one cut still leave two plateaus, so
    no level sits on a breakpoint), and the average is that of g over the
    interval.  The plateau values are listed left to right."""
    w, lo = Fraction(window), Fraction(base_radius)
    hi = lo + w

    def f(t: Fraction) -> Fraction:
        return pv[bisect.bisect_right(bp, t)]

    out = []
    for c in map(Fraction, centers):
        levels = (lambda r: c - r, lambda r: c + r, lambda r: c - r - w, lambda r: c + r + w)
        cuts = {lo, hi} | {r for b in bp for r in (c - b, b - c, c - w - b, b - c - w)
                           if lo < r < hi}
        points = sorted(cuts)
        plateaus = [((a + b) / 2, b - a) for a, b in zip(points, points[1:])]
        values = [sum(f(level(mid)) for level in levels) for mid, _ in plateaus]
        k = values.index(min(values))
        average = sum(v * length for v, (_, length) in zip(values, plateaus)) / w
        out.append((c, plateaus[k][0], values[k], average, values))
    return out
