"""Exact rational references built from definitions, in ``fractions.Fraction``.

Each function reads plain inputs (cell values, crack and domain masks,
spacing, window, radius) and follows a definition the package states in its
docs, not the package's algorithm.  On dyadic inputs every float operation of
the package is exact, so its results must equal these with ``==``.
"""

from __future__ import annotations

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
