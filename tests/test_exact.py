"""The float profile, Levy maximum, window growth, bubble extraction,
trichotomy verdict and radius choice against the exact rational reference.

On dyadic inputs (spacing 2^-k, values in quarters, window, radii and
gap_delta in {0.25, 0.5, 1}, eps a power of two) every float sum and product
the package forms is exact, so its results must equal the reference with
``==``, not within a tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

import _exact
from crackgrid.bubbles import Bubble, _grow_window, classify, extract_bubbles
from crackgrid.grid import CellSet, GridFunction, GridGeometry
from crackgrid.partition import RadiusChoice, select_radii
from crackgrid.profile import concentration_profile, levy_concentration

RADII = (0.25, 0.5, 1.0)


def dyadic_input(rng: np.random.Generator):
    """1D or 2D grid of at most 8 cells a side, values in quarters, random
    cracks and, one time in three, a random domain."""
    shape = tuple(int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 3))))
    spacing = 2.0 ** -int(rng.integers(0, 4))
    values = rng.integers(-8, 9, size=shape) / 4
    geom = GridGeometry((0.0,) * len(shape), spacing, shape)
    cracks = [rng.random(geom.face_shape(axis)) < 0.4 for axis in range(len(shape))]
    inside = rng.random(shape) < 0.7 if rng.random() < 1 / 3 else None
    window = float(rng.choice([0.25, 0.5, 1.0]))
    return GridFunction(geom, values, cracks), inside, window


def test_profile_and_levy_equal_the_exact_reference():
    rng = np.random.default_rng(1984)
    seen = Counter()
    for _ in range(120):
        u, inside, window = dyadic_input(rng)
        domain = None if inside is None else CellSet(u.geom, inside)
        f = concentration_profile(u, domain=domain, window=window)
        terms = _exact.profile_terms(
            u.values, [u.crack_mask(axis) for axis in range(u.geom.dim)],
            np.ones(u.geom.shape, dtype=bool) if inside is None else inside,
            u.geom.spacing, window)
        bp, pv = _exact.step_function(terms)
        assert f.breakpoints.tolist() == [float(t) for t in bp]
        assert f.plateau_values.tolist() == [float(v) for v in pv]
        assert f.window == window
        assert f.total_mass() == float(sum(v * (b - a) for a, b, v in zip(bp, bp[1:], pv[1:])))
        for radius in RADII:
            mass, center = _exact.levy_maximum(bp, pv, radius)
            assert levy_concentration(f, radius) == (float(mass), float(center))
        seen[f"{u.geom.dim}D"] += 1
        seen["domain"] += domain is not None
        seen["empty"] += not bp
        # some sum of terms has equal neighbouring plateaus the merge removed
        seen["merged"] += len(bp) < len({t for pair in terms for t in pair})
    assert min(seen[k] for k in ("1D", "2D", "domain", "empty", "merged")) >= 2, seen


def exact_profile(u, inside, window):
    terms = _exact.profile_terms(
        u.values, [u.crack_mask(axis) for axis in range(u.geom.dim)],
        np.ones(u.geom.shape, dtype=bool) if inside is None else inside,
        u.geom.spacing, window)
    return _exact.Step(*_exact.step_function(terms))


def test_window_growth_and_leakage_equal_the_exact_reference():
    rng = np.random.default_rng(2025)
    seen = Counter()
    for _ in range(120):
        u, inside, window = dyadic_input(rng)
        domain = None if inside is None else CellSet(u.geom, inside)
        f = concentration_profile(u, domain=domain, window=window)
        F = exact_profile(u, inside, window)
        eps = float(rng.choice([0.0625, 0.125, 0.25]))
        gap_delta, ref_radius = (float(x) for x in rng.choice([0.25, 0.5, 1.0], size=2))
        # the whole extraction: centers, growth, captured and removed masses
        dec = extract_bubbles(f, eps=eps, gap_delta=gap_delta, ref_radius=ref_radius)
        found, rest = _exact.extract(F, eps, gap_delta, ref_radius)
        found.sort(key=lambda b: (-b[3], b[0]))
        assert [(b.center, b.inner_radius, b.outer_radius, b.mass) for b in dec.bubbles] == \
            [tuple(float(x) for x in b[:4]) for b in found]
        assert list(dec.leakages) == [float(b[4] - b[3]) for b in found]
        assert list(dec.capped) == [b[5] for b in found]
        assert dec.remainder.breakpoints.tolist() == [float(t) for t in rest.bp]
        assert dec.remainder.plateau_values.tolist() == [float(v) for v in rest.pv]
        assert dec.vanishing_score == float(_exact.levy_maximum(rest.bp, rest.pv, ref_radius)[0])
        # one growth from a dyadic center, under a cap and beside zones or not
        if F.bp:
            center = F.bp[int(rng.integers(len(F.bp)))] + Fraction(int(rng.integers(-4, 5)), 4)
            leak = F.cum[-1] * Fraction(1, int(rng.choice([4, 8, 16, 32])))
            cap = None if rng.random() < 0.5 else Fraction(int(rng.integers(1, 17)), 4)
            zones = []
            for side in (-1, 1):  # a unit-wide zone some quarters away on this side, or none
                d = Fraction(int(rng.integers(1, 13)), 4)
                if rng.random() < 0.5:
                    zones.append(tuple(sorted((center + side * d, center + side * (d + 1)))))
            got = _grow_window(f, float(center), ref_radius, gap_delta, float(leak),
                               radius_cap=math.inf if cap is None else float(cap),
                               zones=[(float(a), float(b)) for a, b in zones])
            want = _exact.grow_window(F, center, Fraction(ref_radius), Fraction(gap_delta),
                                      leak, cap, zones)
            assert got == tuple(float(x) if not isinstance(x, bool) else x for x in want)
            seen["capped growth"] += want[2]
            seen["grown past ref_radius"] += want[0] > Fraction(ref_radius)
            # the strip rule binds: beside the zones, the uncapped growth goes further
            beside, alone = (_exact.grow_window(F, center, Fraction(ref_radius),
                                                Fraction(gap_delta), leak, None, z)
                             for z in (zones, ()))
            seen["strip grew the window"] += beside != alone
        seen["bubbles"] += len(found)
        seen["several bubbles"] += len(found) > 1
        seen["capped bubble"] += any(b[5] for b in found)
        seen["leak"] += any(b[4] > b[3] for b in found)
    assert min(seen[k] for k in ("capped growth", "grown past ref_radius", "several bubbles",
                                 "capped bubble", "leak", "strip grew the window")) >= 2, seen


def test_classify_equals_the_exact_reference():
    rng = np.random.default_rng(1983)
    seen = Counter()
    for _ in range(120):
        u, inside, window = dyadic_input(rng)
        domain = None if inside is None else CellSet(u.geom, inside)
        f = concentration_profile(u, domain=domain, window=window)
        F = exact_profile(u, inside, window)
        gap_delta, ref_radius = (float(x) for x in rng.choice([0.25, 0.5, 1.0], size=2))
        for eps in (0.125, 0.25):
            v = classify(f, eps=eps, ref_radius=ref_radius, gap_delta=gap_delta)
            kind, witness, split, total = _exact.classify(F, eps, gap_delta, ref_radius)
            assert (v.kind, v.total) == (kind, float(total))
            assert v.witness == (None if witness is None else Bubble(*map(float, witness)))
            assert v.split_masses == (None if split is None else tuple(map(float, split)))
            seen[kind] += 1
    assert min(seen[k] for k in ("compactness", "dichotomy", "vanishing")) >= 10, seen


def test_select_radii_equals_the_exact_reference():
    rng = np.random.default_rng(2501)
    seen = Counter()
    for _ in range(80):
        u, inside, window = dyadic_input(rng)
        domain = None if inside is None else CellSet(u.geom, inside)
        f = concentration_profile(u, domain=domain, window=window)
        F = exact_profile(u, inside, window)
        if not F.bp:
            continue
        base = float(rng.choice(RADII))
        dec = extract_bubbles(f, eps=0.125, gap_delta=1.0, ref_radius=base)
        # the extracted centers, then dyadic ones on, beside and beyond the support
        centers = [b.center for b in dec.bubbles] + [
            float(F.bp[int(rng.integers(len(F.bp)))] + Fraction(int(k), 8))
            for k in rng.integers(-24, 25, size=3)]
        got = select_radii(f, [RadiusChoice(c, 1.0, 1.0, 0.0, 0.0) for c in centers], base)
        want = _exact.select_radii(F.bp, F.pv, centers, base, window)
        assert [(c.center, c.r_minus, c.r_plus, c.achieved, c.interval_average) for c in got] \
            == [(float(c), float(r), float(r), float(v), float(a)) for c, r, v, a, _ in want]
        seen["extracted"] += len(dec.bubbles)
        seen[f"{u.geom.dim}D"] += 1
        for *_, least, average, values in want:
            seen["below average"] += least < average
            seen["past the first plateau"] += values[0] != least
            seen["tied least plateaus"] += values.count(least) > 1
            # a cut where two terms change in opposite ways: equal neighbours stay apart
            seen["equal neighbours"] += any(a == b for a, b in zip(values, values[1:]))
    assert min(seen.values()) >= 5, seen
