"""The float profile and Levy maximum against the exact rational reference.

On dyadic inputs (spacing 2^-k, values in quarters, window and radius in
{0.25, 0.5, 1}) every float sum and product the package forms is exact, so
its results must equal the reference with ``==``, not within a tolerance.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import _exact
from crackgrid.grid import CellSet, GridFunction, GridGeometry
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
