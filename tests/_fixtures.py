"""Shared random-fixture builders for the test suite (seeded, deterministic)."""

from __future__ import annotations

import numpy as np

from crackgrid.fixtures import fixture_staircase
from crackgrid.grid import CellSet, FaceId, GridFunction, GridGeometry
from crackgrid.profile import ConcentrationProfile, concentration_profile


def all_interior_faces(geom: GridGeometry) -> list[FaceId]:
    faces = []
    for axis in range(geom.dim):
        shp = list(geom.shape)
        shp[axis] -= 1
        for idx in np.ndindex(*shp):
            faces.append(FaceId(axis, tuple(int(i) for i in idx)))
    return faces


def random_fixture(rng: np.random.Generator, dim: int | None = None,
                   max_1d: int = 1024, max_2d: int = 64) -> GridFunction:
    """Random grid function with a mix of smooth variation and random cracks."""
    if dim is None:
        dim = int(rng.integers(1, 3))
    if dim == 1:
        shape = (int(rng.integers(4, max_1d + 1)),)
    else:
        shape = (int(rng.integers(3, max_2d + 1)), int(rng.integers(3, max_2d + 1)))
    spacing = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
    origin = tuple(float(rng.integers(-4, 5)) for _ in range(dim))
    geom = GridGeometry(origin, spacing, shape)
    kind = rng.integers(0, 3)
    if kind == 0:
        values = rng.normal(0.0, 2.0, size=shape)
    elif kind == 1:
        values = rng.integers(-5, 12, size=shape).astype(float)
    else:
        values = np.round(rng.normal(0.0, 3.0, size=shape) * 4) / 4
    faces = all_interior_faces(geom)
    n_cracks = int(rng.integers(0, max(1, len(faces) // 6) + 1))
    idx = rng.choice(len(faces), size=min(n_cracks, len(faces)), replace=False)
    cracks = [faces[i] for i in idx]
    return GridFunction(geom, values, cracks)


def random_mask(rng: np.random.Generator, geom: GridGeometry, p: float = 0.5) -> CellSet:
    return CellSet(geom, rng.random(geom.shape) < p)


def jumpy_fixture(rng: np.random.Generator, shape=(16, 16), spacing: float = 0.25,
                  levels: int = 5) -> GridFunction:
    """2D function piecewise constant on random blobs, with every level change cracked.

    All value changes sit on crack faces, so the jump set carries the whole
    variation (no gradient term).
    """
    geom = GridGeometry((0.0, 0.0), spacing, shape)
    labels = rng.integers(0, levels, size=shape)
    values = labels.astype(float) * float(rng.integers(1, 4))
    cracks = []
    for axis in range(2):
        d = np.diff(values, axis=axis)
        for idx in np.argwhere(d != 0):
            cracks.append(FaceId(axis, tuple(int(i) for i in idx)))
    return GridFunction(geom, values, cracks)


def dyadic_profile(rng: np.random.Generator, n_clusters: int) -> ConcentrationProfile:
    """Sum of plateaus with dyadic ends and heights in n_clusters groups, some
    groups close enough to interact; runs of equal plateaus give flat-topped
    window masses, hence ties."""
    rows, pos = [], 0.0
    height, width = 0.5, 1.0
    for _ in range(n_clusters):
        pos += float(rng.integers(0, 48)) / 8
        if rng.random() < 0.5:
            height, width = float(rng.integers(1, 64)) / 64, float(rng.integers(2, 16)) / 8
        rows.append((pos, pos + width, height))
        if rng.random() < 0.3:
            rows.append((pos + width / 4, pos + width / 2, height))
        pos += width
    return ConcentrationProfile.from_intervals(rows)


def grid_profile(rng: np.random.Generator) -> ConcentrationProfile:
    """Profile of a small random grid function at spacing 0.1, 1/3 or 0.25,
    sometimes on a random domain."""
    v = random_fixture(rng, max_1d=64, max_2d=10) if rng.random() < 0.6 else \
        jumpy_fixture(rng, shape=(8, 8))
    geom = GridGeometry(v.geom.origin, float(rng.choice([0.1, 1 / 3, 0.25])), v.geom.shape)
    u = GridFunction.from_masks(geom, v.values, [v.crack_mask(a) for a in range(geom.dim)])
    domain = random_mask(rng, geom, 0.7) if rng.random() < 0.3 else None
    return concentration_profile(u, domain, float(rng.choice([1.0, 1 / 3, 0.5])))


def split_plateaus(rng: np.random.Generator, f: ConcentrationProfile) -> ConcentrationProfile:
    """The same step function with up to five redundant breakpoints (a plateau,
    possibly an unbounded zero one, cut in two equal halves): not canonical."""
    bp, pv = f.breakpoints.tolist(), f.plateau_values.tolist()
    for _ in range(int(rng.integers(1, 6))):
        if not bp:
            break
        i = int(rng.integers(0, len(bp) + 1))
        lo = bp[i - 1] if i > 0 else bp[0] - 2.0
        hi = bp[i] if i < len(bp) else bp[-1] + 2.0
        x = lo + (hi - lo) * float(rng.integers(1, 8)) / 8
        if lo < x < hi:
            bp.insert(i, x)
            pv.insert(i, pv[i])
    return ConcentrationProfile(np.array(bp), np.array(pv), f.window)


def random_profile(rng: np.random.Generator) -> ConcentrationProfile:
    """A dyadic, grid or staircase profile; about a third are not canonical."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        f = dyadic_profile(rng, int(rng.integers(2, 26)))
    elif kind == 1:
        f = grid_profile(rng)
    else:
        f = concentration_profile(fixture_staircase(int(rng.integers(2, 20))))
    return split_plateaus(rng, f) if rng.random() < 0.3 else f
