"""Shared random-fixture builders for the test suite (seeded, deterministic)
and the in-process CLI runner."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

import numpy as np

from crackgrid.analysis import bubble_partition
from crackgrid.fixtures import fixture_staircase
from crackgrid.grid import CellSet, GridFunction, GridGeometry, crack_masks_from_rows
from crackgrid.profile import ConcentrationProfile, concentration_profile, levy_concentration


def all_interior_faces(geom: GridGeometry) -> list[tuple[int, ...]]:
    """Every interior face as an ``(axis, *cell)`` crack row."""
    faces = []
    for axis in range(geom.dim):
        shp = list(geom.shape)
        shp[axis] -= 1
        for idx in np.ndindex(*shp):
            faces.append((axis, *(int(i) for i in idx)))
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
    return GridFunction(geom, values, crack_masks_from_rows(geom, cracks))


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
    return GridFunction(geom, values, [np.diff(values, axis=axis) != 0 for axis in range(2)])


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
    u = GridFunction(geom, v.values, [v.crack_mask(a) for a in range(geom.dim)])
    domain = random_mask(rng, geom, 0.7) if rng.random() < 0.3 else None
    return concentration_profile(u, domain, float(rng.choice([1.0, 1 / 3, 0.5])))


def split_plateaus(rng: np.random.Generator, f: ConcentrationProfile) -> ConcentrationProfile:
    """``f`` built again from arrays with up to five redundant breakpoints (a
    plateau, possibly an unbounded zero one, cut in two equal halves).  The
    construction merges them: the result has ``f``'s arrays byte for byte and
    the same masses and Levy maxima."""
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
    g = ConcentrationProfile(np.array(bp), np.array(pv), f.window)
    assert g.breakpoints.tobytes() == f.breakpoints.tobytes()
    assert g.plateau_values.tobytes() == f.plateau_values.tobytes()
    ts = np.array(bp + [-np.inf, np.inf])
    assert g.mass_below(ts).tobytes() == f.mass_below(ts).tobytes()
    assert g.total_mass() == f.total_mass()
    for radius in (0.25, 1 / 3, 1.0):
        assert levy_concentration(g, radius) == levy_concentration(f, radius)
    return g


def random_profile(rng: np.random.Generator) -> ConcentrationProfile:
    """A dyadic, grid or staircase profile; about a third are built again from
    split plateaus, which checks that construction merges them."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        f = dyadic_profile(rng, int(rng.integers(2, 26)))
    elif kind == 1:
        f = grid_profile(rng)
    else:
        f = concentration_profile(fixture_staircase(int(rng.integers(2, 20))))
    return split_plateaus(rng, f) if rng.random() < 0.3 else f


def cluster_plate(rng: np.random.Generator, clusters: int = 20, blocks: int = 5,
                  block: int = 4, spacing: float = 8.0, noise: float = 0.05) -> GridFunction:
    """A square plate of ``blocks`` x ``blocks`` blocks of ``block`` cells, each
    block on one of ``clusters`` values ``spacing`` apart plus N(0, noise)
    noise, with cracks on the block edges: the multi-bubble plate's shape at
    a smaller size.  Clusters own equally many blocks, give or take one."""
    side = blocks * block
    geom = GridGeometry((0.0, 0.0), 1.0 / side, (side, side))
    owner = rng.permutation(np.arange(blocks * blocks) % clusters).reshape(blocks, blocks)
    values = spacing * np.kron(owner, np.ones((block, block))) \
        + rng.normal(0.0, noise, size=(side, side))
    block_id = np.kron(np.arange(blocks * blocks).reshape(blocks, blocks),
                       np.ones((block, block), dtype=int))
    return GridFunction(geom, values, [np.diff(block_id, axis=axis) != 0 for axis in range(2)])


def empty_profile(window: float = 1.0) -> ConcentrationProfile:
    """The zero profile: no breakpoints, one zero plateau."""
    return ConcentrationProfile(np.empty(0), np.zeros(1), window)


def staircase_pipeline(n, eps=0.1, ref=1.0, gap=2.0, w=1.0):
    """The staircase fixture, its profile at window ``w``, and its
    ``bubble_partition`` at ``w``: ``(u, f, decomposition, radii, partition)``."""
    u = fixture_staircase(n)
    dec, radii, part = bubble_partition(u, eps, ref, gap, window=w)
    return u, concentration_profile(u, window=w), dec, radii, part


def run_cli(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """``crackgrid.cli.main(argv)`` in this process with stdin, stdout and
    stderr redirected: its exit code (argparse's ``SystemExit`` read as one)
    and its output text, as a child process would report them."""
    from crackgrid.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return subprocess.CompletedProcess(list(argv), code, out.getvalue(), err.getvalue())
