"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _fixtures import all_interior_faces, jumpy_fixture, random_fixture
from _oracles import upper_cell
from crackgrid.analysis import bubble_partition, lsc_report, vanishing_certificate
from crackgrid.bubbles import extract_bubbles, track_sequence
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    boundary_outside_jump,
    crack_masks_from_rows,
    energy,
    kyfan_distance,
    level_set,
)
from crackgrid.partition import renormalize, vanishing_region
from crackgrid.profile import (
    ConcentrationProfile,
    concentration_profile,
    jump_boundary_measure,
    levy_concentration,
)

TOL = 1e-12


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail and not ok:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def staircase_pipeline(n, eps=0.1, ref=1.0, gap=2.0, w=1.0, cells_per_step=1):
    u = fixture_staircase(n, cells_per_step=cells_per_step)
    f = concentration_profile(u, window=w)
    dec, radii, part = bubble_partition(u, f, eps, ref, gap)
    return u, f, dec, radii, part


def test_criterion_01_staircase_jump_measure():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 4, 16, 64):
        rep = energy(fixture_staircase(n), p=2.0)
        ok &= abs(rep.jump - (3 - 1 / n)) <= TOL
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, f"staircase jump = 3 - 1/n for n in (2,4,16,64) ({elapsed:.3f}s)", ok)


def test_criterion_02_staircase_decomposition():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in (16, 64):
        u = fixture_staircase(n)
        f = concentration_profile(u, window=1.0)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        centers = sorted(b.center for b in dec.bubbles)
        if len(dec.bubbles) != 2:
            ok, detail = False, f"n={n}: {len(dec.bubbles)} bubbles"
            continue
        ok &= abs(centers[0] - 0.0) <= 1.0
        ok &= abs(centers[1] - (n + 1)) <= 1.0
        ok &= dec.remainder.total_mass() >= 3 - 1 / n - 0.2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(2, f"staircase decomposition: 2 bubbles at 0 and n+1 ({elapsed:.3f}s)",
            ok, detail)


def test_criterion_03_staircase_vanishing():
    scores = {}
    ok = True
    for n in (16, 64):
        u = fixture_staircase(n)
        f = concentration_profile(u, window=1.0)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        scores[n] = levy_concentration(dec.remainder, 1.0)[0]
        region = vanishing_region(u, dec.bubbles, radius=1.0)
        ok &= region.volume() == 1.0 / n
        region_prof = concentration_profile(u, domain=region, window=1.0)
        eps_cert = levy_concentration(region_prof, 1.0)[0]
        cert = vanishing_certificate(u, region, eps=eps_cert, radius=1.0)
        ok &= cert.measured_volume <= cert.bound + TOL
    ok &= scores[64] <= scores[16] / 3
    _report(3, "staircase vanishing: 1/n levy decay, strip volume 1/n, certificates",
            ok, f"scores={scores}")


def test_criterion_04_runaway_pipeline():
    t0 = time.perf_counter()
    ok = True
    decs, seq, renorms = [], [], []
    for n in (10.0, 100.0, 1000.0):
        u = fixture_runaway(n)
        seq.append(u)
        f = concentration_profile(u, window=1.0)
        dec, _, part = bubble_partition(u, f, 0.1, 1.0, 2.0)
        decs.append(dec)
        renorms.append(renormalize(u, part))
    zero = seq[0].with_values(np.zeros(seq[0].geom.shape))
    ok &= all(kyfan_distance(w, zero) == 0.0 for w in renorms)
    lsc = lsc_report(seq, renorms[-1])
    ok &= lsc.limit_directional == (0.0, 0.0)
    ok &= lsc.total_margin == 1.0
    tracks = track_sequence(decs)
    sep = tracks.separations[(0, 1)]
    ok &= sep == (10.0, 100.0, 1000.0)
    ok &= tracks.trends[(0, 1)] == "increasing"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(4, f"runaway pipeline: zero renormalization, LSC margin, separations "
               f"({elapsed:.3f}s)", ok)


def test_criterion_05_discrete_coarea():
    rng = np.random.default_rng(505)
    ok = True
    worst = 0.0
    for _ in range(50):
        u = random_fixture(rng, max_1d=1024, max_2d=64)
        area = u.geom.face_area
        rhs = 0.0
        for axis in range(u.geom.dim):
            d = np.abs(u.face_delta(axis))
            rhs += float(np.sum(d[~u.crack_mask(axis)])) * area
        levels = np.unique(u.values)
        lhs = 0.0
        for a, b in zip(levels, levels[1:]):
            mid = 0.5 * (a + b)
            lhs += boundary_outside_jump(level_set(u, mid), u) * (b - a)
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, err)
        ok &= err <= TOL
    _report(5, f"discrete coarea identity on 50 random fixtures (worst {worst:.2e})", ok)


def test_criterion_06_sandwich_lower_bound():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(50):
        u = random_fixture(rng, max_1d=1024, max_2d=64)
        f = concentration_profile(u, window=1.0)
        ok &= jump_boundary_measure(u) <= f.total_mass() + TOL
    _report(6, "trace-window tiling: jump+boundary measure <= profile mass", ok)


def _contract_fixtures():
    for n in (2, 4, 16, 64):
        yield fixture_staircase(n)
    for n in (10.0, 100.0, 1000.0):
        yield fixture_runaway(n)
    rng = np.random.default_rng(707)
    for _ in range(5):
        u = jumpy_fixture(rng, shape=(12, 12), spacing=0.25)
        yield u.with_values(u.values * 12.0)


def test_criterion_07_renormalization_contracts():
    ok = True
    for u in _contract_fixtures():
        f = concentration_profile(u, window=1.0)
        _, radii, part = bubble_partition(u, f, 0.1, 1.0, 2.0)
        w = renormalize(u, part)
        max_radius = max((max(c.r_minus, c.r_plus) for c in radii), default=0.0)
        ok &= float(np.max(np.abs(w.values))) <= max_radius + 1.0 + TOL
        ok &= w.jump_measure() <= u.jump_measure() + part.outside_jump + TOL
    _report(7, "renormalization contracts: sup-norm and jump inflation bounds", ok)


def _random_unit_profile(rng: np.random.Generator) -> ConcentrationProfile:
    """Random dyadic plateau profile with total mass at most one."""
    intervals = []
    pos = float(rng.integers(-64, 64)) / 4.0
    total = 0.0
    for _ in range(int(rng.integers(1, 7))):
        pos += float(rng.integers(8, 80)) / 8.0
        width = float(rng.integers(1, 17)) / 8.0
        height = float(rng.integers(1, 65)) / 256.0
        intervals.append((pos, pos + width, height))
        total += width * height
        pos += width
    if total > 1.0:
        scale = 2.0 ** -int(np.ceil(np.log2(total)))
        intervals = [(a, b, h * scale) for a, b, h in intervals]
    return ConcentrationProfile.from_intervals(intervals)


def test_criterion_08_mass_bookkeeping():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(200):
        f = _random_unit_profile(rng)
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        dec = extract_bubbles(f, eps=eps, gap_delta=2.0, ref_radius=1.0)
        total = f.total_mass()
        book = dec.bubble_mass() + dec.leakage_total() + dec.remainder.total_mass()
        ok &= abs(book - total) <= TOL
        ok &= dec.leakage_total() <= len(dec.bubbles) * eps + TOL
        masses = [b.mass for b in dec.bubbles]
        ok &= all(m2 <= m1 + TOL for m1, m2 in zip(masses, masses[1:]))
        again = extract_bubbles(dec.remainder, eps=eps, gap_delta=2.0,
                                ref_radius=1.0, mass_scale=dec.mass_scale)
        ok &= len(again.bubbles) == 0
    _report(8, "mass bookkeeping, nonincreasing masses, idempotence "
               "(200 random profiles)", ok)


def test_criterion_09_slicing_exactness():
    from crackgrid.analysis import directional_jump_measure, slice_line

    rng = np.random.default_rng(909)
    ok = True
    for _ in range(20):
        u = random_fixture(rng, dim=2, max_2d=48)
        h = u.geom.spacing
        total = sum(directional_jump_measure(u, k) for k in range(2))
        ok &= abs(total - u.jump_measure()) <= TOL * max(1.0, total)
        for axis in range(2):
            # in 1D the jump measure is the number of jumps
            resum = sum(slice_line(u, axis, row).jump_measure()
                        for row in range(u.geom.shape[1 - axis])) * h
            ok &= abs(resum - directional_jump_measure(u, axis)) <= TOL * max(1.0, resum)
    _report(9, "slicing exactness: directional split and Fubini resummation", ok)


def test_criterion_10_mask_oracle_sweep():
    geom = GridGeometry((0.0, 0.0), 0.25, (4, 4))
    rng = np.random.default_rng(1010)
    faces = all_interior_faces(geom)
    u = GridFunction(geom, rng.integers(0, 3, size=(4, 4)).astype(float),
                     crack_masks_from_rows(geom, [f for f in faces if rng.random() < 0.4]))
    jump_pairs = set()
    interior_pairs = []
    for f in faces:
        cell, upper = f[1:], upper_cell(f)
        lo = cell[0] * 4 + cell[1]
        up = upper[0] * 4 + upper[1]
        interior_pairs.append((lo, up))
        if f in u.cracks and u.values[cell] != u.values[upper]:
            jump_pairs.add((lo, up))
    box_cells = []
    for idx in np.ndindex(4, 4):
        flat = idx[0] * 4 + idx[1]
        box_cells.extend([flat] * sum(
            (idx[axis] == 0) + (idx[axis] == 3) for axis in range(2)))
    area, cell_vol = geom.face_area, geom.cell_volume
    ok = True
    for bits in range(1 << 16):
        m = [(bits >> k) & 1 for k in range(16)]
        S = CellSet(geom, np.array(m, dtype=bool).reshape(4, 4))
        want_vol = sum(m) * cell_vol
        sep = [(a, b) for a, b in interior_pairs if m[a] != m[b]]
        want_perim = (len(sep) + sum(m[c] for c in box_cells)) * area
        want_outside = sum(1 for pair in sep if pair not in jump_pairs) * area
        if (S.volume() != want_vol or S.perimeter() != want_perim
                or boundary_outside_jump(S, u) != want_outside):
            ok = False
            break
    _report(10, "all 65536 4x4 masks match exhaustive face enumeration", ok)


def _add_on(u: GridFunction, mask: np.ndarray, c: float) -> GridFunction:
    """u plus the constant c on the masked cells (a piecewise-constant translation)."""
    return u.with_values(np.where(mask, u.values + c, u.values))


def test_criterion_11_piecewise_translation_invariance():
    ok = True
    # runaway: the right piece's relative boundary is pure crack
    u = fixture_runaway(7.0)
    piece = u.values > 3.0
    for c in (3.0, -11.0, 1000.0):
        a, b = energy(u, 2.0), energy(_add_on(u, piece, c), 2.0)
        ok &= a.bulk == b.bulk and a.jump == b.jump
    # staircase: every stair block is crack-enclosed (integer data, p = 2)
    v = fixture_staircase(8)
    stair = v.values == 3.0
    for c in (2.0, 500.0):
        a, b = energy(v, 2.0), energy(_add_on(v, stair, c), 2.0)
        ok &= a.bulk == b.bulk and a.jump == b.jump
    # whole strip at once (union of crack-enclosed pieces)
    strip = (v.values >= 1.0) & (v.values <= 8.0)
    a, b = energy(v, 2.0), energy(_add_on(v, strip, 17.0), 2.0)
    ok &= a.bulk == b.bulk and a.jump == b.jump
    _report(11, "energy bit-identical under piecewise-constant translations", ok)
