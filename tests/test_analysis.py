from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from _fixtures import cluster_plate, jumpy_fixture, random_fixture, random_mask
from _oracles import certificate_cuts, certificate_face_counts, certificate_face_measures
from _oracles import compactness_report as oracle_compactness_report
from _oracles import directional_jump_measure
from _oracles import gradient_pairings as oracle_gradient_pairings
from _oracles import iso_constant as oracle_iso_constant
from _oracles import lsc_report as oracle_lsc_report
from _oracles import perimeter
from _oracles import slice_line as oracle_slice_line
from crackgrid import analysis
from crackgrid.analysis import (
    compactness_report,
    grid_iso_constant,
    lsc_report,
    slice_line,
    vanishing_certificate,
)
from crackgrid.bubbles import extract_bubbles
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    InvariantError,
    crack_masks_from_rows,
    energy,
    kyfan_distance,
)
from crackgrid.partition import select_radii, vanishing_region
from crackgrid.profile import concentration_profile, levy_concentration


class TestIsoConstant:
    def test_closed_form_matches_enumeration(self):
        # the sweep over all 4x4 masks peaks at the full square
        assert grid_iso_constant() == oracle_iso_constant() == 1 / 16

    def test_bounds_random_masks_on_larger_grids(self):
        rng = np.random.default_rng(2)
        c = grid_iso_constant()
        geom = GridGeometry((0.0, 0.0), 0.5, (12, 9))
        for _ in range(50):
            S = CellSet(geom, rng.random(geom.shape) < rng.uniform(0.2, 0.9))
            if S.volume() > 0:
                assert S.volume() <= c * perimeter(S) ** 2 + 1e-12


class TestVanishingCertificate:
    def test_staircase_strip(self):
        for n, eps in ((16, 1.0), (64, 0.25)):
            u = fixture_staircase(n)
            f = concentration_profile(u)
            dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
            region = vanishing_region(u, dec.bubbles, radius=1.0)
            assert region.volume() == pytest.approx(1 / n, abs=1e-15)
            cert = vanishing_certificate(u, region, eps=eps, radius=1.0)
            assert cert.measured_volume == pytest.approx(1 / n, abs=1e-15)
            assert cert.certified
            assert cert.chain_ok

    def test_eps_whose_reciprocal_overflows(self):
        # 1/eps is inf below about 5.6e-309: alpha is capped by the distinct
        # values, with no float conversion error.  Windows of radius 1e-170 round
        # to zero width at the values 10..25 and their trace ends 9..26, so the
        # score is 0.0 and every eps meets the hypothesis; eps=None certifies at 0.0
        geom = GridGeometry((0.0, 0.0), 1.0, (4, 4))
        u = GridFunction(geom, np.arange(10.0, 26.0).reshape(4, 4))
        region = CellSet(geom, np.ones(geom.shape, dtype=bool))
        for eps in (5e-324, 1e-310, np.float64(5e-324), None):
            with np.errstate(all="raise"):
                cert = vanishing_certificate(u, region, eps=eps, radius=1e-170)
            assert cert.alpha == 16
        assert cert.eps == 0.0

    def test_empty_region_trivially_certified(self, monkeypatch):
        # the empty region's profile is empty, with score 0.0: none is built,
        # and the argument errors its profile and scan would raise stay
        def unused(*args, **kwargs):
            raise AssertionError("an empty region needs no profile or scan")

        monkeypatch.setattr(analysis, "concentration_profile", unused)
        monkeypatch.setattr(analysis, "levy_concentration", unused)
        u = fixture_runaway(5.0)
        region = CellSet(u.geom, np.zeros(u.geom.shape, dtype=bool))
        cert = vanishing_certificate(u, region, eps=0.5)
        assert cert.trivial and cert.certified
        assert cert.measured_volume == 0.0
        for eps in (None, 0.5):
            got = vanishing_certificate(u, region, eps=eps, radius=0.75, window=0.5).as_dict()
            assert got == {
                "alpha": 1, "cut_points": [], "slab_volumes": [0.0], "gap_volumes": [],
                "gap_perimeters": [], "measured_volume": 0.0, "bound": 0.0,
                "eps": 1e-12 if eps is None else eps, "radius": 0.75, "boundary_measure": 0.0,
                "region_perimeter": 0.0, "iso_constant": 0.0625, "slab_correction": 0.0,
                "chain_lhs": 0.0, "chain_rhs": 0.0, "trivial": True, "certified": True,
                "chain_ok": True}
        window = "window must be positive and finite, got 0.0"
        for kwargs, message in ((dict(window=0.0), window),
                                (dict(radius=0.0), "radius must be positive and finite, got 0.0"),
                                (dict(window=0.0, radius=0.0), window)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                vanishing_certificate(u, region, eps=0.5, **kwargs)

    def test_as_dict_is_fields_and_flags(self):
        u = fixture_staircase(16)
        mask = np.zeros(u.geom.shape, dtype=bool)
        mask[16, 3:14:2] = True
        cert = vanishing_certificate(u, CellSet(u.geom, mask), eps=None, window=0.5)
        d = cert.as_dict()
        assert d["cut_points"] == [8.0, 10.0, 14.0]
        assert all(type(d[k]) is list for k in
                   ("cut_points", "slab_volumes", "gap_volumes", "gap_perimeters"))
        assert (d["certified"], d["chain_ok"], d["trivial"]) == (True, cert.chain_ok, False)
        assert len(d) == len(dataclasses.fields(cert)) + 0  # the verdicts are fields

    def test_eps_none_certifies_at_the_region_score(self):
        rng = np.random.default_rng(47)
        stairs = fixture_staircase(16)
        columns = []
        for rows in (slice(3, 14, 2), slice(0, 16), slice(5, 16, 3)):
            mask = np.zeros(stairs.geom.shape, dtype=bool)
            mask[16, rows] = True  # one stair column: thin in the range
            columns.append(mask)
        jumpy = jumpy_fixture(rng, shape=(12, 10), spacing=0.25)
        nothing = CellSet(jumpy.geom, np.zeros(jumpy.geom.shape, dtype=bool))
        everything = CellSet(jumpy.geom, np.ones(jumpy.geom.shape, dtype=bool))
        cases = [(stairs, m, r) for m in columns for r in (1.0, 0.5)]
        cases += [(jumpy, m, 0.75) for m in [nothing.mask, everything.mask]
                  + [random_mask(rng, jumpy.geom).mask for _ in range(4)]]
        alphas = set()
        for u, mask, radius in cases:
            region = CellSet(u.geom, mask)
            prof = concentration_profile(u, domain=region, window=0.5)
            score = levy_concentration(prof, radius)[0]
            auto = vanishing_certificate(u, region, eps=None, radius=radius, window=0.5)
            given = vanishing_certificate(u, region, eps=max(score, 1e-12), radius=radius,
                                          window=0.5)
            assert json.dumps(auto.as_dict()) == json.dumps(given.as_dict())
            alphas.add(auto.alpha)
        assert max(alphas) > 1  # the range got cut into slabs
        empty = vanishing_certificate(jumpy, nothing, eps=None)
        assert empty.trivial and empty.eps == 1e-12
        with pytest.raises(ValueError, match="eps must be positive"):
            vanishing_certificate(jumpy, everything, eps=0.0)

    def test_hypothesis_violation_names_center(self):
        u = fixture_runaway(5.0)
        region = CellSet(u.geom, np.ones(u.geom.shape, dtype=bool))
        with pytest.raises(ValueError, match="centered at"):
            vanishing_certificate(u, region, eps=1e-6, radius=1.0)

    def test_rejects_1d(self):
        geom = GridGeometry((0.0,), 0.5, (8,))
        u = GridFunction(geom, np.zeros(8))
        with pytest.raises(ValueError, match="2D"):
            vanishing_certificate(u, CellSet(geom, np.ones(8, dtype=bool)), eps=0.5)

    def test_face_measures_match_key_set_oracle(self):
        rng = np.random.default_rng(31)
        cut = 0
        for k in range(10):
            if k % 2:
                u = random_fixture(rng, dim=2, max_2d=10)
            else:
                # many well separated levels, so the range gets cut into slabs;
                # merging neighbouring levels heals some of the cracks
                u = jumpy_fixture(rng, shape=(12, 12), spacing=1 / 16, levels=400)
                u = u.with_values(np.floor(u.values / 8) * 40)
            region = random_mask(rng, u.geom, p=0.7)
            score = levy_concentration(concentration_profile(u, region, 0.25), 1.0)[0]
            cert = vanishing_certificate(u, region, eps=max(score, 1e-12), radius=1.0,
                                         window=0.25)
            measure, chain_rhs, region_perim, gap_perims = certificate_face_measures(
                u, region, cert.cut_points, cert.radius)
            assert cert.boundary_measure == measure
            assert cert.chain_rhs == chain_rhs
            assert (cert.region_perimeter, cert.gap_perimeters) == (region_perim, gap_perims)
            cut += cert.alpha > 1
        assert cut >= 4

    def test_verdicts_are_the_count_rules(self):
        # on the key-set oracle's counts: certified is 4 alpha n <= (d + g)^2
        # + 4 alpha max(0, n - alpha s), with n the region's cells, g the gaps' perimeter
        # faces and s the smallest slab's cells, and chain_ok is 2 d >= the chain faces
        rng = np.random.default_rng(37)
        seen = Counter()
        for k in range(240):
            u = random_fixture(rng, dim=2, max_2d=10)
            spacing = float(rng.choice([0.1, 1 / 3, 0.7, 1e-3, 2.0 ** -10, 2.0 ** -45]))
            u = GridFunction(GridGeometry(u.geom.origin, spacing, u.geom.shape), u.values,
                             [u.crack_mask(axis) for axis in range(2)])
            region = random_mask(rng, u.geom, p=0.8)
            try:
                cert = vanishing_certificate(u, region, eps=[None, 0.02, 0.1, 0.5][k % 4],
                                             radius=float(rng.choice([0.1, 0.5, 1.0])),
                                             window=float(rng.choice([0.25, 1.0])))
            except InvariantError:
                continue
            d, chain, _, gaps, slabs = certificate_face_counts(u, region, cert.cut_points,
                                                               cert.radius)
            n, a = int(np.count_nonzero(region.mask)), cert.alpha
            assert cert.certified == (4 * a * n <= (d + sum(gaps)) ** 2
                                      + 4 * a * max(0, n - a * min(slabs)))
            assert cert.chain_ok == (2 * d >= sum(chain))
            seen[f"chain_ok {cert.chain_ok}"] += 1
            seen["cut"] += a > 1
            seen["cut, spacing not dyadic"] += a > 1 and spacing in (0.1, 1 / 3, 0.7, 1e-3)
        assert min(seen.values()) >= 3, seen

    def test_gap_perimeters_add_left_to_right(self):
        # builtin sum() compensates float additions from Python 3.12 on: there it
        # would give this bound as ...901, against the ...906 of left to right
        geom = GridGeometry((0.0, 0.0), 1 / 300, (8, 8))
        u = GridFunction(geom, np.random.default_rng(1).integers(0, 12, (8, 8)))
        region = CellSet(geom, np.ones(geom.shape, dtype=bool))
        cert = vanishing_certificate(u, region, eps=None, radius=0.25, window=0.25)
        assert (cert.alpha, len(cert.gap_perimeters)) == (9, 8)
        gamma = 0.0
        for perim in cert.gap_perimeters:
            gamma += perim
        assert gamma != math.fsum(cert.gap_perimeters)  # the order shows in the last bit
        assert repr(cert.bound) == "0.012567901234567906"

    def test_cuts_match_the_sorted_loop(self):
        # few levels with skewed volumes: the distinct-value cap on alpha binds,
        # and several target volumes land on one level, so their cuts merge
        rng = np.random.default_rng(59)
        seen = Counter()
        for _ in range(60):
            levels = int(rng.integers(2, 9))
            geom = GridGeometry((0.0, 0.0), float(rng.choice([1 / 4096, 1 / 512, 1 / 64])),
                                (12, 12))
            share = rng.dirichlet(np.full(levels, 0.3))
            u = GridFunction(geom, 40.0 * rng.choice(levels, size=geom.shape, p=share))
            region = random_mask(rng, geom, p=0.8)
            if region.volume() == 0.0:
                continue
            cert = vanishing_certificate(u, region, eps=None, radius=1.0, window=0.25)
            alpha, cuts = certificate_cuts(u, region, cert.eps)
            assert list(cert.cut_points) == cuts
            distinct = len(set(u.values[region.mask].tolist()))
            seen["cap binds"] += alpha == distinct < math.ceil(1 / cert.eps)
            seen["eps binds"] += alpha == math.ceil(1 / cert.eps) < distinct
            seen["cuts merge"] += len(cuts) < alpha - 1
        assert min(seen.values()) >= 5, seen

    def make_many_jumps_fixture(self, m: int):
        """Every cell holds its own far-separated value, every face cracked.

        Each value then carries trace measure exactly 4/m, so the profile is
        weakly vanishing down to eps = 8w/m while the region (the whole box)
        keeps volume one: the canonical small-in-range, big-in-domain input.
        """
        from _fixtures import all_interior_faces

        h = 1.0 / m
        geom = GridGeometry((0.0, 0.0), h, (m, m))
        values = 40.0 * np.arange(float(m * m)).reshape(m, m)
        return GridFunction(geom, values, crack_masks_from_rows(geom, all_interior_faces(geom)))

    def test_bound_scales_linearly_in_eps(self):
        # fixed region volume, shrinking eps: the bound tracks eps to first order
        u = self.make_many_jumps_fixture(80)
        region = CellSet(u.geom, np.ones(u.geom.shape, dtype=bool))
        eps_values = (0.2, 0.1, 0.05)
        bounds = {}
        for eps in eps_values:
            cert = vanishing_certificate(u, region, eps=eps, radius=1.0, window=0.5)
            assert cert.certified and cert.chain_ok
            bounds[eps] = cert.bound
        slope = np.polyfit(np.log(eps_values),
                           np.log([bounds[e] for e in eps_values]), 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_slab_volume_invariant(self):
        u = self.make_many_jumps_fixture(32)
        region = CellSet(u.geom, np.ones(u.geom.shape, dtype=bool))
        cert = vanishing_certificate(u, region, eps=0.3, radius=1.0, window=0.5)
        m, a = cert.measured_volume, cert.alpha
        for vol in cert.slab_volumes:
            assert vol >= m / a - cert.slab_correction - 1e-12
        assert list(cert.cut_points) == sorted(set(cert.cut_points))


class TestSlicing:
    def test_staircase_slices_have_two_jumps(self):
        n = 8
        u = fixture_staircase(n)
        for iy in range(u.geom.shape[1]):
            line = slice_line(u, 0, iy)
            assert line.jump_measure() == 2  # 0 -> i and i -> n+1

    def test_crack_free_slices(self):
        geom = GridGeometry((0.0, 0.0), 0.5, (6, 4))
        u = GridFunction(geom, np.add.outer(np.arange(6.0), np.arange(4.0)))
        for iy in range(4):
            assert slice_line(u, 0, iy).jump_measure() == 0

    def test_fubini_bulk_resummation(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            u = random_fixture(rng, dim=2, max_2d=12)
            p = 2.0
            h = u.geom.spacing
            for axis in range(2):
                total = 0.0
                for row in range(u.geom.shape[1 - axis]):
                    line = slice_line(u, axis, row)
                    total += energy(line, p).bulk * h
                d = u.face_delta(axis)
                keep = ~u.crack_mask(axis)
                direct = float(np.sum(np.abs(d[keep] / h) ** p)) * u.geom.cell_volume
                assert total == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_directional_sum_equals_total(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            u = random_fixture(rng, dim=2, max_2d=16)
            total = sum(directional_jump_measure(u, k) for k in range(2))
            assert total == pytest.approx(u.jump_measure(), abs=1e-15)

    def test_fubini_jump_resummation(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            u = random_fixture(rng, dim=2, max_2d=12)
            h = u.geom.spacing
            for axis in range(2):
                counted = 0.0
                for row in range(u.geom.shape[1 - axis]):
                    line, ref = slice_line(u, axis, row), oracle_slice_line(u, axis, row)
                    assert line.geom == ref.geom
                    assert np.array_equal(line.values, ref.values)
                    assert np.array_equal(line.crack_mask(0), ref.crack_mask(0))
                    counted += line.jump_measure()
                assert counted * h == pytest.approx(
                    directional_jump_measure(u, axis), abs=1e-15)

    def test_out_of_range_index(self):
        u = fixture_runaway(1.0, resolution=8)
        with pytest.raises(ValueError):
            slice_line(u, 0, 99)


class TestLscReport:
    def test_constant_sequence_zero_margins(self):
        u = fixture_staircase(4)
        rep = lsc_report([u, u, u], u)
        assert rep.margins == (0.0, 0.0)
        assert rep.total_margin == 0.0
        assert rep.lsc_holds

    def test_runaway_sequence_against_zero_limit(self):
        seq = [fixture_runaway(n) for n in (10.0, 100.0, 1000.0)]
        zero = seq[0].with_values(np.zeros(seq[0].geom.shape))
        rep = lsc_report(seq, zero)
        assert rep.limit_directional == (0.0, 0.0)
        assert rep.margins[0] == 1.0
        assert rep.total_margin == 1.0
        assert rep.lsc_holds

    def test_staircase_against_two_piece_limit(self):
        # limit: 0 left of x=0, 1 right, cracked along x=0 (axis-0 measure 1)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        geom = seq[0].geom
        m = geom.shape[0] // 2
        vals = np.zeros(geom.shape)
        vals[m:, :] = 1.0
        limit = GridFunction(geom, vals, crack_masks_from_rows(
            geom, [[0, m - 1, iy] for iy in range(geom.shape[1])]))
        rep = lsc_report(seq, limit)
        assert rep.limit_directional[0] == 1.0
        assert rep.lsc_holds
        # every limit jump at x=0 sees a sequence crack in the same slice
        assert rep.eta[0] == 2 * geom.spacing
        assert rep.eta_resolution_limited[0]

    def test_eta_detects_distant_jumps(self):
        geom = GridGeometry((0.0,), 1.0 / 8, (8,))
        limit = GridFunction(geom, [0, 0, 0, 0, 1, 1, 1, 1.0],
                             crack_masks_from_rows(geom, [[0, 3]]))
        moved = GridFunction(geom, [0, 1, 1, 1, 1, 1, 1, 1.0],
                             crack_masks_from_rows(geom, [[0, 0]]))
        rep = lsc_report([moved], limit)
        # jump sits 3 cells away: eta must grow beyond the 2h floor
        assert rep.eta[0] is not None and rep.eta[0] > 2 * geom.spacing

    def test_missing_jump_flagged(self):
        geom = GridGeometry((0.0,), 0.25, (4,))
        limit = GridFunction(geom, [0, 0, 2, 2.0], crack_masks_from_rows(geom, [[0, 1]]))
        flat = GridFunction(geom, np.zeros(4))
        rep = lsc_report([flat], limit)
        assert rep.eta[0] is None
        assert not rep.eta_ok[0]
        assert not rep.lsc_holds

    def test_per_slice_counts_reported(self):
        n = 4
        u = fixture_staircase(n)
        rep = lsc_report([u], u)
        # along the x direction every row crosses exactly two jumps
        assert rep.limit_slice_counts[0] == tuple([2] * u.geom.shape[1])
        assert rep.seq_slice_counts[0][0] == rep.limit_slice_counts[0]

    def test_as_dict_lists_every_tuple(self):
        seq = [fixture_staircase(n, cells_per_step=8 // n) for n in (2, 4, 8)]
        d = lsc_report(seq, seq[0]).as_dict()
        assert type(d["eta"]) is list
        assert type(d["seq_slice_counts"]) is list
        assert all(type(per_n) is list and all(type(c) is list for c in per_n)
                   for per_n in d["seq_slice_counts"])
        assert d["seq_slice_counts"][0][0] == [2] * seq[0].geom.shape[1]
        assert d["lsc_holds"] is True


class TestGradientPairings:
    def test_matches_mask_oracle(self):
        rng = np.random.default_rng(53)
        cases = [random_fixture(rng, dim=dim, max_1d=40, max_2d=20)
                 for dim in (1, 2) for _ in range(25)]
        cases += [fixture_runaway(7.0, resolution=6), fixture_staircase(5, cells_per_step=3)]
        for u in cases:
            got, want = analysis.gradient_pairings(u), oracle_gradient_pairings(u)
            assert list(got) == list(want)
            assert json.dumps(got) == json.dumps(want)


def _random_on(rng, geom: GridGeometry, crack_p: float) -> GridFunction:
    """Quarter-valued function on ``geom`` with each interior face cracked with
    probability ``crack_p``."""
    values = np.round(rng.normal(0.0, 2.0, size=geom.shape) * 4) / 4
    masks = [rng.random(geom.face_shape(axis)) < crack_p for axis in range(geom.dim)]
    return GridFunction(geom, values, masks)


class TestLscOracle:
    """The whole-array report against one slice per (function, row) and a
    pairwise search over the jumps of every row."""

    @staticmethod
    def assert_matches(seq, limit):
        fast = lsc_report(seq, limit).as_dict()
        slow = oracle_lsc_report(seq, limit).as_dict()
        assert fast == slow
        # the serialized report, types included, is the same too
        assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)
        # the verdict is the count rule: per axis, no function has fewer jump faces
        assert fast["lsc_holds"] == all(
            min(sum(c) for c in seq) >= sum(lim)
            for lim, seq in zip(fast["limit_slice_counts"], fast["seq_slice_counts"]))
        return fast

    # the two small spacings put a one-face deficit far below any float slack
    @pytest.mark.parametrize("spacing", [0.1, 1 / 3, 0.25, 0.7, 1e-13, 2.0 ** -45])
    def test_random_sequences(self, spacing):
        rng = np.random.default_rng(407)
        missing = found = 0
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            shape = tuple(int(rng.integers(1, 13)) for _ in range(dim)) if dim == 2 \
                else (int(rng.integers(2, 60)),)
            origin = tuple(float(rng.uniform(-3.0, 3.0)) for _ in range(dim))
            geom = GridGeometry(origin, spacing, shape)
            seq = [_random_on(rng, geom, float(rng.choice([0.0, 0.05, 0.3, 0.7])))
                   for _ in range(int(rng.integers(1, 4)))]
            limit = _random_on(rng, geom, float(rng.choice([0.0, 0.1, 0.4])))
            rep = self.assert_matches(seq, limit)
            missing += None in rep["eta"]
            found += any(e is not None and e > 2 * spacing for e in rep["eta"])
        # both the missing-row rule and a grown locality radius occur
        assert missing and found

    def test_fixture_sequences(self):
        rng = np.random.default_rng(408)
        for _ in range(6):
            seq = [jumpy_fixture(rng, shape=(12, 10), spacing=0.1) for _ in range(3)]
            self.assert_matches(seq, seq[-1])
            self.assert_matches(seq[:2], seq[-1])

    def test_two_faces_off_is_resolution_limited(self):
        # a sequence jump two faces from the limit's is 2h away at any origin and
        # spacing; measured between float positions, it read 4h in 69 of these 162 cases
        values = np.arange(12.0)
        for origin in (0.0, 0.3, 0.5, -1.7, 2.9, 1e3):
            for h in (0.1, 1 / 3, 0.7):
                geom = GridGeometry((origin,), h, (12,))
                for i in range(9):
                    limit = GridFunction(geom, values, crack_masks_from_rows(geom, [[0, i]]))
                    g = GridFunction(geom, values, crack_masks_from_rows(geom, [[0, i + 2]]))
                    rep = self.assert_matches([g], limit)
                    assert rep["eta"] == [2 * h], (origin, h, i)
                    assert rep["eta_resolution_limited"] == [True]

    def test_limit_without_jumps(self):
        rng = np.random.default_rng(409)
        geom = GridGeometry((0.3, -1.7), 1 / 3, (7, 9))
        seq = [_random_on(rng, geom, 0.3) for _ in range(2)]
        flat = GridFunction(geom, np.zeros(geom.shape))
        rep = self.assert_matches(seq, flat)
        assert rep["eta"] == [2 / 3, 2 / 3]
        assert rep["limit_slice_counts"] == [[0] * 9, [0] * 7]

    def test_empty_sequence_row(self):
        # the limit jumps on every row, the sequence function on all rows but one
        geom = GridGeometry((0.5,), 0.1, (10,))
        rows = GridGeometry((0.5, 0.25), 0.1, (10, 4))
        values = np.tile(np.arange(10.0), (4, 1)).T
        cracks = np.ones(rows.face_shape(0), dtype=bool)
        uncracked = np.zeros(rows.face_shape(1), dtype=bool)
        limit = GridFunction(rows, values, [cracks, uncracked])
        holed = cracks.copy()
        holed[:, 2] = False
        seq = [GridFunction(rows, values, [holed, uncracked])]
        rep = self.assert_matches(seq, limit)
        assert rep["eta"][0] is None and rep["seq_slice_counts"][0][0][2] == 0
        line = GridFunction(geom, np.arange(10.0), crack_masks_from_rows(geom, [[0, 4]]))
        rep = self.assert_matches([GridFunction(geom, np.arange(10.0))], line)
        assert rep["eta"] == [None]

    def test_early_miss_ends_the_search(self):
        # the first function misses slice 2 where the limit jumps, the later ones
        # cover it, one of them far off: eta is None, and every count is reported
        geom = GridGeometry((0.5, 0.25), 0.1, (10, 4))
        values = np.tile(np.arange(10.0), (4, 1)).T
        uncracked = np.zeros(geom.face_shape(1), dtype=bool)
        full = np.ones(geom.face_shape(0), dtype=bool)
        holed, far = full.copy(), np.zeros_like(full)
        holed[:, 2] = False
        far[8, :] = True
        limit = GridFunction(geom, values, [full, uncracked])
        seq = [GridFunction(geom, values, [m, uncracked]) for m in (holed, far, full)]
        for order in (seq, seq[::-1], seq[1:]):
            rep = self.assert_matches(order, limit)
            assert rep["seq_slice_counts"][0] == [m.sum(axis=0).tolist() for m in
                                                  (g.crack_mask(0) for g in order)]
            assert rep["eta"][1] == 0.2 and rep["eta_resolution_limited"][1]
        assert rep["eta"][0] == 0.8 and rep["eta_ok"] == [True, True]  # faces 0 and 8
        assert not rep["eta_resolution_limited"][0] and rep["lsc_holds"] is False
        rep = self.assert_matches(seq, limit)
        assert rep["eta"][0] is None and rep["eta_ok"] == [False, True]
        assert rep["lsc_holds"] is False and not rep["eta_resolution_limited"][0]

    def test_equidistant_neighbours(self):
        # the limit jump at face 5 has sequence jumps exactly 0.75 away on both sides
        geom = GridGeometry((-0.5,), 0.25, (12,))
        values = np.arange(12.0)
        limit = GridFunction(geom, values, crack_masks_from_rows(geom, [[0, 5]]))
        seq = [GridFunction(geom, values, crack_masks_from_rows(geom, [[0, 2], [0, 8]]))]
        rep = self.assert_matches(seq, limit)
        assert rep["eta"] == [1.0]


class TestCompactnessReport:
    def test_runaway_manifest(self):
        seq = [fixture_runaway(n) for n in (10.0, 100.0, 1000.0)]
        zero = seq[0].with_values(np.zeros(seq[0].geom.shape))
        rep = compactness_report(seq, eps_ladder=[0.1], limit=zero)
        assert rep.ok, rep.violations
        block = rep.per_eps["0.1"]
        c1 = block["conclusion1_measure_convergence"]
        assert c1["consecutive_kyfan"] == [0.0, 0.0]
        assert c1["kyfan_to_limit"] == [0.0, 0.0, 0.0]
        assert block["conclusion3_jump_lsc"]["total_margin"] == 1.0
        c4 = block["conclusion4_partition_trends"]
        assert c4["outside_jump_series"] == [0.0, 0.0, 0.0]
        assert c4["vanishing_volume_series"] == [0.0, 0.0, 0.0]
        c5 = block["conclusion5_bubble_tracks"]
        assert c5["separations"]["0-1"] == [10.0, 100.0, 1000.0]
        assert c5["trends"]["0-1"] == "increasing"

    def test_staircase_manifest(self):
        seq = [fixture_staircase(n, cells_per_step=64 // n) for n in (4, 16, 64)]
        rep = compactness_report(seq, eps_ladder=[0.2, 0.1])
        block = rep.per_eps["0.2"]
        c4 = block["conclusion4_partition_trends"]
        assert c4["vanishing_volume_series"] == [0.25, 0.0625, 0.015625]
        certs = [e["certificate"] for e in block["per_n"]]
        assert all(c is not None and c["certified"] for c in certs)
        jumps = [e["jump_original"] for e in block["per_n"]]
        assert jumps == [2.75, 2.9375, 2.984375]

    def test_constant_sequence_all_zero(self):
        geom = GridGeometry((0.0, 0.0), 0.25, (8, 8))
        u = GridFunction(geom, np.full((8, 8), 2.0))
        rep = compactness_report([u, u, u], eps_ladder=[0.2])
        assert rep.ok
        block = rep.per_eps["0.2"]
        assert block["conclusion1_measure_convergence"]["consecutive_kyfan"] == [0.0, 0.0]
        assert block["conclusion3_jump_lsc"]["total_margin"] == 0.0

    def test_nesting_reported(self):
        seq = [fixture_staircase(n, cells_per_step=64 // n) for n in (16, 64)]
        rep = compactness_report(seq, eps_ladder=[0.2, 0.1])
        assert "0.2->0.1" in rep.nesting
        assert len(rep.nesting["0.2->0.1"]) == 2

    def test_datum_and_omega_path(self):
        # displaced plates over a nonzero datum, working region excluding the
        # leftmost quarter; the pipeline reduces, pins the datum piece and
        # reports no violations
        res = 16
        seq = []
        for n in (40.0, 400.0):
            u0 = fixture_runaway(n, resolution=res)
            u = u0.with_values(u0.values + 5.0)
            seq.append(u)
        datum = GridFunction(seq[0].geom, np.full(seq[0].geom.shape, 5.0))
        omega_mask = np.ones(seq[0].geom.shape, dtype=bool)
        omega_mask[: res // 4, :] = False
        omega = CellSet(seq[0].geom, omega_mask)
        rep = compactness_report(seq, datum=datum, omega=omega, eps_ladder=[0.1])
        assert rep.ok, rep.violations
        block = rep.per_eps["0.1"]
        assert block["conclusion1_measure_convergence"]["consecutive_kyfan"] == [0.0]
        assert block["conclusion4_partition_trends"]["vanishing_volume_series"] == [0.0, 0.0]

    def test_eps_independent_energies_computed_once(self, monkeypatch):
        calls = []

        def counted(u, p=2.0):
            calls.append(p)
            return energy(u, p)

        monkeypatch.setattr(analysis, "energy", counted)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        compactness_report(seq, p=3.0, eps_ladder=[0.2, 0.1, 0.05])
        # one bulk energy per function for the p-norm series and one for p = 2
        assert sorted(calls) == [2.0] * 3 + [3.0] * 3
        calls.clear()
        # at p = 2 the two are the same energy: one call per function
        report = compactness_report(seq, eps_ladder=[0.2, 0.1, 0.05])
        assert calls == [2.0] * 3
        bulk = [energy(u, 2.0).bulk for u in seq]
        for entry in report.per_eps.values():
            assert entry["conclusion2_weak_gradient"]["bulk_pnorm"] == bulk
            assert [e["bulk_original"] for e in entry["per_n"]] == bulk

    def test_each_profile_built_once(self, monkeypatch):
        calls = []

        def counted(u, domain=None, window=1.0):
            calls.append(domain)
            return concentration_profile(u, domain=domain, window=window)

        monkeypatch.setattr(analysis, "concentration_profile", counted)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        profiles = [concentration_profile(u) for u in seq]
        # the n = 4 staircase has two bubbles at 0.2 and one below (golden stairs/u4),
        # n = 8 two down to 0.1 and one at 0.05, n = 16 two throughout
        for ladder, regions in (([0.2], 3), ([0.2, 0.1], 4), ([0.2, 0.1, 0.05], 5)):
            calls.clear()
            compactness_report(seq, eps_ladder=ladder)
            # one profile per function, then one region profile per change of
            # bubble centers along the ladder: repeated centers reuse their certificate
            distinct = 0
            for f in profiles:
                centers = [[b.center for b in extract_bubbles(f, eps, 2.0, 1.0).bubbles]
                           for eps in ladder]
                distinct += 1 + sum(a != b for a, b in zip(centers, centers[1:]))
            assert len(calls) == len(seq) + distinct == len(seq) + regions
            assert calls[:len(seq)] == [None] * len(seq)
            assert all(isinstance(d, CellSet) for d in calls[len(seq):])

    def test_partition_stage_keyed_on_bubble_centers(self, monkeypatch):
        calls = []

        def counted(f, bubbles, base_radius):
            calls.append(tuple(b.center for b in bubbles))
            return select_radii(f, bubbles, base_radius)

        monkeypatch.setattr(analysis, "select_radii", counted)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (2, 4, 16)]
        ladder = [0.2, 0.15, 0.1]
        rep = compactness_report(seq, eps_ladder=ladder)
        # n = 2: one bubble at 0 throughout, of mass 19 down to eps 0.15 and 22 at 0.1;
        # n = 4: bubbles at 0 and 5 at 0.2, one at 0 below; n = 16: at 0 and 17 throughout
        before, after = (rep.per_eps[repr(eps)]["per_n"][0]["bubbles"] for eps in ladder[1:])
        assert before != after and [b["center"] for b in before] == [b["center"] for b in after]
        # one radius selection per function and eps where the centers move: none
        # for n = 2 at 0.1, where only the mass does
        assert calls == [(0.0,), (0.0, 5.0), (0.0, 17.0), (0.0,)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kyfan_to_the_last_function_reuses_known_distances(self, monkeypatch, n):
        pairs = []

        def recorded(a, b):
            pairs.append((a, b))
            return kyfan_distance(a, b)

        monkeypatch.setattr(analysis, "kyfan_distance", recorded)
        seq = [fixture_staircase(k, cells_per_step=16 // k) for k in (2, 4, 8, 16)[:n]]
        for limit in (None, fixture_staircase(16)):
            pairs.clear()
            c1 = compactness_report(seq, eps_ladder=[0.1], limit=limit).per_eps["0.1"][
                "conclusion1_measure_convergence"]
            # the consecutive distances, then one list of distances to the limit
            assert len(pairs) == (n - 1) + n
            renorms = [w for w, _ in pairs[n - 1:]]
            lim = renorms[-1] if limit is None else limit
            assert all(b is lim for _, b in pairs[n - 1:])
            assert all(a is w and b is x for (a, b), w, x in zip(pairs, renorms, renorms[1:]))
            assert c1["consecutive_kyfan"] == [kyfan_distance(a, b)
                                               for a, b in zip(renorms, renorms[1:])]
            assert c1["kyfan_to_limit"] == [kyfan_distance(w, lim) for w in renorms]
            if limit is None:  # the last function is at distance exactly 0.0 from itself
                assert c1["kyfan_to_limit"][-1] == 0.0
                if n == 1:
                    assert c1 == {"consecutive_kyfan": [], "kyfan_to_limit": [0.0]}

    def test_violations_pinned_in_order(self, monkeypatch):
        calls = []
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]

        def uncertified_for_functions_0_and_2(u, region, eps, radius=1.0, window=1.0):
            cert = vanishing_certificate(u, region, eps, radius=radius, window=window)
            calls.append(next(i for i, g in enumerate(seq) if g is u))
            if calls[-1] in (0, 2):
                return dataclasses.replace(cert, certified=False)
            return cert

        monkeypatch.setattr(analysis, "vanishing_certificate", uncertified_for_functions_0_and_2)
        geom = seq[0].geom
        # every interior face of the limit is a jump: far more than any sequence function has
        limit = GridFunction(geom, np.arange(geom.num_cells, dtype=float),
                             [np.ones(geom.face_shape(k), dtype=bool) for k in range(2)])
        rep = compactness_report(seq, eps_ladder=[0.2, 0.1], limit=limit)
        # only function 0 (two bubbles at 0.2, one at 0.1) is certified again at 0.1;
        # the others reuse their certificate and its violation
        assert calls == [0, 1, 2, 0]
        assert rep.violations == [
            "eps=0.2 n_index=0: vanishing certificate failed",
            "eps=0.2 n_index=2: vanishing certificate failed",
            "eps=0.2: jump LSC margin negative",
            "eps=0.1 n_index=0: vanishing certificate failed",
            "eps=0.1 n_index=2: vanishing certificate failed",
            "eps=0.1: jump LSC margin negative",
        ]
        assert not rep.ok and rep.as_dict()["violations"] == rep.violations

    def test_numpy_scalar_fixture_report_is_json(self):
        # a NumPy spacing (1 / np.int64(n)) once made the report's flags numpy.bool_
        reports = [compactness_report([fixture_staircase(k(n), cells_per_step=8 // n)
                                       for n in (2, 4, 8)]) for k in (np.int64, int)]
        assert json.dumps(reports[0].as_dict()) == json.dumps(reports[1].as_dict())

    def test_geometry_mismatch_rejected(self):
        a = fixture_runaway(1.0, resolution=8)
        b = fixture_runaway(1.0, resolution=16)
        with pytest.raises(Exception):
            compactness_report([a, b], eps_ladder=[0.2])

    def test_eps_ladder_must_decrease(self):
        u = fixture_runaway(1.0, resolution=8)
        for ladder in ([0.1, 0.2], [], [0.2, 0.0]):  # the empty one would check nothing
            message = f"eps_ladder must be nonempty and strictly decreasing in (0, 1), got {ladder}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                compactness_report([u], eps_ladder=ladder)


def _containers(x):
    """The ids of every list and dict inside ``x``, ``x`` included."""
    if isinstance(x, (dict, list)):
        yield id(x)
        for y in x.values() if isinstance(x, dict) else x:
            yield from _containers(y)


class TestReportAgainstPerEpsOracle:
    """The report reuses a function's partition stage where its bubble centers
    repeat along the ladder; the oracle builds every stage again at every eps."""

    LADDER = (0.3, 0.2, 0.15, 0.1, 0.05, 0.02)

    @staticmethod
    def sequence(rng, kind):
        if kind == "staircase":
            return [fixture_staircase(n, cells_per_step=16 // n)
                    for n in sorted(rng.choice([2, 4, 8, 16], size=3, replace=False).tolist())]
        if kind == "runaway":
            return [fixture_runaway(h, resolution=16) for h in sorted(
                rng.choice([10.0, 40.0, 100.0, 400.0, 1000.0], size=3, replace=False).tolist())]
        # at noise 0.3, more growth at eps 0.02 than at 0.05 moves some later centers
        spacing = float(rng.choice([6.0, 7.0, 8.0]))
        return [cluster_plate(rng, clusters=int(rng.integers(3, 6)), spacing=spacing, noise=0.3)
                for _ in range(3)]

    def test_byte_equal_to_the_per_eps_report(self):
        rng = np.random.default_rng(2501)
        steps = {"repeat": 0, "change": 0, "move": 0, "same centers": 0}
        seen = set()
        for case in range(24):
            kind = ("staircase", "runaway", "cluster_plate")[case % 3]
            seq = self.sequence(rng, kind)
            geom = seq[0].geom
            ladder = sorted(rng.choice(self.LADDER, size=3, replace=False).tolist(), reverse=True)
            if case == 2:
                ladder = [0.1, 0.05, 0.02]
            extra = {}
            if rng.random() < 0.5:
                extra["limit"] = seq[int(rng.integers(len(seq)))].with_values(
                    rng.normal(0.0, 1.0, size=geom.shape))
            if rng.random() < 0.5:
                extra["datum"] = GridFunction(geom, np.full(geom.shape, rng.uniform(-5.0, 5.0)))
            if rng.random() < 0.5:
                mask = np.ones(geom.shape, dtype=bool)
                mask[:int(rng.integers(1, geom.shape[0] // 2))] = False
                extra["omega"] = CellSet(geom, mask)
            rep = compactness_report(seq, eps_ladder=ladder, **extra)
            seen.update(extra, ["violations"] if rep.violations else [])
            expected = oracle_compactness_report(seq, eps_ladder=ladder, **extra)
            assert json.dumps(rep.as_dict(), sort_keys=True) == \
                json.dumps(expected.as_dict(), sort_keys=True), (case, kind, ladder, sorted(extra))
            # a reused stage shares no list or dict between eps: editing one leaves the rest
            owned = [set(_containers(rep.per_eps[repr(eps)])) for eps in ladder]
            assert all(x.isdisjoint(y) for j, x in enumerate(owned) for y in owned[j + 1:])
            blocks = [rep.per_eps[repr(eps)]["per_n"] for eps in ladder]
            for prev, cur in zip(blocks, blocks[1:]):
                for a, b in zip(prev, cur):
                    steps["repeat" if a["bubbles"] == b["bubbles"] else "change"] += 1
                    # as many bubbles, but centers elsewhere: a stage kept by count would be wrong
                    centers = [[x["center"] for x in e["bubbles"]] for e in (a, b)]
                    steps["move"] += len(centers[0]) == len(centers[1]) and centers[0] != centers[1]
                    # other bubbles at the same centers: the stage is reused
                    steps["same centers"] += a["bubbles"] != b["bubbles"] and centers[0] == centers[1]
        assert seen == {"limit", "datum", "omega", "violations"}
        assert all(steps.values()), steps
