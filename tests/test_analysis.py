from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from _fixtures import jumpy_fixture, random_fixture, random_mask
from _oracles import certificate_face_measures
from _oracles import gradient_pairings as oracle_gradient_pairings
from _oracles import iso_constant as oracle_iso_constant
from _oracles import lsc_report as oracle_lsc_report
from _oracles import slice_line as oracle_slice_line
from crackgrid import analysis
from crackgrid.analysis import (
    compactness_report,
    directional_jump_measure,
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
    crack_masks_from_rows,
    energy,
    kyfan_distance,
)
from crackgrid.partition import vanishing_region
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
                assert S.volume() <= c * S.perimeter() ** 2 + 1e-12


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

    def test_empty_region_trivially_certified(self):
        u = fixture_runaway(5.0)
        region = CellSet(u.geom, np.zeros(u.geom.shape, dtype=bool))
        cert = vanishing_certificate(u, region, eps=0.5)
        assert cert.trivial and cert.certified
        assert cert.measured_volume == 0.0

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
        assert len(d) == len(dataclasses.fields(cert)) + 2

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
            measure, chain_rhs = certificate_face_measures(
                u, region, cert.cut_points, cert.radius)
            assert cert.boundary_measure == measure
            assert cert.chain_rhs == chain_rhs
            cut += cert.alpha > 1
        assert cut >= 4

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
        return fast

    @pytest.mark.parametrize("spacing", [0.1, 1 / 3, 0.25, 0.7])
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

    def test_each_profile_built_once(self, monkeypatch):
        calls = []

        def counted(u, domain=None, window=1.0):
            calls.append(domain)
            return concentration_profile(u, domain=domain, window=window)

        monkeypatch.setattr(analysis, "concentration_profile", counted)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        ladder = [0.2, 0.1, 0.05]
        compactness_report(seq, eps_ladder=ladder)
        # one profile per function, then one region profile per certificate
        assert len(calls) == len(seq) + len(ladder) * len(seq)
        assert calls[:len(seq)] == [None] * len(seq)
        assert all(isinstance(d, CellSet) for d in calls[len(seq):])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kyfan_to_the_last_function_reuses_known_distances(self, monkeypatch, n):
        pairs = []

        def recorded(a, b):
            pairs.append((a, b))
            return kyfan_distance(a, b)

        monkeypatch.setattr(analysis, "kyfan_distance", recorded)
        seq = [fixture_staircase(k, cells_per_step=16 // k) for k in (2, 4, 8, 16)[:n]]
        c1 = compactness_report(seq, eps_ladder=[0.1]).per_eps["0.1"][
            "conclusion1_measure_convergence"]
        # the consecutive distances, then one call per function before the last two
        assert len(pairs) == (n - 1) + max(n - 2, 0)
        if n == 1:
            assert c1 == {"consecutive_kyfan": [], "kyfan_to_limit": [0.0]}
            return
        renorms = [pairs[0][0]] + [b for _, b in pairs[:n - 1]]
        assert c1["consecutive_kyfan"] == [kyfan_distance(a, b)
                                           for a, b in zip(renorms, renorms[1:])]
        assert c1["kyfan_to_limit"] == [kyfan_distance(w, renorms[-1]) for w in renorms]

    def test_violations_pinned_in_order(self, monkeypatch):
        calls = []

        def uncertified_on_calls_0_and_4(u, region, eps, radius=1.0, window=1.0):
            cert = vanishing_certificate(u, region, eps, radius=radius, window=window)
            calls.append(len(calls))
            if calls[-1] in (0, 4):
                return dataclasses.replace(cert, measured_volume=cert.bound + 1.0)
            return cert

        monkeypatch.setattr(analysis, "vanishing_certificate", uncertified_on_calls_0_and_4)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        geom = seq[0].geom
        # every interior face of the limit is a jump: far more than any sequence function has
        limit = GridFunction(geom, np.arange(geom.num_cells, dtype=float),
                             [np.ones(geom.face_shape(k), dtype=bool) for k in range(2)])
        rep = compactness_report(seq, eps_ladder=[0.2, 0.1], limit=limit)
        assert len(calls) == 6
        assert rep.violations == [
            "eps=0.2 n_index=0: vanishing certificate failed",
            "eps=0.2: jump LSC margin negative",
            "eps=0.1 n_index=1: vanishing certificate failed",
            "eps=0.1: jump LSC margin negative",
        ]
        assert not rep.ok and rep.as_dict()["violations"] == rep.violations

    def test_geometry_mismatch_rejected(self):
        a = fixture_runaway(1.0, resolution=8)
        b = fixture_runaway(1.0, resolution=16)
        with pytest.raises(Exception):
            compactness_report([a, b], eps_ladder=[0.2])

    def test_eps_ladder_must_decrease(self):
        u = fixture_runaway(1.0, resolution=8)
        with pytest.raises(ValueError):
            compactness_report([u], eps_ladder=[0.1, 0.2])
