from __future__ import annotations

import numpy as np
import pytest

from _fixtures import cluster_plate, dyadic_profile, jumpy_fixture, random_fixture
from _oracles import (
    array_best_radius,
    best_radius,
    gap_boundary,
    jump_faces,
    label_arrays,
    label_boundary,
    new_cracks,
    objective_pieces,
    partition_csv,
    partition_outside_jump,
    partition_stats,
    upper_cell,
)
from _oracles import select_radii as oracle_select_radii
from crackgrid.analysis import bubble_partition
from crackgrid.bubbles import extract_bubbles
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    energy,
    kyfan_distance,
)
from crackgrid.partition import (
    KIND_GAP_MINUS,
    KIND_GAP_PLUS,
    KIND_MAIN,
    KIND_VANISHING,
    DomainPartition,
    RadiusChoice,
    build_partition,
    perturbed_translation,
    renormalize,
    select_radii,
    vanishing_region,
)
from crackgrid.profile import ConcentrationProfile, concentration_profile


def staircase_pipeline(n, eps=0.1, ref=1.0, gap=2.0, w=1.0):
    u = fixture_staircase(n)
    f = concentration_profile(u, window=w)
    dec, radii, part = bubble_partition(u, f, eps, ref, gap)
    return u, f, dec, radii, part


class TestSelectRadii:
    def test_flat_profile_picks_midpoint(self):
        f = ConcentrationProfile.empty()
        bubbles = [type("B", (), {"center": 0.0})()]
        choices = select_radii(f, [RadiusChoice(0.0, 1.0, 1.0, 0.0, 0.0)], 1.0, 1.0)
        # zero profile: any radius works, midpoint chosen, achieved value 0
        [c] = choices
        assert c.r_plus == 1.5 and c.r_minus == 1.5
        assert c.achieved == 0.0

    def test_rejects_an_empty_search_interval(self):
        f = ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0)])
        bubbles = [RadiusChoice(0.0, 1.0, 1.0, 0.0, 0.0)]
        for base, width, match in ((1.0, 0.0, "width must be positive"),
                                   (0.0, 1.0, "base_radius must be positive"),
                                   (1e20, 1.0, "width vanishes")):
            with pytest.raises(ValueError, match=match):
                select_radii(f, bubbles, base, width)

    def test_min_below_interval_average(self):
        _, f, dec, radii, _ = staircase_pipeline(16)
        for c in radii:
            assert c.achieved <= c.interval_average + 1e-12

    def test_spike_is_avoided(self):
        # profile with one tall plateau inside the search interval: the chosen
        # radius lands outside the spike's plateau
        f = ConcentrationProfile.from_intervals(
            [(1.25, 1.5, 8.0), (0.0, 4.0, 0.25)])
        [c] = select_radii(f, [RadiusChoice(0.0, 1.0, 1.0, 0.0, 0.0)], 1.0, 1.0, window=1.0)
        assert not (1.25 <= c.r_plus < 1.5)

    def test_achieved_matches_fine_scan_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            parts = [(float(a), float(a) + float(wd), float(h)) for a, wd, h in zip(
                rng.uniform(-6, 6, 6), rng.uniform(0.1, 2.5, 6), rng.uniform(0.1, 3.0, 6))]
            f = ConcentrationProfile.from_intervals(parts)
            center = float(rng.uniform(-2, 2))
            w = 1.0
            [c] = select_radii(f, [RadiusChoice(center, 1.0, 1.0, 0.0, 0.0)], 1.0, 1.0, window=w)

            def objective(r):
                return (f.value_at(center + r) + f.value_at(center + r + w)
                        + f.value_at(center - r) + f.value_at(center - r - w))

            scan = np.linspace(1.0 + 1e-9, 2.0 - 1e-9, 4001)
            best = min(objective(r) for r in scan)
            assert c.achieved <= best + 1e-12
            assert objective(c.r_plus) == pytest.approx(c.achieved, abs=1e-12)


class TestSelectRadiiOracle:
    """The one-pass objective over all bubbles against the per-bubble loops it
    replaced: the array loop (the breakpoint array mapped once per bubble and
    offset) and the breakpoint-by-breakpoint loop, with every ``RadiusChoice``
    field compared byte for byte."""

    @staticmethod
    def assert_matches_loops(f, bubbles, base_radius, width, window):
        fast = select_radii(f, bubbles, base_radius, width, window=window)
        for best in (array_best_radius, best_radius):
            slow = oracle_select_radii(f, bubbles, base_radius, width, window, best=best)
            assert repr(fast) == repr(slow)
        assert all(type(x) is float for c in fast for x in c.as_dict().values())
        return fast

    @staticmethod
    def tied(f, center, base, width, w):
        offsets = [(1.0, center), (1.0, center + w), (-1.0, center), (-1.0, center - w)]
        values = [v for _, _, v in objective_pieces(f, offsets, base, base + width)]
        return values.count(min(values)) > 1

    def test_dyadic_profiles_with_ties_and_edge_breakpoints(self):
        rng = np.random.default_rng(404)
        ties = edges = 0
        for _ in range(40):
            n = int(rng.integers(1, 12))
            lo = rng.integers(-24, 24, n) / 4
            rows = np.column_stack([lo, lo + rng.integers(1, 16, n) / 4,
                                    rng.integers(1, 4, n) / 2])
            f = ConcentrationProfile.from_intervals(rows)
            centers = rng.integers(-12, 12, int(rng.integers(1, 4))) / 4
            bubbles = [RadiusChoice(float(c), 1.0, 1.0, 0.0, 0.0) for c in centers]
            base, width = float(rng.choice([0.5, 1.0])), float(rng.choice([0.5, 1.0, 2.0]))
            w = float(rng.choice([0.5, 1.0]))
            self.assert_matches_loops(f, bubbles, base, width, w)
            for c in centers:
                ties += self.tied(f, c, base, width, w)
                r = np.concatenate([f.breakpoints - c, c - f.breakpoints])
                edges += bool(np.isin([base, base + width], r).any())
        # the cases exercise the leftmost-plateau rule and cuts falling on lo/hi
        assert ties and edges

    def test_empty_profile(self):
        bubbles = [RadiusChoice(0.0, 1.0, 1.0, 0.0, 0.0), RadiusChoice(5.0, 1.0, 1.0, 0.0, 0.0)]
        got = self.assert_matches_loops(ConcentrationProfile.empty(), bubbles, 1.0, 1.0, 1.0)
        assert [(c.r_plus, c.achieved) for c in got] == [(1.5, 0.0), (1.5, 0.0)]

    def test_empty_bubble_list(self):
        f = ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0)])
        for g in (f, ConcentrationProfile.empty()):
            assert self.assert_matches_loops(g, [], 1.0, 1.0, 1.0) == []

    def test_no_breakpoint_inside_any_band(self):
        # every band edge level center +- r, center +- (r + w) for r in (1, 2)
        # stays on one plateau: no cut, one piece per bubble
        f = ConcentrationProfile.from_intervals([(-20.0, -10.0, 1.0), (10.0, 20.0, 0.5),
                                                 (-0.5, 0.5, 2.0)])
        bubbles = [RadiusChoice(c, 1.0, 1.0, 0.0, 0.0) for c in (0.0, 0.25, -0.25)]
        got = self.assert_matches_loops(f, bubbles, 1.0, 1.0, 1.0)
        assert [(c.r_plus, c.achieved) for c in got] == [(1.5, 0.0)] * 3
        # every level on a -0.0 plateau: the objective is summed from +0.0
        f = ConcentrationProfile([-9.0, 9.0], [0.0, -0.0, 0.0])
        [c] = self.assert_matches_loops(f, bubbles[:1], 1.0, 1.0, 1.0)
        assert repr(c.achieved) == "0.0"

    def test_bands_past_both_ends_of_the_profile(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0), (0.25, 0.5, 2.0)])
        # below, above, astride the whole support, and reaching one end only
        bubbles = [RadiusChoice(c, 1.0, 1.0, 0.0, 0.0) for c in (-40.0, 40.0, 0.5, 2.5, -1.75)]
        got = self.assert_matches_loops(f, bubbles, 1.0, 1.0, 1.0)
        assert [c.achieved for c in got][:3] == [0.0, 0.0, 0.0]
        self.assert_matches_loops(f, bubbles, 0.125, 8.0, 0.5)

    def test_breakpoints_at_the_rounded_band_ends(self):
        # breakpoints on and one ulp around every rounded band end
        # scale * lo + shift, scale * hi + shift, with non-dyadic centers,
        # where the breakpoint slices and the cut filter must agree
        rng = np.random.default_rng(409)
        for _ in range(30):
            centers = np.round(rng.uniform(-3, 3, 3), 1)
            base, width, w = 0.3, float(rng.choice([0.7, 1.1])), 0.7
            lo, hi = base, base + width
            ends = [s + k for c in centers for s in (c, c + w, c - w)
                    for k in (lo, hi, -lo, -hi)]
            bp = np.unique(np.concatenate([np.nextafter(ends, -np.inf), ends,
                                           np.nextafter(ends, np.inf)]))
            pv = np.concatenate([[0.0], rng.integers(1, 5, bp.size - 1) / 4, [0.0]])
            f = ConcentrationProfile(bp, pv)
            bubbles = [RadiusChoice(float(c), 1.0, 1.0, 0.0, 0.0) for c in centers]
            self.assert_matches_loops(f, bubbles, base, width, w)

    def test_equal_centers(self):
        rng = np.random.default_rng(406)
        f = dyadic_profile(rng, 8)
        bubbles = [RadiusChoice(c, 1.0, 1.0, 0.0, 0.0) for c in (3.0, 3.0, -1.0, 3.0, -1.0)]
        got = self.assert_matches_loops(f, bubbles, 0.5, 2.0, 1.0)
        assert got[0] == got[1] == got[3] and got[2] == got[4]

    def test_many_bubbles_with_tied_minima(self):
        rng = np.random.default_rng(407)
        for _ in range(6):
            f = dyadic_profile(rng, 40)
            lo, hi = f.support()
            centers = np.sort(rng.integers(int(4 * lo), int(4 * hi), 24) / 4)
            bubbles = [RadiusChoice(float(c), 1.0, 1.0, 0.0, 0.0) for c in centers]
            base, width = float(rng.choice([0.25, 1.0])), float(rng.choice([2.0, 4.0]))
            self.assert_matches_loops(f, bubbles, base, width, 1.0)
            assert sum(self.tied(f, c, base, width, 1.0) for c in centers) >= 5

    def test_multi_bubble_plates(self):
        rng = np.random.default_rng(408)
        for spacing in (8.0, 6.0, 5.0):
            u = cluster_plate(rng, spacing=spacing)
            f = concentration_profile(u, window=1.0)
            dec = extract_bubbles(f, eps=0.02, gap_delta=2.0, ref_radius=1.0)
            assert len(dec.bubbles) >= 20
            self.assert_matches_loops(f, dec.bubbles, 1.0, 1.0, 1.0)

    def test_fixture_profiles(self):
        rng = np.random.default_rng(405)
        for k in range(8):
            u = jumpy_fixture(rng, shape=(10, 12)) if k % 2 else \
                random_fixture(rng, max_1d=200, max_2d=16)
            f = concentration_profile(u, window=0.5)
            dec = extract_bubbles(f, eps=0.02, gap_delta=0.5, ref_radius=0.25)
            assert dec.bubbles
            self.assert_matches_loops(f, dec.bubbles, 0.25, 0.5, 0.5)


class TestPartitionStatsOracle:
    """Label codes, per-label statistics, label boundaries and the label raster
    against one cell, one ``CellSet`` and one label mask at a time."""

    @staticmethod
    def random_partition(rng) -> tuple[GridFunction, DomainPartition]:
        u = random_fixture(rng, max_1d=160, max_2d=20)
        w = float(rng.choice([0.25, 0.5, 1.0, 0.1, 1 / 3]))
        # sequential bands: touching (gap 0) or apart, some beyond the value range
        t = float(rng.choice([np.floor(u.values.min()), rng.uniform(-8.0, 4.0)]))
        pieces = []
        for _ in range(int(rng.integers(0, 4))):
            r_minus, r_plus = (float(rng.choice([0.25, 0.5, 1.0, 0.3])) for _ in range(2))
            t += float(rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 3.0)])) + w
            center = t + r_minus
            pieces.append(RadiusChoice(center, r_minus, r_plus, 0.0, 0.0))
            t = center + r_plus + w
        return u, DomainPartition(u, pieces, window=w)

    def test_random_partitions_match(self):
        rng = np.random.default_rng(406)
        absent = empty = gap_on_box = 0
        for _ in range(80):
            u, part = self.random_partition(rng)
            kind, index = label_arrays(u, part)
            assert part.label_kind.dtype == kind.dtype and np.array_equal(part.label_kind, kind)
            assert part.label_index.dtype == index.dtype \
                and np.array_equal(part.label_index, index)
            assert list(part.stats.items()) == list(partition_stats(part, u).items())
            for axis in range(u.geom.dim):
                assert np.array_equal(part.label_boundary(axis), label_boundary(part, axis))
            assert part.to_csv() == partition_csv(part)
            assert part.outside_jump == partition_outside_jump(part, u)
            assert part.gap_boundary == gap_boundary(part)
            absent += len(part.stats) < 4 * len(part.pieces) + 1
            empty += not part.pieces
            is_gap = np.isin(part.label_kind, (KIND_GAP_PLUS, KIND_GAP_MINUS))
            gap_on_box += any(is_gap.take([0, -1], axis=axis).any()
                              for axis in range(u.geom.dim))
        # the cases include labels with no cell, partitions with no piece and
        # gap cells in the box layers (their box faces count as gap boundary)
        assert absent and empty and gap_on_box

    def test_label_arrays_are_computed_once_and_read_only(self):
        u, part = self.random_partition(np.random.default_rng(7))
        for name, dtype in (("label_kind", np.uint8), ("label_index", np.int32)):
            arr = getattr(part, name)
            assert arr is getattr(part, name)
            assert arr.dtype == dtype and arr.shape == u.geom.shape
            with pytest.raises(ValueError):
                arr[...] = 0


class TestBuildPartition:
    def test_runaway_two_main_pieces(self):
        n = 50.0
        u = fixture_runaway(n)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        assert part.volume_by_kind(KIND_MAIN) == 2.0
        assert part.volume_by_kind(KIND_GAP_PLUS) == 0.0
        assert part.volume_by_kind(KIND_GAP_MINUS) == 0.0
        assert part.volume_by_kind(KIND_VANISHING) == 0.0
        assert part.outside_jump == 0.0
        vols = sorted(s.volume for k, s in part.stats.items() if k.startswith("main"))
        assert vols == [1.0, 1.0]

    def test_staircase_vanishing_cells_match_enumeration(self):
        n = 16
        u, f, dec, radii, part = staircase_pipeline(n)
        bands = []
        for p in part.pieces:
            blo, bhi = p.center - p.r_minus, p.center + p.r_plus
            bands.append((blo - part.window, bhi + part.window))
        expected = 0
        for v in u.values.ravel():
            if not any(lo <= v < hi for lo, hi in bands):
                expected += 1
        assert part.volume_by_kind(KIND_VANISHING) == expected * u.geom.cell_volume
        assert part.outside_jump == 0.0  # every piece boundary is crack here

    def test_single_bubble_covers_constant_function(self):
        geom = GridGeometry((0.0, 0.0), 0.25, (4, 4))
        u = GridFunction(geom, np.zeros((4, 4)))
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        assert part.volume_by_kind(KIND_MAIN) == 1.0
        assert len(part.pieces) == 1

    def test_partition_is_complete(self):
        for n in (8, 16):
            u, _, _, _, part = staircase_pipeline(n)
            total = sum(s.volume for s in part.stats.values())
            assert total == u.geom.num_cells * u.geom.cell_volume

    def test_overlapping_bands_rejected(self):
        u = fixture_runaway(2.0)  # values 0 and 2: bands at radius 1.5 overlap
        pieces = [RadiusChoice(0.0, 1.5, 1.5, 0.0, 0.0), RadiusChoice(2.0, 1.5, 1.5, 0.0, 0.0)]
        with pytest.raises(ValueError, match="overlap"):
            DomainPartition(u, pieces, window=1.0)

    def test_gap_boundary_chain(self):
        # union of gap boundaries is controlled by the achieved radius values
        # plus the trace mass inside the gap bands
        n = 16
        u, f, dec, radii, part = staircase_pipeline(n)
        side_measure = 0.0
        area = u.geom.face_area
        bands = []
        for p in part.pieces:
            blo, bhi = p.center - p.r_minus, p.center + p.r_plus
            bands.append((bhi, bhi + part.window))
            bands.append((blo - part.window, blo))

        def in_band(x):
            return any(lo <= x < hi for lo, hi in bands)

        for axis in range(2):
            nax = u.geom.shape[axis]
            v_lo = u.values.take(range(0, nax - 1), axis=axis)
            v_hi = u.values.take(range(1, nax), axis=axis)
            crack = u.crack_mask(axis)
            active = crack & (v_lo != v_hi)
            for v in v_lo[active].ravel():
                side_measure += area * in_band(v)
            for v in v_hi[active].ravel():
                side_measure += area * in_band(v)
            for v in u.values.take([0], axis=axis).ravel():
                side_measure += area * in_band(v)
            for v in u.values.take([nax - 1], axis=axis).ravel():
                side_measure += area * in_band(v)
        achieved = sum(c.achieved for c in radii)
        assert part.gap_boundary <= achieved + side_measure + 1e-12

    def test_gap_volume_isoperimetric(self):
        n = 16
        u, _, _, _, part = staircase_pipeline(n)
        c_grid = 1.0 / 16.0  # 2D grid isoperimetric constant, measured in test_analysis
        gap_vol = part.volume_by_kind(KIND_GAP_PLUS) + part.volume_by_kind(KIND_GAP_MINUS)
        assert gap_vol <= c_grid * part.gap_boundary**2 + 1e-12


class TestRenormalize:
    @pytest.mark.parametrize("n", [10.0, 100.0, 1000.0])
    def test_runaway_renormalizes_to_zero(self, n):
        u = fixture_runaway(n)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        w = renormalize(u, part)
        assert np.all(w.values == 0.0)
        zero = u.with_values(np.zeros(u.geom.shape))
        assert kyfan_distance(w, zero) == 0.0

    def test_sup_norm_bound(self):
        for n in (8, 16):
            u, f, dec, radii, part = staircase_pipeline(n)
            w = renormalize(u, part)
            max_radius = max(max(c.r_minus, c.r_plus) for c in radii)
            assert np.max(np.abs(w.values)) <= max_radius + part.window

    def test_jump_inequality_exact(self):
        rng = np.random.default_rng(19)
        for k in range(6):
            u = jumpy_fixture(rng, shape=(12, 12), spacing=0.25)
            u = u.with_values(u.values * 12.0)  # separate the value clusters
            f = concentration_profile(u)
            dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
            radii = select_radii(f, dec.bubbles, 1.0, 1.0)
            part = build_partition(u, radii, window=1.0)
            w = renormalize(u, part)
            assert w.jump_measure() <= u.jump_measure() + part.outside_jump + 1e-12

    def test_new_cracks_match_face_set_oracle(self):
        # smooth random data: partition boundaries cross uncracked faces
        rng = np.random.default_rng(41)
        added = 0
        for _ in range(10):
            u = random_fixture(rng, max_1d=64, max_2d=12)
            f = concentration_profile(u)
            dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
            radii = select_radii(f, dec.bubbles, 1.0, 1.0) if dec.bubbles else []
            part = build_partition(u, radii, window=1.0)
            w = renormalize(u, part)
            assert w.cracks == new_cracks(u, part)
            assert perturbed_translation(u, part).cracks == w.cracks
            added += len(w.cracks) - len(u.cracks)
        assert added > 0

    def test_bulk_preserved_on_main_zeroed_elsewhere(self):
        rng = np.random.default_rng(4)
        u = jumpy_fixture(rng, shape=(10, 10), spacing=0.5)
        u = u.with_values(u.values * 12.0 + rng.normal(0, 0.01, size=(10, 10)))
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        w = renormalize(u, part)
        # bulk only lives on non-crack faces interior to pieces, where the
        # translation cancels; everywhere else w is constant per label
        assert energy(w, 2.0).bulk <= energy(u, 2.0).bulk + 1e-12
        h = u.geom.spacing
        expected = 0.0
        for axis in range(2):
            nax = u.geom.shape[axis]
            same_main = (
                (part.label_kind.take(range(0, nax - 1), axis=axis) == KIND_MAIN)
                & (part.label_kind.take(range(1, nax), axis=axis) == KIND_MAIN)
                & (part.label_index.take(range(0, nax - 1), axis=axis)
                   == part.label_index.take(range(1, nax), axis=axis)))
            keep = same_main & ~u.crack_mask(axis)
            expected += float(np.sum(np.abs(u.face_delta(axis)[keep] / h) ** 2)) \
                * u.geom.cell_volume
        assert energy(w, 2.0).bulk == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_identity_when_single_zero_piece(self):
        u = fixture_staircase(4)
        part = DomainPartition(u, [RadiusChoice(0.0, 50.0, 50.0, 0.0, 0.0)], window=1.0)
        w = renormalize(u, part)
        assert np.array_equal(w.values, u.values)
        assert w.cracks == u.cracks

    def test_datum_piece_pins_translation(self):
        # u = h on the leftmost quarter (outside the working region); after
        # reduction the datum piece keeps constant zero, so the renormalized
        # function vanishes there even though the piece also holds other values
        res = 16
        u0 = fixture_runaway(40.0, resolution=res)
        vals = u0.values.copy()
        vals[res // 4 : res // 2, :] += 0.5  # left piece now holds {0, 0.5}
        vals += 5.0  # datum level
        u = u0.with_values(vals)
        datum = GridFunction(u.geom, np.full(u.geom.shape, 5.0))
        omega_mask = np.ones(u.geom.shape, dtype=bool)
        omega_mask[: res // 4, :] = False
        omega = CellSet(u.geom, omega_mask)
        v = u.subtract(datum)
        f = concentration_profile(v, window=1.0)
        dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(v, radii, window=1.0, omega=omega)
        assert part.datum_piece is not None
        w = renormalize(u.subtract(datum), part)
        assert np.all(w.values[~omega_mask] == 0.0)


class TestPerturbedTranslation:
    def test_runaway_partition_boundary_jumps(self):
        u = fixture_runaway(7.0)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        w = perturbed_translation(u, part)
        assert w.jump_measure() == 1.0  # the single interface, forced to jump

    def test_healed_interface_forced_to_jump(self):
        # two pieces whose renormalized traces agree across the crack: the
        # plain renormalization heals it, the perturbed one does not
        u = fixture_runaway(9.0)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        radii = select_radii(f, dec.bubbles, 1.0, 1.0)
        part = build_partition(u, radii, window=1.0)
        plain = renormalize(u, part)
        assert plain.jump_measure() == 0.0
        forced = perturbed_translation(u, part)
        assert forced.jump_measure() == 1.0

    def test_jump_equals_union_measure(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            u = jumpy_fixture(rng, shape=(10, 10), spacing=0.5)
            u = u.with_values(u.values * 12.0)
            f = concentration_profile(u)
            dec = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
            radii = select_radii(f, dec.bubbles, 1.0, 1.0)
            part = build_partition(u, radii, window=1.0)
            w = perturbed_translation(u, part)
            # exact identity: partition boundaries plus jump faces interior
            # to the main pieces (aggregate-interior jumps heal)
            ids = np.where(part.label_kind == KIND_MAIN, part.label_index, -1)
            union = set()
            for f_ in jump_faces(u):
                a, b = ids[f_[1:]], ids[upper_cell(f_)]
                if a == b and a != -1:
                    union.add(f_)
            for axis in range(2):
                nax = u.geom.shape[axis]
                id_lo = ids.take(range(0, nax - 1), axis=axis)
                id_hi = ids.take(range(1, nax), axis=axis)
                for idx in np.argwhere(id_lo != id_hi):
                    union.add((axis, *(int(x) for x in idx)))
            assert w.jump_measure() == pytest.approx(
                len(union) * u.geom.face_area, abs=1e-12)
            assert jump_faces(w) == frozenset(union)

    def test_staircase_stays_below_energy(self):
        for n in (8, 16):
            u, f, dec, radii, part = staircase_pipeline(n)
            w = perturbed_translation(u, part)
            assert w.jump_measure() <= 3 - 1 / n + 1e-12


class TestVanishingRegion:
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_staircase_strip_volume(self, n):
        u = fixture_staircase(n)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        region = vanishing_region(u, dec.bubbles, radius=1.0)
        assert region.volume() == pytest.approx(1 / n, abs=1e-15)

    def test_runaway_region_empty(self):
        u = fixture_runaway(25.0)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        region = vanishing_region(u, dec.bubbles, radius=1.0)
        assert region.volume() == 0.0
