from __future__ import annotations

import numpy as np
import pytest

from _fixtures import all_interior_faces, random_fixture, random_mask
from _oracles import boundary_face_keys, crack_rows, face_ids, jump_faces
from _oracles import kyfan_distance as oracle_kyfan_distance
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    FaceId,
    GeometryMismatchError,
    GridFunction,
    GridGeometry,
    boundary_outside_jump,
    cell_set_from_dict,
    cell_set_to_dict,
    energy,
    grid_function_from_dict,
    grid_function_to_dict,
    kyfan_distance,
    level_set,
)


def brute_force_boundary_faces(S: CellSet, include_box: bool):
    """Oracle: enumerate every face and classify by hand."""
    geom = S.geom
    m = S.mask
    count = 0
    for axis in range(geom.dim):
        shp = list(geom.shape)
        shp[axis] -= 1
        for idx in np.ndindex(*shp):
            upper = tuple(i + (1 if k == axis else 0) for k, i in enumerate(idx))
            if m[tuple(idx)] != m[upper]:
                count += 1
        if include_box:
            for idx in np.ndindex(*geom.shape):
                if idx[axis] == 0 and m[idx]:
                    count += 1
                if idx[axis] == geom.shape[axis] - 1 and m[idx]:
                    count += 1
    return count


class TestEnergy:
    def test_runaway_bounded_energy(self):
        for n in (1.0, 7.0, 1e9):
            rep = energy(fixture_runaway(n), p=2.0)
            assert rep.bulk == 0.0
            assert rep.jump == 1.0
            assert rep.total == 1.0

    def test_runaway_healed_at_zero(self):
        rep = energy(fixture_runaway(0.0), p=2.0)
        assert rep.jump == 0.0

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_staircase_jump(self, n):
        rep = energy(fixture_staircase(n), p=2.0)
        assert rep.bulk == 0.0
        assert abs(rep.jump - (3 - 1 / n)) < 1e-12

    def test_staircase_jump_refined_grid(self):
        rep = energy(fixture_staircase(4, cells_per_step=8), p=2.0)
        assert rep.jump == 2.75

    def test_staircase_jump_non_dyadic_n(self):
        rep = energy(fixture_staircase(100), p=2.0)
        assert abs(rep.jump - 2.99) < 1e-12

    def test_constant(self):
        geom = GridGeometry((0.0,), 0.5, (8,))
        rep = energy(GridFunction(geom, np.full(8, 3.25)), p=1.5)
        assert rep.bulk == 0.0 and rep.jump == 0.0

    def test_bulk_matches_hand_sum(self):
        geom = GridGeometry((0.0,), 0.5, (4,))
        u = GridFunction(geom, [0.0, 1.0, 3.0, 3.0], [FaceId(0, (1,))])
        rep = energy(u, p=2.0)
        # faces: 0-1 quotient 2, 1-2 cracked (jump 2), 2-3 quotient 0
        assert rep.bulk == (2.0**2) * 0.5
        assert rep.jump == 1.0

    def test_invariant_under_global_constant(self):
        rng = np.random.default_rng(7)
        u = random_fixture(rng, dim=2, max_2d=12)
        shifted = u.with_values(u.values + 5.0)
        a, b = energy(u), energy(shifted)
        assert a.jump == b.jump
        # integer-valued fixtures would give bit equality; generic floats stay close
        assert abs(a.bulk - b.bulk) <= 1e-9 * max(1.0, a.bulk)

    def test_invariant_under_piecewise_translation(self):
        # Runaway right piece: its whole relative boundary is crack.
        u = fixture_runaway(3.0)
        piece = u.values > 1.5
        for c in (1.0, -2.5, 1000.0):
            v = u.add_on(piece, c)
            a, b = energy(u), energy(v)
            assert a.bulk == b.bulk and a.jump == b.jump


class TestLevelSet:
    def test_constant_full_and_empty(self):
        geom = GridGeometry((0.0, 0.0), 1.0, (3, 3))
        u = GridFunction(geom, np.zeros((3, 3)))
        assert level_set(u, -1.0).volume() == 9.0
        assert level_set(u, 0.0).volume() == 0.0  # strict inequality

    def test_staircase_midlevel(self):
        n = 4
        u = fixture_staircase(n)
        S = level_set(u, 2.5)
        expected = int(np.count_nonzero(u.values > 2.5)) * u.geom.cell_volume
        assert S.volume() == expected
        assert abs(S.volume() - (1 - 1 / n + 2 / n**2)) < 1e-12


class TestBoundaryOutsideJump:
    def test_smooth_ramp_counts_sign_changes(self):
        geom = GridGeometry((0.0,), 1.0, (6,))
        u = GridFunction(geom, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        S = level_set(u, 2.5)
        assert boundary_outside_jump(S, u) == 1.0  # single crossing face

    def test_runaway_piece_boundary_is_pure_crack(self):
        u = fixture_runaway(5.0)
        S = level_set(u, 2.5)  # the right piece
        assert boundary_outside_jump(S, u) == 0.0

    def test_random_8x8_against_enumeration(self):
        rng = np.random.default_rng(11)
        geom = GridGeometry((0.0, 0.0), 0.5, (8, 8))
        u = GridFunction(
            geom,
            rng.integers(0, 4, size=(8, 8)).astype(float),
            [f for f in all_interior_faces(geom) if rng.random() < 0.3],
        )
        S = random_mask(rng, geom)
        jump = {("i", f.axis, f.cell) for f in jump_faces(u)}
        count = sum(1 for key in boundary_face_keys(S) if key[0] == "i" and key not in jump)
        assert boundary_outside_jump(S, u) == count * geom.face_area

    def test_geometry_mismatch(self):
        u = fixture_runaway(1.0, resolution=8)
        S = CellSet(GridGeometry((0.0, 0.0), 1.0, (2, 2)), np.ones((2, 2)))
        with pytest.raises(GeometryMismatchError):
            boundary_outside_jump(S, u)


class TestCellSetMeasures:
    def test_against_enumeration_small_masks(self):
        rng = np.random.default_rng(3)
        geom = GridGeometry((0.0, 0.0), 0.25, (4, 4))
        for _ in range(200):
            S = random_mask(rng, geom)
            vol = int(np.count_nonzero(S.mask)) * geom.cell_volume
            assert S.volume() == vol
            assert S.perimeter() == brute_force_boundary_faces(S, True) * geom.face_area
            assert S.relative_perimeter() == brute_force_boundary_faces(S, False) * geom.face_area


class TestKyFan:
    def test_identical(self):
        u = fixture_runaway(2.0)
        assert kyfan_distance(u, u) == 0.0

    def test_constant_difference(self):
        # |u - v| = 0.5 on a domain of volume 2 -> distance 0.5
        u = fixture_runaway(0.0)
        v = u.with_values(u.values + 0.5)
        assert kyfan_distance(u, v) == 0.5

    def test_constant_difference_saturates_at_volume(self):
        geom = GridGeometry((0.0,), 0.25, (4,))  # domain volume 1
        u = GridFunction(geom, np.zeros(4))
        v = u.with_values(u.values + 3.0)
        assert kyfan_distance(u, v) == 1.0

    def test_metric_properties_random(self):
        rng = np.random.default_rng(5)
        geom = GridGeometry((0.0, 0.0), 0.5, (6, 5))
        fns = [GridFunction(geom, rng.normal(size=(6, 5))) for _ in range(6)]
        for a in fns:
            for b in fns:
                dab = kyfan_distance(a, b)
                assert dab == kyfan_distance(b, a)
                if a is b:
                    assert dab == 0.0
                for c in fns:
                    assert dab <= kyfan_distance(a, c) + kyfan_distance(c, b) + 1e-12

    def test_against_candidate_scan_oracle(self):
        # the optimum is either an exceedance volume or a difference level;
        # scanning all candidates against the raw definition must agree
        rng = np.random.default_rng(29)
        for _ in range(20):
            u = random_fixture(rng, max_1d=40, max_2d=7)
            v = u.with_values(u.values + rng.normal(0, 1, size=u.geom.shape))
            diff = np.abs(u.values - v.values).ravel()
            vol = u.geom.cell_volume

            def exceed(d):
                return np.count_nonzero(diff > d) * vol

            candidates = sorted({0.0} | set(diff.tolist())
                                | {exceed(d) for d in diff} | {diff.size * vol})
            brute = min(c for c in candidates if exceed(c) <= c)
            assert kyfan_distance(u, v) == pytest.approx(brute, abs=1e-14)

    @staticmethod
    def assert_matches_level_walk(u, v):
        got, want = kyfan_distance(u, v), oracle_kyfan_distance(u, v)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        return got

    def test_matches_level_walk_oracle(self):
        line = GridGeometry((0.0,), 1.0, (4,))
        zero = GridFunction(line, np.zeros(4))
        # every level exceeded by more volume than itself: the walk ends past the last level
        assert self.assert_matches_level_walk(zero, zero.with_values([0.1, 0.2, 0.3, 0.4])) == 0.4
        assert self.assert_matches_level_walk(zero, zero) == 0.0
        ties = GridFunction(GridGeometry((0.0,), 0.25, (8,)),
                            [0.5, 0.5, 0.25, -0.25, 1.0, 0.0, 0.0, 0.5])
        self.assert_matches_level_walk(ties, ties.with_values(np.zeros(8)))
        one = GridFunction(GridGeometry((0.0,), 0.5, (1,)), [0.0])
        for value in (0.0, 0.1, 0.5, 3.0):
            self.assert_matches_level_walk(one, one.with_values([value]))
        rng = np.random.default_rng(67)
        for _ in range(40):
            u = random_fixture(rng, max_1d=40, max_2d=7)
            scale = float(rng.choice([0.25, 1.0, 1 / 3]))
            v = u.with_values(u.values + scale * rng.integers(-3, 4, size=u.geom.shape))
            self.assert_matches_level_walk(u, v)
            self.assert_matches_level_walk(u, u)


def coarea_sides(u: GridFunction):
    """Oracle for the discrete coarea identity, by direct enumeration."""
    h = u.geom.spacing
    area = u.geom.face_area
    pairs = []
    for axis in range(u.geom.dim):
        d = u.face_delta(axis)
        keep = ~u.crack_mask(axis)
        lo = np.minimum(u.values.take(range(0, u.geom.shape[axis] - 1), axis=axis),
                        u.values.take(range(1, u.geom.shape[axis]), axis=axis))
        pairs.extend(zip(lo[keep].ravel(), np.abs(d[keep]).ravel()))
    rhs = sum(w for _, w in pairs) * area
    # integrate the level count exactly over the breakpoint intervals
    points = sorted({float(a) for a, w in pairs if w} | {float(a + w) for a, w in pairs if w})
    lhs = 0.0
    for t0, t1 in zip(points, points[1:]):
        mid = 0.5 * (t0 + t1)
        count = sum(1 for a, w in pairs if w and a <= mid < a + w)
        lhs += count * area * (t1 - t0)
    return lhs, rhs


def test_discrete_coarea_identity():
    rng = np.random.default_rng(17)
    for _ in range(8):
        u = random_fixture(rng, max_1d=64, max_2d=12)
        lhs, rhs = coarea_sides(u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestSerialization:
    def test_grid_function_round_trip(self):
        u = fixture_staircase(4)
        doc = grid_function_to_dict(u)
        v = grid_function_from_dict(doc)
        assert v.geom == u.geom
        assert np.array_equal(v.values, u.values)
        assert v.cracks == u.cracks

    def test_cell_set_round_trip(self):
        rng = np.random.default_rng(2)
        S = random_mask(rng, GridGeometry((0.0, 0.0), 0.5, (5, 7)))
        T = cell_set_from_dict(cell_set_to_dict(S))
        assert T.geom == S.geom
        assert np.array_equal(T.mask, S.mask)

    def test_masks_match_face_set_oracles(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            u = random_fixture(rng, max_1d=64, max_2d=12)
            masks = [u.crack_mask(k) for k in range(u.geom.dim)]
            assert u.cracks == face_ids(masks)
            assert face_ids(u.jump_mask(k) for k in range(u.geom.dim)) == jump_faces(u)
            doc = grid_function_to_dict(u)
            assert doc["cracks"] == crack_rows(u)
            v = grid_function_from_dict(doc)
            w = u.with_values(u.values + 1.0)
            for k, mask in enumerate(masks):
                assert not mask.flags.writeable
                assert np.array_equal(v.crack_mask(k), mask)
                assert w.crack_mask(k) is mask  # shared, not copied

    def test_jump_masks_are_computed_once_and_read_only(self):
        rng = np.random.default_rng(61)
        for _ in range(6):
            u = random_fixture(rng, max_1d=64, max_2d=12)
            flat = u.with_values(np.zeros(u.geom.shape))  # shares the cracks, jumps nowhere
            for k in range(u.geom.dim):
                mask = u.jump_mask(k)
                assert mask is u.jump_mask(k)
                assert not mask.flags.writeable
                with pytest.raises(ValueError):
                    mask[...] = False
                assert np.array_equal(mask, u.crack_mask(k) & (np.diff(u.values, axis=k) != 0))
                assert not flat.jump_mask(k).any()
                assert np.array_equal(u.jump_mask(k), mask)

    def test_duplicate_cracks_rejected(self):
        doc = grid_function_to_dict(fixture_staircase(2))
        doc["cracks"].append(doc["cracks"][0])
        with pytest.raises(ValueError, match="duplicate"):
            grid_function_from_dict(doc)

    def test_value_length_checked(self):
        doc = grid_function_to_dict(fixture_staircase(2))
        doc["values"] = doc["values"][:-1]
        with pytest.raises(ValueError):
            grid_function_from_dict(doc)

    def test_nonfinite_rejected(self):
        geom = GridGeometry((0.0,), 1.0, (2,))
        with pytest.raises(ValueError):
            GridFunction(geom, [0.0, float("nan")])


class TestValidation:
    def test_crack_must_be_interior(self):
        geom = GridGeometry((0.0,), 1.0, (3,))
        with pytest.raises(ValueError):
            GridFunction(geom, [0.0, 1.0, 2.0], [FaceId(0, (2,))])

    def test_cell_count_does_not_overflow(self):
        geom = GridGeometry((0.0, 0.0), 1.0, (2**32, 2**32))
        assert geom.num_cells == 2**64
        with pytest.raises(ValueError, match=f"expected {2**64} values"):
            GridFunction(geom, [0.0])

    def test_dim_checked(self):
        with pytest.raises(ValueError):
            GridGeometry((0.0, 0.0, 0.0), 1.0, (2, 2, 2))

    def test_spacing_positive(self):
        with pytest.raises(ValueError):
            GridGeometry((0.0,), 0.0, (4,))
