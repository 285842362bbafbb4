from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import _oracles
from _fixtures import empty_profile, jumpy_fixture, random_fixture, random_mask, random_profile
from _oracles import jump_boundary_measure, value_at
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import CellSet, GridFunction, GridGeometry, crack_masks_from_rows
from crackgrid.profile import (
    ConcentrationProfile,
    concentration_profile,
    levy_concentration,
    profile_to_csv,
)


def oracle_value(u: GridFunction, inside: np.ndarray, w: float, t: float) -> float:
    """Evaluate the profile at a non-breakpoint t by enumerating every face."""
    area = u.geom.face_area
    total = 0.0
    crack_set = u.cracks
    for axis in range(u.geom.dim):
        shp = list(u.geom.shape)
        shp[axis] -= 1
        for idx in np.ndindex(*shp):
            upper = tuple(i + (1 if k == axis else 0) for k, i in enumerate(idx))
            a, b = u.values[tuple(idx)], u.values[upper]
            ia, ib = inside[tuple(idx)], inside[upper]
            is_crack = (axis, *idx) in crack_set
            if ia and ib:
                if is_crack:
                    if a != b:
                        for tr in (a, b):
                            if tr - w < t < tr + w:
                                total += area
                elif (a > t) != (b > t):
                    total += area
            elif ia or ib:
                tr = a if ia else b
                if tr - w < t < tr + w:
                    total += area
        for idx in np.ndindex(*u.geom.shape):
            for side in (0, u.geom.shape[axis] - 1):
                if idx[axis] == side and inside[idx]:
                    tr = u.values[idx]
                    if tr - w < t < tr + w:
                        total += area
    return total


def sample_points(f: ConcentrationProfile, rng: np.random.Generator,
                  forbidden: np.ndarray | None = None) -> list[float]:
    """Sample levels away from every potential plateau endpoint (pointwise
    values at endpoints are a measure-zero convention, not profile content)."""
    bp = f.breakpoints
    if bp.size == 0:
        return [0.0, 1.0]
    pts = [float(0.5 * (a + b)) for a, b in zip(bp, bp[1:])]
    pts += [float(bp[0] - 0.7), float(bp[-1] + 0.7)]
    lo, hi = bp[0] - 1, bp[-1] + 1
    pts += [float(x) for x in rng.uniform(lo, hi, size=8)]
    bad = bp if forbidden is None else np.concatenate([bp, forbidden])
    return [t for t in pts if np.all(np.abs(bad - t) > 1e-9)]


class TestProfileConstruction:
    def test_constant_on_unit_square(self):
        geom = GridGeometry((0.0, 0.0), 0.25, (4, 4))
        u = GridFunction(geom, np.zeros((4, 4)))
        f = concentration_profile(u, window=1.0)
        assert np.array_equal(f.breakpoints, [-1.0, 1.0])
        assert np.array_equal(f.plateau_values, [0.0, 4.0, 0.0])
        assert f.total_mass() == 8.0

    def test_one_dimensional_single_crack(self):
        # jump from 0 to 5 at the midpoint of (0,1): two crack traces plus
        # two boundary traces give height 2 on each window, total mass 8
        geom = GridGeometry((0.0,), 0.25, (4,))
        u = GridFunction(geom, [0.0, 0.0, 5.0, 5.0], crack_masks_from_rows(geom, [[0, 1]]))
        f = concentration_profile(u, window=1.0)
        assert np.array_equal(f.breakpoints, [-1.0, 1.0, 4.0, 6.0])
        assert np.array_equal(f.plateau_values, [0.0, 2.0, 0.0, 2.0, 0.0])
        assert f.total_mass() == 8.0

    def test_healed_crack_contributes_nothing(self):
        geom = GridGeometry((0.0,), 0.5, (2,))
        u = GridFunction(geom, [3.0, 3.0], crack_masks_from_rows(geom, [[0, 0]]))
        f = concentration_profile(u, window=1.0)
        # only the two boundary traces remain
        assert np.array_equal(f.breakpoints, [2.0, 4.0])
        assert f.total_mass() == 4.0

    def test_against_pointwise_oracle_random(self):
        rng = np.random.default_rng(23)
        for k in range(12):
            u = random_fixture(rng, max_1d=24, max_2d=7)
            w = float(rng.choice([0.5, 1.0, 2.0]))
            if rng.random() < 0.5:
                dom = None
                inside = np.ones(u.geom.shape, dtype=bool)
            else:
                dom = random_mask(rng, u.geom)
                inside = dom.mask
            f = concentration_profile(u, domain=dom, window=w)
            vals = u.values.ravel()
            forbidden = np.concatenate([vals, vals - w, vals + w])
            for t in sample_points(f, rng, forbidden):
                assert value_at(f, t) == pytest.approx(oracle_value(u, inside, w, t), abs=1e-12)

    def test_domain_restriction_sees_only_inside_values(self):
        u = fixture_runaway(9.0, resolution=8)
        left = CellSet(u.geom, u.values < 1)
        f = concentration_profile(u, domain=left, window=1.0)
        sup = f.support()
        assert sup == (-1.0, 1.0)

    def test_window_must_be_positive(self):
        u = fixture_runaway(1.0, resolution=8)
        with pytest.raises(ValueError):
            concentration_profile(u, window=0.0)

    @pytest.mark.parametrize("bp,pv,message", [
        ([0.0, 1.0], [0.0, 1.0], "need exactly one more plateau than breakpoints"),
        ([0.0, 1.0], [0.0, 1.0, 2.0, 0.0], "need exactly one more plateau than breakpoints"),
        ([1.0, 1.0], [0.0, 1.0, 0.0], "breakpoints must be strictly increasing"),
        ([2.0, 1.0], [0.0, 1.0, 0.0], "breakpoints must be strictly increasing"),
        ([0.0, 1.0], [1.0, 1.0, 0.0], "profile must vanish on the unbounded plateaus"),
        ([0.0, 1.0], [0.0, 1.0, 0.5], "profile must vanish on the unbounded plateaus"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, -1.0, 0.0], "plateau values must be nonnegative"),
    ])
    def test_constructor_rejects_malformed_arrays(self, bp, pv, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ConcentrationProfile(np.array(bp), np.array(pv))

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: ConcentrationProfile([-np.inf, 1.0], [0.0, 1.0, 0.0]),
                     "breakpoints and plateau", id="breakpoint -inf"),
        pytest.param(lambda: ConcentrationProfile([0.0, np.inf], [0.0, 1.0, 0.0]),
                     "breakpoints and plateau", id="breakpoint inf"),
        pytest.param(lambda: ConcentrationProfile([0.0, 1.0], [0.0, np.nan, 0.0]),
                     "breakpoints and plateau", id="plateau nan"),
        pytest.param(lambda: ConcentrationProfile([0.0, 1.0], [0.0, np.inf, 0.0]),
                     "breakpoints and plateau", id="plateau inf"),
        pytest.param(lambda: ConcentrationProfile([0.0, 1.0], [0.0, 1.0, 0.0], np.inf),
                     "window must be", id="window inf"),
        pytest.param(lambda: ConcentrationProfile([0.0, 1.0], [0.0, 1.0, 0.0], np.nan),
                     "window must be", id="window nan"),
        pytest.param(lambda: ConcentrationProfile.from_intervals([(0.0, 1.0, np.nan)]),
                     "interval ends", id="intervals weight nan"),
        pytest.param(lambda: ConcentrationProfile.from_intervals([(0.0, 1.0, np.inf)]),
                     "interval ends", id="intervals weight inf"),
        pytest.param(lambda: ConcentrationProfile.from_intervals([(-np.inf, 1.0, 1.0)]),
                     "interval ends", id="intervals lo -inf"),
        pytest.param(lambda: ConcentrationProfile.from_intervals([(0.0, np.inf, 1.0)]),
                     "interval ends", id="intervals hi inf"),
        pytest.param(lambda: ConcentrationProfile.from_intervals([(np.nan, 1.0, 1.0)]),
                     "interval ends", id="intervals lo nan"),
        pytest.param(lambda: ConcentrationProfile.from_intervals(
                         np.array([[0.0, 1.0, 1.0], [2.0, np.nan, 1.0]])),
                     "interval ends", id="interval array hi nan"),
        pytest.param(lambda: concentration_profile(fixture_runaway(1.0, resolution=8),
                                                   window=np.inf),
                     "window must be", id="concentration_profile window inf"),
        pytest.param(lambda: concentration_profile(fixture_runaway(1.0, resolution=8),
                                                   window=np.nan),
                     "window must be", id="concentration_profile window nan"),
    ])
    def test_non_finite_profile_is_rejected(self, build, message):
        # a NaN weight once passed the sign check as a NaN plateau, an inf weight
        # gave the empty profile, an inf end an infinite total mass, a NaN end
        # dropped its row, and an infinite window built infinite breakpoints
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("spacing", [0.1, 1 / 3, 0.25, 0.7])
    def test_matches_tuple_list_oracle(self, spacing):
        rng = np.random.default_rng(int(spacing * 1000))
        for k in range(6):
            v = jumpy_fixture(rng, shape=(11, 9)) if k % 3 == 0 else \
                random_fixture(rng, max_1d=160, max_2d=20)
            geom = GridGeometry(v.geom.origin, spacing, v.geom.shape)
            u = GridFunction(geom, v.values, [v.crack_mask(a) for a in range(geom.dim)])
            w = [1.0, 1 / 3, 0.1][k % 3]
            for dom in (None, random_mask(rng, geom)):
                f = concentration_profile(u, domain=dom, window=w)
                g = _oracles.concentration_profile(u, domain=dom, window=w)
                assert f.breakpoints.tobytes() == g.breakpoints.tobytes()
                assert f.plateau_values.tobytes() == g.plateau_values.tobytes()

    @pytest.mark.parametrize("spacing", [1 / 3, 0.1])
    @pytest.mark.parametrize("w", [1 / 3, 0.1])
    def test_one_sort_matches_two_search_oracle(self, spacing, w):
        # bit for bit against the tuple list merged by the two-search oracle,
        # on values with zero ends (0, -0 and +-w), values so large that
        # t - w == t + w drops their windows, an empty domain and one cell
        rng = np.random.default_rng(int(1000 * spacing) + int(1000 * w))
        big = [1e17, -1e17, 3e17]
        seen = Counter()
        for k in range(40):
            shape = [(1,), (1, 1), (int(rng.integers(2, 30)),),
                     tuple(int(n) for n in rng.integers(2, 9, size=2))][k % 4]
            geom = GridGeometry((0.0,) * len(shape), spacing, shape)
            pool = np.array([0.0, -0.0, w, -w, 1.0, 2.5, w + 1.0] + big[:k % 4])
            values = rng.choice(pool, size=shape)
            rows = [[axis, *idx] for axis in range(len(shape))
                    for idx in np.ndindex(*geom.face_shape(axis)) if rng.random() < 0.4]
            u = GridFunction(geom, values, crack_masks_from_rows(geom, rows))
            for dom in (None, CellSet(geom, np.zeros(shape, dtype=bool)), random_mask(rng, geom)):
                f = concentration_profile(u, domain=dom, window=w)
                g = _oracles.concentration_profile(u, domain=dom, window=w)
                assert f.breakpoints.tobytes() == g.breakpoints.tobytes()
                assert f.plateau_values.tobytes() == g.plateau_values.tobytes()
                inside = u.values if dom is None else u.values[dom.mask]
                seen["zero end"] += bool(np.any(f.breakpoints == 0.0))
                seen["dropped window"] += bool(np.isin(big, inside).any())
                seen["empty"] += f.breakpoints.size == 0
                seen["one cell"] += u.geom.num_cells == 1 and inside.size == 1
        assert min(seen.values()) >= 5, seen

    def test_from_intervals_takes_rows_or_tuples(self):
        rows = [(0.0, 1.0, 0.1), (0.5, 2.0, 1 / 3), (2.0, 2.0, 5.0), (1.0, 3.0, 0.0)]
        f = ConcentrationProfile.from_intervals(np.array(rows))
        for g in (ConcentrationProfile.from_intervals(rows),
                  ConcentrationProfile.from_intervals(iter(rows))):
            assert np.array_equal(f.breakpoints, g.breakpoints)
            assert np.array_equal(f.plateau_values, g.plateau_values)
        assert np.array_equal(f.breakpoints, [0.0, 0.5, 1.0, 2.0])
        assert ConcentrationProfile.from_intervals(np.empty((0, 3))).breakpoints.size == 0

    def test_from_intervals_matches_two_search_oracle(self):
        cases = [
            [(0.0, 1.0, 0.5), (0.0, 1.0, 0.25), (1.0, 2.0, 1 / 3), (0.0, 2.0, 0.1)],  # tied ends
            [(0.0, 1.0, 0.0), (0.5, 1.5, 1.0), (-1.0, 0.5, 0.0)],  # zero weights
            [(1.0, 0.0, 1.0), (2.0, 2.0, 3.0), (0.0, 1.0, 0.7)],  # hi <= lo rows
            [(1.0, 1.0, 1.0), (0.0, 1.0, 0.0)],  # nothing left
        ]
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            ends = np.round(rng.uniform(-3.0, 3.0, size=(n, 2)) * 4) / 4  # ties, some hi <= lo
            weights = rng.choice([0.0, 0.1, 1 / 3, 0.25, 2.0], size=n)
            cases.append([(float(a), float(b), float(w)) for (a, b), w in zip(ends, weights)])
        for rows in cases:
            want = _oracles.from_intervals(rows, window=0.5)
            for form in (np.array(rows), rows, tuple(rows)):
                got = ConcentrationProfile.from_intervals(form, window=0.5)
                assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
                assert got.plateau_values.tobytes() == want.plateau_values.tobytes()
                assert got.window == want.window

    def test_zero_breakpoint_is_positive_zero(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            zeros = rng.choice([0.0, -0.0], size=8)
            rows = [(float(z), 1.0, 0.5) for z in zeros] + [(-1.0, float(z), 0.25) for z in zeros]
            f = ConcentrationProfile.from_intervals(rows)
            assert np.array_equal(f.breakpoints, [-1.0, 0.0, 1.0])
            assert not np.signbit(f.breakpoints[1])


    def test_from_intervals_decides_a_negative_plateau_exactly(self):
        # the weights sum to -1 on (0, 1): no residue, so no clamp may hide it
        with pytest.raises(ValueError, match="^plateau values must be nonnegative$"):
            ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0), (0.0, 1.0, -2.0)])
        # 0.1 + 0.7 - 0.8 leaves float residue on (0, 1), which still gives a zero plateau
        assert 0.1 + 0.7 - 0.8 != 0.0
        rows = [(0.0, 1.0, 0.1), (0.0, 1.0, 0.7), (0.0, 1.0, -0.8), (1.0, 2.0, 0.5)]
        f = ConcentrationProfile.from_intervals(rows)
        assert f.breakpoints.tolist() == [1.0, 2.0]
        assert f.plateau_values.tolist() == [0.0, 0.5, 0.0]


class TestProfileQueries:
    def test_window_mass_full_support_is_total(self):
        u = fixture_staircase(4)
        f = concentration_profile(u)
        lo, hi = f.support()
        c = 0.5 * (lo + hi)
        mass = float(f.window_masses((c - (hi - lo), c + (hi - lo))))
        assert mass == pytest.approx(f.total_mass(), rel=1e-14)

    def test_window_mass_bounded_by_height(self):
        u = fixture_staircase(4)
        f = concentration_profile(u)
        for radius in (1e-6, 0.01, 0.5):
            mass = float(f.window_masses((0.3 - radius, 0.3 + radius)))
            assert mass <= 2 * radius * f.max_height() + 1e-15

    def test_levy_single_plateau(self):
        f = ConcentrationProfile.from_intervals([(0.0, 4.0, 1.5)])
        mass, center = levy_concentration(f, 2.0)
        assert mass == 6.0
        assert center == 2.0

    def test_levy_two_separated_plateaus(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0), (101.0, 102.0, 1.0)])
        mass, center = levy_concentration(f, 3.0)
        assert mass == 1.0
        # smallest center attaining the max: window just covering the left plateau
        assert center == -2.0

    def test_levy_matches_exhaustive_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            parts = [(float(a), float(a) + float(wd), float(h)) for a, wd, h in zip(
                rng.uniform(-10, 10, 5), rng.uniform(0.25, 3.0, 5), rng.uniform(0.25, 2.0, 5))]
            f = ConcentrationProfile.from_intervals(parts)
            radius = float(rng.uniform(0.5, 4.0))
            mass, center = levy_concentration(f, radius)
            grid = np.unique(np.concatenate(
                [f.breakpoints - radius, f.breakpoints + radius,
                 np.linspace(f.breakpoints[0] - radius, f.breakpoints[-1] + radius, 2000)]))
            brute = max(float(f.window_masses((c - radius, c + radius))) for c in grid)
            assert mass == pytest.approx(brute, abs=1e-12)
            at_center = float(f.window_masses((center - radius, center + radius)))
            assert at_center == pytest.approx(mass, abs=1e-14)

    def test_levy_is_the_old_candidate_scan_bit_for_bit(self):
        # the scan's first best() against the direct candidate scan it replaced
        rng = np.random.default_rng(2027)
        kinds = {"empty": 0, "nonempty": 0}
        cases = [empty_profile(), empty_profile(0.25)]
        cases += [random_profile(rng) for _ in range(300)]
        for f in cases:
            kinds["empty" if f.breakpoints.size == 0 else "nonempty"] += 1
            for radius in (0.125, 1 / 3, 1.0, 2.5, float(rng.uniform(0.05, 8.0))):
                got, want = levy_concentration(f, radius), _oracles.levy_over_candidates(f, radius)
                assert repr(got) == repr(want)
        assert min(kinds.values()) >= 2, kinds
        with pytest.raises(ValueError, match="radius must be positive"):
            levy_concentration(cases[2], 0.0)

    def test_empty_and_one_breakpoint_arrays(self):
        # numpy's empty-array results are the values the queries returned
        # from their own empty branches: a zero mass, height and Levy maximum
        empty = empty_profile(0.5)
        for rows in (np.empty((0, 3)), [], [(2.0, 2.0, 1.0)], [(1.0, 0.0, 3.0)],
                     [(0.0, 1.0, 0.0)], [(0.0, 1.0, 0.5), (0.0, 1.0, -0.5)]):
            f = ConcentrationProfile.from_intervals(rows, window=0.5)
            assert f.breakpoints.tobytes() == empty.breakpoints.tobytes() == b""
            assert f.plateau_values.tobytes() == empty.plateau_values.tobytes()
            assert f.window == 0.5
        # one breakpoint between two zero plateaus, which the constructor would
        # merge away, set directly as zero_on sets its arrays
        point = object.__new__(ConcentrationProfile)._set(np.array([1.5]), np.zeros(2), 1.0)
        for f in (empty, point):
            n = f.breakpoints.size
            assert repr(f.total_mass()) == repr(f.max_height()) == "0.0"
            assert f._cum0.tobytes() == np.zeros(n + 1).tobytes()
            assert not f._cum0.flags.writeable
        for radius in (0.25, 1.0):
            assert repr(levy_concentration(empty, radius)) == "(0.0, 0.0)"
            assert repr(levy_concentration(point, radius)) == repr((0.0, 1.5 - radius))

    def test_levy_staircase_prefers_the_edge_clusters(self):
        u = fixture_staircase(16)
        f = concentration_profile(u)
        mass, center = levy_concentration(f, 2.0)
        # the best window hugs a plate cluster, not the thin middle plateau
        middle = max(float(f.window_masses((a - 2.0, a + 2.0)))
                     for a in np.arange(4.0, 14.0, 0.25))
        assert mass > middle
        assert min(abs(center - 0.0), abs(center - 17.0)) <= 2.0

    def test_levy_monotone_in_radius(self):
        u = fixture_staircase(8)
        f = concentration_profile(u)
        radii = [0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        masses = [levy_concentration(f, r)[0] for r in radii]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
        assert masses[-1] == pytest.approx(f.total_mass(), rel=1e-14)


class TestProfileInvariants:
    def test_sandwich_lower_bound_exact(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            u = random_fixture(rng, max_1d=48, max_2d=10)
            f = concentration_profile(u, window=1.0)
            assert jump_boundary_measure(u) <= f.total_mass() + 1e-12

    def test_tiling_minorant_pointwise(self):
        # for any offset, the window-width tiling of trace mass stays below
        # the profile: the side measure of the tile containing t is <= f(t)
        rng = np.random.default_rng(47)
        u = fixture_staircase(8)
        w = 1.0
        f = concentration_profile(u, window=w)
        sides = []
        for axis in range(2):
            nax = u.geom.shape[axis]
            v_lo = u.values.take(range(0, nax - 1), axis=axis)
            v_hi = u.values.take(range(1, nax), axis=axis)
            active = u.crack_mask(axis) & (v_lo != v_hi)
            sides += [*v_lo[active].ravel(), *v_hi[active].ravel()]
            sides += [*u.values.take([0], axis=axis).ravel(),
                      *u.values.take([nax - 1], axis=axis).ravel()]
        sides = np.asarray(sides)
        area = u.geom.face_area
        vals = u.values.ravel()
        forbidden = np.concatenate([vals, vals - w, vals + w])
        for a in rng.uniform(-1.0, 1.0, size=5):
            for t in sample_points(f, rng, forbidden):
                z = a + w * np.floor((t - a) / w)
                tile_mass = area * int(np.count_nonzero((sides >= z) & (sides < z + w)))
                assert tile_mass <= value_at(f, t) + 1e-12

    def test_mass_identity_gradient_plus_windows(self):
        # total mass = coarea mass of the gradient term + 2w * (side count) * area
        rng = np.random.default_rng(43)
        for _ in range(10):
            u = random_fixture(rng, max_1d=48, max_2d=10)
            w = float(rng.choice([0.5, 1.0, 2.0]))
            f = concentration_profile(u, window=w)
            grad_mass = 0.0
            for axis in range(u.geom.dim):
                d = np.abs(u.face_delta(axis))[~u.crack_mask(axis)]
                grad_mass += float(np.sum(d)) * u.geom.face_area
            # one window per side of every jump face and per box face
            side_mass = 2 * w * (u.jump_measure() + jump_boundary_measure(u))
            assert f.total_mass() == pytest.approx(grad_mass + side_mass, rel=1e-12)

    def test_translation_equivariance_exact(self):
        u = fixture_staircase(4)
        c = 0.625  # dyadic, exact float arithmetic
        shifted = u.with_values(u.values + c)
        f = concentration_profile(u)
        g = concentration_profile(shifted)
        assert np.array_equal(g.breakpoints, f.breakpoints + c)
        assert np.array_equal(g.plateau_values, f.plateau_values)

    def test_additivity_over_split_domains(self):
        u = fixture_runaway(6.0, resolution=8)
        nx = u.geom.shape[0]
        left = np.zeros(u.geom.shape, dtype=bool)
        left[: nx // 2, :] = True
        dom_l = CellSet(u.geom, left)
        dom_r = CellSet(u.geom, ~left)
        f_l = concentration_profile(u, domain=dom_l)
        f_r = concentration_profile(u, domain=dom_r)
        f_full = concentration_profile(u)
        rng = np.random.default_rng(1)
        # the split interface coincides with the crack here, so the per-side
        # windows match the full-domain crack windows and masses agree
        for t in sample_points(f_full, rng):
            assert value_at(f_l, t) + value_at(f_r, t) == pytest.approx(value_at(f_full, t),
                                                                        abs=1e-12)

    def test_staircase_remainder_mass_bound(self):
        # excising the two unit bubbles leaves at least the middle trace mass
        for n in (8, 16):
            u = fixture_staircase(n)
            f = concentration_profile(u)
            rem = f.zero_on(-1.0, 1.0).zero_on(n, n + 2)
            assert rem.total_mass() >= 3 - 1 / n

    def test_staircase_remainder_levy_scales_like_1_over_n(self):
        # constant measured once at n=4, then checked at larger n
        def remainder_levy(n):
            u = fixture_staircase(n)
            f = concentration_profile(u)
            rem = f.zero_on(-1.0, 1.0).zero_on(n, n + 2)
            return levy_concentration(rem, 1.0)[0]

        C = 4 * remainder_levy(4)
        for n in (8, 16, 32):
            assert remainder_levy(n) <= C / n + 1e-12


class TestSurgery:
    def test_mass_below_reads_no_stale_cache(self):
        rng = np.random.default_rng(97)
        v = random_fixture(rng, dim=2, max_2d=12)
        geom = GridGeometry(v.geom.origin, 0.1, v.geom.shape)
        f = concentration_profile(
            GridFunction(geom, v.values, [v.crack_mask(a) for a in range(2)]),
            window=1 / 3)
        bp, pv = f.breakpoints, f.plateau_values
        assert bp.size >= 4

        def check(g):
            ts = np.concatenate([g.breakpoints, rng.uniform(bp[0] - 1, bp[-1] + 1, 64)])
            assert np.array_equal(g.mass_below(ts), [_oracles.mass_below(g, t) for t in ts])

        check(f)
        assert not f._cum0.flags.writeable
        check(f.zero_on(float(bp[1]), float(bp[-2])))
        check(f.zero_on(0.5 * float(bp[0] + bp[1]), 0.5 * float(bp[-2] + bp[-1])))
        check(ConcentrationProfile(bp + 0.3, pv, f.window))
        # split plateau 2 in two: construction drops the extra breakpoint
        merged = ConcentrationProfile(np.insert(bp, 2, 0.5 * (bp[1] + bp[2])),
                                      np.insert(pv, 2, pv[2]), f.window)
        assert merged.breakpoints.tobytes() == bp.tobytes()
        assert merged.plateau_values.tobytes() == pv.tobytes()
        check(merged)

    def test_mass_below_paths_match_masked_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            f = random_profile(rng)
            bp = f.breakpoints
            ts = np.concatenate([bp, bp - 0.5, rng.uniform(bp[0] - 1, bp[-1] + 1, 16)])
            want = _oracles.masked_mass_below(f, ts)
            assert f.mass_below(ts).tobytes() == want.tobytes()
            assert np.array([f.mass_below(float(t)) for t in ts]).tobytes() == want.tobytes()
            assert np.array([f.mass_below(np.float64(t)) for t in ts]).tobytes() == want.tobytes()
            # window_masses: each window's upper mass minus its lower one, as a
            # (2, n) array and as scalar pairs, over windows of random widths,
            # windows whose two ends round to one float, and infinite ends
            tiny = np.abs(ts) * 2.0 ** -60  # below half an ulp of ts
            lo = np.concatenate([ts, ts, ts - tiny, [-np.inf, -np.inf, bp[0], np.inf]])
            hi = np.concatenate([ts + rng.uniform(0.0, 2.0, ts.size), ts, ts + tiny,
                                 [np.inf, bp[-1], np.inf, np.inf]])
            want = _oracles.masked_mass_below(f, hi) - _oracles.masked_mass_below(f, lo)
            assert f.window_masses(np.stack([lo, hi])).tobytes() == want.tobytes()
            assert f.window_masses([lo.tolist(), hi.tolist()]).tobytes() == want.tobytes()
            assert np.array([f.window_masses((a, b)) for a, b in zip(lo, hi)]).tobytes() == \
                want.tobytes()
            assert not want[ts.size:3 * ts.size].any()  # ends that round together

    def test_mass_below_at_infinity(self):
        rng = np.random.default_rng(31)
        inf = np.inf
        for f in [empty_profile()] + [random_profile(rng) for _ in range(40)]:
            bp = f.breakpoints
            pts = [-inf, inf] + ([float(bp[0]), float(bp[-1]), float(bp.mean())] if bp.size else [])
            mixed = np.array(pts)
            want = _oracles.masked_mass_below(f, mixed)
            for got in (f.mass_below(mixed), f.mass_below(mixed.tolist()),
                        f.mass_below(mixed.reshape(1, -1))[0],
                        np.array([f.mass_below(t) for t in pts]),
                        np.array([f.mass_below(np.array(t)) for t in pts])):
                assert not np.isnan(got).any()
                assert got.tobytes() == want.tobytes()
            assert f.mass_below(-inf) == 0.0
            assert isinstance(f.mass_below(np.array(inf)), float)
            total = float(f.window_masses((-inf, inf)))
            assert not np.isnan(total)
            assert total == (_oracles.masked_mass_below(f, inf)
                             - _oracles.masked_mass_below(f, -inf))

    def test_mass_below_nan_is_nan(self):
        # a NaN end is not clipped to the last breakpoint, so it never reads
        # as the total mass; the finite entries next to it are unchanged
        f = concentration_profile(fixture_staircase(4))
        ts = np.array([np.nan, 1.0, -np.inf, np.inf])
        with np.errstate(all="raise"):
            got = f.mass_below(ts)
            assert np.isnan(f.mass_below(np.nan))
            assert np.isnan(f.window_masses([[np.nan], [1.0]])).all()
            assert np.isnan(f.window_masses([[0.0], [np.nan]])).all()
        assert np.isnan(got[0])
        assert got[1:].tobytes() == _oracles.masked_mass_below(f, ts[1:]).tobytes()

    def test_mass_below_inf_is_the_cumulative_total(self):
        # mass_below(inf) is the last entry of the sequential cumulative mass,
        # the first total T a Levy scan reads; total_mass() is numpy's pairwise
        # sum, within the scan's (2n + 10) * eps * T of it but not always equal
        rng = np.random.default_rng(0)
        eps, differ = float(np.finfo(float).eps), 0
        with np.errstate(all="raise"):
            for f in [empty_profile()] + [random_profile(rng) for _ in range(2000)]:
                bottom, top = f.mass_below(-np.inf), f.mass_below(np.inf)
                assert np.float64(bottom).tobytes() == np.float64(0.0).tobytes()
                assert np.float64(top).tobytes() == f._cum0[-1].tobytes()
                bound = (2 * f.breakpoints.size + 10) * eps * top
                assert abs(f.total_mass() - top) <= bound
                differ += f.total_mass() != top
        assert differ > 0  # the two sums are distinct definitions

    def test_zero_on_matches_unique_and_canonical_oracle(self):
        # chains of up to three cuts: the spliced arrays equal the oracle's, and
        # the cumulative mass the cut builds on its first query equals a fresh
        # profile's, byte for byte
        rng = np.random.default_rng(37)
        seen = dict.fromkeys(["a on a breakpoint", "b on a breakpoint", "a below the support",
                              "b above the support", "zero plateau left of a",
                              "zero plateau right of b", "zero plateau on both sides",
                              "i0 = 0", "i1 = n", "cut outside the support", "emptied",
                              "cut of a cut"], 0)
        for _ in range(400):
            f = random_profile(rng)
            for cut in range(int(rng.integers(1, 4))):
                bp, pv = f.breakpoints, f.plateau_values
                if not bp.size:
                    break
                ends = [float(rng.choice(bp)), float(rng.uniform(bp[0] - 1, bp[-1] + 1)),
                        float(bp[0]) - 0.5, float(bp[-1]) + 0.25]
                a, b = sorted(float(x) for x in rng.choice(ends, 2))
                got, want = f.zero_on(a, b), _oracles.zero_on(f, a, b)
                assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
                assert got.plateau_values.tobytes() == want.plateau_values.tobytes()
                assert got.window == want.window
                fresh = ConcentrationProfile(got.breakpoints, got.plateau_values, got.window)
                assert got._cum0.tobytes() == fresh._cum0.tobytes()
                assert not any(x.flags.writeable for x in
                               (got.breakpoints, got.plateau_values, got._cum0))
                i0, i1 = bp.searchsorted(a, side="left"), bp.searchsorted(b, side="right")
                inner = b > a and 0 < i0 and i1 < bp.size
                seen["a on a breakpoint"] += a in bp
                seen["b on a breakpoint"] += b in bp
                seen["a below the support"] += a < bp[0]
                seen["b above the support"] += b > bp[-1]
                seen["zero plateau left of a"] += inner and pv[i0] == 0 < pv[i1]
                seen["zero plateau right of b"] += inner and pv[i0] > 0 == pv[i1]
                seen["zero plateau on both sides"] += inner and pv[i0] == 0 == pv[i1]
                seen["i0 = 0"] += i0 == 0
                seen["i1 = n"] += i1 == bp.size
                seen["cut outside the support"] += a < b and (b <= bp[0] or a >= bp[-1])
                seen["emptied"] += got.breakpoints.size == 0
                seen["cut of a cut"] += cut > 0
                f = got
        assert all(seen.values()), seen

    def test_zero_on(self):
        f = ConcentrationProfile.from_intervals([(0.0, 10.0, 2.0)])
        g = f.zero_on(3.0, 4.0)
        assert g.total_mass() == pytest.approx(18.0)
        assert value_at(g, 3.5) == 0.0
        assert value_at(g, 2.9) == 2.0

    def test_zero_on_noop_outside_support(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0)])
        g = f.zero_on(5.0, 6.0)
        assert np.array_equal(g.breakpoints, f.breakpoints)

    def test_csv_round_trip_values(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 0.75)])
        text = profile_to_csv(f)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        ts = [float(r[0]) for r in rows]
        vs = [float(r[1]) for r in rows]
        assert ts == [0.0, 1.0]
        assert vs == [0.75, 0.0]
