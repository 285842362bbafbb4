"""Metamorphic relations of the profile and the bubble decomposition.

Each relation follows from the definitions, so it checks the package against
itself, with no second implementation: translating the range by s shifts the
profile and every bubble center by s; refining every cell into 2^d cells, the
cracks on the matching fine faces, changes nothing; transposing a 2D grid
changes nothing; negating the values mirrors the profile.  Bubbles mirror
under negation only where no step of the center search ties, because ties
break toward the smallest center, which is the other end of a mirrored tie.
At report level, translating the range moves only bubble centers and cut
points, transposing a 2D sequence swaps only the per-axis entries, and
refining a bulk-free sequence writes each slice count twice and moves only
the spacing-dependent ``eta``.  The jump LSC verdict is a count of faces, so
no spacing, however small, turns a missing face into a pass, and the vanishing
certificate's verdicts count cells and faces, so a power-of-2 spacing scales
the certificate's measures and leaves its verdicts as they are; its cut points
count region cells too, so they read the same at any spacing.  No other
verdict carries an absolute slack either: the renormalized jump bound counts
faces, the weak-vanishing hypothesis allows the Lévy scan's rounding bound,
which scales with the mass, and a decomposition's mass and separation checks
scale with the total mass and with the quantities they compare.  So each of
these verdicts reads the same at spacing (or range scale) 1 and at a tiny
power of 2.

The inputs are ``test_exact.dyadic_input``'s, with dyadic shifts, radii and
gap, so every relation holds with ``==``.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import numpy as np
import pytest

import _oracles
from _fixtures import empty_profile, run_cli
from crackgrid import analysis, profile
from crackgrid.analysis import compactness_report, lsc_report, vanishing_certificate
from crackgrid.bubbles import Bubble, BubbleDecomposition, ExtractionParams, extract_bubbles
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    InvariantError,
    energy,
    grid_function_to_dict,
)
from crackgrid.profile import concentration_profile, levy_concentration
from test_exact import dyadic_input

EPS = (0.25, 0.125)


def _profile(u: GridFunction, inside, window: float):
    return concentration_profile(u, None if inside is None else CellSet(u.geom, inside), window)


def _bubbles(f, eps: float) -> list[tuple[float, float, float, float]]:
    dec = extract_bubbles(f, eps=eps, gap_delta=1.0, ref_radius=0.5)
    return sorted((b.center, b.inner_radius, b.outer_radius, b.mass) for b in dec.bubbles)


def _refined(u: GridFunction, inside):
    """Every cell split into 2^d cells of half the spacing; a coarse crack
    cracks the fine faces on it, and no fine face inside a coarse cell."""
    dim = u.geom.dim
    geom = GridGeometry(u.geom.origin, u.geom.spacing / 2, tuple(2 * n for n in u.geom.shape))

    def split(arr, axes):
        for axis in axes:
            arr = np.repeat(arr, 2, axis=axis)
        return arr

    masks = []
    for k in range(dim):
        fine = np.zeros(geom.face_shape(k), dtype=bool)
        on_coarse = [slice(None)] * dim
        on_coarse[k] = slice(1, None, 2)
        fine[tuple(on_coarse)] = split(u.crack_mask(k), [a for a in range(dim) if a != k])
        masks.append(fine)
    values = split(u.values, range(dim))
    return GridFunction(geom, values, masks), None if inside is None else split(inside, range(dim))


def _transposed(u: GridFunction) -> GridFunction:
    """A 2D function with its two axes swapped, cracks and all."""
    geom = GridGeometry(u.geom.origin[::-1], u.geom.spacing, u.geom.shape[::-1])
    return GridFunction(geom, u.values.T, [u.crack_mask(1).T, u.crack_mask(0).T])


def _inputs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [dyadic_input(rng) for _ in range(count)]


def test_range_translation_shifts_profile_and_bubbles():
    rng = np.random.default_rng(11)
    several = 0
    for u, inside, window in _inputs(1001, 80):
        s = float(rng.choice([0.25, -1.5, 3.0, -0.125]))
        f, g = _profile(u, inside, window), _profile(u.with_values(u.values + s), inside, window)
        assert g.breakpoints.tolist() == (f.breakpoints + s).tolist()
        assert g.plateau_values.tolist() == f.plateau_values.tolist()
        for eps in EPS:
            mine = _bubbles(f, eps)
            assert _bubbles(g, eps) == [(c + s, i, o, m) for c, i, o, m in mine]
            several += len(mine) > 1
    assert several >= 5


def _moved(report: dict, c: float) -> dict:
    """``report`` with every bubble center, track center and cut point moved by c."""
    report = copy.deepcopy(report)
    for entry in report["per_eps"].values():
        for row in entry["per_n"]:
            for b in row["bubbles"]:
                b["center"] += c
            if row["certificate"] is not None:
                row["certificate"]["cut_points"] = [t + c for t in row["certificate"]["cut_points"]]
        tracks = entry["conclusion5_bubble_tracks"]
        if tracks is not None:
            tracks["centers"] = [[x + c for x in rank] for rank in tracks["centers"]]
    return report


def test_range_translation_moves_only_centers_and_cuts_in_the_report():
    # integer-valued fixtures and dyadic shifts: every sum is exact (on noisy
    # plates u + c rounds, and the relation need not hold)
    sequences = [[fixture_staircase(n, cells_per_step=16 // n) for n in (16, 8, 4)],
                 [fixture_runaway(n) for n in (10.0, 100.0, 1000.0)]]
    # the defaults, and radii small enough that vanishing regions get cut
    settings = [{}, {"gap_delta": 0.5, "ref_radius": 0.5, "window": 0.25}]
    cuts = 0
    for seq in sequences:
        for kw in settings:
            want = compactness_report(seq, **kw).as_dict()
            cuts += sum(len(row["certificate"]["cut_points"])
                        for entry in want["per_eps"].values() for row in entry["per_n"])
            for c in (0.5, 8.0, -3.25):
                got = compactness_report([u.with_values(u.values + c) for u in seq], **kw)
                assert json.dumps(got.as_dict()) == json.dumps(_moved(want, c))
    assert cuts > 0


def test_refinement_changes_nothing():
    several = 0
    for u, inside, window in _inputs(1002, 60):
        fine, fine_inside = _refined(u, inside)
        f, g = _profile(u, inside, window), _profile(fine, fine_inside, window)
        assert g.breakpoints.tolist() == f.breakpoints.tolist()
        assert g.plateau_values.tolist() == f.plateau_values.tolist()
        assert fine.jump_measure() == u.jump_measure()
        for eps in EPS:
            mine = _bubbles(f, eps)
            assert _bubbles(g, eps) == mine
            several += len(mine) > 1
    assert several >= 5


def test_transpose_changes_nothing():
    seen = 0
    for u, inside, window in _inputs(1003, 120):
        if u.geom.dim != 2:
            continue
        seen += 1
        t = _transposed(u)
        f = _profile(u, inside, window)
        g = _profile(t, None if inside is None else inside.T, window)
        assert g.breakpoints.tolist() == f.breakpoints.tolist()
        assert g.plateau_values.tolist() == f.plateau_values.tolist()
        assert t.jump_measure() == u.jump_measure()
    assert seen >= 40


def _axes_swapped(report: dict) -> dict:
    """``report`` with its per-axis slicing lists reversed and its pairing keys
    ``axis{a}:low_half_axis{k}`` renamed to the other axes."""
    def swap(pairings: dict) -> dict:
        return {key.translate(str.maketrans("01", "10")): x for key, x in pairings.items()}

    report = copy.deepcopy(report)
    for entry in report["per_eps"].values():
        for row in entry["per_n"]:
            row["pairings"] = swap(row["pairings"])
        weak = entry["conclusion2_weak_gradient"]
        weak["pairings"] = swap(weak["pairings"])
        lsc = entry["conclusion3_jump_lsc"]
        for key, x in lsc.items():
            if isinstance(x, list) and key != "axes":
                lsc[key] = x[::-1]
    return report


def _dyadic_plate(rng) -> GridFunction:
    """A 6 x 10 plate of quarter values with random cracks: its bulk sums are exact."""
    geom = GridGeometry((0.0, 0.0), 0.25, (6, 10))
    cracks = [rng.random(geom.face_shape(axis)) < 0.4 for axis in range(2)]
    return GridFunction(geom, rng.integers(-8, 9, size=geom.shape) / 4, cracks)


def test_transpose_swaps_only_the_axes_in_the_report():
    # staircases and runaways have no bulk, so their pairings are all zero; the
    # dyadic plates pair nonzero gradients.  On noisy plates the bulk sums
    # change their last bits with the summation order, and the relation fails.
    rng = np.random.default_rng(24)
    sequences = [[fixture_staircase(n, cells_per_step=16 // n) for n in (16, 8, 4)],
                 [fixture_runaway(n) for n in (10.0, 100.0, 1000.0)],
                 *([_dyadic_plate(rng) for _ in range(3)] for _ in range(4))]
    paired = 0
    for seq in sequences:
        want = _axes_swapped(compactness_report(seq).as_dict())
        got = compactness_report([_transposed(u) for u in seq]).as_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        paired += any(x != 0.0 for entry in want["per_eps"].values()
                      for row in entry["per_n"] for x in row["pairings"].values())
    assert paired >= 4


def _slices_doubled(report: dict, refined: dict) -> dict:
    """``report`` with every slice count of ``conclusion3_jump_lsc`` written twice
    in a row, and its ``eta`` fields, which depend on the spacing, from ``refined``."""
    report = copy.deepcopy(report)
    for eps, entry in report["per_eps"].items():
        lsc = entry["conclusion3_jump_lsc"]
        lsc["limit_slice_counts"] = [np.repeat(c, 2).tolist() for c in lsc["limit_slice_counts"]]
        lsc["seq_slice_counts"] = [[np.repeat(c, 2).tolist() for c in axis]
                                   for axis in lsc["seq_slice_counts"]]
        for key in ("eta", "eta_resolution_limited"):
            lsc[key] = refined["per_eps"][eps]["conclusion3_jump_lsc"][key]
    return report


def test_refinement_doubles_only_the_slices_in_the_report():
    # no value changes across a face that is not a crack, so there is no bulk:
    # a refined face gradient doubles, and bulk energy is not refinement-invariant
    sequences = {"staircases": [fixture_staircase(n, cells_per_step=16 // n) for n in (16, 8, 4)],
                 "runaways": [fixture_runaway(n) for n in (10.0, 100.0, 1000.0)]}
    for name, seq in sequences.items():
        assert all(energy(u).bulk == 0.0 for u in seq)
        want = compactness_report(seq).as_dict()
        got = compactness_report([_refined(u, None)[0] for u in seq]).as_dict()
        assert json.dumps(got) == json.dumps(_slices_doubled(want, got))
        etas = [(entry["conclusion3_jump_lsc"]["eta"], got["per_eps"][eps]
                 ["conclusion3_jump_lsc"]["eta"]) for eps, entry in want["per_eps"].items()]
        # the runaways' eta is at its resolution floor, 2h, and halves with h
        assert all(fine == (coarse if name == "staircases" else [e / 2 for e in coarse])
                   for coarse, fine in etas), etas


def _two_plateaus(spacing: float, cracked: list[int]) -> GridFunction:
    """A 4 x 4 grid holding 0 on its first two rows along axis 0 and 1 on the
    last two, cracked on the faces between them in the columns ``cracked``."""
    geom = GridGeometry((0.0, 0.0), spacing, (4, 4))
    masks = [np.zeros(geom.face_shape(axis), dtype=bool) for axis in range(2)]
    masks[0][1, cracked] = True
    return GridFunction(geom, np.repeat([0.0, 1.0], 8), masks)


@pytest.mark.parametrize("spacing", [1.0, 1e-13, 2.0 ** -45])
def test_a_missing_jump_face_fails_lsc_at_any_spacing(spacing, tmp_path):
    # one face fewer than the limit's: a margin of -spacing, far below any
    # float slack at the small spacings, and still a failed verdict
    limit, g = _two_plateaus(spacing, [0, 1, 2, 3]), _two_plateaus(spacing, [0, 1, 2])
    lsc = lsc_report([g], limit)
    assert lsc.margins[0] < 0.0 and lsc.margins[1] == 0.0
    assert not lsc.lsc_holds
    for name, u in (("g.json", g), ("limit.json", limit)):
        (tmp_path / name).write_text(json.dumps(grid_function_to_dict(u)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"functions": ["g.json"], "limit": "limit.json"}))
    assert run_cli("slice-lsc", str(manifest)).returncode == 2
    rep = compactness_report([g], limit=limit, eps_ladder=[0.1])
    assert "eps=0.1: jump LSC margin negative" in rep.violations


@pytest.mark.parametrize("spacing", [2.0 ** -20, 2.0 ** -45])
def test_certificate_verdicts_do_not_depend_on_the_spacing(spacing):
    # no cracks, one cut at 4.0: gradient faces such as 3 | 7 join the two slabs
    # across the gap band, so the slabs' 25 chain faces outnumber twice the 12
    # boundary faces; at 2**-45 the shortfall, half a face's area, is far below
    # any float slack
    def certificate(h):
        geom = GridGeometry((0.0, 0.0), h, (2, 4))
        u = GridFunction(geom, np.array([[3.0, 4.0, 3.0, 7.0], [7.0, 1.0, 7.0, 0.0]]))
        region = CellSet(geom, np.ones(geom.shape, dtype=bool))
        return u, region, vanishing_certificate(u, region, eps=0.5, radius=0.5, window=0.25)

    (_, _, ref), (u, region, cert) = certificate(2.0 ** -10), certificate(spacing)
    assert (cert.alpha, cert.cut_points) == (2, (4.0,))
    # the 7 faces that skip the gap: 3 | 7 twice and 7 | 0 across the rows, 3 | 7,
    # 7 | 1, 1 | 7 and 7 | 0 along them
    assert _oracles.certificate_skipping_faces(u, region, cert.cut_points, 0.5) == [3, 4]
    assert (cert.boundary_measure, cert.chain_rhs) == (12 * spacing, 12.5 * spacing)
    assert cert.certified and not cert.chain_ok
    r = spacing / 2.0 ** -10  # a power of 2: every measure scales exactly
    lengths = ("gap_perimeters", "boundary_measure", "region_perimeter", "chain_lhs",
               "chain_rhs")
    volumes = ("slab_volumes", "gap_volumes", "measured_volume", "bound", "slab_correction")
    want = ref.as_dict()
    for names, scale in ((lengths, r), (volumes, r * r)):
        for name in names:
            want[name] = (np.asarray(want[name]) * scale).tolist()
    assert cert.as_dict() == want


@pytest.mark.parametrize("spacing", [1.0, 0.1, 1 / 3, 0.7])
def test_certificate_cuts_do_not_depend_on_the_spacing(spacing):
    # the k-th target is k * 18 / 3 of the 18 region cells, 6 and 12: taken as
    # k * m / 3 on float volumes, both round above the volume of that many cells
    # at spacing 0.1, and both cuts then move one cell up the sorted values
    geom = GridGeometry((0.0, 0.0), spacing, (4, 5))
    u = GridFunction(geom, np.array([[2.0, 0, 37, 8, 7], [30, 33, 6, 21, 7],
                                     [23, 11, 13, 24, 37], [33, 0, 8, 35, 23]]))
    region = CellSet(geom, np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 1], [1, 1, 1, 1, 1],
                                     [1, 1, 0, 1, 1]], dtype=bool))
    cert = vanishing_certificate(u, region, eps=1 / 3, radius=0.01, window=0.01)
    assert (cert.alpha, cert.cut_points) == (3, (8.0, 30.0))
    assert [round(v / geom.cell_volume) for v in cert.slab_volumes] == [6, 5, 5]


@pytest.mark.parametrize("spacing", [1.0, 2.0 ** -45])
def test_one_extra_jump_face_fails_the_jump_bound_at_any_spacing(spacing, monkeypatch):
    # renormalization cracks one more face inside a main piece: one face over the
    # bound, which at 2**-45 is far below any float slack of the measures
    renormalize = analysis.renormalize

    def one_more_jump(part):
        w = renormalize(part)
        masks = [w.crack_mask(axis).copy() for axis in range(2)]
        free = np.flatnonzero(~masks[0] & (w.face_delta(0) != 0))
        masks[0].flat[free[0]] = True
        return GridFunction(w.geom, w.values, masks)

    geom = GridGeometry((0.0, 0.0), spacing, (4, 4))
    u = GridFunction(geom, np.repeat([0.0, 0.25], 8))
    assert compactness_report([u], eps_ladder=[0.1], limit=u).ok
    monkeypatch.setattr(analysis, "renormalize", one_more_jump)
    assert compactness_report([u], eps_ladder=[0.1], limit=u).violations == [
        "eps=0.1 n_index=0: renormalized jump bound fails"]


@pytest.mark.parametrize("spacing", [1.0, 1e-14, 2.0 ** -45])
def test_the_vanishing_hypothesis_reads_the_same_at_any_spacing(spacing):
    # the fullest window of radius 1 holds 1.4e-13 at spacing 1e-14, far above
    # eps = 1e-300 and far below an absolute slack of 1e-12
    geom = GridGeometry((0.0, 0.0), spacing, (4, 4))
    u = GridFunction(geom, np.arange(16.0).reshape(4, 4))
    region = CellSet(geom, np.ones(geom.shape, dtype=bool))
    with pytest.raises(InvariantError, match="not weakly vanishing at eps=1e-300"):
        vanishing_certificate(u, region, eps=1e-300)
    # eps=None certifies at the score itself
    score = levy_concentration(concentration_profile(u, domain=region), 1.0)[0]
    assert vanishing_certificate(u, region, eps=None).eps == score


def _two_bubbles(scale: float, area: float, distance: float, total: float):
    """A decomposition of total mass ``total * area`` whose bubbles, of inner radius
    ``scale`` with a gap of ``2 * scale``, sit ``distance * scale`` apart."""
    return BubbleDecomposition(
        bubbles=(Bubble(0.0, scale, scale, 2 * area), Bubble(distance * scale, scale, scale, area)),
        remainder=empty_profile(), vanishing_score=0.0,
        params=ExtractionParams(0.1, 2 * scale, scale), total_mass=total * area,
        leakages=(0.0, 0.0))


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -40])
def test_separation_reads_the_same_at_any_range_scale(scale):
    # 2 apart with a need of 4: at 2**-40 the shortfall is far below 1e-9
    assert _two_bubbles(scale, 1.0, 4.0, 3.0).validate() == []
    assert _two_bubbles(scale, 1.0, 2.0, 3.0).validate() == [
        f"bubbles at 0.0 and {2 * scale} violate separation"]


@pytest.mark.parametrize("area", [1.0, 2.0 ** -45])
def test_mass_checks_read_the_same_at_any_spacing(area):
    # bubbles of 1.5 times the total mass: at 2**-45 the excess is far below 1e-12
    assert _two_bubbles(1.0, area, 4.0, 3.0).validate() == []
    assert _two_bubbles(1.0, area, 4.0, 2.0).validate() == [
        "bubble masses exceed the total mass", "mass bookkeeping identity fails"]


def test_negation_mirrors_the_profile_and_untied_bubbles(monkeypatch):
    ties = []
    best = profile._LevyScan.best

    def noting_ties(scan):
        # (largest mass, whether more than one candidate has it afresh): the
        # tie rule picks one
        mass, center = best(scan)
        fresh = _oracles.scan_state(scan.f, scan.radius, scan.edges)[1]
        ties.append((mass, np.count_nonzero(fresh == mass) > 1))
        return mass, center

    monkeypatch.setattr(profile._LevyScan, "best", noting_ties)
    seen = Counter()
    for u, inside, window in _inputs(1004, 100):
        f = _profile(u, inside, window)
        g = _profile(u.with_values(-u.values), inside, window)
        assert g.breakpoints.tolist() == (-f.breakpoints[::-1]).tolist()
        assert g.plateau_values.tolist() == f.plateau_values[::-1].tolist()
        for eps in EPS:
            ties.clear()
            mine, mirrored = _bubbles(f, eps), _bubbles(g, eps)
            # a tie decides a step only where its mass passes the extraction threshold
            if any(tied and mass > eps * f.total_mass() for mass, tied in ties):
                seen["tied"] += 1
                continue
            seen["untied"] += 1
            assert mirrored == sorted((-c, i, o, m) for c, i, o, m in mine)
    assert min(seen.values()) >= 20, seen
