from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import _oracles
from _fixtures import cluster_plate, random_profile

from crackgrid.bubbles import (
    classify,
    extract_bubbles,
    separation_trend,
    track_sequence,
)
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.profile import (
    ConcentrationProfile,
    _LevyScan,
    concentration_profile,
    levy_concentration,
)


def dyadic_cluster_profile(rng: np.random.Generator, n_clusters: int,
                           min_gap: float) -> tuple[ConcentrationProfile, list[float]]:
    """Single-plateau clusters with dyadic data, pairwise at least min_gap apart.

    Returns the profile and the per-cluster masses (dyadic, hence exact).
    """
    intervals = []
    masses = []
    pos = 0.0
    for _ in range(n_clusters):
        pos += min_gap + float(rng.integers(0, 64)) / 8.0
        width = float(rng.integers(2, 16)) / 8.0
        height = float(rng.integers(1, 64)) / 256.0
        intervals.append((pos, pos + width, height))
        masses.append(width * height)
        pos += width
    return ConcentrationProfile.from_intervals(intervals), masses


class TestClassify:
    def test_single_plateau_is_compact(self):
        f = ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0)])
        v = classify(f, eps=0.1, ref_radius=2.0)
        assert v.kind == "compactness"
        assert v.witness is not None
        assert v.witness.mass >= (1 - 0.1) * f.total_mass()

    def test_empty_profile_is_vanishing(self):
        v = classify(ConcentrationProfile.empty(), eps=0.5, ref_radius=1.0)
        assert v.kind == "vanishing"

    def test_staircase_is_dichotomy(self):
        u = fixture_staircase(16)
        f = concentration_profile(u)
        v = classify(f, eps=0.1, ref_radius=1.0)
        assert v.kind == "dichotomy"
        lam1, lam2 = v.split_masses
        assert 0 < lam1 < f.total_mass()
        assert lam1 + lam2 == pytest.approx(f.total_mass(), rel=1e-12)
        # the dominant cluster sits at one of the two plate values
        assert min(abs(v.witness.center - 0.0), abs(v.witness.center - 17.0)) <= 1.0

    def test_verdict_as_dict(self):
        compact = classify(ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0)]),
                           eps=0.1, ref_radius=2.0)
        assert compact.as_dict() == {
            "kind": "compactness",
            "witness": {"center": 0.0, "inner_radius": 2.0, "outer_radius": 4.0, "mass": 2.0},
            "split_masses": None, "total": 2.0, "eps": 0.1, "ref_radius": 2.0}
        empty = classify(ConcentrationProfile.empty(), eps=0.5, ref_radius=1.0)
        assert empty.as_dict() == {"kind": "vanishing", "witness": None, "split_masses": None,
                                   "total": 0.0, "eps": 0.5, "ref_radius": 1.0}
        split = classify(concentration_profile(fixture_staircase(16)), eps=0.1, ref_radius=1.0)
        d = split.as_dict()
        assert d["kind"] == "dichotomy"
        assert d["witness"] == split.witness.as_dict()
        assert type(d["split_masses"]) is list and d["split_masses"] == list(split.split_masses)
        assert json.loads(json.dumps(d)) == d

    def test_staircase_remainder_is_vanishing(self):
        u = fixture_staircase(64)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        v = classify(dec.remainder, eps=0.1, ref_radius=1.0)
        assert v.kind == "vanishing"

    def test_consistency_with_extraction(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f, _ = dyadic_cluster_profile(rng, int(rng.integers(1, 4)), min_gap=8.0)
            eps = 0.1
            verdict = classify(f, eps=eps, ref_radius=1.0)
            dec = extract_bubbles(f, eps=eps, gap_delta=2.0, ref_radius=1.0)
            if verdict.kind == "vanishing":
                assert len(dec.bubbles) == 0
            elif verdict.kind == "compactness":
                assert dec.bubbles[0].mass >= (1 - eps) * f.total_mass() - 1e-12


class TestExtract:
    def test_two_unit_plateaus(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0), (100.0, 101.0, 1.0)])
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        assert len(dec.bubbles) == 2
        assert dec.bubbles[0].mass == pytest.approx(1.0, abs=1e-14)
        assert dec.bubbles[1].mass == pytest.approx(1.0, abs=1e-14)
        assert dec.remainder.total_mass() == 0.0
        assert not dec.validate()

    @pytest.mark.parametrize("n", [16, 64])
    def test_staircase_two_bubbles(self, n):
        u = fixture_staircase(n)
        f = concentration_profile(u)
        dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        assert len(dec.bubbles) == 2
        centers = sorted(b.center for b in dec.bubbles)
        assert abs(centers[0] - 0.0) <= 1.0
        assert abs(centers[1] - (n + 1)) <= 1.0
        assert dec.remainder.total_mass() >= 3 - 1 / n - 0.2
        assert not dec.validate()

    def test_staircase_remainder_levy_drops(self):
        scores = {}
        for n in (16, 64):
            f = concentration_profile(fixture_staircase(n))
            dec = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
            scores[n] = levy_concentration(dec.remainder, 1.0)[0]
        assert scores[64] <= scores[16] / 3

    def test_cluster_masses_match_segmentation_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            f, masses = dyadic_cluster_profile(rng, k, min_gap=7.0)
            eps = 0.05
            dec = extract_bubbles(f, eps=eps, gap_delta=2.0, ref_radius=1.0)
            got = sorted(b.mass for b in dec.bubbles)
            want = sorted(m for m in masses if m > eps * f.total_mass())
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert abs(g - w) <= eps * f.total_mass() + 1e-12
            assert not dec.validate()

    def test_order_independent_masses_at_separation(self):
        # components further apart than 2*(ref+gap): recovered masses are the
        # component masses exactly, whatever order the greedy visits them
        rng = np.random.default_rng(5)
        for _ in range(10):
            f, masses = dyadic_cluster_profile(rng, 4, min_gap=2 * (1.0 + 2.0) + 1.0)
            dec = extract_bubbles(f, eps=0.01, gap_delta=2.0, ref_radius=1.0)
            assert sorted(b.mass for b in dec.bubbles) == sorted(masses)

    def test_mass_bookkeeping_and_idempotence(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            f, _ = dyadic_cluster_profile(rng, int(rng.integers(1, 6)), min_gap=4.0)
            eps = float(rng.choice([0.05, 0.1, 0.2]))
            dec = extract_bubbles(f, eps=eps, gap_delta=2.0, ref_radius=1.0)
            total = f.total_mass()
            book = dec.bubble_mass() + dec.leakage_total() + dec.remainder.total_mass()
            assert abs(book - total) <= 1e-12 * max(1.0, total)
            assert dec.leakage_total() <= len(dec.bubbles) * eps * dec.mass_scale + 1e-12
            again = extract_bubbles(dec.remainder, eps=eps, gap_delta=2.0,
                                    ref_radius=1.0, mass_scale=dec.mass_scale)
            assert len(again.bubbles) == 0

    def test_max_bubbles_flags_incomplete(self):
        f = ConcentrationProfile.from_intervals(
            [(10.0 * k, 10.0 * k + 1.0, 1.0) for k in range(6)])
        dec = extract_bubbles(f, eps=0.01, gap_delta=2.0, ref_radius=1.0, max_bubbles=3)
        assert dec.incomplete
        assert len(dec.bubbles) == 3
        none = extract_bubbles(f, eps=0.01, gap_delta=2.0, ref_radius=1.0, max_bubbles=0)
        assert none.incomplete and none.bubbles == ()
        with pytest.raises(ValueError, match="max_bubbles must be at least 0, got -3"):
            extract_bubbles(f, eps=0.01, gap_delta=2.0, ref_radius=1.0, max_bubbles=-3)

    @pytest.mark.parametrize("call", ["classify", "extract_bubbles"])
    @pytest.mark.parametrize("ref,gap", [(1e20, 2.0), (1e17, 1.0)])
    def test_gap_lost_next_to_radius_raises(self, call, ref, gap):
        # in a child process with a timeout: window growth that never ends
        # fails the test instead of hanging the suite
        code = ("from crackgrid.bubbles import classify, extract_bubbles\n"
                "from crackgrid.fixtures import fixture_staircase\n"
                "from crackgrid.profile import concentration_profile\n"
                f"{call}(concentration_profile(fixture_staircase(4)), eps=0.1, "
                f"ref_radius={ref!r}, gap_delta={gap!r})\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert res.returncode == 1
        assert res.stderr.rstrip().endswith(
            f"ValueError: gap_delta {gap!r} vanishes next to radius {ref!r}")

    def test_masses_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, _ = dyadic_cluster_profile(rng, 5, min_gap=6.0)
            dec = extract_bubbles(f, eps=0.05, gap_delta=2.0, ref_radius=1.0)
            ms = [b.mass for b in dec.bubbles]
            assert ms == sorted(ms, reverse=True)


class TestExtractOracle:
    """The one-scan extraction against the greedy loop that rebuilds and
    rescores every candidate after each bubble."""

    @staticmethod
    def assert_same(got, want):
        assert json.dumps(got.as_dict()) == json.dumps(want.as_dict())
        assert got.remainder.breakpoints.tobytes() == want.remainder.breakpoints.tobytes()
        assert got.remainder.plateau_values.tobytes() == want.remainder.plateau_values.tobytes()

    def test_random_decompositions_match(self):
        rng = np.random.default_rng(2024)
        events = Counter()
        for _ in range(300):
            f = random_profile(rng)
            eps = float(rng.choice([0.01, 0.02, 0.05, 0.1]))
            gap = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            radius = float(rng.choice([0.25, 0.5, 1.0, 1 / 3]))
            max_bubbles = 64 if rng.random() < 0.8 else int(rng.integers(1, 4))
            scale = None
            if rng.random() < 0.2:
                scale = f.total_mass() * float(rng.choice([0.5, 2.0]))
                events["mass_scale set"] += 1
            want = _oracles.extract_bubbles(f, eps, gap, radius, max_bubbles, scale, events)
            self.assert_same(extract_bubbles(f, eps, gap, radius, max_bubbles, scale), want)
            events["remainder emptied"] += want.remainder.breakpoints.size == 0
        assert set(events) == {
            "tied maximum", "keep-out edge on a breakpoint +- r",
            "cut on a breakpoint", "cut outside the support", "max_bubbles reached",
            "mass_scale set", "remainder emptied", "overlapping zones"}, events

    def test_many_zone_plates_match(self):
        # multi-bubble plates with clusters close enough that the zones of
        # neighbouring bubbles overlap, where only the new zone's part of the
        # scan's candidates is built again
        rng = np.random.default_rng(2025)
        events = Counter()
        for spacing in (8.0, 6.0, 5.0, 4.5):
            f = concentration_profile(cluster_plate(rng, spacing=spacing))
            want = _oracles.extract_bubbles(f, 0.02, 2.0, 1.0, events=events)
            assert len(want.bubbles) >= 20
            self.assert_same(extract_bubbles(f, 0.02, 2.0, 1.0), want)
        assert events["overlapping zones"] >= 20, events

    def test_scan_state_matches_full_rebuild(self, monkeypatch):
        # after every removal the whole scan state, updated outside the new
        # zone and rebuilt inside it, equals a scan built afresh, byte for byte;
        # the stored masses, kept left of the zone and scored again from it on
        # over the carried cumulative mass, equal masses scored afresh
        remove, removals = _LevyScan.remove, Counter()

        def checked_remove(scan, *args):
            remove(scan, *args)
            want = _oracles.scan_state(scan.f, scan.radius, scan.edges)
            for got, expected in zip((scan.centers, scan.k, scan.term, scan.masses), want):
                assert got.tobytes() == expected.tobytes()
            removals[len(scan.edges) > 2] += 1

        monkeypatch.setattr(_LevyScan, "remove", checked_remove)
        rng = np.random.default_rng(2026)
        for spacing in (8.0, 5.0):
            extract_bubbles(concentration_profile(cluster_plate(rng, spacing=spacing)),
                            0.02, 2.0, 1.0)
        for _ in range(100):
            f = random_profile(rng)
            extract_bubbles(f, float(rng.choice([0.01, 0.05])), float(rng.choice([0.25, 1.0])),
                            float(rng.choice([0.25, 1.0])))
        assert removals[True] >= 100, removals

    def test_zone_candidates_across_rounded_edges(self):
        # a zone's candidates come from the breakpoints near it; a breakpoint
        # just outside z_lo - r (z_hi + r) whose + r (- r) rounds into the zone
        # must be among them
        rng = np.random.default_rng(2027)
        seen = Counter()
        while min(seen["left"], seen["right"]) < 5:
            r = float(rng.choice([1 / 3, 0.1, 0.7, 1.0]))
            z_lo = float(rng.uniform(-50.0, 50.0))
            z_hi = z_lo + float(rng.uniform(0.5, 4.0))
            x = float(np.nextafter(z_lo - r, -np.inf))  # left out by the search
            y = float(np.nextafter(z_hi + r, np.inf))
            left, right = x + r >= z_lo, y - r <= z_hi
            if not (left or right):
                continue
            seen["left"] += left
            seen["right"] += right
            f = ConcentrationProfile.from_intervals([(x - 1.0, x, 1.0), (z_lo, z_hi, 0.5),
                                                     (y, y + 1.0, 1.0)])
            scan = _LevyScan(f, r)
            bp = f.breakpoints
            want = np.unique(np.concatenate([bp - r, bp + r]))
            want = want[(want >= z_lo) & (want <= z_hi)]
            assert scan._candidates(z_lo, z_hi).tobytes() == want.tobytes()

    def test_fixture_decompositions_match(self):
        for f in (concentration_profile(fixture_staircase(64)),
                  concentration_profile(fixture_runaway(50.0)),
                  ConcentrationProfile.from_intervals([(0.0, 2.0, 1.0)]),
                  ConcentrationProfile.empty()):
            self.assert_same(extract_bubbles(f, 0.05, 2.0, 1.0),
                             _oracles.extract_bubbles(f, 0.05, 2.0, 1.0))


class TestTracks:
    def test_staircase_separations_strictly_increase(self):
        decs = []
        for n in (4, 8, 16, 32):
            f = concentration_profile(fixture_staircase(n))
            decs.append(extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0))
        tracks = track_sequence(decs)
        assert tracks.counts == (2, 2, 2, 2)
        assert tracks.separations[(0, 1)] == (5.0, 9.0, 17.0, 33.0)
        assert tracks.trends[(0, 1)] == "increasing"

    def test_runaway_separations(self):
        decs = []
        for n in (10.0, 100.0, 1000.0):
            f = concentration_profile(fixture_runaway(n))
            decs.append(extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0))
        tracks = track_sequence(decs)
        assert tracks.separations[(0, 1)] == (10.0, 100.0, 1000.0)
        assert tracks.trends[(0, 1)] == "increasing"

    def test_constant_sequence_is_bounded(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0), (50.0, 51.0, 0.5)])
        decs = [extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0) for _ in range(3)]
        tracks = track_sequence(decs)
        assert tracks.trends[(0, 1)] == "bounded"
        assert len(set(tracks.separations[(0, 1)])) == 1

    def test_mismatched_params_rejected(self):
        f = ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0)])
        a = extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0)
        b = extract_bubbles(f, eps=0.2, gap_delta=2.0, ref_radius=1.0)
        with pytest.raises(ValueError):
            track_sequence([a, b])

    def test_trend_vocabulary(self):
        assert separation_trend([1.0, 2.0, 3.0]) == "increasing"
        assert separation_trend([2.0, 2.0, 2.0]) == "bounded"
        assert separation_trend([3.0, 1.0, 2.0]) == "bounded"
