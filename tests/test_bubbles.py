from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import _oracles
from _fixtures import cluster_plate, empty_profile, random_profile

from crackgrid import analysis, bubbles
from crackgrid.bubbles import (
    _extract_ladder,
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
        v = classify(empty_profile(), eps=0.5, ref_radius=1.0)
        assert v.kind == "vanishing"

    @pytest.mark.parametrize("kwargs,message", [
        ({"eps": 0.5, "ref_radius": -1.0}, "ref_radius must be positive, got -1.0"),
        ({"eps": 0.5, "ref_radius": 1.0, "gap_delta": 0.0}, "gap_delta must be positive"),
        ({"eps": 1.0, "ref_radius": 1.0}, "eps must lie in"),
    ])
    def test_arguments_checked_as_extraction_checks_them(self, kwargs, message):
        # even where the verdict needs no radius: the empty profile is vanishing
        with pytest.raises(ValueError, match=message):
            classify(empty_profile(), **kwargs)

    def test_matches_oracle_and_first_extracted_bubble(self):
        # bit for bit (by repr) the verdict of the body classify had before it
        # took extraction's first step; its witness is that first bubble
        rng = np.random.default_rng(1984)
        seen = Counter()
        for i in range(300):
            if i % 2:
                f = random_profile(rng)
            else:
                f, _ = dyadic_cluster_profile(rng, int(rng.integers(1, 12)),
                                              min_gap=float(rng.choice([1.0, 8.0])))
            eps = float(rng.choice([0.05, 0.1, 0.3]))
            # a large radius holds a whole profile, the compactness case
            ref_radius = float(rng.choice([0.5, 1.0, 4.0, 64.0]))
            gap_delta = float(rng.choice([0.5, 2.0]))
            verdict = classify(f, eps=eps, ref_radius=ref_radius, gap_delta=gap_delta)
            assert repr(verdict) == repr(_oracles.classify(f, eps, ref_radius, gap_delta))
            if verdict.witness is not None:
                dec = extract_bubbles(f, eps=eps, gap_delta=gap_delta, ref_radius=ref_radius,
                                      max_bubbles=1)
                assert repr(dec.bubbles[0]) == repr(verdict.witness)
            seen[verdict.kind] += 1
        assert min(seen[k] for k in ("compactness", "dichotomy", "vanishing")) >= 20, seen

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
        empty = classify(empty_profile(), eps=0.5, ref_radius=1.0)
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
            assert dec.leakage_total() <= len(dec.bubbles) * eps * dec.total_mass + 1e-12
            # extraction's own stop: no window of the remainder passes eps * total
            assert levy_concentration(dec.remainder, 1.0)[0] <= eps * dec.total_mass

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

    @pytest.mark.parametrize("change,messages", [
        (lambda d: {"total_mass": 16.0},
         ["bubble masses exceed the total mass", "mass bookkeeping identity fails"]),
        (lambda d: {"bubbles": d.bubbles[::-1]}, ["bubble masses are not nonincreasing"]),
        (lambda d: {"bubbles": (d.bubbles[0], dataclasses.replace(d.bubbles[1], center=3.0))},
         ["bubbles at 0.0 and 3.0 violate separation"]),
        (lambda d: {"vanishing_score": 3.0}, ["remainder is not weakly vanishing at eps"]),
        (lambda d: {"vanishing_score": 3.0, "incomplete": True}, []),
        (lambda d: {"leakages": (3.0, 1.0)},
         ["uncapped bubble leaks more than eps * mass_scale", "mass bookkeeping identity fails"]),
        (lambda d: {"leakages": (3.0, 1.0), "capped": (True, False)},
         ["mass bookkeeping identity fails"]),
        (lambda d: {"leakages": (0.5, 1.0)}, ["mass bookkeeping identity fails"]),
    ])
    def test_validate_names_each_broken_invariant(self, change, messages):
        # the staircase's real decomposition: masses 8.25 and 8.0 at 0 and 17,
        # leaks 1.0 each, remainder 5.5 of 23.75, score 1.0 against eps * total 2.375
        dec = extract_bubbles(concentration_profile(fixture_staircase(16)), eps=0.1,
                              gap_delta=2.0, ref_radius=1.0)
        assert [b.mass for b in dec.bubbles] == [8.25, 8.0]
        assert (dec.leakages, dec.capped, dec.vanishing_score) == ((1.0, 1.0), (False, False), 1.0)
        assert dec.validate() == []
        assert dataclasses.replace(dec, **change(dec)).validate() == messages

    def test_masses_descending(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f, _ = dyadic_cluster_profile(rng, 5, min_gap=6.0)
            dec = extract_bubbles(f, eps=0.05, gap_delta=2.0, ref_radius=1.0)
            ms = [b.mass for b in dec.bubbles]
            assert ms == sorted(ms, reverse=True)


class TestWorkCount:
    def test_one_profile_query_per_growth_step(self, monkeypatch):
        # every growth step reads its annulus and its narrow strips in one
        # mass_below call, and a greedy step reads its captured and removed
        # masses in one more, over exits by the leak test, by the strip rule
        # and by the cap
        calls, seen = [], Counter()
        mass_below, grow, next_bubble = (ConcentrationProfile.mass_below, bubbles._grow_window,
                                         bubbles._next_bubble)

        def counted_mass_below(f, t):
            calls.append(t)
            return mass_below(f, t)

        def counted_grow(f, center, ref_radius, gap_delta, leak, radius_cap=np.inf, zones=()):
            before = len(calls)
            inner, outer, capped = grow(f, center, ref_radius, gap_delta, leak, radius_cap, zones)
            made = len(calls) - before
            r, steps = ref_radius, 0  # the growth steps, from the radius reached
            while r < inner:
                r += gap_delta
                steps += 1
            assert made == steps + (not capped)
            # the strip rule binds where the uncapped growth beside the zones
            # goes further than the growth without them; these reads are not counted
            seen["strip exit"] += grow(f, center, ref_radius, gap_delta, leak, zones=zones) != \
                grow(f, center, ref_radius, gap_delta, leak)
            del calls[before + made:]
            seen["cap exit"] += capped
            seen["steps"] += made
            return inner, outer, capped

        def counted_step(f, center, found, *args):
            before = len(calls)
            grown = seen["steps"]
            step = next_bubble(f, center, found, *args)
            assert len(calls) - before == seen["steps"] - grown + 1
            seen["greedy steps"] += 1
            return step

        monkeypatch.setattr(ConcentrationProfile, "mass_below", counted_mass_below)
        monkeypatch.setattr(bubbles, "_grow_window", counted_grow)
        monkeypatch.setattr(bubbles, "_next_bubble", counted_step)
        rng = np.random.default_rng(29)
        for spacing in (8.0, 5.0, 4.5):
            extract_bubbles(concentration_profile(cluster_plate(rng, spacing=spacing)),
                            0.02, 2.0, 1.0)
        for _ in range(100):
            extract_bubbles(random_profile(rng), float(rng.choice([0.01, 0.05])),
                            float(rng.choice([0.25, 0.5, 1.0])), float(rng.choice([0.5, 1.0])))
        assert min(seen["strip exit"], seen["cap exit"]) >= 5, seen
        assert seen["steps"] > seen["greedy steps"] >= 100, seen


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
            want = _oracles.extract_bubbles(f, eps, gap, radius, max_bubbles, events)
            self.assert_same(extract_bubbles(f, eps, gap, radius, max_bubbles), want)
            events["remainder emptied"] += want.remainder.breakpoints.size == 0
        assert set(events) == {
            "tied maximum", "keep-out edge on a breakpoint +- r",
            "cut on a breakpoint", "cut outside the support", "max_bubbles reached",
            "remainder emptied", "overlapping zones"}, events

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
        # after every removal the candidates, kept outside the new zone and
        # rebuilt inside it, equal those of a scan built afresh, byte for byte;
        # the stored masses, kept outside the zone from older profiles, lie
        # within slack of masses scored afresh, and best() returns the bits of
        # the fresh argmax, also where the stored argmax is another candidate
        remove, removals = _LevyScan.remove, Counter()

        def checked_remove(scan, *args):
            remove(scan, *args)
            centers, fresh = _oracles.scan_state(scan.f, scan.radius, scan.edges)
            assert scan.centers.tobytes() == centers.tobytes()
            assert np.all(np.abs(scan.masses - fresh) <= scan.slack)
            if scan.f.breakpoints.size == 0:
                want = (0.0, 0.0)
            else:
                j = int(fresh.argmax())
                want = (float(fresh[j]), float(centers[j]))
                removals["stored argmax moved"] += int(scan.masses.argmax()) != j
            assert repr(scan.best()) == repr(want)
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
        for _ in range(10):
            # twelve translated copies of one non-dyadic bump: equal real
            # window masses whose rounded scores depend on where the running
            # sum stands, so a stored argmax often lags the fresh one
            step, start = float(rng.uniform(5.0, 9.0)), float(rng.uniform(-20.0, 20.0))
            bump = [(float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.0, 2.0)),
                     float(rng.choice([0.1, 0.3, 0.7]))) for _ in range(3)]
            extract_bubbles(ConcentrationProfile.from_intervals(
                [(start + i * step + lo, start + i * step + hi, w)
                 for i in range(12) for lo, hi, w in bump]), 0.02, 1.0, 1.0)
        for _ in range(40):
            # keep-outs of any width around the cut, where extraction's end at
            # a - r and b + r: zone candidates outside a narrower keep-out
            # have windows across the cut
            f = random_profile(rng)
            if f.support() is None:
                continue
            scan, (s_lo, s_hi) = _LevyScan(f, float(rng.choice([0.25, 1.0]))), f.support()
            for _ in range(4):
                a = float(rng.uniform(s_lo - 1.0, s_hi))
                b = a + float(rng.uniform(0.1, 3.0))
                half = float(rng.uniform(0.0, (b - a) / 2 + 2 * scan.radius))
                scan.remove(a, b, (a + b) / 2 - half, (a + b) / 2 + half)
        assert removals[True] >= 100, removals
        assert removals["stored argmax moved"] >= 20, removals

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
                  empty_profile()):
            self.assert_same(extract_bubbles(f, 0.05, 2.0, 1.0),
                             _oracles.extract_bubbles(f, 0.05, 2.0, 1.0))


class TestLadder:
    """Extraction along an eps ladder from one Lévy scan of the profile."""

    LADDER = [0.2, 0.1, 0.05]

    @staticmethod
    def scans_built(monkeypatch) -> list[_LevyScan]:
        """Every scan built afresh from here on, in order (copies build none)."""
        built, init = [], _LevyScan.__init__

        def noting(scan, f, radius):
            init(scan, f, radius)
            built.append(scan)

        monkeypatch.setattr(_LevyScan, "__init__", noting)
        return built

    def profiles(self):
        rng = np.random.default_rng(2030)
        yield from (random_profile(rng) for _ in range(60))
        yield from (dyadic_cluster_profile(rng, int(rng.integers(2, 6)), 6.0)[0]
                    for _ in range(30))
        for spacing in (8.0, 5.0):
            yield concentration_profile(cluster_plate(rng, spacing=spacing))

    @staticmethod
    def sharing(seqs) -> str:
        """How the rungs' step sequences share: all agree, part at the first
        step, part after a shared prefix, or only stop at different points."""
        parts = [next((d for d, (x, y) in enumerate(zip(a, b)) if x != y), None)
                 for a, b in zip(seqs, seqs[1:])]
        if any(d == 0 for d in parts):
            return "part at the first step"
        if any(d is not None for d in parts):
            return "part after a shared prefix"
        if len(set(seqs)) == 1:
            return "all rungs agree" if seqs[0] else "all stop at once"
        return "stop at different steps"

    def test_every_rung_is_a_fresh_extraction(self, monkeypatch):
        # the rungs step in lockstep: one removal per distinct step of the rung
        # tree (the distinct prefixes of their step sequences), and one remainder
        # scan per distinct remainder, shared by the rungs that end on it
        removals, scored, steps = [], [], []
        remove, next_bubble = _LevyScan.remove, bubbles._next_bubble

        def counted_remove(scan, *args):
            removals.append(args)
            remove(scan, *args)

        def noted_step(*args):
            steps.append(next_bubble(*args))
            return steps[-1]

        def scored_remainder(f, radius):
            scored.append(f)
            return levy_concentration(f, radius)

        monkeypatch.setattr(_LevyScan, "remove", counted_remove)
        monkeypatch.setattr(bubbles, "_next_bubble", noted_step)
        monkeypatch.setattr(bubbles, "levy_concentration", scored_remainder)
        seen = Counter()
        for f in self.profiles():
            for gap, radius, max_bubbles in ((2.0, 1.0, 64), (0.5, 1 / 3, 2), (1.0, 0.5, 64)):
                seqs = []
                for eps in self.LADDER:  # each rung's steps, taken one rung at a time
                    steps.clear()
                    extract_bubbles(f, eps, gap, radius, max_bubbles)
                    seqs.append(tuple(steps))
                removals.clear()
                scored.clear()
                ladder = _extract_ladder(f, self.LADDER, gap, radius, max_bubbles)
                tree = {seq[:d] for seq in seqs for d in range(1, len(seq) + 1)}
                assert len(removals) == len(tree)
                assert len(scored) == len({seq for seq in seqs if seq})
                for eps, seq, got in zip(self.LADDER, seqs, ladder):
                    want = extract_bubbles(f, eps, gap, radius, max_bubbles)
                    TestExtractOracle.assert_same(got, want)
                    assert got.params == want.params
                    assert got.vanishing_score == want.vanishing_score
                    assert (got.remainder is f) == (not seq)
                    assert all((got.remainder is other.remainder) == (seq == other_seq)
                               for other_seq, other in zip(seqs, ladder))
                    seen["incomplete"] += got.incomplete
                seen[self.sharing(seqs)] += 1
        shared = ("all rungs agree", "part after a shared prefix", "part at the first step")
        assert min(seen[kind] for kind in shared) >= 10 and len(seen) == 6, seen

    def test_rungs_match_the_rebuilding_oracle(self):
        for f in self.profiles():
            for eps, got in zip(self.LADDER, _extract_ladder(f, self.LADDER, 2.0, 1.0)):
                TestExtractOracle.assert_same(got, _oracles.extract_bubbles(f, eps, 2.0, 1.0))

    @pytest.mark.parametrize("max_bubbles", [64, 0])
    def test_untouched_profile_scored_by_the_first_scan(self, monkeypatch, max_bubbles):
        # a rung that removes no window keeps the profile, and its score is the
        # scan's first best(): no second scan is built for it
        built = self.scans_built(monkeypatch)
        rng = np.random.default_rng(2031)
        ladder = self.LADDER[:2]
        seen = Counter()
        for k in range(40):
            if max_bubbles or k % 2:  # vanishing: 40 unit cells 10 apart, each <= 3/40 of the mass
                f = ConcentrationProfile.from_intervals(
                    [(10.0 * k, 10.0 * k + 1.0, float(rng.integers(1, 4))) for k in range(40)])
            else:
                f = random_profile(rng)
            built.clear()
            decs = _extract_ladder(f, ladder, 2.0, 1.0, max_bubbles)
            assert len(built) == 1
            for eps, dec in zip(ladder, decs):
                assert dec.bubbles == () and dec.remainder is f
                assert dec.vanishing_score == _oracles.levy_concentration(f, 1.0)[0]
                assert dec.incomplete == (dec.vanishing_score > eps * f.total_mass())
                seen[dec.incomplete] += 1
        assert seen[True] >= (20 if max_bubbles == 0 else 0) and seen[False] >= 20, seen

    def test_one_scan_per_function_alive_one_at_a_time(self, monkeypatch):
        profiles, owners, refs, alive = [], [], [], []
        init = _LevyScan.__init__

        def noting(scan, f, radius):
            init(scan, f, radius)
            if any(f is g for g in profiles):  # not a remainder's or a region's profile
                owners.append(next(i for i, g in enumerate(profiles) if f is g))
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(scan))

        def kept(u, domain=None, window=1.0):
            f = concentration_profile(u, domain=domain, window=window)
            if domain is None:
                profiles.append(f)
            return f

        monkeypatch.setattr(_LevyScan, "__init__", noting)
        monkeypatch.setattr(analysis, "concentration_profile", kept)
        seq = [fixture_staircase(n, cells_per_step=16 // n) for n in (4, 8, 16)]
        analysis.compactness_report(seq, eps_ladder=self.LADDER)
        # one scan of each function's profile for the whole ladder, and each
        # gone before the next function's is built
        assert owners == [0, 1, 2]
        assert alive == [0, 0, 0]


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
