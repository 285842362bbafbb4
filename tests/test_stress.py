"""Randomized stress sweeps over the extraction pipeline (seeded)."""

from __future__ import annotations

import numpy as np

from crackgrid.bubbles import extract_bubbles
from crackgrid.profile import ConcentrationProfile, levy_concentration


def random_cluster_profile(rng: np.random.Generator) -> ConcentrationProfile:
    """Clusters at every spacing regime with arbitrary float data."""
    intervals = []
    pos = float(rng.uniform(-50, 0))
    for _ in range(int(rng.integers(1, 8))):
        pos += float(rng.uniform(0.3, 9.0))
        width = float(rng.uniform(0.05, 3.0))
        height = float(rng.uniform(0.02, 4.0))
        intervals.append((pos, pos + width, height))
        pos += width
    return ConcentrationProfile.from_intervals(intervals)


def test_extraction_invariants_under_stress():
    rng = np.random.default_rng(2024)
    for _ in range(400):
        f = random_cluster_profile(rng)
        eps = float(rng.choice([0.03, 0.05, 0.1, 0.2, 0.3]))
        gap = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        ref = float(rng.choice([0.5, 1.0, 2.0]))
        dec = extract_bubbles(f, eps=eps, gap_delta=gap, ref_radius=ref)
        assert dec.validate() == []
        total = f.total_mass()
        book = dec.bubble_mass() + dec.leakage_total() + dec.remainder.total_mass()
        assert abs(book - total) <= 1e-12 * max(1.0, total)
        if not dec.incomplete:
            # extraction's own stop: no window of the remainder passes eps * total
            assert levy_concentration(dec.remainder, ref)[0] <= eps * dec.total_mass


def test_per_bubble_leak_bound_unless_capped():
    # uncapped growth guarantees leakage <= eps * mass per bubble; a capped
    # stop (cluster squeezed between two windows, unclaimable under the
    # separation rule) may exceed it and is flagged
    rng = np.random.default_rng(2025)
    capped_seen = 0
    for _ in range(300):
        f = random_cluster_profile(rng)
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        gap = float(rng.choice([1.0, 2.0, 3.0]))
        dec = extract_bubbles(f, eps=eps, gap_delta=gap, ref_radius=1.0)
        threshold = eps * dec.total_mass
        for leak, was_capped in zip(dec.leakages, dec.capped):
            if was_capped:
                capped_seen += 1
            else:
                assert leak <= threshold + 1e-12
    assert capped_seen > 0  # the sweep does exercise the capped branch
