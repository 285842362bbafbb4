"""Which failures are invariant violations.

An ``InvariantError`` is a conclusion the package promises failing on valid
input; every other ``ValueError`` is an unmet precondition.  The CLI maps the
first to exit 2 and the rest to exit 1, so each raise site must use the type
of what it reports.  Overlapping partition bands are checked in
``test_partition.py``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from _fixtures import staircase_pipeline
from crackgrid import partition
from crackgrid.analysis import bubble_partition, compactness_report, vanishing_certificate
from crackgrid.bubbles import Bubble, _grow_window, extract_bubbles
from crackgrid.cli import main
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    InvariantError,
    grid_function_to_dict,
)
from crackgrid.profile import ConcentrationProfile, concentration_profile


def _not_weakly_vanishing():
    u = fixture_runaway(5.0)
    vanishing_certificate(u, CellSet(u.geom, np.ones(u.geom.shape, dtype=bool)), eps=1e-6)


def _certificate_in_1d(_):
    geom = GridGeometry((0.0,), 0.5, (8,))
    vanishing_certificate(GridFunction(geom, np.arange(8.0)),
                          CellSet(geom, np.ones(8, dtype=bool)), eps=0.5)


INVARIANTS = {
    "not-weakly-vanishing": (_not_weakly_vanishing, "not weakly vanishing"),
    "bubble-radii": (lambda: Bubble(0.0, 2.0, 1.0, 1.0), "inner_radius <= outer_radius"),
    "bubble-mass": (lambda: Bubble(0.0, 1.0, 2.0, 0.0), "mass must be positive"),
}

PRECONDITIONS = {
    "eps-above-1": (lambda f: extract_bubbles(f, eps=1.5, gap_delta=2.0, ref_radius=1.0),
                    "eps must lie in"),
    "eps-0": (lambda f: extract_bubbles(f, eps=0.0, gap_delta=2.0, ref_radius=1.0),
              "eps must lie in"),
    "max-bubbles-negative": (
        lambda f: extract_bubbles(f, eps=0.1, gap_delta=2.0, ref_radius=1.0, max_bubbles=-1),
        "max_bubbles must be at least 0"),
    # the first growth step already rounds back to the radius: it raises at once
    "gap-delta-lost": (lambda f: _grow_window(f, 0.0, 1e20, 2.0, 0.0),
                       "gap_delta 2.0 vanishes next to radius"),
    "certificate-1d": (_certificate_in_1d, "2D"),
}


def _certificate_on(cells: bool):
    def call(u, _, window):
        region = CellSet(u.geom, np.full(u.geom.shape, cells))
        vanishing_certificate(u, region, eps=None, window=window)
    return call


# every public entry point that takes a window, called as (u, radii, window)
WINDOW_ENTRY_POINTS = {
    "concentration_profile": lambda u, _, w: concentration_profile(u, window=w),
    "ConcentrationProfile": lambda u, _, w: ConcentrationProfile([0.0, 1.0], [0.0, 1.0, 0.0], w),
    "from_intervals": lambda u, _, w: ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0)], w),
    "vanishing_certificate": _certificate_on(True),
    "vanishing_certificate-empty-region": _certificate_on(False),
    "bubble_partition": lambda u, _, w: bubble_partition(u, 0.1, 1.0, 2.0, window=w),
    "build_partition": lambda u, radii, w: partition.build_partition(u, radii, window=w),
    "compactness_report": lambda u, _, w: compactness_report([u], window=w),
}


@pytest.mark.parametrize("call,match", INVARIANTS.values(), ids=INVARIANTS)
def test_failed_conclusion_raises_invariant_error(call, match):
    with pytest.raises(InvariantError, match=match):
        call()


@pytest.mark.parametrize("call,match", PRECONDITIONS.values(), ids=PRECONDITIONS)
def test_unmet_precondition_is_not_an_invariant_error(call, match):
    f = concentration_profile(fixture_staircase(4))
    with pytest.raises(ValueError, match=match) as info:
        call(f)
    assert not isinstance(info.value, InvariantError)


@pytest.mark.parametrize("window", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("call", WINDOW_ENTRY_POINTS.values(), ids=WINDOW_ENTRY_POINTS)
def test_window_must_be_positive_and_finite(call, window):
    # a bad window is a precondition: never labelled cells, nor overlapping bands
    u, _, _, radii, _ = staircase_pipeline(4)
    with pytest.raises(ValueError, match="window must be positive and finite") as info:
        call(u, radii, window)
    assert not isinstance(info.value, InvariantError)


def test_exhausted_offsets_raise_invariant_error_and_exit_2(monkeypatch, tmp_path, capsys):
    # with 0.0 the only offset, the first main piece finds it taken by the
    # aggregate, which is offset first
    monkeypatch.setattr(partition, "_dyadic_offsets", lambda: iter([0.0]))
    u, _, _, _, part = staircase_pipeline(8)
    with pytest.raises(InvariantError, match="exhausted dyadic offsets"):
        partition.perturbed_translation(part)
    path = tmp_path / "u.json"
    path.write_text(json.dumps(grid_function_to_dict(u)))
    assert main(["renormalize", str(path), "--perturb"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: exhausted dyadic offsets")
