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
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from _fixtures import staircase_pipeline
from crackgrid import partition
from crackgrid.analysis import bubble_partition, compactness_report, vanishing_certificate
from crackgrid.bubbles import Bubble, ExtractionParams, _grow_window, classify, extract_bubbles
from crackgrid.cli import main
from crackgrid.fixtures import fixture_runaway, fixture_staircase
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    InvariantError,
    energy,
    grid_function_to_dict,
)
from crackgrid.partition import select_radii, vanishing_region
from crackgrid.profile import ConcentrationProfile, concentration_profile, levy_concentration


def _not_weakly_vanishing():
    u = fixture_runaway(5.0)
    vanishing_certificate(u, CellSet(u.geom, np.ones(u.geom.shape, dtype=bool)), eps=1e-6)


def _certificate_in_1d(_):
    geom = GridGeometry((0.0,), 0.5, (8,))
    vanishing_certificate(GridFunction(geom, np.arange(8.0)),
                          CellSet(geom, np.ones(8, dtype=bool)), eps=0.5)


def _partition_of(center, r_minus, r_plus):
    """A one-piece partition of the staircase at window 1.0; the profile goes unused."""
    return lambda _: partition.DomainPartition(
        fixture_staircase(4), [partition.RadiusChoice(center, r_minus, r_plus, 0.0, 0.0)], 1.0)


INVARIANTS = {
    "not-weakly-vanishing": (_not_weakly_vanishing, "not weakly vanishing"),
    "bubble-radii": (lambda: Bubble(0.0, 2.0, 1.0, 1.0), "inner_radius <= outer_radius"),
    "bubble-mass": (lambda: Bubble(0.0, 1.0, 2.0, 0.0), "mass must be positive"),
    "bubble-center": (lambda: Bubble(math.nan, 1.0, 1.0, 1.0), "finite center"),
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
    "piece-center-nan": (_partition_of(math.nan, 1.0, 1.0), "piece center must be finite"),
    "piece-center-inf": (_partition_of(math.inf, 1.0, 1.0), "piece center must be finite"),
    "piece-radii-inf": (_partition_of(2.0, math.inf, math.inf), "r_minus must be positive"),
    "piece-r-plus-0": (_partition_of(2.0, 1.0, 0.0), "r_plus must be positive"),
    # its bands would overlap, but a bad radius is a precondition, checked first
    "piece-radii-negative": (_partition_of(2.0, -1.0, -1.0), "r_minus must be positive"),
}


def _certificate_on(cells: bool, param: str):
    def call(c, x):
        region = CellSet(c.u.geom, np.full(c.u.geom.shape, cells))
        vanishing_certificate(c.u, region, **{"eps": None, param: x})
    return call


# every public entry point and every real parameter it takes, called as (case, value) on
# the staircase pipeline; the window rows keep the entry point's bare name
REAL_PARAMETERS = {
    "concentration_profile": ("window", lambda c, x: concentration_profile(c.u, window=x)),
    "ConcentrationProfile": (
        "window", lambda c, x: ConcentrationProfile([0.0, 1.0], [0.0, 1.0, 0.0], x)),
    "from_intervals": (
        "window", lambda c, x: ConcentrationProfile.from_intervals([(0.0, 1.0, 1.0)], x)),
    "vanishing_certificate": ("window", _certificate_on(True, "window")),
    "vanishing_certificate-empty-region": ("window", _certificate_on(False, "window")),
    "bubble_partition": ("window", lambda c, x: bubble_partition(c.u, 0.1, 1.0, 2.0, window=x)),
    "build_partition": ("window", lambda c, x: partition.build_partition(c.u, c.radii, window=x)),
    "DomainPartition": ("window", lambda c, x: partition.DomainPartition(c.u, c.radii, window=x)),
    "compactness_report": ("window", lambda c, x: compactness_report([c.u], window=x)),
    "GridGeometry.spacing": ("spacing", lambda c, x: GridGeometry((0.0,), x, (4,))),
    "energy.p": ("p", lambda c, x: energy(c.u, p=x)),
    "levy_concentration.radius": ("radius", lambda c, x: levy_concentration(c.f, x)),
    "ExtractionParams.ref_radius": ("ref_radius", lambda c, x: ExtractionParams(0.1, 2.0, x)),
    "ExtractionParams.gap_delta": ("gap_delta", lambda c, x: ExtractionParams(0.1, x, 1.0)),
    "classify.ref_radius": ("ref_radius", lambda c, x: classify(c.f, 0.1, ref_radius=x)),
    "classify.gap_delta": ("gap_delta", lambda c, x: classify(c.f, 0.1, 1.0, gap_delta=x)),
    "extract_bubbles.ref_radius": (
        "ref_radius", lambda c, x: extract_bubbles(c.f, 0.1, gap_delta=2.0, ref_radius=x)),
    "extract_bubbles.gap_delta": (
        "gap_delta", lambda c, x: extract_bubbles(c.f, 0.1, gap_delta=x, ref_radius=1.0)),
    "select_radii.base_radius": (
        "base_radius", lambda c, x: select_radii(c.f, c.dec.bubbles, base_radius=x)),
    "vanishing_region.radius": (
        "radius", lambda c, x: vanishing_region(c.u, c.dec.bubbles, radius=x)),
    "vanishing_certificate.radius": ("radius", _certificate_on(True, "radius")),
    "vanishing_certificate.eps": ("eps", _certificate_on(True, "eps")),
    "vanishing_certificate-empty-region.radius": ("radius", _certificate_on(False, "radius")),
    "vanishing_certificate-empty-region.eps": ("eps", _certificate_on(False, "eps")),
    "bubble_partition.ref_radius": (
        "ref_radius", lambda c, x: bubble_partition(c.u, 0.1, x, 2.0)),
    "bubble_partition.gap_delta": ("gap_delta", lambda c, x: bubble_partition(c.u, 0.1, 1.0, x)),
    "compactness_report.p": ("p", lambda c, x: compactness_report([c.u], p=x)),
    "compactness_report.ref_radius": (
        "ref_radius", lambda c, x: compactness_report([c.u], ref_radius=x)),
    "compactness_report.gap_delta": (
        "gap_delta", lambda c, x: compactness_report([c.u], gap_delta=x)),
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


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("name,call", REAL_PARAMETERS.values(), ids=REAL_PARAMETERS)
def test_window_must_be_positive_and_finite(name, call, value):
    # every length, p and the certificate's eps: a bad value is a precondition, named as the
    # caller passed it, before any work that could warn (an inf radius once reached numpy's
    # "invalid value" in the Levy scan) or fail as an invariant (overlapping bands)
    u, f, dec, radii, _ = staircase_pipeline(4)
    case = SimpleNamespace(u=u, f=f, dec=dec, radii=radii)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"^{name} must be (positive|above 1) and finite, got {value!r}$"
        with pytest.raises(ValueError, match=message) as info:
            call(case, value)
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
