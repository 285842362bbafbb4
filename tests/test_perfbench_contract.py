"""The names of crackgrid that the benchmark's stage tracer and set-up child read.

``perfbench/spans.py`` times stages by rebinding names in ``crackgrid.cli``
and ``crackgrid.analysis``, and ``perfbench/run.py``'s set-up child calls two
more; a change that removes one of them breaks the benchmark, which this test
says in well under a second.  The names that exist only for the tracer go when
ROADMAP item 2 moves the trace into the package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from crackgrid import analysis, cli
from crackgrid.grid import GridFunction
from crackgrid.partition import DomainPartition

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HINT = "perfbench reads this name; it can go only with ROADMAP item 2"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("module,targets", [(cli, spans._CLI_TARGETS),
                                            (analysis, spans._ANALYSIS_TARGETS)],
                         ids=["cli", "analysis"])
def test_every_traced_name_exists(module, targets):
    missing = [attr for attr, _, _ in targets if not hasattr(module, attr)]
    assert not missing, f"{module.__name__} lacks {missing}: {HINT}"


@pytest.mark.parametrize("owner,attr", [
    (analysis, "slice_line"),  # counted by the tracer
    (DomainPartition, "to_csv"),  # timed by the tracer
    (GridFunction, "cracks"),  # hashed into the tracer's profile keys
    (cli, "build_parser"),  # the set-up child's two calls
    (analysis, "grid_iso_constant"),
])
def test_every_other_name_perfbench_reads_exists(owner, attr):
    assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone: {HINT}"
