"""Smoke test of the benchmark: tiny inputs, every workload, a few seconds.

Checks that the correctness gate passes and that every metric named in
BENCHMARK.json is printed with its unit, both in the table and in the final
JSON line, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_passes_gate_and_names_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w}/{m['name']}": m["unit"] for w in WORKLOADS for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    text = "\n".join(table)
    for w in WORKLOADS:
        for m in BENCH[kind]:
            line = rf"{w}\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s"
            assert re.search(line, text), f"{w} {m['name']} not printed with its unit"
        assert re.search(rf"{w}\s+fail_ratio\s+0\s", text)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
