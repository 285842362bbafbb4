"""Timed closed loop for one workload, run in a fresh process by run.py.

Usage: python3 worker.py PLAN.json RESULT.json

One client runs the workload's CLI commands through ``crackgrid.cli.main``,
one command at a time, pass after pass, until the plan's seconds are spent.
A first pass is untimed: it finishes lazy set-up and fixes each command's
reference output.  A fixed reference task is timed between passes, as a
gauge of the machine's momentary speed.  Every command of every pass goes
through the correctness gate; a failure is counted and the loop goes on.  With tracing on, untraced
and traced passes alternate, and only traced passes have the spans patched in.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer


def check_output(check: dict, data: bytes) -> str | None:
    """Semantic check of one command output; returns the failure or None."""
    kind = check["kind"]
    if kind == "raster":
        rows = data.decode().splitlines()
        nx, ny = check["shape"]
        if len(rows) != nx or any(len(r.split(",")) != ny for r in rows):
            return "label raster has the wrong shape"
        return None
    doc = json.loads(data)
    if kind == "verify":
        if doc.get("ok") is not True or doc.get("violations"):
            return f"verify not ok: {doc.get('violations')}"
        expected = check.get("jump_measures")
        if expected:
            for eps, entry in doc["per_eps"].items():
                got = [e["jump_original"] for e in entry["per_n"]]
                if got != expected:
                    return f"eps={eps}: jump measures {got} != {expected}"
    elif kind == "decompose":
        if doc.get("violations") != []:
            return f"decompose violations: {doc.get('violations')}"
    elif kind == "function":
        values = doc["values"]
        if doc["shape"] != check["shape"] or len(values) != math.prod(check["shape"]):
            return "renormalized function has the wrong shape"
        if not all(math.isfinite(v) for v in values):
            return "renormalized function has non-finite values"
    return None


class Gate:
    """Per-command correctness: exit code, semantic check on the reference
    output, byte-identical output on every later pass, pinned digest."""

    def __init__(self, pinned: dict | None):
        self.pinned = pinned or {}
        self.reference: dict[str, str] = {}
        self.semantic: dict[str, str | None] = {}
        self.failures: list[str] = []

    def judge(self, op: dict, rc, data: bytes | None) -> bool:
        name = op["name"]
        if rc != 0:
            return self._fail(f"{name}: exit code {rc}")
        if data is None:
            return self._fail(f"{name}: no output written")
        digest = hashlib.sha256(data).hexdigest()
        if name not in self.reference:
            self.reference[name] = digest
            try:
                self.semantic[name] = check_output(op["check"], data)
            except (ValueError, KeyError, TypeError) as exc:
                self.semantic[name] = f"unreadable output: {exc!r}"
        if self.semantic[name]:
            return self._fail(f"{name}: {self.semantic[name]}")
        if digest != self.reference[name]:
            return self._fail(f"{name}: output bytes differ between passes")
        if name in self.pinned and digest != self.pinned[name]:
            return self._fail(f"{name}: output digest {digest} differs from the pinned one")
        return True

    def _fail(self, msg: str) -> bool:
        if len(self.failures) < 20:
            self.failures.append(msg)
        return False


def reference_task() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed interpreter-and-numpy task that calls
    no crackgrid code.

    The machine is shared, and its speed drifts by tens of percent from one
    second to the next.  Timing this task on both sides of every pass lets a
    pass be expressed in multiples of it, which cancels much of that drift.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    for r in range(3):
        items = [((i * 7919 + r) % 10007, float(i)) for i in range(25_000)]
        items.sort()
        dict(items)
        arr = (np.arange(100_000, dtype=np.int64) * 7919 + r) % 100_003
        np.unique(arr)
        json.loads(json.dumps(items[:10_000]))
    return time.perf_counter() - t0, time.process_time() - c0


def run_op(cli, op: dict, tracer: Tracer | None, run_id: str):
    out = Path(op["out"])
    out.unlink(missing_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            rc = cli.main(op["argv"])
        else:
            rc = tracer.call(run_id, "cli.main", cli.main, op["argv"])
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = repr(exc)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    data = out.read_bytes() if out.exists() else None
    return rc, wall, cpu, data


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()
    import crackgrid
    from crackgrid import cli
    if src not in Path(crackgrid.__file__).resolve().parents:
        print(f"crackgrid imported from {crackgrid.__file__}, not {src}", file=sys.stderr)
        return 2
    gate = Gate(plan.get("pinned"))
    tracer = Tracer() if plan["trace"] else None
    passes, attempted, failed = [], 0, 0

    def one_pass(index: int, traced: bool) -> dict:
        nonlocal attempted, failed
        record = {"traced": traced, "ops": {}, "wall": 0.0, "cpu": 0.0, "cells": 0,
                  "bytes_in": 0, "bytes_out": 0}
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            for op in plan["ops"]:
                run_id = f"{plan['workload']}-s{plan['seed']}-p{index}-{op['name']}"
                rc, wall, cpu, data = run_op(cli, op, tracer if traced else None, run_id)
                attempted += 1
                if not gate.judge(op, rc, data):
                    failed += 1
                record["ops"][op["name"]] = wall
                record["wall"] += wall
                record["cpu"] += cpu
                record["cells"] += op["cells"]
                record["bytes_in"] += sum(os.path.getsize(p) for p in op["inputs"])
                record["bytes_out"] += len(data) if data is not None else 0
        finally:
            if traced:
                tracer.restore()
        if traced:
            record["layers"] = tracer.take_pass(first_span)
        return record

    one_pass(0, False)
    before = reference_task()
    deadline = time.perf_counter() + plan["seconds"]
    index = 1
    while index <= plan["min_passes"] or time.perf_counter() < deadline:
        record = one_pass(index, bool(tracer) and index % 2 == 0)
        after = reference_task()  # timed on both sides of the pass
        record["ref_wall"] = 0.5 * (before[0] + after[0])
        record["ref_cpu"] = 0.5 * (before[1] + after[1])
        passes.append(record)
        before = after
        index += 1
    if tracer and plan.get("trace_path"):
        tracer.write(plan["trace_path"])
    result = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": gate.failures,
        "digests": gate.reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "crackgrid": str(Path(crackgrid.__file__).resolve().parent),
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
