"""crackgrid benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload staircase_verify --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --smoke    # tiny inputs, a few seconds

Each run generates the workload's inputs from the seed, times the program's
set-up in fresh processes, then starts one fresh worker process that drives
``crackgrid.cli.main`` in a closed loop (one client, one command at a time,
numpy thread pools pinned to one thread) for ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics from untraced passes (pass
times in units of a reference task timed around each pass); with
``--trace 1`` it reports per-layer self times and counts from traced passes,
plus the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = {"full": 7, "smoke": 2}

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# name -> unit, for metrics taken from untraced passes and set-up samples.
# A "ref" is the time of the worker's reference task around the same pass.
END_TO_END = {
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and recorded, but not in BENCHMARK.json: raw times follow the
# shared machine's drifting speed
RAW = {
    "wall_s": "s",
    "cpu_s": "s",
    "cells_per_s": "1/s",
    "ref_s": "s",
}
# per-layer self-time metric -> the span name it sums; counts and ratios below
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "grid.from_dict_s": "grid.from_dict",
    "grid.to_dict_s": "grid.to_dict",
    "grid.energy_s": "grid.energy",
    "grid.kyfan_s": "grid.kyfan",
    "profile.concentration_s": "profile.concentration",
    "profile.levy_s": "profile.levy",
    "bubbles.extract_s": "bubbles.extract",
    "bubbles.track_s": "bubbles.track",
    "partition.select_radii_s": "partition.select_radii",
    "partition.build_s": "partition.build",
    "partition.renormalize_s": "partition.renormalize",
    "partition.perturbed_s": "partition.perturbed",
    "partition.vanishing_region_s": "partition.vanishing_region",
    "partition.to_csv_s": "partition.to_csv",
    "analysis.compactness_self_s": "analysis.compactness",
    "analysis.lsc_s": "analysis.lsc",
    "analysis.certificate_s": "analysis.certificate",
    "analysis.pairings_s": "analysis.pairings",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "grid.cells": "count",
    "grid.cracks": "count",
    "profile.calls": "count",
    "profile.breakpoints": "count",
    "profile.distinct_ratio": "ratio",
    "bubbles.count": "count",
    "partition.labels": "count",
    "analysis.slice_rows": "count",
    "analysis.certificate_alpha": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": THREAD_ENV,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_CODE = """
import time
t0 = time.perf_counter()
import crackgrid.cli
from crackgrid.analysis import grid_iso_constant
grid_iso_constant()
crackgrid.cli.build_parser()
print(repr(time.perf_counter() - t0), crackgrid.__file__)
"""


def measure_setup(samples: int, deadline: float) -> list[float]:
    """Import plus lazy first-call set-up, each in a fresh interpreter.

    The first child is untimed: it compiles the package's byte code, which
    a user pays once per install, not per run.
    """
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        seconds, where = proc.stdout.split(maxsplit=1)
        if SRC not in Path(where.strip()).resolve().parents:
            raise RuntimeError(f"crackgrid imported from {where.strip()}, not {SRC}")
        if i:
            times.append(float(seconds))
    return times


def run_worker(plan: dict, work: Path, deadline: float) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path),
                             str(result_path)], cwd=ROOT, env=child_env())
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def median_of(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(result: dict, setup: list[float]) -> dict:
    passes = result["passes"]
    return {
        "wall_ref": median_of(p["wall"] / p["ref_wall"] for p in passes),
        "cpu_ref": median_of(p["cpu"] / p["ref_cpu"] for p in passes),
        "setup_s": median_of(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def raw_metrics(passes: list[dict]) -> dict:
    return {
        "wall_s": median_of(p["wall"] for p in passes),
        "cpu_s": median_of(p["cpu"] for p in passes),
        "cells_per_s": median_of(p["cells"] / p["wall"] for p in passes),
        "ref_s": median_of(p["ref_wall"] for p in passes),
    }


def command_latencies(passes: list[dict]) -> dict:
    names = passes[0]["ops"]
    return {f"cmd.{name}_s": median_of(p["ops"][name] for p in passes) for name in names}


def layer_metrics(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        lay = p["layers"]
        lay_self = lay["self_s"]
        counts, calls = lay["counts"], lay["calls"]
        row = {name: lay_self.get(span, 0.0) for name, span in SELF_TIMES.items()}
        n_profile = calls.get("profile.concentration", 0)
        n_cert = calls.get("analysis.certificate", 0)
        row.update({
            "cli.bytes_in": p["bytes_in"],
            "cli.bytes_out": p["bytes_out"],
            "grid.cells": counts.get("grid.from_dict.cells", 0),
            "grid.cracks": counts.get("grid.from_dict.cracks", 0),
            "profile.calls": n_profile,
            "profile.breakpoints": counts.get("profile.concentration.breakpoints", 0),
            "profile.distinct_ratio": lay["profile_distinct"] / n_profile if n_profile else 0.0,
            "bubbles.count": counts.get("bubbles.extract.bubbles", 0),
            "partition.labels": counts.get("partition.build.labels", 0),
            "analysis.slice_rows": lay["slice_rows"],
            "analysis.certificate_alpha":
                counts.get("analysis.certificate.alpha", 0) / n_cert if n_cert else 0.0,
            "trace.coverage": sum(lay_self.values()) / p["wall"],
        })
        per_pass.append(row)
    out = {name: median_of(row[name] for row in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = median_of(p["wall"] for p in traced) - \
        median_of(p["wall"] for p in plain)
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, size: str,
                 why: str) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work = HERE / "work" / f"{workload}-s{seed}-{os.getpid()}"
    results = HERE / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        plan = gen.generate(workload, seed, size, work)
        setup = [] if trace else measure_setup(SETUP_SAMPLES[size], deadline)
        pinned = None
        if seed == DEFAULT_SEED and size == "full":
            pinned = json.loads((HERE / "digests.json").read_text())[workload]
        tag = f"{workload}-s{seed}-{size}-trace{int(trace)}"
        plan.update(src=str(SRC), seconds=seconds, trace=trace, pinned=pinned,
                    min_passes=4 if trace else 3,
                    trace_path=str(results / f"{tag}.spans.jsonl") if trace else None)
        result = run_worker(plan, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = layer_metrics(result)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(result, setup)
        units = END_TO_END
    untraced = [p for p in result["passes"] if not p["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "why": why,
        "properties": plan["properties"],
        "environment": {**environment(), "numpy": result["numpy"]},
        "samples": {"passes": len([p for p in result["passes"] if p["traced"] == trace]),
                    "pass_wall_s": [p["wall"] for p in result["passes"]],
                    "pass_cpu_s": [p["cpu"] for p in result["passes"]],
                    "pass_ref_s": [p["ref_wall"] for p in result["passes"]],
                    "setup_s": setup},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw": raw_metrics(untraced),
        "commands": command_latencies(untraced),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "digests": result["digests"],
        "elapsed_s": time.monotonic() - start,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                         encoding="utf-8")
    return record


def print_record(rec: dict) -> None:
    env = rec["environment"]
    print(f"# env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, "
          + " ".join(f"{k}={v}" for k, v in sorted(env["thread_env"].items())))
    props = ", ".join(f"{k} {v}" for k, v in rec["properties"].items())
    print(f"# {rec['workload']} (seed {rec['seed']}, {rec['size']}, "
          f"trace {int(rec['trace'])}): {props}")
    n = rec["samples"]
    for name, m in rec["metrics"].items():
        basis = f"median of {len(n['setup_s'])} set-ups" if name == "setup_s" else \
            "peak of the worker process" if name == "peak_rss_mb" else \
            f"median of {n['passes']} passes"
        print(f"{rec['workload']:>22} {name:<30} {m['value']:>14.6g} {m['unit']:<6} ({basis})")
    for name, value in rec["raw"].items():
        print(f"{rec['workload']:>22} {name:<30} {value:>14.6g} {RAW[name]:<6} "
              f"(median over untraced passes)")
    for name, value in rec["commands"].items():
        print(f"{rec['workload']:>22} {name:<30} {value:>14.6g} {'s':<6} "
              f"(median over untraced passes)")
    ratio = rec["failed"] / rec["attempted"]
    print(f"{rec['workload']:>22} {'fail_ratio':<30} {ratio:>14.6g} {'ratio':<6} "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for msg in rec["failures"]:
        print(f"# FAILED {msg}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop children


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*gen.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args(argv)

    if not (SRC / "crackgrid" / "cli.py").is_file():
        print(f"error: no crackgrid sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    size = "smoke" if args.smoke else "full"
    names = list(gen.GENERATORS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            rec = run_workload(name, args.seed, seconds, bool(args.trace), size, why[name])
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_record(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
