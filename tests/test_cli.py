from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from _fixtures import random_fixture, run_cli
from _oracles import labels_svg
from crackgrid.cli import _labels_svg
from crackgrid.partition import KIND_MAIN, DomainPartition, RadiusChoice

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv: str, stdin: str | None = None, timeout: float = 60):
    """``python -m crackgrid.cli`` in a child process, for the cases whose
    subject is the process: past ``timeout`` seconds the child is killed and
    ``subprocess.TimeoutExpired`` fails the test."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "crackgrid.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=timeout)


def test_fixture_pipe_energy():
    fx = run_cli("fixture", "staircase", "--n", "16")
    assert fx.returncode == 0
    en = run_cli("energy", "-", stdin=fx.stdout)
    assert en.returncode == 0
    payload = json.loads(en.stdout)
    assert payload["jump"] == 2.9375
    assert payload["bulk"] == 0.0


def test_runaway_energy_flags():
    fx = run_cli("fixture", "runaway", "--n", "1000000.0")
    en = run_cli("energy", "-", "--p", "3.5", stdin=fx.stdout)
    payload = json.loads(en.stdout)
    assert payload["jump"] == 1.0
    assert payload["p"] == 3.5


def test_round_trip_bit_identical(tmp_path: Path):
    out = tmp_path / "u.json"
    run_cli("fixture", "staircase", "--n", "4", "--out", str(out))
    first = out.read_text()
    # read back through the profile command and regenerate: identical fixture
    again = run_cli("fixture", "staircase", "--n", "4")
    assert again.stdout == first


def test_reports_are_deterministic(tmp_path: Path):
    fx = run_cli("fixture", "staircase", "--n", "8")
    a = run_cli("decompose", "-", "--eps", "0.1", stdin=fx.stdout)
    b = run_cli("decompose", "-", "--eps", "0.1", stdin=fx.stdout)
    assert a.stdout == b.stdout
    assert a.returncode == 0
    doc = json.loads(a.stdout)
    assert len(doc["bubbles"]) == 2
    assert doc["violations"] == []


def test_profile_csv_and_svg(tmp_path: Path):
    fx = run_cli("fixture", "runaway", "--n", "5")
    svg_path = tmp_path / "profile.svg"
    pr = run_cli("profile", "-", "--format", "csv", "--svg", str(svg_path),
                 stdin=fx.stdout)
    assert pr.returncode == 0
    assert pr.stdout.splitlines()[0] == "t,value"
    assert svg_path.read_text().startswith("<svg")


def test_malformed_json_exits_1(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "report.json"
    res = run_cli("energy", str(bad), "--out", str(out))
    assert res.returncode == 1
    assert not out.exists()  # no partial artifacts
    assert "error" in res.stderr


def test_missing_file_exits_1():
    res = run_cli("energy", "/nonexistent/u.json")
    assert res.returncode == 1


def test_duplicate_cracks_exit_1(tmp_path: Path):
    fx = run_cli("fixture", "staircase", "--n", "2")
    doc = json.loads(fx.stdout)
    doc["cracks"].append(doc["cracks"][0])
    res = run_cli("energy", "-", stdin=json.dumps(doc))
    assert res.returncode == 1


ONE_D = {"version": 1, "dim": 1, "origin": [0.0], "spacing": 1.0, "shape": [8],
         "values": [float(i) for i in range(8)]}
# a header shape whose face masks could never be allocated, with one value
OVERSIZED = {"version": 1, "dim": 2, "origin": [0.0, 0.0], "spacing": 1.0,
             "shape": [2**31, 2**31], "values": [0.0]}


@pytest.mark.parametrize("base,cracks", [
    ("2d", [[0, -1, 0]]),  # negative index
    ("2d", [[0, 1]]),  # entry one index short
    ("1d", [[0, 1, 2], [0, 3, 4]]),  # 2D entries in a 1D file (six numbers, three pairs)
    ("2d", [[2, 0, 0]]),  # axis out of range
    ("2d", [[0, 2**63, 0]]),  # beyond int64
    ("2d", [[0, 1.5, 0]]),  # not an integer
    ("2d", [[0, 3, 0]]),  # box face, not an interior face
    ("2d", [[1, 0, 0], [1, 0, 0]]),  # duplicate
    ("oversized", []),  # shape disagrees with values; rejected before the masks
    ("2d", [[True, 0, 0]]),  # not read as axis 1
    ("2d", [[0, False, 0]]),  # not read as index 0
], ids=["negative", "short", "1d-rechunk", "axis", "int64", "float", "box-face", "duplicate",
        "oversized-shape", "bool-axis", "bool-index"])
def test_malformed_crack_entries_exit_1(base, cracks):
    from crackgrid.fixtures import fixture_staircase
    from crackgrid.grid import grid_function_from_dict, grid_function_to_dict

    doc = {"1d": ONE_D, "oversized": OVERSIZED}.get(base)
    doc = dict(doc) if doc else grid_function_to_dict(fixture_staircase(2))
    doc["cracks"] = cracks
    with pytest.raises(ValueError):
        grid_function_from_dict(doc)
    res = run_cli("energy", "-", stdin=json.dumps(doc))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error: bad grid function" in res.stderr
    assert "Traceback" not in res.stderr
    if base != "oversized":
        assert "crack" in res.stderr


def test_bool_among_values_exits_1():
    # np.asarray would read [0, true, 2.5] as [0.0, 1.0, 2.5]
    doc = {**ONE_D, "shape": [3], "values": [0, True, 2.5]}
    res = run_cli("energy", "-", stdin=json.dumps(doc))
    assert (res.returncode, res.stdout) == (1, "")
    assert "values must" in res.stderr


@pytest.mark.parametrize("argv", [
    ["decompose", "-", "--eps", "1.5"],
    ["energy", "-", "--p", "0.5"],
    ["partition", "-", "--window", "-1"],
    ["fixture", "staircase", "--n", "1"],
    ["vanishing", "-", "--region", "r.json", "--eps", "0"],
    ["fixture", "staircase", "--n", "4.7"],  # not truncated to 4
    ["decompose", "-", "--max-bubbles", "-3"],
    # 10002 x 5001 cells, over the cap: refused before any array is allocated
    ["fixture", "runaway", "--resolution", "10002"],
    ["fixture", "staircase", "--n", "5001"],
    # a flag of another command
    ["profile", "-", "--eps", "0.2"],
    ["energy", "-", "--window", "2"],
    ["decompose", "-", "--p", "3"],
    ["fixture", "staircase", "--svg", "s.svg"],
])
def test_parameter_errors_exit_1(argv):
    # a valid input on stdin, so that only the parameter can be at fault
    res = run_cli(*argv, stdin=run_cli("fixture", "staircase", "--n", "4").stdout)
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "invariant violation" not in res.stderr
    assert res.stdout == ""


# each ran forever (gap_delta lost) or exited 2 (window lost) before the check; the
# library checks the window against the base radius of the radius band
STEPS_LOST = [
    (["partition", "-", "--ref-radius", "1e20"],
     "gap_delta 2.0 vanishes next to ref_radius 1e+20"),
    (["decompose", "-", "--ref-radius", "1e20"],
     "gap_delta 2.0 vanishes next to ref_radius 1e+20"),
    (["renormalize", "-", "--ref-radius", "1e20"],
     "gap_delta 2.0 vanishes next to ref_radius 1e+20"),
    (["decompose", "-", "--ref-radius", "1e17", "--gap-delta", "1"],
     "gap_delta 1.0 vanishes next to ref_radius 1e+17"),
    (["partition", "-", "--ref-radius", "1e16", "--window", "1"],
     "window 1.0 vanishes next to base_radius 1e+16"),
]


@pytest.mark.parametrize("argv,message", STEPS_LOST, ids=[f"argv{i}" for i in range(5)])
def test_steps_lost_next_to_ref_radius_exit_1(argv, message):
    res = run_process(*argv, stdin=run_cli("fixture", "staircase", "--n", "4").stdout)
    assert res.returncode == 1
    assert res.stderr == f"error: {message}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["verify", "slice-lsc"])
@pytest.mark.parametrize("entries,key", [
    ({"ref_radius": 1e20}, "gap_delta"),
    ({"ref_radius": 1e17, "gap_delta": 1}, "gap_delta"),
    ({"ref_radius": 1e16, "window": 1}, "window"),
], ids=["ref-radius-1e20", "gap-delta-lost", "window-lost"])
def test_manifest_steps_lost_next_to_ref_radius_exit_1(tmp_path: Path, command, entries, key):
    (tmp_path / "u.json").write_text(run_cli("fixture", "staircase", "--n", "4").stdout)
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": ["u.json"], "eps_ladder": [0.1], **entries}))
    res = run_process(command, str(mp))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {key} ")
    assert res.stdout == ""


def test_max_bubbles_zero_is_valid():
    res = run_cli("decompose", "-", "--max-bubbles", "0",
                  stdin=run_cli("fixture", "staircase", "--n", "4").stdout)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["bubbles"] == [] and doc["incomplete"] is True


def test_partition_and_renormalize(tmp_path: Path):
    fx = run_cli("fixture", "runaway", "--n", "50")
    svg_path = tmp_path / "labels.svg"
    pa = run_cli("partition", "-", "--eps", "0.1", "--svg", str(svg_path),
                 stdin=fx.stdout)
    assert pa.returncode == 0
    doc = json.loads(pa.stdout)
    assert doc["volumes"]["main"] == 2.0
    assert doc["volumes"]["vanishing"] == 0.0
    assert svg_path.exists()
    re = run_cli("renormalize", "-", "--eps", "0.1", stdin=fx.stdout)
    assert re.returncode == 0
    w = json.loads(re.stdout)
    assert all(v == 0.0 for v in w["values"])


def test_vanishing_certificate_cli(tmp_path: Path):
    fx = run_cli("fixture", "staircase", "--n", "16")
    doc = json.loads(fx.stdout)
    u_path = tmp_path / "u.json"
    u_path.write_text(fx.stdout)
    mask = [1 if 0.0 < v < 17.0 else 0 for v in doc["values"]]
    region = {k: doc[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    region["mask"] = mask
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(region))
    res = run_cli("vanishing", str(u_path), "--region", str(region_path),
                  "--eps", "1.0")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["certified"]
    assert cert["measured_volume"] == pytest.approx(1 / 16)


def test_vanishing_hypothesis_violation_exits_2(tmp_path: Path):
    fx = run_cli("fixture", "staircase", "--n", "16")
    doc = json.loads(fx.stdout)
    u_path = tmp_path / "u.json"
    u_path.write_text(fx.stdout)
    region = {k: doc[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    region["mask"] = [1] * len(doc["values"])
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(region))
    res = run_cli("vanishing", str(u_path), "--region", str(region_path),
                  "--eps", "0.001")
    assert res.returncode == 2
    assert json.loads(res.stdout)["violations"]


def _staircase_and_region(tmp_path: Path, n: int = 16) -> tuple[Path, dict]:
    """A staircase fixture file and a cell-set document on its grid, all cells in."""
    fx = run_cli("fixture", "staircase", "--n", str(n))
    u_path = tmp_path / "u.json"
    u_path.write_text(fx.stdout)
    doc = json.loads(fx.stdout)
    region = {k: doc[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    region["mask"] = [1] * len(doc["values"])
    return u_path, region


def test_vanishing_on_a_1d_grid_exits_1(tmp_path: Path):
    u_path, region_path = tmp_path / "u.json", tmp_path / "region.json"
    u_path.write_text(json.dumps({**ONE_D, "cracks": []}))
    region = {k: ONE_D[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    region_path.write_text(json.dumps({**region, "mask": [1] * 8}))
    res = run_cli("vanishing", str(u_path), "--region", str(region_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr and "2D" in res.stderr
    assert "Traceback" not in res.stderr


def test_vanishing_region_on_another_grid_exits_1(tmp_path: Path):
    u_path, region = _staircase_and_region(tmp_path)
    region["spacing"] *= 2
    region_path = tmp_path / "region.json"
    region_path.write_text(json.dumps(region))
    res = run_cli("vanishing", str(u_path), "--region", str(region_path), "--eps", "0.001")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr and str(region_path) in res.stderr
    assert "invariant violation" not in res.stderr


def write_manifest(tmp_path: Path, n_values, eps_ladder, limit=None) -> Path:
    paths = []
    for k, n in enumerate(n_values):
        fx = run_cli("fixture", "runaway", "--n", str(n))
        p = tmp_path / f"u{k}.json"
        p.write_text(fx.stdout)
        paths.append(p.name)
    manifest = {
        "functions": paths,
        "p": 2.0,
        "eps_ladder": eps_ladder,
        "window": 1.0,
        "ref_radius": 1.0,
        "gap_delta": 2.0,
    }
    if limit is not None:
        manifest["limit"] = limit
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps(manifest))
    return mp


def test_verify_runaway_manifest(tmp_path: Path):
    mp = write_manifest(tmp_path, [10.0, 100.0, 1000.0], [0.1])
    svg_path = tmp_path / "trends.svg"
    res = run_cli("verify", str(mp), "--svg", str(svg_path))
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    assert rep["ok"]
    block = rep["per_eps"]["0.1"]
    assert block["conclusion5_bubble_tracks"]["separations"]["0-1"] == [10.0, 100.0, 1000.0]
    assert svg_path.read_text().startswith("<svg")
    again = run_cli("verify", str(mp))
    assert again.stdout == res.stdout  # byte-identical report


def test_slice_lsc_manifest(tmp_path: Path):
    mp = write_manifest(tmp_path, [10.0, 100.0], [0.1])
    res = run_cli("slice-lsc", str(mp))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["lsc_holds"]


# every command's parsed namespace with no option given
PARSE_DEFAULTS = {
    "fixture": {"n": 4.0, "cells_per_step": 1, "resolution": 16, "out": None},
    "energy": {"input": "-", "p": 2.0, "out": None},
    "profile": {"input": "-", "domain": None, "format": "json", "window": 1.0, "out": None,
                "svg": None},
    "decompose": {"input": "-", "domain": None, "max_bubbles": 64, "window": 1.0, "eps": 0.1,
                  "ref_radius": 1.0, "gap_delta": 2.0, "out": None},
    "partition": {"input": "-", "omega": None, "format": "json", "window": 1.0, "eps": 0.1,
                  "ref_radius": 1.0, "gap_delta": 2.0, "out": None, "svg": None},
    "renormalize": {"input": "-", "datum": None, "omega": None, "perturb": False, "window": 1.0,
                    "eps": 0.1, "ref_radius": 1.0, "gap_delta": 2.0, "out": None},
    "vanishing": {"input": "-", "radius": 1.0, "eps": 0.1, "window": 1.0, "out": None},
    "slice-lsc": {"out": None},
    "verify": {"format": "json", "out": None, "svg": None},
}


@pytest.mark.parametrize("argv,given", [
    (["fixture", "staircase"], {"name": "staircase"}),
    (["energy"], {}),
    (["profile"], {}),
    (["decompose"], {}),
    (["partition"], {}),
    (["renormalize"], {}),
    (["vanishing", "--region", "r.json"], {"region": "r.json"}),
    (["slice-lsc", "m.json"], {"manifest": "m.json"}),
    (["verify", "m.json"], {"manifest": "m.json"}),
    (["fixture", "runaway", "--n", "3", "--resolution", "8", "--cells-per-step", "2", "--out", "o"],
     {"name": "runaway", "n": 3.0, "resolution": 8, "cells_per_step": 2, "out": "o"}),
    (["energy", "u.json", "--p", "3.5", "--out", "o"], {"input": "u.json", "p": 3.5, "out": "o"}),
    (["profile", "u.json", "--window", "0.5", "--domain", "d.json", "--format", "csv",
      "--svg", "s.svg", "--out", "o"],
     {"input": "u.json", "window": 0.5, "domain": "d.json", "format": "csv", "svg": "s.svg",
      "out": "o"}),
    (["decompose", "u.json", "--eps", "0.3", "--ref-radius", "2", "--gap-delta", "1",
      "--window", "2", "--max-bubbles", "3", "--domain", "d.json"],
     {"input": "u.json", "eps": 0.3, "ref_radius": 2.0, "gap_delta": 1.0, "window": 2.0,
      "max_bubbles": 3, "domain": "d.json"}),
    (["partition", "u.json", "--omega", "w.json", "--format", "csv", "--svg", "s.svg",
      "--eps", "0.25"],
     {"input": "u.json", "omega": "w.json", "format": "csv", "svg": "s.svg", "eps": 0.25}),
    (["renormalize", "u.json", "--datum", "z.json", "--omega", "w.json", "--perturb",
      "--gap-delta", "5"],
     {"input": "u.json", "datum": "z.json", "omega": "w.json", "perturb": True,
      "gap_delta": 5.0}),
    (["vanishing", "u.json", "--region", "r.json", "--eps", "5", "--radius", "2", "--window", "3"],
     {"input": "u.json", "region": "r.json", "eps": 5.0, "radius": 2.0, "window": 3.0}),
    (["slice-lsc", "m.json", "--out", "o"], {"manifest": "m.json", "out": "o"}),
    (["verify", "m.json", "--format", "csv", "--svg", "s.svg", "--out", "o"],
     {"manifest": "m.json", "format": "csv", "svg": "s.svg", "out": "o"}),
])
def test_parsed_namespace_pinned(argv, given):
    from crackgrid.cli import build_parser

    got = vars(build_parser().parse_args(argv))
    want = {"command": argv[0], **PARSE_DEFAULTS[argv[0]], **given}
    # repr tells 4.0 from 4, which == does not
    assert repr(sorted(got.items())) == repr(sorted(want.items()))


def test_help_documents_flags():
    res = run_cli("decompose", "--help")
    assert res.returncode == 0
    for flag in ("--window", "--eps", "--ref-radius", "--gap-delta", "--out"):
        assert flag in res.stdout


def test_partition_csv_raster():
    fx = run_cli("fixture", "runaway", "--n", "9", "--resolution", "8")
    pa = run_cli("partition", "-", "--eps", "0.1", "--format", "csv", stdin=fx.stdout)
    assert pa.returncode == 0
    rows = pa.stdout.strip().splitlines()
    assert len(rows) == 8  # one per column of the 8x4 grid
    cells = rows[0].split(",")
    assert len(cells) == 4
    assert all(c.startswith("main:") for c in cells)


def test_verify_csv_trends(tmp_path: Path):
    mp = write_manifest(tmp_path, [10.0, 100.0], [0.1])
    res = run_cli("verify", str(mp), "--format", "csv")
    assert res.returncode == 0
    header, *rows = res.stdout.strip().splitlines()
    assert header.split(",")[0] == "n_index"
    assert len(rows) == 2


def test_bad_eps_ladder_exits_1(tmp_path: Path):
    mp = write_manifest(tmp_path, [10.0], [0.1, 0.2])
    res = run_cli("verify", str(mp))
    assert res.returncode == 1
    assert "ladder" in res.stderr


def test_lsc_violation_exits_2(tmp_path: Path):
    # sequence of crack-free plates against a jumped limit: LSC fails
    flat = run_cli("fixture", "runaway", "--n", "0")
    jumped = run_cli("fixture", "runaway", "--n", "3")
    for name, payload in (("u0.json", flat.stdout), ("lim.json", jumped.stdout)):
        (tmp_path / name).write_text(payload)
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": ["u0.json"], "limit": "lim.json",
                              "eps_ladder": [0.1]}))
    res = run_cli("slice-lsc", str(mp))
    assert res.returncode == 2
    assert not json.loads(res.stdout)["lsc_holds"]


def _cluster_plate_file(tmp_path: Path, seed: int) -> Path:
    """A 20-cluster plate with values 5 apart.  Extraction at eps 0.05 keeps its
    bubble centers 4 apart, closer than the widened partition bands (up to 6)
    fit, so the partition rejects them: a conclusion that fails on valid input."""
    import numpy as np
    from _fixtures import cluster_plate
    from crackgrid.grid import grid_function_to_dict

    path = tmp_path / f"plate{seed}.json"
    path.write_text(json.dumps(grid_function_to_dict(
        cluster_plate(np.random.default_rng(seed), spacing=5.0))))
    return path


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_overlapping_bands_exit_2(tmp_path: Path, seed):
    res = run_cli("partition", str(_cluster_plate_file(tmp_path, seed)), "--eps", "0.05")
    assert res.returncode == 2
    assert res.stderr.startswith("invariant violation: bubble bands overlap")
    assert res.stdout == ""


def test_verify_with_overlapping_bands_exits_2(tmp_path: Path):
    names = [_cluster_plate_file(tmp_path, seed).name for seed in range(3)]
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": names, "eps_ladder": [0.05]}))
    res = run_cli("verify", str(mp))
    assert res.returncode == 2
    assert res.stderr.startswith("invariant violation: bubble bands overlap")
    assert res.stdout == ""


def test_json_write_read_write_is_byte_stable(tmp_path: Path):
    fx = run_cli("fixture", "staircase", "--n", "4")
    doc = json.loads(fx.stdout)
    from crackgrid.grid import grid_function_from_dict, grid_function_to_dict

    u = grid_function_from_dict(doc)
    again = grid_function_to_dict(u)
    assert json.dumps(again, sort_keys=True) == json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("command", ["verify", "slice-lsc"])
@pytest.mark.parametrize("key,value", [
    ("eps_ladder", [1.5]),
    ("eps_ladder", [0.2, 0.0]),
    ("eps_ladder", 0.2),
    ("eps_ladder", {"0.5": 1}),
    ("p", 0.5),
    ("p", None),
    ("p", "abc"),
    ("window", -1),
    ("window", "abc"),
    ("window", [1.0]),
    ("ref_radius", 0),
    ("gap_delta", float("inf")),
    ("functions", "u0.json"),
    # JSON strings and bools, which float() would read as numbers
    ("window", True),
    ("ref_radius", True),
    ("gap_delta", "2.0"),
    ("p", "3"),
    ("eps_ladder", ["0.2", "0.1"]),
    ("eps_ladder", [0.2, False]),
    ("window", "2"),
], ids=["ladder-range", "ladder-zero", "ladder-scalar", "ladder-object", "p-range", "p-null",
        "p-text", "window-range", "window-text", "window-list", "ref-radius-zero",
        "gap-delta-inf", "functions-string", "window-bool", "ref-radius-bool",
        "gap-delta-string", "p-string", "ladder-strings", "ladder-bool", "window-string"])
def test_bad_manifest_settings_exit_1(tmp_path: Path, command, key, value):
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    for k, n in enumerate((10.0, 100.0)):
        (tmp_path / f"u{k}.json").write_text(json.dumps(grid_function_to_dict(fixture_runaway(n))))
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": ["u0.json", "u1.json"], "eps_ladder": [0.1],
                              key: value}))
    res = run_cli(command, str(mp))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "invariant violation" not in res.stderr
    assert "Traceback" not in res.stderr
    assert key in res.stderr


@pytest.mark.parametrize("what,field,value", [
    ("function", "shape", [8.5, 4]),
    ("function", "origin", [float("nan"), 0.0]),
    ("function", "origin", [0.0, float("inf")]),
    ("cell set", "shape", [8.5, 4]),
    ("cell set", "origin", [float("nan"), 0.0]),
    ("cell set", "mask", 0.7),
    ("cell set", "mask", 1.0),
    ("cell set", "mask", True),
    # numbers written as JSON strings, bools or nulls, from the file's own numbers
    ("function", "spacing", str),
    ("function", "spacing", lambda x: True),
    ("function", "origin", lambda xs: [str(x) for x in xs]),
    ("function", "origin", lambda xs: [False] * len(xs)),
    ("function", "origin", lambda xs: [None] * len(xs)),
    ("function", "values", lambda xs: [str(x) for x in xs]),
    ("function", "values", lambda xs: [x > 0 for x in xs]),
    ("cell set", "spacing", str),
    ("cell set", "origin", lambda xs: [str(x) for x in xs]),
], ids=["function-shape", "function-nan-origin", "function-inf-origin", "set-shape",
        "set-nan-origin", "set-mask-0.7", "set-mask-1.0", "set-mask-true",
        "function-string-spacing", "function-bool-spacing", "function-string-origin",
        "function-bool-origin", "function-null-origin", "function-string-values", "function-bool-values",
        "set-string-spacing", "set-string-origin"])
def test_truncated_header_and_mask_fields_exit_1(tmp_path: Path, what, field, value):
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    doc = grid_function_to_dict(fixture_runaway(3.0, resolution=8))
    domain = {k: doc[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    domain["mask"] = [1] * len(doc["values"])
    target = doc if what == "function" else domain
    if field == "mask":
        target["mask"][5] = value
    elif callable(value):
        target[field] = value(target[field])
    else:
        target[field] = value
    u_path, domain_path = tmp_path / "u.json", tmp_path / "domain.json"
    u_path.write_text(json.dumps(doc))
    domain_path.write_text(json.dumps(domain))
    res = run_cli("profile", str(u_path), "--domain", str(domain_path))
    assert res.returncode == 1
    assert f"error: bad {'grid function' if what == 'function' else what}" in res.stderr
    assert "Traceback" not in res.stderr
    if callable(value):
        assert f"{field} must" in res.stderr


def _on_another_grid(doc: dict) -> dict:
    return {**doc, "spacing": doc["spacing"] * 2}


@pytest.mark.parametrize("command,flag", [
    ("profile", "--domain"),
    ("decompose", "--domain"),
    ("partition", "--omega"),
    ("renormalize", "--datum"),
    ("renormalize", "--omega"),
])
def test_side_file_on_another_grid_exits_1(tmp_path: Path, command, flag):
    u_path, region = _staircase_and_region(tmp_path)
    side = json.loads(u_path.read_text()) if flag == "--datum" else region
    side_path = tmp_path / "side.json"
    side_path.write_text(json.dumps(_on_another_grid(side)))
    res = run_cli(command, str(u_path), flag, str(side_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"error: bad {'grid function' if flag == '--datum' else 'cell set'} {side_path}: " \
           "geometry mismatch" in res.stderr
    assert "invariant violation" not in res.stderr


@pytest.mark.parametrize("command", ["verify", "slice-lsc"])
@pytest.mark.parametrize("key", ["functions", "datum", "omega", "limit"])
def test_manifest_entry_on_another_grid_exits_1(tmp_path: Path, command, key):
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import CellSet, cell_set_to_dict, grid_function_to_dict

    u = fixture_runaway(10.0)
    side = cell_set_to_dict(CellSet(u.geom, [1] * u.geom.num_cells)) if key == "omega" \
        else grid_function_to_dict(u)
    for name, doc in (("u0.json", grid_function_to_dict(u)), ("u1.json", grid_function_to_dict(u)),
                      ("side.json", _on_another_grid(side))):
        (tmp_path / name).write_text(json.dumps(doc))
    manifest = {"functions": ["u0.json", "u1.json"], "eps_ladder": [0.1]}
    if key == "functions":
        manifest["functions"].append("side.json")
    else:
        manifest[key] = "side.json"
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps(manifest))
    res = run_cli(command, str(mp))
    assert res.returncode == 1
    assert res.stdout == ""
    assert f"error: bad {'cell set' if key == 'omega' else 'grid function'} " \
           f"{tmp_path / 'side.json'}: geometry mismatch" in res.stderr


@pytest.mark.parametrize("argv,doc", [
    (["verify"], []),
    (["verify"], {"functions": [3]}),
    (["verify"], {"functions": ["u.json"], "datum": 3}),
    (["energy"], []),
    (["energy"], "x"),
    (["profile", "u.json", "--domain"], []),
], ids=["verify-list", "verify-function-int", "verify-datum-int", "energy-list",
        "energy-string", "profile-domain-list"])
def test_document_that_is_not_an_object_exits_1(tmp_path: Path, argv, doc):
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    (tmp_path / "u.json").write_text(json.dumps(grid_function_to_dict(fixture_runaway(10.0))))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run_cli(*[str(tmp_path / a) if a == "u.json" else a for a in argv], str(bad))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("entries,code", [
    ({"datum": None, "omega": None, "limit": None}, 0),
    ({"datum": ""}, 1), ({"omega": False}, 1), ({"limit": 0}, 1),
    ({"datum": []}, 1), ({"omega": 0}, 1), ({"limit": False}, 1),
], ids=["all-null", "datum-empty-string", "omega-false", "limit-zero", "datum-empty-list",
        "omega-zero", "limit-false"])
def test_manifest_side_entry_is_absent_only_when_null(tmp_path: Path, entries, code):
    # a falsy datum, omega or limit other than null is not a path, and not absent either
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    (tmp_path / "u.json").write_text(json.dumps(grid_function_to_dict(fixture_runaway(10.0))))
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": ["u.json"], "eps_ladder": [0.1], **entries}))
    res = run_cli("verify", str(mp))
    assert res.returncode == code
    if code:
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


def test_manifest_defaults_are_the_reports(tmp_path: Path):
    # the CLI and compactness_report each write the settings defaults; they must agree
    from crackgrid.analysis import compactness_report
    from crackgrid.cli import _load_manifest
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    (tmp_path / "u.json").write_text(json.dumps(grid_function_to_dict(fixture_runaway(10.0))))
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps({"functions": ["u.json"]}))
    *_, settings = _load_manifest(str(mp))
    params = inspect.signature(compactness_report).parameters
    defaults = {key: params[key].default for key in settings}
    defaults["eps_ladder"] = list(defaults["eps_ladder"])
    assert settings == defaults


_HUGE_VALUES ={"version": 1, "dim": 1, "origin": [0.0], "spacing": 1.0, "shape": [3],
                "values": [0.0, 1e308, -1e308], "cracks": []}
_HUGE_SPACING = {"version": 1, "dim": 2, "origin": [0.0, 0.0], "spacing": 1e300,
                 "shape": [2, 2], "values": [0.0, 1.0, 2.0, 3.0], "cracks": []}


# before, the first two printed an inf as the non-JSON token Infinity and
# exited 0, the next two exited 2 as invariant violations, and the last ended
# in a traceback
@pytest.mark.parametrize("argv,doc", [
    (["profile", "-", "--window", "1e308"], None),
    (["energy", "-"], _HUGE_VALUES),
    (["decompose", "-"], _HUGE_VALUES),
    (["decompose", "-", "--ref-radius", "1e308", "--gap-delta", "1e308"], None),
    (["energy", "-"], _HUGE_SPACING),
], ids=["profile-window", "energy-values", "decompose-values", "decompose-radius",
        "energy-spacing"])
def test_float_overflow_exits_1(argv, doc):
    stdin = run_cli("fixture", "staircase", "--n", "4").stdout if doc is None else json.dumps(doc)
    res = run_cli(*argv, stdin=stdin)
    assert res.returncode == 1
    assert res.stderr.startswith("error: input out of floating-point range")
    assert res.stdout == ""


@pytest.mark.parametrize("argv", [
    ["profile", "{u}", "--out", "{tmp}/missing/u.json"],
    ["profile", "{u}", "--out", "{tmp}"],
    ["profile", "{u}", "--svg", "{tmp}/missing/p.svg"],
    ["partition", "{u}", "--svg", "{tmp}/missing/p.svg"],
    ["verify", "{manifest}", "--svg", "{tmp}/missing/t.svg"],
    ["energy", "{u}", "--out", "{tmp}/missing/e.json"],
    ["profile", "{u}", "--svg", "{tmp}/same", "--out", "{tmp}/same"],
    ["partition", "{u}", "--svg", "{tmp}/same", "--out", "{tmp}/./same"],
    ["verify", "{manifest}", "--svg", "{tmp}/same", "--out", "{tmp}/same"],
], ids=["out-missing-dir", "out-is-a-directory", "profile-svg", "partition-svg", "verify-svg",
        "energy-out", "profile-svg-is-out", "partition-svg-is-out", "verify-svg-is-out"])
def test_unwritable_output_exits_1(tmp_path: Path, argv):
    golden = Path(__file__).resolve().parent / "golden" / "stairs"
    names = {"u": golden / "u4.json", "manifest": golden / "manifest.json", "tmp": tmp_path}
    res = run_cli(*[a.format(**names) for a in argv])
    assert res.returncode == 1
    assert res.stderr.startswith("error: cannot write ")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
    assert not (tmp_path / "same").exists()


@pytest.mark.parametrize("argv", [
    ["profile", "{u}"],
    ["partition", "{u}"],
    ["verify", "{manifest}"],
], ids=["profile", "partition", "verify"])
def test_no_output_written_when_another_cannot_be(tmp_path: Path, argv):
    golden = Path(__file__).resolve().parent / "golden" / "stairs"
    names = {"u": golden / "u4.json", "manifest": golden / "manifest.json"}
    argv = [a.format(**names) for a in argv]
    svg, report, missing = tmp_path / "ok.svg", tmp_path / "r.json", tmp_path / "missing"
    # an unwritable report: no SVG is made, and one already there keeps its bytes
    for before in (None, "old"):
        if before is not None:
            svg.write_text(before)
        res = run_cli(*argv, "--svg", str(svg), "--out", str(missing / "r.json"))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith(f"error: cannot write {missing / 'r.json'}")
        assert (svg.read_text() if svg.exists() else None) == before
    # an unwritable SVG: no report file, and nothing on stdout
    for out in (["--out", str(report)], []):
        res = run_cli(*argv, "--svg", str(missing / "p.svg"), *out)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith(f"error: cannot write {missing / 'p.svg'}")
        assert not report.exists()
    # --svg and --out naming one file, also through a symlink: nothing written
    report.write_text("old")
    (tmp_path / "link").symlink_to(report)
    for same in (report, tmp_path / "link"):
        res = run_cli(*argv, "--svg", str(same), "--out", str(report))
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == f"error: cannot write {same}: --out names the same file\n"
        assert report.read_text() == "old"
    report.unlink()
    # both writable: both written, the report in full
    res = run_cli(*argv, "--svg", str(svg), "--out", str(report))
    assert res.returncode == 0 and res.stdout == ""
    assert svg.read_text().startswith("<svg") and report.read_text() == run_cli(*argv).stdout


@pytest.mark.parametrize("argv", [
    ["profile", "{u}"],
    ["partition", "{u}"],
    ["verify", "{manifest}"],
], ids=["profile", "partition", "verify"])
def test_outputs_to_devices_and_pipes(tmp_path: Path, argv):
    """Outputs that are not regular files, which cannot be truncated, are
    written as they are: /dev/null, /dev/stdout on a pipe, a FIFO."""
    golden = Path(__file__).resolve().parent / "golden" / "stairs"
    names = {"u": golden / "u4.json", "manifest": golden / "manifest.json"}
    argv = [a.format(**names) for a in argv]
    report = run_cli(*argv).stdout
    res = run_process(*argv, "--svg", os.devnull, "--out", os.devnull)
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    res = run_process(*argv, "--svg", os.devnull, "--out", "/dev/stdout")
    assert (res.returncode, res.stdout) == (0, report)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    res = run_process(*argv, "--svg", str(fifo))
    reader.join(60)
    assert (res.returncode, res.stdout) == (0, report)
    assert got and got[0].startswith("<svg")


def test_svg_dash_is_a_file_named_dash(tmp_path: Path, monkeypatch, capsys):
    from crackgrid.cli import main

    u = Path(__file__).resolve().parent / "golden" / "stairs" / "u4.json"
    monkeypatch.chdir(tmp_path)
    assert main(["profile", str(u), "--svg", "-"]) == 0
    assert (tmp_path / "-").read_text().startswith("<svg")
    assert json.loads(capsys.readouterr().out)["window"] == 1.0


def test_labels_svg_matches_the_per_cell_loop():
    """The label SVG, whose fills are one lookup over the whole raster, against
    the per-cell palette loop it replaced, on partitions drawn for this test:
    1D and 2D, 0 to 7 pieces, so the four main fills wrap."""
    rng = np.random.default_rng(426)
    seen = dict.fromkeys(("1D", "2D", "no piece", "main fills wrap", "all four kinds"), 0)
    for k in range(60):
        u = random_fixture(rng, dim=1 + k % 2, max_1d=120, max_2d=16)
        n, lo = int(rng.integers(0, 8)), float(u.values.min())
        step = max(float(u.values.max()) - lo, 1.0) / max(n, 1)
        # one value slot per piece: a main band step / 2 wide, gaps step / 8, vanishing between
        pieces = [RadiusChoice(lo + (j + 0.5) * step, step / 4, step / 4, 0.0, 0.0)
                  for j in range(n)]
        part = DomainPartition(u, pieces, window=step / 8)
        assert _labels_svg(part) == labels_svg(part)
        seen["1D" if u.geom.dim == 1 else "2D"] += 1
        seen["no piece"] += not n
        seen["main fills wrap"] += bool(np.any((part.label_kind == KIND_MAIN)
                                               & (part.label_index >= 4)))
        seen["all four kinds"] += len(np.unique(part.label_kind)) == 4
    assert all(seen.values()), seen


@pytest.mark.parametrize("argv", [
    ["verify", "stairs/manifest.json"],
    ["vanishing", "staircase16/fixture.json", "--region", "staircase16/region.json",
     "--eps", "0.5"],
])
def test_verify_and_vanishing_leave_numpy_ma_unloaded(argv):
    # numpy 2's np.unique without return_counts imports numpy.ma, which every
    # fresh process would pay for; the certificate dedupes its sorted values itself
    golden = Path(__file__).resolve().parent / "golden"
    argv = [str(golden / a) if a.endswith(".json") else a for a in argv]
    code = ("import contextlib, io, sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from crackgrid.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    with_numpy, after = res.stdout.splitlines()
    if with_numpy == "True":
        pytest.skip("import numpy loads numpy.ma here")
    assert after == "0 False"
