from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv: str, stdin: str | None = None, timeout: float | None = None):
    """The CLI in a child process; past ``timeout`` seconds the child is
    killed and ``subprocess.TimeoutExpired`` fails the test."""
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
], ids=["negative", "short", "1d-rechunk", "axis", "int64", "float", "box-face", "duplicate",
        "oversized-shape"])
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
    assert "error: bad grid function" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ["decompose", "-", "--eps", "1.5"],
    ["energy", "-", "--p", "0.5"],
    ["partition", "-", "--window", "-1"],
    ["fixture", "staircase", "--n", "1"],
    ["vanishing", "-", "--region", "r.json", "--eps", "0"],
    ["fixture", "staircase", "--n", "4.7"],  # not truncated to 4
    ["decompose", "-", "--max-bubbles", "-3"],
])
def test_parameter_errors_exit_1(argv):
    # a valid input on stdin, so that only the parameter can be at fault
    res = run_cli(*argv, stdin=run_cli("fixture", "staircase", "--n", "4").stdout)
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "invariant violation" not in res.stderr
    assert res.stdout == ""


# each ran forever (gap_delta lost) or exited 2 (window lost) before the check
@pytest.mark.parametrize("argv", [
    ["partition", "-", "--ref-radius", "1e20"],
    ["decompose", "-", "--ref-radius", "1e20"],
    ["renormalize", "-", "--ref-radius", "1e20"],
    ["decompose", "-", "--ref-radius", "1e17", "--gap-delta", "1"],
    ["partition", "-", "--ref-radius", "1e16", "--window", "1"],
])
def test_steps_lost_next_to_ref_radius_exit_1(argv):
    res = run_cli(*argv, stdin=run_cli("fixture", "staircase", "--n", "4").stdout, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "vanishes next to ref_radius" in res.stderr
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
    res = run_cli(command, str(mp), timeout=60)
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
], ids=["ladder-range", "ladder-zero", "ladder-scalar", "ladder-object", "p-range", "p-null",
        "p-text", "window-range", "window-text", "window-list", "ref-radius-zero",
        "gap-delta-inf", "functions-string"])
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
], ids=["function-shape", "function-nan-origin", "function-inf-origin", "set-shape",
        "set-nan-origin", "set-mask-0.7", "set-mask-1.0", "set-mask-true"])
def test_truncated_header_and_mask_fields_exit_1(tmp_path: Path, what, field, value):
    from crackgrid.fixtures import fixture_runaway
    from crackgrid.grid import grid_function_to_dict

    doc = grid_function_to_dict(fixture_runaway(3.0, resolution=8))
    domain = {k: doc[k] for k in ("version", "dim", "origin", "spacing", "shape")}
    domain["mask"] = [1] * len(doc["values"])
    target = doc if what == "function" else domain
    if field == "mask":
        target["mask"][5] = value
    else:
        target[field] = value
    u_path, domain_path = tmp_path / "u.json", tmp_path / "domain.json"
    u_path.write_text(json.dumps(doc))
    domain_path.write_text(json.dumps(domain))
    res = run_cli("profile", str(u_path), "--domain", str(domain_path))
    assert res.returncode == 1
    assert f"error: bad {'grid function' if what == 'function' else what}" in res.stderr
    assert "Traceback" not in res.stderr


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
