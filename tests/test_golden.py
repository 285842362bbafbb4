"""Golden CLI reports: every command's output is pinned byte for byte.

The files under ``tests/golden/`` were written by this module's
``regenerate`` and are only read by the tests.  Rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` only when a report is meant
to change, and say so in the change log.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from _fixtures import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# argv placeholder for a side output path: the golden is the file written there
SIDE = "SIDE"

FIXTURES = {
    "staircase16": ["fixture", "staircase", "--n", "16"],
    "runaway1000": ["fixture", "runaway", "--n", "1000"],
    # spacing 1/6, and a runaway height of 0.1: profiles and masses whose last
    # bits are rounded, where every dyadic input above is exact
    "staircase3": ["fixture", "staircase", "--n", "3", "--cells-per-step", "2"],
    "runaway_tenth": ["fixture", "runaway", "--n", "0.1", "--resolution", "12"],
}
PER_FUNCTION = {
    "energy.json": ["energy"],
    "profile.json": ["profile"],
    "profile.csv": ["profile", "--format", "csv"],
    "decompose.json": ["decompose"],
    "partition.json": ["partition"],
    "partition.csv": ["partition", "--format", "csv"],
    "renormalize.json": ["renormalize"],
    "renormalize_perturb.json": ["renormalize", "--perturb"],
    "profile.svg": ["profile", "--svg", SIDE],
    "partition.svg": ["partition", "--svg", SIDE],
}
# (flags, exit code) of the certified and the violating vanishing report per
# fixture with a committed region.json, all on that region; staircase16 at
# window 0.25 certifies with six slabs, where the other certificates have one or two
VANISHING = {
    "staircase16": {"vanishing.json": (["--eps", "0.5"], 0),
                    "vanishing_violation.json": (["--eps", "0.1"], 2),
                    "vanishing_slabs.json": (["--eps", "0.125", "--window", "0.25"], 0)},
    "runaway1000": {"vanishing.json": (["--eps", "5"], 0),
                    "vanishing_violation.json": (["--eps", "0.1"], 2)},
}
MANIFESTS = ("stairs", "datum_omega", "stairs12", "datum_piece")
PER_MANIFEST = {
    "verify.json": ["verify"],
    "verify.csv": ["verify", "--format", "csv"],
    "slice_lsc.json": ["slice-lsc"],
    "verify.svg": ["verify", "--svg", SIDE],
}
# renormalize one displaced plate against the manifest's datum and omega
DATUM_OMEGA_RENORMALIZE = {
    "renormalize.json": [],
    "renormalize_perturb.json": ["--perturb"],
}


def _cases() -> list[tuple[str, list[str], int]]:
    """(golden path relative to GOLDEN, CLI argv, exit code) for every pinned
    output.  The golden is the command's stdout, or the file it writes at the
    path ``SIDE`` when argv names one."""
    cases = []
    for name, argv in FIXTURES.items():
        fixture = str(GOLDEN / name / "fixture.json")
        cases.append((f"{name}/fixture.json", argv, 0))
        for out, cmd in PER_FUNCTION.items():
            cases.append((f"{name}/{out}", [cmd[0], fixture, *cmd[1:]], 0))
        region = str(GOLDEN / name / "region.json")
        for out, (flags, code) in VANISHING.get(name, {}).items():
            cases.append((f"{name}/{out}",
                          ["vanishing", fixture, "--region", region, *flags], code))
    for name in MANIFESTS:
        manifest = str(GOLDEN / name / "manifest.json")
        for out, cmd in PER_MANIFEST.items():
            cases.append((f"{name}/{out}", [cmd[0], manifest, *cmd[1:]], 0))
    shifted = GOLDEN / "datum_omega"
    for out, flags in DATUM_OMEGA_RENORMALIZE.items():
        cases.append((f"datum_omega/{out}",
                      ["renormalize", str(shifted / "u400.json"),
                       "--datum", str(shifted / "datum.json"),
                       "--omega", str(shifted / "omega.json"), *flags], 0))
    return cases


def _run(argv: list[str], side: Path) -> tuple[int, bytes]:
    """Exit code and output bytes: the file written at ``side`` when argv
    names ``SIDE``, else stdout."""
    res = run_cli(*(str(side) if a == SIDE else a for a in argv))
    return res.returncode, side.read_bytes() if SIDE in argv else res.stdout.encode("utf-8")


@pytest.mark.parametrize("rel,argv,expected_code", _cases(),
                         ids=[rel for rel, _, _ in _cases()])
def test_report_matches_golden(rel, argv, expected_code, tmp_path):
    code, out = _run(argv, tmp_path / Path(rel).name)
    assert code == expected_code
    assert out == (GOLDEN / rel).read_bytes()


def write_json(obj: dict, path: Path) -> None:
    """Write an input file with the CLI's own JSON writer."""
    from crackgrid.cli import _emit_json

    _emit_json(obj, str(path))


def _write_manifest_inputs() -> None:
    from crackgrid.fixtures import fixture_runaway, fixture_staircase
    from crackgrid.grid import (
        CellSet,
        GridFunction,
        GridGeometry,
        cell_set_to_dict,
        crack_masks_from_rows,
        grid_function_to_dict,
    )

    # staircases sharing the grid of the first; stairs12's spacing, 1/12, is not dyadic
    for name, ns in (("stairs", (16, 8, 4)), ("stairs12", (12, 6))):
        stairs = GOLDEN / name
        stairs.mkdir(parents=True, exist_ok=True)
        names = []
        for n in ns:
            names.append(f"u{n}.json")
            write_json(grid_function_to_dict(fixture_staircase(n, cells_per_step=ns[0] // n)),
                       stairs / names[-1])
        write_json({"functions": names, "eps_ladder": [0.2, 0.1]}, stairs / "manifest.json")

    # displaced plates over a nonzero datum, working region without the
    # leftmost quarter of the plate
    shifted = GOLDEN / "datum_omega"
    shifted.mkdir(parents=True, exist_ok=True)
    names = []
    for n in (40.0, 400.0):
        u = fixture_runaway(n)
        names.append(f"u{int(n)}.json")
        write_json(grid_function_to_dict(u.with_values(u.values + 5.0)), shifted / names[-1])
    geom = u.geom
    write_json(grid_function_to_dict(GridFunction(geom, np.full(geom.shape, 5.0))),
               shifted / "datum.json")
    omega = np.ones(geom.shape, dtype=bool)
    omega[: geom.shape[0] // 4, :] = False
    write_json(cell_set_to_dict(CellSet(geom, omega)), shifted / "omega.json")
    write_json({"functions": names, "datum": "datum.json", "omega": "omega.json",
                "eps_ladder": [0.1]}, shifted / "manifest.json")

    # a 4 x 4 function whose one bubble band holds 0.0 with two corner cells outside
    # omega: that datum piece keeps the constant 0, so its renormalized values reach
    # 3.5, beyond the largest radius; its own limit
    piece = GOLDEN / "datum_piece"
    piece.mkdir(parents=True, exist_ok=True)
    geom = GridGeometry((0.0, 0.0), 1.0, (4, 4))
    values = [0.25, 1.75, 1.75, 0.25, -1.25, 1.75, 0.25, 1.75,
              1.75, -1.25, 0.25, 3.5, -1.25, 1.75, 1.75, -1.25]
    cracks = [[0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 1, 1], [0, 1, 3], [0, 2, 0], [0, 2, 1],
              [1, 2, 0]]
    u = GridFunction(geom, np.reshape(values, geom.shape), crack_masks_from_rows(geom, cracks))
    write_json(grid_function_to_dict(u), piece / "u.json")
    omega = np.reshape([0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], geom.shape)
    write_json(cell_set_to_dict(CellSet(geom, omega == 1)), piece / "omega.json")
    write_json({"functions": ["u.json"], "limit": "u.json", "omega": "omega.json",
                "eps_ladder": [0.2]}, piece / "manifest.json")


def _write_region_masks() -> None:
    """Vanishing-certificate regions: every other stair cell of the staircase
    (thin in the range), a block across the runaway crack (two heavy values)."""
    from crackgrid.fixtures import fixture_runaway, fixture_staircase
    from crackgrid.grid import CellSet, cell_set_to_dict

    for name, u in (("staircase16", fixture_staircase(16)), ("runaway1000", fixture_runaway(1000))):
        nx, ny = u.geom.shape
        mask = np.zeros(u.geom.shape, dtype=bool)
        if name == "staircase16":
            mask[nx // 2, 3:14:2] = True
        else:
            mask[nx // 2 - 2:nx // 2 + 2, :ny // 2] = True
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        write_json(cell_set_to_dict(CellSet(u.geom, mask)), GOLDEN / name / "region.json")


def test_regenerated_inputs_match_and_nothing_else_is_committed(tmp_path, monkeypatch):
    """The regenerator's input files are byte-identical to the committed ones,
    and ``tests/golden/`` holds exactly those inputs and the ``_cases()`` outputs."""
    committed = GOLDEN
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    _write_manifest_inputs()
    _write_region_masks()
    inputs = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
              for p in tmp_path.rglob("*") if p.is_file()}
    assert len(inputs) == 17
    for rel, data in inputs.items():
        assert (committed / rel).read_bytes() == data, rel
    files = {p.relative_to(committed).as_posix() for p in committed.rglob("*") if p.is_file()}
    outputs = {rel for rel, _, _ in _cases()}
    assert len(outputs) == 67 and not outputs & inputs.keys()
    assert files == outputs | inputs.keys()


def regenerate() -> None:
    _write_manifest_inputs()
    _write_region_masks()
    for rel, argv, expected_code in _cases():
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        code, out = _run(argv, path)
        if code != expected_code:
            raise SystemExit(f"{rel}: exit code {code}, expected {expected_code}")
        path.write_bytes(out)


if __name__ == "__main__":
    regenerate()
