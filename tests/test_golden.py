"""Golden CLI reports: every command's output is pinned byte for byte.

The files under ``tests/golden/`` were written by this module's
``regenerate`` and are only read by the tests.  Rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` only when a report is meant
to change, and say so in the change log.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURES = {
    "staircase16": ["fixture", "staircase", "--n", "16"],
    "runaway1000": ["fixture", "runaway", "--n", "1000"],
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
}
# (eps, exit code) of the certified and the violating vanishing report per
# fixture, both on the fixture's committed region.json
VANISHING = {
    "staircase16": {"vanishing.json": ("0.5", 0), "vanishing_violation.json": ("0.1", 2)},
    "runaway1000": {"vanishing.json": ("5", 0), "vanishing_violation.json": ("0.1", 2)},
}
MANIFESTS = ("stairs", "datum_omega")
PER_MANIFEST = {
    "verify.json": ["verify"],
    "verify.csv": ["verify", "--format", "csv"],
    "slice_lsc.json": ["slice-lsc"],
}
# renormalize one displaced plate against the manifest's datum and omega
DATUM_OMEGA_RENORMALIZE = {
    "renormalize.json": [],
    "renormalize_perturb.json": ["--perturb"],
}


def _cases() -> list[tuple[str, list[str], int]]:
    """(golden path relative to GOLDEN, CLI argv, exit code) for every pinned report."""
    cases = []
    for name, argv in FIXTURES.items():
        fixture = str(GOLDEN / name / "fixture.json")
        cases.append((f"{name}/fixture.json", argv, 0))
        for out, cmd in PER_FUNCTION.items():
            cases.append((f"{name}/{out}", [cmd[0], fixture, *cmd[1:]], 0))
        region = str(GOLDEN / name / "region.json")
        for out, (eps, code) in VANISHING[name].items():
            cases.append((f"{name}/{out}",
                          ["vanishing", fixture, "--region", region, "--eps", eps], code))
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


def _run(argv: list[str]) -> tuple[int, str]:
    from crackgrid.cli import main

    saved, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout = saved


@pytest.mark.parametrize("rel,argv,expected_code", _cases(),
                         ids=[rel for rel, _, _ in _cases()])
def test_report_matches_golden(rel, argv, expected_code):
    code, text = _run(argv)
    assert code == expected_code
    assert text.encode("utf-8") == (GOLDEN / rel).read_bytes()


def _write_manifest_inputs() -> None:
    from crackgrid.fixtures import fixture_runaway, fixture_staircase
    from crackgrid.grid import (
        CellSet,
        GridFunction,
        cell_set_to_dict,
        grid_function_to_dict,
        write_json,
    )

    stairs = GOLDEN / "stairs"
    stairs.mkdir(parents=True, exist_ok=True)
    names = []
    for n in (16, 8, 4):
        names.append(f"u{n}.json")
        write_json(grid_function_to_dict(fixture_staircase(n, cells_per_step=16 // n)),
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


def _write_region_masks() -> None:
    """Vanishing-certificate regions: every other stair cell of the staircase
    (thin in the range), a block across the runaway crack (two heavy values)."""
    from crackgrid.fixtures import fixture_runaway, fixture_staircase
    from crackgrid.grid import CellSet, cell_set_to_dict, write_json

    for name, u in (("staircase16", fixture_staircase(16)), ("runaway1000", fixture_runaway(1000))):
        nx, ny = u.geom.shape
        mask = np.zeros(u.geom.shape, dtype=bool)
        if name == "staircase16":
            mask[nx // 2, 3:14:2] = True
        else:
            mask[nx // 2 - 2:nx // 2 + 2, :ny // 2] = True
        write_json(cell_set_to_dict(CellSet(u.geom, mask)), GOLDEN / name / "region.json")


def regenerate() -> None:
    _write_manifest_inputs()
    _write_region_masks()
    for rel, argv, expected_code in _cases():
        path = GOLDEN / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        code, text = _run(argv)
        if code != expected_code:
            raise SystemExit(f"{rel}: exit code {code}, expected {expected_code}")
        path.write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    regenerate()
