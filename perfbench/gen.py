"""Seeded input generators for the crackgrid benchmark.

Each generator takes the workload seed and writes grid-function JSON files
(and a manifest for `verify`) in the documented file format.  It uses only
numpy and json, never crackgrid itself, so a change to the program cannot
change its own benchmark inputs.  The returned plan lists the CLI commands
of one pass of the workload and what the correctness gate checks on each.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Sizes per workload.  "full" is what the benchmark measures; "smoke" runs
# the same code paths on tiny inputs in a few seconds.
SIZES = {
    "staircase_verify": {
        "full": {"stairs": [8, 16, 32, 64, 128], "cells_per_unit": 128},
        "smoke": {"stairs": [4, 8], "cells_per_unit": 16},
    },
    "cracked_plate_verify": {
        "full": {"side": 40, "plates": 3},
        "smoke": {"side": 12, "plates": 3},
    },
    "multi_bubble_cli": {
        "full": {"side": 80, "block": 10, "clusters": 20},
        "smoke": {"side": 32, "block": 8, "clusters": 6},
    },
}


def _function_doc(values: np.ndarray, cracks: list[list[int]], spacing: float,
                  origin: tuple[float, float]) -> dict:
    return {
        "version": 1,
        "dim": 2,
        "origin": [float(x) for x in origin],
        "spacing": float(spacing),
        "shape": [int(n) for n in values.shape],
        "values": [float(x) for x in values.ravel()],
        "cracks": cracks,
    }


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _verify_op(out: Path, files: list[str], cells: int, jump_measures) -> dict:
    """Write a manifest over ``files`` and describe the `verify` command on it."""
    manifest = out / "manifest.json"
    _write(manifest, {"functions": files, "datum": None, "omega": None, "limit": None,
                      "p": 2.0, "eps_ladder": [0.2, 0.1], "window": 1.0,
                      "ref_radius": 1.0, "gap_delta": 2.0})
    report = out / "report.json"
    return {"name": "verify", "argv": ["verify", str(manifest), "--out", str(report)],
            "out": str(report), "inputs": [str(manifest)] + [str(out / f) for f in files],
            "cells": cells, "check": {"kind": "verify", "jump_measures": jump_measures}}


def _label_change_cracks(labels: np.ndarray) -> list[list[int]]:
    """Every interior face whose two cells carry different labels."""
    cracks = []
    for axis in (0, 1):
        n = labels.shape[axis]
        lo = labels.take(range(0, n - 1), axis=axis)
        hi = labels.take(range(1, n), axis=axis)
        for i, j in np.argwhere(lo != hi):
            cracks.append([axis, int(i), int(j)])
    return cracks


def _staircase(n: int, cells_per_unit: int, offset: int) -> tuple[np.ndarray, list]:
    """Staircase strip with n stairs on (-1,1)x(0,1), shifted by ``offset``.

    Value offset left of x=0, offset+i on stair i of (0,1/n), offset+n+1
    right of x=1/n, cracks on every inter-region face; its jump measure is
    exactly 3 - 1/n whatever the offset.
    """
    m = cells_per_unit
    c = m // n
    nx, ny = 2 * m, m
    values = np.full((nx, ny), float(offset))
    for iy in range(ny):
        values[m:m + c, iy] = float(offset + iy // c + 1)
    values[m + c:, :] = float(offset + n + 1)
    cracks = [[0, m - 1, iy] for iy in range(ny)]
    cracks += [[0, m + c - 1, iy] for iy in range(ny)]
    cracks += [[1, ix, k * c - 1] for k in range(1, n) for ix in range(m, m + c)]
    return values, sorted(cracks)


def _gen_staircase(rng: np.random.Generator, size: dict, out: Path) -> dict:
    m = size["cells_per_unit"]
    offset = int(rng.integers(-64, 65))
    files, cracks_total = [], 0
    for n in size["stairs"]:
        values, cracks = _staircase(n, m, offset)
        name = f"stairs_{n}.json"
        _write(out / name, _function_doc(values, cracks, 1.0 / m, (-1.0, 0.0)))
        files.append(name)
        cracks_total += len(cracks)
    return {
        "ops": [_verify_op(out, files, 2 * m * m * len(files),
                           [3.0 - 1.0 / n for n in size["stairs"]])],
        "properties": {"grid": [2 * m, m], "functions": len(files),
                       "cracks": cracks_total, "value_offset": offset},
    }


def _gen_cracked_plate(rng: np.random.Generator, size: dict, out: Path) -> dict:
    side = size["side"]
    labels = rng.integers(0, 4, size=(side, side))
    cracks = _label_change_cracks(labels)
    x = (np.arange(side) + 0.5) / side
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    smooth = np.sin(2 * np.pi * x[:, None] + phase[0]) * np.cos(2 * np.pi * x[None, :] + phase[1])
    files = []
    for k in range(size["plates"]):
        # the perturbation halves along the sequence, so traces keep differing
        # on every crack and the jump measure stays put (LSC holds)
        values = 6.0 * labels + 0.5 ** (k + 1) * smooth
        name = f"plate_{k}.json"
        _write(out / name, _function_doc(values, cracks, 1.0 / side, (0.0, 0.0)))
        files.append(name)
    return {
        "ops": [_verify_op(out, files, side * side * len(files), None)],
        "properties": {"grid": [side, side], "functions": len(files),
                       "cracks": len(cracks)},
    }


def _gen_multi_bubble(rng: np.random.Generator, size: dict, out: Path) -> dict:
    side, block, clusters = size["side"], size["block"], size["clusters"]
    nb = side // block
    # the clusters own equally many blocks, give or take one, so the bubble
    # count does not depend on the seed
    block_cluster = rng.permutation(np.arange(nb * nb) % clusters).reshape(nb, nb)
    labels = np.kron(block_cluster, np.ones((block, block), dtype=int))
    values = 8.0 * labels + rng.normal(0.0, 0.05, size=(side, side))
    block_id = np.kron(np.arange(nb * nb).reshape(nb, nb), np.ones((block, block), dtype=int))
    cracks = _label_change_cracks(block_id)
    src = out / "plate.json"
    _write(src, _function_doc(values, cracks, 1.0 / side, (0.0, 0.0)))
    common = ["--eps", "0.02"]
    ops = []
    for name, argv, kind in [
        ("decompose", ["decompose", str(src)] + common, "decompose"),
        ("partition", ["partition", str(src), "--format", "csv"] + common, "raster"),
        ("renormalize", ["renormalize", str(src)] + common, "function"),
        ("renormalize_perturb", ["renormalize", str(src), "--perturb"] + common, "function"),
    ]:
        dst = out / f"{name}.out"
        ops.append({"name": name, "argv": argv + ["--out", str(dst)], "out": str(dst),
                    "inputs": [str(src)], "cells": side * side,
                    "check": {"kind": kind, "shape": [side, side]}})
    return {"ops": ops,
            "properties": {"grid": [side, side], "functions": 1, "cracks": len(cracks),
                           "clusters": clusters}}


GENERATORS = {
    "staircase_verify": _gen_staircase,
    "cracked_plate_verify": _gen_cracked_plate,
    "multi_bubble_cli": _gen_multi_bubble,
}


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    """Write the inputs of one workload into ``out`` and return its plan."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])  # one stream each
    plan = GENERATORS[workload](rng, SIZES[workload][size], out)
    plan.update(workload=workload, seed=seed, size=size)
    return plan
