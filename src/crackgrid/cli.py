"""Command-line surface: fixtures, pipelines, reports, plots.

Exit codes: 0 on success with all asserted invariants passing, 1 on I/O or
parse errors (bad files and bad command-line parameters alike), 2 on
invariant violations (a machine-readable violation report is still
emitted).  JSON output uses sorted keys and Python's shortest round-trip
float formatting, so identical inputs and flags produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import bubble_partition, compactness_report, lsc_report, vanishing_certificate
from .bubbles import extract_bubbles
from .fixtures import fixture_runaway, fixture_staircase
from .grid import (
    cell_set_from_dict,
    energy,
    grid_function_from_dict,
    grid_function_to_dict,
    require_same_geometry,
)
from .partition import (
    KIND_GAP_MINUS,
    KIND_GAP_PLUS,
    KIND_MAIN,
    KIND_VANISHING,
    build_partition,  # not called here: perfbench/spans.py rebinds the name in this module
    perturbed_translation,
    renormalize,
    select_radii,  # likewise
)
from .profile import (
    concentration_profile,
    polyline_svg,
    profile_to_csv,
    profile_to_svg,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VIOLATION = 2


class InputError(Exception):
    """I/O or parse failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as parse errors, keeping
    exit code 2 for invariant violations."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def _real_in(low: float, high: float = math.inf):
    """Float argument type accepting only the open interval (low, high)."""
    def parse(text: str) -> float:
        x = float(text)
        if not low < x < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low}, {high}), got {text}")
        return x
    parse.__name__ = "float"  # argparse names the type in "invalid float value"
    return parse


# the one range of each setting, for its command-line flag and its manifest key
_POSITIVE, _EPS, _P = _real_in(0), _real_in(0, 1), _real_in(1)


def _check_steps(ref_radius: float, **steps: float) -> None:
    """The check, for flags and manifest keys alike, that each step added to
    ``ref_radius`` moves it: the window grows by ``gap_delta`` and the radius
    band is ``window`` wide."""
    for name, step in steps.items():
        if not ref_radius + step > ref_radius:
            raise InputError(f"{name} {step!r} vanishes next to ref_radius {ref_radius!r}")


def _load_doc(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"bad document {path}: not a JSON object")
    return doc


def _load(path: str, what: str = "grid function", geom=None):
    """The grid function, or with ``what="cell set"`` the cell set, in a JSON
    file; with ``geom``, a side file that must lie on the main input's grid."""
    read = cell_set_from_dict if what == "cell set" else grid_function_from_dict
    try:
        obj = read(_load_doc(path))
        if geom is not None:
            require_same_geometry(geom, obj.geom)
        return obj
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True) + "\n", out)


def _trend_svg(series_map: dict[str, list[float]], width=640, height=240) -> str:
    pad = 34
    all_vals = [v for s in series_map.values() for v in s] or [0.0]
    top = max(max(all_vals), 1e-30) * 1.1
    length = max(len(s) for s in series_map.values())
    colors = ["black", "crimson", "steelblue", "seagreen", "darkorange"]
    lines = []
    for k, (name, series) in enumerate(sorted(series_map.items())):
        pts = [(pad + (i / max(1, length - 1)) * (width - 2 * pad),
                height - pad - (v / top) * (height - 2 * pad)) for i, v in enumerate(series)]
        lines.append((pts, colors[k % len(colors)], name))
    return polyline_svg(lines, width, height, pad)


def _labels_svg(part, cell: int = 8) -> str:
    shape = part.label_kind.shape
    if len(shape) == 1:
        shape = (shape[0], 1)
    palette = {KIND_MAIN: ["#4477aa", "#66ccee", "#228833", "#ccbb44"],
               KIND_GAP_PLUS: ["#ee6677"], KIND_GAP_MINUS: ["#aa3377"],
               KIND_VANISHING: ["#dddddd"]}
    w, h = shape[0] * cell, shape[1] * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    kinds = np.atleast_2d(part.label_kind.reshape(shape))
    indices = np.atleast_2d(part.label_index.reshape(shape))
    for ix in range(shape[0]):
        for iy in range(shape[1]):
            kind, idx = int(kinds[ix, iy]), int(indices[ix, iy])
            color = palette[kind][idx % len(palette[kind])]
            y = (shape[1] - 1 - iy) * cell
            parts.append(f'<rect x="{ix * cell}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{color}"/>')
    parts.append("</svg>\n")
    return "".join(parts)


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "window" in names:
        p.add_argument("--window", type=_POSITIVE, default=1.0,
                       help="trace window half-width (default 1.0)")
    if "eps" in names:
        p.add_argument("--eps", type=_EPS, default=0.1,
                       help="relative concentration tolerance in (0,1) (default 0.1)")
    if "p" in names:
        p.add_argument("--p", type=_P, default=2.0,
                       help="bulk integrability exponent, > 1 (default 2.0)")
    if "ref" in names:
        p.add_argument("--ref-radius", type=_POSITIVE, default=1.0,
                       help="window radius for concentration search (default 1.0)")
    if "gap" in names:
        p.add_argument("--gap-delta", type=_POSITIVE, default=2.0,
                       help="annulus growth step (default 2.0)")
    if "out" in names:
        p.add_argument("--out", default=None, help="output path (default stdout)")
    if "svg" in names:
        p.add_argument("--svg", default=None, help="also write an SVG view here")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="crackgrid",
        description="Crack-aware grid functions: energies, concentration "
                    "profiles, bubble decompositions, partitions and "
                    "compactness reports.")
    sub = ap.add_subparsers(dest="command", required=True)

    fx = sub.add_parser("fixture", help="generate a built-in fixture")
    fx.add_argument("name", choices=["staircase", "runaway"])
    fx.add_argument("--n", type=float, default=4.0,
                    help="stair count / runaway height (default 4)")
    fx.add_argument("--cells-per-step", type=int, default=1,
                    help="staircase grid refinement (default 1)")
    fx.add_argument("--resolution", type=int, default=16,
                    help="runaway cells along the long axis (default 16)")
    _add_common(fx, "out")

    en = sub.add_parser("energy", help="bulk and jump energy of a function")
    en.add_argument("input", nargs="?", default="-")
    _add_common(en, "p", "out")

    pr = sub.add_parser("profile", help="range concentration profile")
    pr.add_argument("input", nargs="?", default="-")
    pr.add_argument("--domain", default=None, help="cell-set mask file")
    pr.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(pr, "window", "out", "svg")

    de = sub.add_parser("decompose", help="bubble decomposition of the profile")
    de.add_argument("input", nargs="?", default="-")
    de.add_argument("--domain", default=None, help="cell-set mask file")
    de.add_argument("--max-bubbles", type=int, default=64)
    _add_common(de, "window", "eps", "ref", "gap", "out")

    pa = sub.add_parser("partition", help="main/gap/vanishing domain partition")
    pa.add_argument("input", nargs="?", default="-")
    pa.add_argument("--omega", default=None, help="working-domain mask file")
    pa.add_argument("--format", choices=["json", "csv"], default="json",
                    help="csv emits the label raster")
    _add_common(pa, "window", "eps", "ref", "gap", "out", "svg")

    re = sub.add_parser("renormalize", help="piecewise-constant renormalization")
    re.add_argument("input", nargs="?", default="-")
    re.add_argument("--datum", default=None, help="datum function file")
    re.add_argument("--omega", default=None, help="working-domain mask file")
    re.add_argument("--perturb", action="store_true",
                    help="offset pieces so every partition boundary jumps")
    _add_common(re, "window", "eps", "ref", "gap", "out")

    va = sub.add_parser("vanishing", help="volume certificate for a weakly "
                                          "vanishing region")
    va.add_argument("input", nargs="?", default="-")
    va.add_argument("--region", required=True, help="cell-set mask file")
    va.add_argument("--radius", type=_POSITIVE, default=1.0,
                    help="window radius in the hypothesis (default 1.0)")
    va.add_argument("--eps", type=_POSITIVE, default=0.1,
                    help="largest window mass of the hypothesis, > 0 (default 0.1)")
    _add_common(va, "window", "out")

    sl = sub.add_parser("slice-lsc", help="directional jump LSC report for a "
                                          "manifest of functions")
    sl.add_argument("manifest")
    _add_common(sl, "out")

    ve = sub.add_parser("verify", help="full compactness report for a manifest")
    ve.add_argument("manifest")
    ve.add_argument("--format", choices=["json", "csv"], default="json",
                    help="csv emits the per-n trend series")
    _add_common(ve, "out", "svg")
    return ap


def _load_manifest(path: str):
    doc = _load_doc(path)
    base = Path(path).parent if path != "-" else Path(".")

    def resolve(p):
        if not isinstance(p, str):
            raise InputError(f"manifest path {p!r} is not a string")
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    def setting(key, value, parse):
        try:
            return parse(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise InputError(f"manifest {key}: {exc}") from exc

    def side(key, what="grid function"):
        # null is absent, as in the README's example; anything else must be a path
        return None if doc.get(key) is None else _load(resolve(doc[key]), what, geom)

    names, ladder = doc.get("functions"), doc.get("eps_ladder", [0.2, 0.1])
    if not (isinstance(names, list) and isinstance(ladder, list)):
        raise InputError("manifest functions and eps_ladder must be lists")
    if not names:
        raise InputError("manifest lists no functions")
    functions = [_load(resolve(names[0]))]
    geom = functions[0].geom
    functions += [_load(resolve(p), geom=geom) for p in names[1:]]
    datum, omega, limit = side("datum"), side("omega", "cell set"), side("limit")
    settings = {key: setting(key, doc.get(key, default), parse) for key, default, parse in (
        ("p", 2.0, _P), ("window", 1.0, _POSITIVE), ("ref_radius", 1.0, _POSITIVE),
        ("gap_delta", 2.0, _POSITIVE))}
    _check_steps(settings["ref_radius"], gap_delta=settings["gap_delta"],
                 window=settings["window"])
    ladder = settings["eps_ladder"] = [setting("eps_ladder", e, _EPS) for e in ladder]
    if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"eps ladder must be strictly decreasing, got {ladder}")
    return functions, datum, omega, limit, settings


def _cmd_fixture(args) -> int:
    try:
        if args.name == "staircase":
            if not args.n.is_integer():  # a stair count, not truncated
                raise ValueError(f"stair count must be an integer, got {args.n}")
            u = fixture_staircase(int(args.n), cells_per_step=args.cells_per_step)
        else:
            u = fixture_runaway(args.n, resolution=args.resolution)
    except ValueError as exc:  # the fixtures reject only out-of-range parameters
        raise InputError(f"bad fixture parameters: {exc}") from exc
    _emit_json(grid_function_to_dict(u), args.out)
    return EXIT_OK


def _cmd_energy(args) -> int:
    rep = energy(_load(args.input), p=args.p)
    _emit_json(rep.as_dict(), args.out)
    return EXIT_OK


def _cmd_profile(args) -> int:
    u = _load(args.input)
    domain = _load(args.domain, "cell set", u.geom) if args.domain else None
    f = concentration_profile(u, domain=domain, window=args.window)
    if args.svg:
        Path(args.svg).write_text(profile_to_svg(f), encoding="utf-8")
    if args.format == "csv":
        _emit(profile_to_csv(f), args.out)
    else:
        _emit_json({
            "breakpoints": f.breakpoints.tolist(),
            "plateau_values": f.plateau_values.tolist(),
            "window": f.window,
            "total_mass": f.total_mass(),
        }, args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.max_bubbles < 0:
        raise InputError(f"--max-bubbles must be at least 0, got {args.max_bubbles}")
    _check_steps(args.ref_radius, gap_delta=args.gap_delta)
    u = _load(args.input)
    domain = _load(args.domain, "cell set", u.geom) if args.domain else None
    f = concentration_profile(u, domain=domain, window=args.window)
    dec = extract_bubbles(f, eps=args.eps, gap_delta=args.gap_delta,
                          ref_radius=args.ref_radius, max_bubbles=args.max_bubbles)
    doc = dec.as_dict()
    violations = dec.validate()
    doc["violations"] = violations
    _emit_json(doc, args.out)
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_partition(args) -> int:
    _check_steps(args.ref_radius, gap_delta=args.gap_delta, window=args.window)
    u = _load(args.input)
    omega = _load(args.omega, "cell set", u.geom) if args.omega else None
    f = concentration_profile(u, domain=omega, window=args.window)
    dec, radii, part = bubble_partition(u, f, args.eps, args.ref_radius, args.gap_delta, omega)
    if args.svg:
        Path(args.svg).write_text(_labels_svg(part), encoding="utf-8")
    if args.format == "csv":
        _emit(part.to_csv(), args.out)
        return EXIT_OK
    doc = part.as_dict()
    doc["radii"] = [c.as_dict() for c in radii]
    doc["bubbles"] = [b.as_dict() for b in dec.bubbles]
    _emit_json(doc, args.out)
    return EXIT_OK


def _cmd_renormalize(args) -> int:
    _check_steps(args.ref_radius, gap_delta=args.gap_delta, window=args.window)
    u = _load(args.input)
    datum = _load(args.datum, geom=u.geom) if args.datum else None
    omega = _load(args.omega, "cell set", u.geom) if args.omega else None
    v = u.subtract(datum) if datum is not None else u
    f = concentration_profile(v, domain=omega, window=args.window)
    _, _, part = bubble_partition(v, f, args.eps, args.ref_radius, args.gap_delta, omega)
    w = perturbed_translation(v, part) if args.perturb else renormalize(v, part)
    _emit_json(grid_function_to_dict(w), args.out)
    return EXIT_OK


def _cmd_vanishing(args) -> int:
    u = _load(args.input)
    region = _load(args.region, "cell set", u.geom)
    if u.geom.dim != 2:  # a precondition, not the hypothesis
        raise InputError(f"vanishing needs a 2D grid, {args.input} is {u.geom.dim}D")
    try:
        cert = vanishing_certificate(u, region, eps=args.eps, radius=args.radius,
                                     window=args.window)
    except ValueError as exc:
        _emit_json({"violations": [str(exc)]}, args.out)
        return EXIT_VIOLATION
    doc = cert.as_dict()
    doc["violations"] = [] if cert.certified else ["measured volume exceeds bound"]
    _emit_json(doc, args.out)
    return EXIT_OK if cert.certified else EXIT_VIOLATION


def _cmd_slice_lsc(args) -> int:
    functions, datum, _, limit, settings = _load_manifest(args.manifest)
    reduced = [f.subtract(datum) if datum else f for f in functions]
    lim = limit if limit is not None else reduced[-1]
    rep = lsc_report(reduced, lim)
    _emit_json(rep.as_dict(), args.out)
    return EXIT_OK if rep.lsc_holds else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    functions, datum, omega, limit, settings = _load_manifest(args.manifest)
    rep = compactness_report(functions, datum=datum, omega=omega, limit=limit,
                             **settings)
    first = rep.per_eps[repr(settings["eps_ladder"][0])]
    trends = first["conclusion4_partition_trends"]
    if args.svg:
        Path(args.svg).write_text(_trend_svg({
            "outside_jump": trends["outside_jump_series"],
            "vanishing_volume": trends["vanishing_volume_series"],
            "rest_volume": trends["rest_volume_series"],
        }), encoding="utf-8")
    if args.format == "csv":
        lines = ["n_index,outside_jump,vanishing_volume,rest_volume,kyfan_to_limit"]
        kyfan = first["conclusion1_measure_convergence"]["kyfan_to_limit"]
        for i in range(len(kyfan)):
            lines.append(",".join(repr(x) for x in (
                i, trends["outside_jump_series"][i],
                trends["vanishing_volume_series"][i],
                trends["rest_volume_series"][i], kyfan[i])))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit_json(rep.as_dict(), args.out)
    return EXIT_OK if rep.ok else EXIT_VIOLATION


_COMMANDS = {
    "fixture": _cmd_fixture,
    "energy": _cmd_energy,
    "profile": _cmd_profile,
    "decompose": _cmd_decompose,
    "partition": _cmd_partition,
    "renormalize": _cmd_renormalize,
    "vanishing": _cmd_vanishing,
    "slice-lsc": _cmd_slice_lsc,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
