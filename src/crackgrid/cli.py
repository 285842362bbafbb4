"""Command-line surface: fixtures, pipelines, reports, plots.

Exit codes: 0 on success with all asserted invariants passing; 2 on an
invariant violation, an ``InvariantError`` from the package or a report whose
checks fail (that report is still emitted); 1 on every other ``ValueError``,
an unmet precondition such as a bad file, a bad parameter or an unwritable
output, and on numbers out of the float range.  JSON output uses sorted keys
and Python's shortest round-trip float formatting, so identical inputs and
flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    bubble_partition,
    check_report_settings,
    compactness_report,
    lsc_report,
    vanishing_certificate,
)
from .bubbles import extract_bubbles
from .fixtures import fixture_runaway, fixture_staircase
from .grid import (
    InvariantError,
    cell_set_from_dict,
    energy,
    grid_function_from_dict,
    grid_function_to_dict,
    json_numbers,
    require_same_geometry,
)
from .partition import (
    KIND_MAIN,
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, as every other unmet
    precondition does; exit code 2 is left to invariant violations."""

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


# each flag's range, the library's own: out of it is a usage error, before any input is read
_POSITIVE, _EPS, _P = _real_in(0), _real_in(0, 1), _real_in(1)


def _load_doc(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"bad document {path}: not a JSON object")
    return doc


def _load(path: str, what: str = "grid function", geom=None):
    """The grid function, or with ``what="cell set"`` the cell set, in a JSON
    file; with ``geom``, a side file that must lie on the main input's grid."""
    read = cell_set_from_dict if what == "cell set" else grid_function_from_dict
    doc = _load_doc(path)
    try:
        obj = read(doc)
        if geom is not None:
            require_same_geometry(geom, obj.geom)
        return obj
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad {what} {path}: {exc}") from exc


def _emit(text: str, out: str | None, svg: tuple[str, str] | None = None) -> None:
    """Write ``text`` to ``out`` (stdout for None or "-") and the ``(path, text)`` pair
    ``svg`` if given, whose path must not be ``out``'s file unless that is a device or pipe.
    Every file opens before any is written, and stdout comes last, so a command with an
    output that cannot be opened writes none; only regular files are truncated."""
    same = svg and out not in (None, "-") and os.path.realpath(svg[0]) == os.path.realpath(out)
    if same and (os.path.isfile(out) or not os.path.exists(out)):  # a device or pipe takes both
        raise ValueError(f"cannot write {svg[0]}: --out names the same file")
    jobs = ([svg] if svg else []) + ([(out, text)] if out not in (None, "-") else [])
    files, made = [], []
    try:
        for path, _ in jobs:
            made += [path] * (not os.path.lexists(path))
            files.append(open(path, "a", encoding="utf-8"))
        for f, (path, body) in zip(files, jobs):
            with f:
                if os.path.isfile(path):
                    f.truncate(0)
                f.write(body)
    except OSError as exc:
        for f in files:
            f.close()
        for p in made:
            Path(p).unlink(missing_ok=True)
        raise ValueError(f"cannot write {path}: {exc}") from exc
    if out in (None, "-"):
        sys.stdout.write(text)


def _emit_json(obj, out: str | None, svg: tuple[str, str] | None = None) -> None:
    _emit(json.dumps(obj, sort_keys=True) + "\n", out, svg)


def _trend_svg(series_map: dict[str, list[float]]) -> str:
    all_vals = [v for s in series_map.values() for v in s]
    top = max(max(all_vals), 1e-30) * 1.1
    length = max(len(s) for s in series_map.values())
    colors = ["black", "crimson", "steelblue", "seagreen", "darkorange"]
    lines = [(list(enumerate(series)), colors[k % len(colors)], name)
             for k, (name, series) in enumerate(sorted(series_map.items()))]
    return polyline_svg(lines, (0, max(1, length - 1), top), pad=34)


# main labels cycle through fills 0-3 by index; gap+, gap- and vanishing (kinds 1-3) take 3 + kind
_LABEL_FILLS = np.array(["#4477aa", "#66ccee", "#228833", "#ccbb44",
                         "#ee6677", "#aa3377", "#dddddd"])


def _labels_svg(part) -> str:
    cell = 8  # pixels per grid cell; a 1D grid is one row of cells
    kind, index = (a.reshape(len(a), -1) for a in (part.label_kind, part.label_index))
    fill = _LABEL_FILLS[np.where(kind == KIND_MAIN, index % 4, 3 + kind)].tolist()
    nx, ny = kind.shape
    rects = [f'<rect x="{ix * cell}" y="{(ny - 1 - iy) * cell}" width="{cell}" height="{cell}" '
             f'fill="{c}"/>' for ix, row in enumerate(fill) for iy, c in enumerate(row)]
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{nx * cell}" height="{ny * cell}">'
            + "".join(rects) + "</svg>\n")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="crackgrid",
        description="Crack-aware grid functions: energies, concentration "
                    "profiles, bubble decompositions, partitions and "
                    "compactness reports.")
    sub = ap.add_subparsers(dest="command", required=True)
    # the shared arguments, each declared once on a parent parser
    inp, out, svg, window, search = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    inp.add_argument("input", nargs="?", default="-", help="input file (default stdin)")
    out.add_argument("--out", default=None, help="output path (default stdout)")
    svg.add_argument("--svg", default=None, help="also write an SVG view here")
    window.add_argument("--window", type=_POSITIVE, default=1.0,
                        help="trace window half-width (default 1.0)")
    search.add_argument("--eps", type=_EPS, default=0.1,
                        help="relative concentration tolerance in (0,1) (default 0.1)")
    search.add_argument("--ref-radius", type=_POSITIVE, default=1.0,
                        help="window radius for concentration search (default 1.0)")
    search.add_argument("--gap-delta", type=_POSITIVE, default=2.0,
                        help="annulus growth step (default 2.0)")

    fx = sub.add_parser("fixture", help="generate a built-in fixture", parents=[out])
    fx.add_argument("name", choices=["staircase", "runaway"])
    fx.add_argument("--n", type=float, default=4.0,
                    help="stair count / runaway height (default 4)")
    fx.add_argument("--cells-per-step", type=int, default=1,
                    help="staircase grid refinement (default 1)")
    fx.add_argument("--resolution", type=int, default=16,
                    help="runaway cells along the long axis (default 16)")

    en = sub.add_parser("energy", help="bulk and jump energy of a function", parents=[inp, out])
    en.add_argument("--p", type=_P, default=2.0,
                    help="bulk integrability exponent, > 1 (default 2.0)")

    pr = sub.add_parser("profile", help="range concentration profile",
                        parents=[inp, window, out, svg])
    pr.add_argument("--domain", default=None, help="cell-set mask file")
    pr.add_argument("--format", choices=["json", "csv"], default="json")

    de = sub.add_parser("decompose", help="bubble decomposition of the profile",
                        parents=[inp, window, search, out])
    de.add_argument("--domain", default=None, help="cell-set mask file")
    de.add_argument("--max-bubbles", type=int, default=64)

    pa = sub.add_parser("partition", help="main/gap/vanishing domain partition",
                        parents=[inp, window, search, out, svg])
    pa.add_argument("--omega", default=None, help="working-domain mask file")
    pa.add_argument("--format", choices=["json", "csv"], default="json",
                    help="csv emits the label raster")

    re = sub.add_parser("renormalize", help="piecewise-constant renormalization",
                        parents=[inp, window, search, out])
    re.add_argument("--datum", default=None, help="datum function file")
    re.add_argument("--omega", default=None, help="working-domain mask file")
    re.add_argument("--perturb", action="store_true",
                    help="offset pieces so every partition boundary jumps")

    va = sub.add_parser("vanishing", help="volume certificate for a weakly "
                                          "vanishing region", parents=[inp, window, out])
    va.add_argument("--region", required=True, help="cell-set mask file")
    va.add_argument("--radius", type=_POSITIVE, default=1.0,
                    help="window radius in the hypothesis (default 1.0)")
    va.add_argument("--eps", type=_POSITIVE, default=0.1,
                    help="largest window mass of the hypothesis, > 0 (default 0.1)")

    sl = sub.add_parser("slice-lsc", help="directional jump LSC report for a "
                                          "manifest of functions", parents=[out])
    sl.add_argument("manifest")

    ve = sub.add_parser("verify", help="full compactness report for a manifest",
                        parents=[out, svg])
    ve.add_argument("manifest")
    ve.add_argument("--format", choices=["json", "csv"], default="json",
                    help="csv emits the per-n trend series")
    return ap


def _load_manifest(path: str):
    doc = _load_doc(path)
    base = Path(path).parent if path != "-" else Path(".")

    def resolve(p):
        if not isinstance(p, str):
            raise ValueError(f"manifest path {p!r} is not a string")
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    def setting(key, value):  # the library checks its range
        if not json_numbers((value,)):
            raise ValueError(f"manifest {key} must be a JSON number, got {value!r}")
        return float(value)

    def side(key, what="grid function"):
        # null is absent, as in the README's example; anything else must be a path
        return None if doc.get(key) is None else _load(resolve(doc[key]), what, geom)

    names, ladder = doc.get("functions"), doc.get("eps_ladder", [0.2, 0.1])
    if not (isinstance(names, list) and isinstance(ladder, list)):
        raise ValueError("manifest functions and eps_ladder must be lists")
    if not names:
        raise ValueError("manifest lists no functions")
    functions = [_load(resolve(names[0]))]
    geom = functions[0].geom
    functions += [_load(resolve(p), geom=geom) for p in names[1:]]
    datum, omega, limit = side("datum"), side("omega", "cell set"), side("limit")
    settings = {key: setting(key, doc.get(key, default)) for key, default in (
        ("p", 2.0), ("window", 1.0), ("ref_radius", 1.0), ("gap_delta", 2.0))}
    settings["eps_ladder"] = [setting("eps_ladder", e) for e in ladder]
    check_report_settings(**settings)
    return functions, datum, omega, limit, settings


def _cmd_fixture(args) -> int:
    if args.name == "staircase":
        if not args.n.is_integer():  # a stair count, not truncated
            raise ValueError(f"stair count must be an integer, got {args.n}")
        u = fixture_staircase(int(args.n), cells_per_step=args.cells_per_step)
    else:
        u = fixture_runaway(args.n, resolution=args.resolution)
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
    svg = (args.svg, profile_to_svg(f)) if args.svg else None
    if args.format == "csv":
        _emit(profile_to_csv(f), args.out, svg)
    else:
        _emit_json({
            "breakpoints": f.breakpoints.tolist(),
            "plateau_values": f.plateau_values.tolist(),
            "window": f.window,
            "total_mass": f.total_mass(),
        }, args.out, svg)
    return EXIT_OK


def _cmd_decompose(args) -> int:
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
    u = _load(args.input)
    omega = _load(args.omega, "cell set", u.geom) if args.omega else None
    dec, radii, part = bubble_partition(u, args.eps, args.ref_radius, args.gap_delta,
                                        args.window, omega)
    svg = (args.svg, _labels_svg(part)) if args.svg else None
    if args.format == "csv":
        _emit(part.to_csv(), args.out, svg)
        return EXIT_OK
    doc = part.as_dict()
    doc["radii"] = [c.as_dict() for c in radii]
    doc["bubbles"] = [b.as_dict() for b in dec.bubbles]
    _emit_json(doc, args.out, svg)
    return EXIT_OK


def _cmd_renormalize(args) -> int:
    u = _load(args.input)
    datum = _load(args.datum, geom=u.geom) if args.datum else None
    omega = _load(args.omega, "cell set", u.geom) if args.omega else None
    v = u.subtract(datum) if datum is not None else u
    _, _, part = bubble_partition(v, args.eps, args.ref_radius, args.gap_delta, args.window,
                                  omega)
    w = perturbed_translation(part) if args.perturb else renormalize(part)
    _emit_json(grid_function_to_dict(w), args.out)
    return EXIT_OK


def _cmd_vanishing(args) -> int:
    u = _load(args.input)
    region = _load(args.region, "cell set", u.geom)
    try:
        cert = vanishing_certificate(u, region, eps=args.eps, radius=args.radius,
                                     window=args.window)
    except InvariantError as exc:  # the hypothesis fails
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
    table = {name: trends[f"{name}_series"]
             for name in ("outside_jump", "vanishing_volume", "rest_volume")}
    svg = (args.svg, _trend_svg(table)) if args.svg else None
    if args.format == "csv":
        table["kyfan_to_limit"] = first["conclusion1_measure_convergence"]["kyfan_to_limit"]
        lines = [",".join(["n_index", *table])]
        lines += [",".join(map(repr, (i, *row))) for i, row in enumerate(zip(*table.values()))]
        _emit("\n".join(lines) + "\n", args.out, svg)
    else:
        _emit_json(rep.as_dict(), args.out, svg)
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
        # an inf or nan made from the input must not reach a report
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: input out of floating-point range: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # an unmet precondition
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
