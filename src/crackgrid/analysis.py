"""Sequence-level verification: vanishing certificates, slicing, LSC, reports.

The vanishing certificate quantifies "thin in the range implies small in the
domain": if every window of the region-restricted profile carries at most
eps mass, subdividing the range into quantile slabs and chaining the grid
isoperimetric inequality through the slab boundaries bounds the region
volume by an explicit expression in measured quantities.  The certificate
stores every measured ingredient so the final comparison is reproducible.

Slicing reduces directional jump counting to one-dimensional sections; on a
grid the direction optimization is exact because every face normal is a
coordinate vector, so the total jump measure splits into per-axis counts
and each axis resums exactly over its 1D slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bubbles import _extract_ladder, extract_bubbles, track_sequence
from .grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    InvariantError,
    Record,
    check_real,
    check_step,
    energy,
    face_count,
    face_pairs,
    kyfan_distance,
    require_same_geometry,
)
from .partition import build_partition, renormalize, select_radii, vanishing_region
# levy_concentration is not called here: perfbench's stage tracer rebinds it by this name
from .profile import ConcentrationProfile, _LevyScan, concentration_profile, levy_concentration


# -- grid isoperimetric constant ---------------------------------------------


def grid_iso_constant() -> float:
    """Largest volume/perimeter^2 of a 2D cell set (h = 1): 1/16.

    A set of n cells has at least 4 sqrt(n) faces and the full square
    attains this; the value is scale-free, and the bound is superadditive
    over components, so volume <= perimeter^2 / 16 for every cell set.
    """
    return 1 / 16


# -- vanishing certificate ----------------------------------------------------


@dataclass(frozen=True)
class VanishingCertificate(Record):
    """Measured volume bound for a weakly vanishing region (2D only)."""

    alpha: int
    cut_points: tuple[float, ...]
    slab_volumes: tuple[float, ...]  # volumes of the inbetween sets
    gap_volumes: tuple[float, ...]
    gap_perimeters: tuple[float, ...]
    measured_volume: float
    bound: float
    eps: float
    radius: float
    boundary_measure: float  # jump set united with the region boundary
    region_perimeter: float
    iso_constant: float
    slab_correction: float
    chain_lhs: float  # boundary measure, left side of the halving inequality
    chain_rhs: float  # half the summed slab boundaries outside the gaps
    trivial: bool
    certified: bool  # measured_volume <= bound, decided on whole cell and face counts
    chain_ok: bool  # chain_lhs >= chain_rhs, decided on whole face counts


def vanishing_certificate(u: GridFunction, region: CellSet, eps: float | None,
                          radius: float = 1.0, window: float = 1.0) -> VanishingCertificate:
    """Certify that a weakly vanishing region has small volume (2D).

    Requires the region-restricted profile to satisfy the weak vanishing
    hypothesis (no window of the given radius holds more than eps mass): a
    largest window mass of its Lévy scan above eps by more than the scan's
    rounding bound ``slack``, 4 (2n + 10) eps_mach T for n breakpoints and
    total mass T, raises ``InvariantError`` with the offending window center.
    ``eps=None`` certifies at that largest mass, the region's own Lévy score
    (a region with no cells reports 1e-12).  The range is cut at alpha =
    ceil(1/eps) whole-cell quantiles (capped at the number of distinct values,
    all of alpha at eps 0.0; left-continuous), gap bands of half-width `radius`
    shield the cuts, and the volume bound chains the grid isoperimetric
    inequality through the inbetween slabs:

        volume <= 4 c (D + G)^2 / alpha + alpha * slab_correction

    with D the measured jump-plus-boundary measure, G the summed gap-set
    perimeters and c the measured grid isoperimetric constant.
    """
    require_same_geometry(u.geom, region.geom)
    if u.geom.dim != 2:
        raise ValueError("vanishing certificates need a 2D grid (the volume "
                         "exponent degenerates in 1D)")
    if eps is not None:
        check_real("eps", eps)
    check_real("window", window)
    check_real("radius", radius)
    m = region.volume()
    if not region.mask.any():  # the region's profile is empty, with score 0.0: nothing to build
        return VanishingCertificate(
            alpha=1, cut_points=(), slab_volumes=(0.0,), gap_volumes=(),
            gap_perimeters=(), measured_volume=0.0, bound=0.0, eps=1e-12 if eps is None else eps,
            radius=radius, boundary_measure=0.0, region_perimeter=0.0,
            iso_constant=grid_iso_constant(), slab_correction=0.0,
            chain_lhs=0.0, chain_rhs=0.0, trivial=True, certified=True, chain_ok=True)
    scan = _LevyScan(concentration_profile(u, domain=region, window=window), radius)
    score, center = scan.best()
    if eps is None:
        eps = score
    if score > eps + scan.slack:
        raise InvariantError(
            f"region profile is not weakly vanishing at eps={eps}: the window "
            f"of radius {radius} centered at {center} holds mass {score}")

    order = np.sort(u.values[region.mask])
    distinct = 1 + int(np.count_nonzero(order[1:] != order[:-1]))
    # a score of 0.0 (every window narrower than the values' ulps) leaves only the cap
    alpha = math.ceil(min(1.0 / float(eps), distinct)) if eps else distinct
    # per target k * n / alpha cells, the first index with at least that many at or below it
    q = (np.arange(1, alpha) * order.size - 1) // alpha
    above = order.searchsorted(order[q], side="right")
    # ascending, as q is; equal cuts merge into the first of them
    cuts = list(dict.fromkeys(order[np.minimum(above, order.size - 1)].tolist()))
    alpha = len(cuts) + 1  # the slabs the distinct cuts make

    def inner(mask):  # per axis, the interior faces between the mask and its complement
        return [np.not_equal(*face_pairs(mask, k)) for k in range(2)]

    def count(faces, mask):  # a boundary's interior faces, then the mask's cells on the box
        return face_count(faces) + face_count(mask.take([0, -1], axis=k) for k in range(2))

    # one slab at a time, upward, with the gap at its upper cut; the gap below it left its
    # faces in `below`.  chain: per slab, its boundary's face count outside both gaps, as
    # slabs and gaps are disjoint and no box face of a slab lies on a gap
    slab_cells, gap_cells, gap_counts, chain = [], [], [], []
    below = no_gap = [np.False_] * 2
    edges = [-math.inf] + cuts + [math.inf]
    for lo, hi in zip(edges, edges[1:]):
        S = region.mask & (u.values >= lo + radius) & (u.values < hi - radius)
        slab_cells.append(int(np.count_nonzero(S)))
        above = no_gap
        if hi < math.inf:
            G = region.mask & (u.values > hi - radius) & (u.values < hi + radius)
            above = inner(G)
            gap_cells.append(int(np.count_nonzero(G)))
            gap_counts.append(count(above, G))
        chain.append(count([f & ~(b | a) for f, b, a in zip(inner(S), below, above)], S))
        below = above

    area, cell_vol = u.geom.face_area, u.geom.cell_volume
    slab_vols = tuple(s * cell_vol for s in slab_cells)
    gap_vols = tuple(g * cell_vol for g in gap_cells)
    gap_perims = tuple(g * area for g in gap_counts)
    gamma = chain_rhs = 0.0
    for perim in gap_perims:  # left to right: builtin sum() compensates from Python 3.12 on
        gamma += perim
    for c in chain:
        chain_rhs += 0.5 * c * area

    region_faces = inner(region.mask)
    d = count([u.jump_mask(k) | f for k, f in enumerate(region_faces)], region.mask)
    region_perim = count(region_faces, region.mask) * area
    D, c_iso = d * area, grid_iso_constant()
    slab_correction = max(0.0, max(m / alpha - v for v in slab_vols))
    bound = 4.0 * c_iso * (D + gamma) ** 2 / alpha + alpha * slab_correction
    # volume <= bound, over h^2 and times alpha * den, decided in integers on the counts
    num, den = c_iso.as_integer_ratio()
    certified = (den * alpha * min(order.size, alpha * min(slab_cells))
                 <= 4 * num * (d + sum(gap_counts)) ** 2)
    return VanishingCertificate(
        alpha=alpha, cut_points=tuple(cuts), slab_volumes=slab_vols,
        gap_volumes=gap_vols, gap_perimeters=gap_perims, measured_volume=m,
        bound=bound, eps=eps, radius=radius, boundary_measure=D,
        region_perimeter=region_perim, iso_constant=c_iso,
        slab_correction=slab_correction, chain_lhs=D, chain_rhs=chain_rhs, trivial=False,
        certified=certified, chain_ok=2 * d >= sum(chain))


# -- slicing ------------------------------------------------------------------


def slice_line(u: GridFunction, axis: int, index: int) -> GridFunction:
    """One-dimensional section of a 2D function along ``axis`` at the given
    transverse row; its cracks are the axis-normal crack faces met on the line."""
    if u.geom.dim != 2:
        raise ValueError("slicing applies to 2D functions")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    other = 1 - axis
    if not (0 <= index < u.geom.shape[other]):
        raise ValueError(f"slice index {index} out of range")
    geom = GridGeometry((u.geom.origin[axis],), u.geom.spacing, (u.geom.shape[axis],))
    return GridFunction(geom, u.values.take(index, axis=other),
                        [u.crack_mask(axis).take(index, axis=other)])


@dataclass(frozen=True)
class SliceLscReport(Record):
    """Directional jump comparison between a sequence and its limit."""

    axes: tuple[int, ...]
    limit_directional: tuple[float, ...]
    seq_directional: tuple[tuple[float, ...], ...]  # [axis][n]
    margins: tuple[float, ...]  # min_n seq - limit, per axis
    total_margin: float
    limit_slice_counts: tuple[tuple[int, ...], ...]  # [axis][row]
    seq_slice_counts: tuple[tuple[tuple[int, ...], ...], ...]  # [axis][n][row]
    eta: tuple[float | None, ...]  # smallest working dyadic locality radius
    eta_resolution_limited: tuple[bool, ...]
    eta_ok: tuple[bool, ...]
    lsc_holds: bool  # every function's summed slice counts, per axis, at least the limit's


def _row_jumps(u: GridFunction, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump faces of ``axis`` as row-major (row, face index) pairs, a row per 1D slice."""
    n = u.geom.shape[axis]
    rows = np.moveaxis(u.jump_mask(axis), axis, -1).reshape(u.geom.num_cells // n, n - 1)
    return np.nonzero(rows)


def lsc_report(seq: Sequence[GridFunction], limit: GridFunction) -> SliceLscReport:
    """Check lower semicontinuity of the jump measure via directional slicing.

    Per axis the directional jump measures are face counts times the face
    area, and the margin is min_n seq - limit.  The 1D locality
    check searches the smallest dyadic multiple of 2h such that every limit
    jump on every slice has a sequence jump within that distance for all n.
    """
    if not seq:
        raise ValueError("need a nonempty sequence")
    for g in seq:
        require_same_geometry(g.geom, limit.geom)
    geom = limit.geom
    axes = tuple(range(geom.dim))
    # per axis: directional measures and slice counts, the limit's first, then eta
    dirs, counts, etas, holds = [], [], [], True
    h, area = geom.spacing, geom.face_area
    for axis in axes:
        n = geom.shape[axis]
        walks = [_row_jumps(g, axis) for g in (limit, *seq)]  # (row, index) per jump face
        rows_hit = [np.bincount(row, minlength=geom.num_cells // n) for row, _ in walks]
        dirs.append([row.size * area for row, _ in walks])
        counts.append([tuple(c.tolist()) for c in rows_hit])
        holds &= min(row.size for row, _ in walks[1:]) >= walks[0][0].size  # summed slice counts
        (lim_row, lim_index), *seq_walks = walks
        budget = 2  # eta in whole faces, so eta = budget * h is 2h doubled
        for (row, index), c in zip(seq_walks, rows_hit[1:]):
            if not c[lim_row].all():  # g has no jump on a slice where the limit has one
                budget = None
                break
            # a row's nearest jump is next to the limit jump's sort slot; other rows count n faces
            j = np.searchsorted(row * n + index, lim_row * n + lim_index)
            near = np.full(lim_index.size, n)
            for side in (np.maximum(j - 1, 0), np.minimum(j, row.size - 1)):
                near = np.minimum(near, np.where(row[side] == lim_row,
                                                 np.abs(lim_index - index[side]), n))
            while budget < np.max(near, initial=0):
                budget *= 2
        etas.append(None if budget is None else budget * h)
    lim_dir = tuple(d[0] for d in dirs)
    seq_dir = tuple(tuple(d[1:]) for d in dirs)
    margins = tuple(min(s) - l for s, l in zip(seq_dir, lim_dir))
    total_margin = min(sum(col) for col in zip(*seq_dir)) - sum(lim_dir)
    return SliceLscReport(
        axes=axes, limit_directional=lim_dir, seq_directional=seq_dir,
        margins=margins, total_margin=total_margin,
        limit_slice_counts=tuple(c[0] for c in counts),
        seq_slice_counts=tuple(tuple(c[1:]) for c in counts), eta=tuple(etas),
        eta_resolution_limited=tuple(e == 2 * h for e in etas),
        eta_ok=tuple(e is not None for e in etas), lsc_holds=holds)


# -- gradient pairings (weak-convergence proxy) -------------------------------


def gradient_pairings(u: GridFunction) -> dict[str, float]:
    """Pairings of the face-sampled gradient with a fixed indicator dictionary:
    the whole grid and, per axis k, its low half (the first ``shape[k] // 2``
    cells along k), each paired over the faces whose lower cell it holds."""
    h = u.geom.spacing
    # on either face axis, the faces of the low half are the first shape[k] // 2 along k
    fields = {"full": ()}
    fields.update((f"low_half_axis{k}", (slice(None),) * k + (slice(n // 2),))
                  for k, n in enumerate(u.geom.shape))
    out = {}
    for axis in range(u.geom.dim):
        d = u.face_delta(axis)
        keep = ~u.crack_mask(axis)
        for name, sel in fields.items():
            out[f"axis{axis}:{name}"] = float(np.sum(d[sel][keep[sel]] / h) * u.geom.cell_volume)
    return out


# -- the full pipeline report -------------------------------------------------


@dataclass
class SequenceReport(Record):
    settings: dict
    per_eps: dict
    nesting: dict
    violations: list
    ok: bool  # no violations


def bubble_partition(v: GridFunction, eps: float, ref_radius: float, gap_delta: float,
                     window: float = 1.0, omega: CellSet | None = None):
    """Bubbles of ``v``'s profile on ``omega`` at ``window``, their radii and the
    partition they induce: ``(decomposition, radii, partition)``."""
    prof = concentration_profile(v, domain=omega, window=window)
    dec = extract_bubbles(prof, eps=eps, gap_delta=gap_delta, ref_radius=ref_radius)
    radii = select_radii(prof, dec.bubbles, base_radius=ref_radius)
    return dec, radii, build_partition(v, radii, window=window, omega=omega)


def _partition_stage(v: GridFunction, prof: ConcentrationProfile, bubbles, bulk_v: float,
                     omega: CellSet | None, ref_radius: float):
    """What one function's bubble centers fix, at any eps: ``(entry fields, certificate,
    rest mask, renormalized function, violations)``, at its profile's window."""
    window = prof.window
    radii = select_radii(prof, bubbles, base_radius=ref_radius)
    part = build_partition(v, radii, window=window, omega=omega)
    w = renormalize(part)
    region = vanishing_region(v, bubbles, radius=ref_radius, omega=omega)
    # 2D only, certified at the region's own Lévy score
    cert = (vanishing_certificate(v, region, eps=None, radius=ref_radius, window=window)
            if v.geom.dim == 2 else None)
    sup_norm = float(np.max(np.abs(w.values)))
    # a main cell's value lies in its piece's band, and rounded subtraction is monotone:
    # its renormalized value is within the band's ends minus the piece's shift, exactly
    sup_bound = max((abs(end - shift) for band, shift in zip(part.bands, part.shifts)
                     for end in band), default=0.0)
    violations = [msg for msg, failed in (
        ("vanishing certificate failed", cert is not None and not cert.certified),
        ("renormalized sup-norm bound fails", sup_norm > sup_bound),
        ("renormalized jump bound fails",
         w.jump_faces() > v.jump_faces() + part.outside_faces)) if failed]
    rest = part.rest_mask()
    fields = {
        "outside_jump": part.outside_jump,
        "gap_boundary": part.gap_boundary,
        "rest_volume": int(np.count_nonzero(rest)) * v.geom.cell_volume,
        "vanishing_region_volume": region.volume(),
        "sup_norm": sup_norm,
        "max_radius": max((max(c.r_minus, c.r_plus) for c in radii), default=0.0),
        "jump_original": v.jump_measure(),
        "jump_renormalized": w.jump_measure(),
        "bulk_original": bulk_v,
        "pairings": gradient_pairings(w),
    }
    return fields, cert, rest, w, violations


def check_report_settings(p: float, eps_ladder: list[float], window: float,
                          ref_radius: float, gap_delta: float) -> None:
    """The checks of ``compactness_report``'s settings, before any work (and of a
    manifest's, in the CLI)."""
    check_real("p", p, low=1)
    if not (eps_ladder and all(0 < eps < 1 for eps in eps_ladder)
            and all(b < a for a, b in zip(eps_ladder, eps_ladder[1:]))):
        raise ValueError("eps_ladder must be nonempty and strictly decreasing in (0, 1), "
                         f"got {eps_ladder!r}")
    check_step("gap_delta", gap_delta, "ref_radius", ref_radius)
    check_step("window", window, "ref_radius", ref_radius)


def compactness_report(functions: Sequence[GridFunction],
                       datum: GridFunction | None = None,
                       omega: CellSet | None = None,
                       p: float = 2.0,
                       eps_ladder: Sequence[float] = (0.2, 0.1),
                       window: float = 1.0,
                       ref_radius: float = 1.0,
                       gap_delta: float = 2.0,
                       limit: GridFunction | None = None) -> SequenceReport:
    """Run the whole decomposition pipeline on a sequence and report every
    conclusion-level diagnostic.

    Per function, its profile once and its bubbles at every eps from one
    Lévy scan of that profile; per eps, where a function's bubble centers
    differ from the previous eps's, the stage they fix: radius
    selection, partition, renormalization, vanishing region and certificate,
    contract checks (a repeated stage is reused, with the same result).  Across the
    sequence: Ky Fan distances (convergence in measure), gradient pairings
    against a fixed indicator dictionary with uniform p-norm bounds
    (weak-convergence proxy), directional jump LSC via slicing,
    boundary-outside-jump and vanishing-volume trends, and bubble tracks.
    The settings are checked by :func:`check_report_settings`; rest-region nesting
    across consecutive ladder entries is reported cell-wise per function.
    """
    if not functions:
        raise ValueError("need at least one function")
    eps_ladder = list(eps_ladder)
    settings = dict(p=p, eps_ladder=eps_ladder, window=window, ref_radius=ref_radius,
                    gap_delta=gap_delta)
    check_report_settings(**settings)
    geom = functions[0].geom
    for other in (*functions[1:], datum, omega, limit):
        if other is not None:
            require_same_geometry(other.geom, geom)

    reduced = [u.subtract(datum) if datum is not None else u for u in functions]
    # function by function: profile, bulk energies at p and 2 (one where p is 2) and the
    # bubbles of every eps from one Lévy scan, gone before the next function's is built
    stage = []
    for v in reduced:
        prof = concentration_profile(v, domain=omega, window=window)
        bulk_p = energy(v, p).bulk
        stage.append((v, prof, bulk_p, bulk_p if p == 2 else energy(v, 2.0).bulk,
                      _extract_ladder(prof, eps_ladder, gap_delta, ref_radius)))
    bulk_norms = [bulk_p for _, _, bulk_p, _, _ in stage]
    limit_pairings = gradient_pairings(limit) if limit is not None else None
    violations: list[str] = []
    per_eps: dict[str, dict] = {}
    nesting: dict[str, list[bool]] = {}
    # per function, its bubble centers and partition stage at the previous eps: the same centers
    # fix the same stage, built again only where they move; each entry copies its containers
    last: list = [None] * len(stage)
    prev_renorms, prev_lim = [None] * len(stage), None
    for k, eps in enumerate(eps_ladder):
        rows = []
        for i, (v, prof, _, bulk_2, ladder) in enumerate(stage):
            dec = ladder[k]
            centers = tuple(b.center for b in dec.bubbles)
            if last[i] is None or last[i][0] != centers:
                last[i] = (centers, *_partition_stage(v, prof, dec.bubbles, bulk_2, omega,
                                                      ref_radius))
            _, fields, cert, rest, w, msgs = last[i]
            violations += [f"eps={eps} n_index={i}: {msg}" for msg in
                           [f"decomposition: {m}" for m in dec.validate()] + msgs]
            rows.append(({"total_mass": prof.total_mass(),
                          "bubbles": [b.as_dict() for b in dec.bubbles],
                          "vanishing_score": dec.vanishing_score,
                          "remainder_mass": dec.remainder.total_mass(), **fields,
                          "certificate": cert.as_dict() if cert is not None else None,
                          "pairings": dict(fields["pairings"])}, dec, rest, w))
        entries, decs, rests, renorms = map(list, zip(*rows))
        if k:  # each rest region against the one at the previous, larger eps
            nesting[f"{eps_ladder[k - 1]!r}->{eps!r}"] = [
                bool(np.all(lo <= hi)) for hi, lo in zip(prev_rests, rests)]
        # without a supplied limit, the last renormalized function, whose pairings are at hand
        lim, lim_pairings = (renorms[-1], entries[-1]["pairings"]) if limit is None \
            else (limit, limit_pairings)
        if any(a is not b for a, b in zip(renorms, prev_renorms)):  # else the distances stand
            consecutive = [kyfan_distance(a, b) for a, b in zip(renorms, renorms[1:])]
            to_limit = [kyfan_distance(w, lim) for w in renorms]
        if lim is not prev_lim:
            lsc = lsc_report(reduced, lim)
        prev_rests, prev_renorms, prev_lim = rests, renorms, lim
        pairing_report = {}
        for key in lim_pairings:
            series = [e["pairings"][key] for e in entries]
            pairing_report[key] = {
                "series": series,
                "limit": lim_pairings[key],
                "max_gap": max(abs(s - lim_pairings[key]) for s in series),
            }
        if not lsc.lsc_holds:
            violations.append(f"eps={eps}: jump LSC margin negative")
        tracks = track_sequence(decs) if all(d.bubbles for d in decs) else None
        per_eps[repr(eps)] = {
            "per_n": entries,
            "conclusion1_measure_convergence": {
                "consecutive_kyfan": list(consecutive),
                "kyfan_to_limit": list(to_limit),
            },
            "conclusion2_weak_gradient": {
                "bulk_pnorm": list(bulk_norms),
                "uniform_bulk_bound": max(bulk_norms),
                "pairings": pairing_report,
            },
            "conclusion3_jump_lsc": lsc.as_dict(),
            "conclusion4_partition_trends": {
                "outside_jump_series": [e["outside_jump"] for e in entries],
                "rest_volume_series": [e["rest_volume"] for e in entries],
                "vanishing_volume_series": [e["vanishing_region_volume"] for e in entries],
            },
            "conclusion5_bubble_tracks": tracks.as_dict() if tracks else None,
        }
    settings.update(n_functions=len(functions), datum=datum is not None,
                    omega=omega is not None, limit_supplied=limit is not None)
    return SequenceReport(settings=settings, per_eps=per_eps,
                          nesting=nesting, violations=violations, ok=not violations)
