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

from .bubbles import extract_bubbles, track_sequence
from .grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    Record,
    energy,
    face_count,
    kyfan_distance,
    pad_axis,
    require_same_geometry,
)
from .partition import (
    build_partition,
    renormalize,
    select_radii,
    vanishing_region,
)
from .profile import ConcentrationProfile, concentration_profile, levy_concentration


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
    trivial: bool = False
    _derived = ("certified", "chain_ok")

    @property
    def certified(self) -> bool:
        return self.measured_volume <= self.bound + 1e-12

    @property
    def chain_ok(self) -> bool:
        return self.chain_lhs >= self.chain_rhs - 1e-12


def vanishing_certificate(u: GridFunction, region: CellSet, eps: float | None,
                          radius: float = 1.0, window: float = 1.0) -> VanishingCertificate:
    """Certify that a weakly vanishing region has small volume (2D).

    Requires the region-restricted profile to satisfy the weak vanishing
    hypothesis (no window of the given radius holds more than eps mass);
    violating inputs raise with the offending window center.  ``eps=None``
    certifies at the region's own Lévy score, ``max(score, 1e-12)``.  The range is
    cut at alpha = ceil(1/eps) volume quantiles (capped at the number of
    distinct values, left-continuous), gap bands of half-width `radius`
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
    if eps is not None and not eps > 0:
        raise ValueError("eps must be positive")
    m = region.volume()
    prof = concentration_profile(u, domain=region, window=window)
    score, center = levy_concentration(prof, radius)
    if eps is None:
        eps = max(score, 1e-12)
    if m == 0.0:
        return VanishingCertificate(
            alpha=1, cut_points=(), slab_volumes=(0.0,), gap_volumes=(),
            gap_perimeters=(), measured_volume=0.0, bound=0.0, eps=eps,
            radius=radius, boundary_measure=0.0, region_perimeter=0.0,
            iso_constant=grid_iso_constant(), slab_correction=0.0,
            chain_lhs=0.0, chain_rhs=0.0, trivial=True)
    if score > eps + 1e-12:
        raise ValueError(
            f"region profile is not weakly vanishing at eps={eps}: the window "
            f"of radius {radius} centered at {center} holds mass {score}")

    values = u.values[region.mask]
    cell_vol = u.geom.cell_volume
    order = np.sort(values)
    distinct = np.unique(order)
    alpha = max(1, min(math.ceil(1.0 / eps), distinct.size))
    cuts: list[float] = []
    if alpha > 1:
        cum = np.arange(1, order.size + 1) * cell_vol
        for i in range(1, alpha):
            target = i * m / alpha
            k = int(np.searchsorted(cum, target, side="left"))
            k = min(k, order.size - 1)
            # smallest value with at least the target volume strictly below it
            j = int(np.searchsorted(order, order[k], side="right"))
            cuts.append(float(order[min(j, order.size - 1)]))
        cuts = sorted(set(cuts))
    alpha_eff = len(cuts) + 1

    edges = [-math.inf] + cuts + [math.inf]
    slab_sets, gap_sets = [], []
    for i in range(alpha_eff):
        lo = edges[i] + radius if math.isfinite(edges[i]) else -math.inf
        hi = edges[i + 1] - radius if math.isfinite(edges[i + 1]) else math.inf
        slab_sets.append(CellSet(u.geom, region.mask & (u.values >= lo) & (u.values < hi)))
    for t in cuts:
        gap_sets.append(CellSet(
            u.geom, region.mask & (u.values > t - radius) & (u.values < t + radius)))

    slab_vols = tuple(S.volume() for S in slab_sets)
    gap_vols = tuple(G.volume() for G in gap_sets)
    gap_perims = tuple(G.perimeter() for G in gap_sets)
    gamma = float(sum(gap_perims))

    # every face mask below spans the box faces too (n + 1 faces along its axis)
    jump = [pad_axis(u.jump_mask(axis), axis) for axis in range(2)]
    area = u.geom.face_area
    D = face_count(j | region.boundary_faces(k) for k, j in enumerate(jump)) * area
    region_perim = region.perimeter()

    gap_faces = [[G.boundary_faces(k) for k in range(2)] for G in gap_sets]
    chain_rhs = 0.0
    for i, S in enumerate(slab_sets):
        faces = [S.boundary_faces(k) for k in range(2)]
        for gap in gap_faces[max(i - 1, 0):i + 1]:  # the gaps on either side of slab i
            faces = [f & ~g for f, g in zip(faces, gap)]
        chain_rhs += 0.5 * face_count(faces) * area
    c_iso = grid_iso_constant()
    slab_correction = max(0.0, max(m / alpha_eff - v for v in slab_vols))
    bound = 4.0 * c_iso * (D + gamma) ** 2 / alpha_eff + alpha_eff * slab_correction
    return VanishingCertificate(
        alpha=alpha_eff, cut_points=tuple(cuts), slab_volumes=slab_vols,
        gap_volumes=gap_vols, gap_perimeters=gap_perims, measured_volume=m,
        bound=bound, eps=eps, radius=radius, boundary_measure=D,
        region_perimeter=region_perim, iso_constant=c_iso,
        slab_correction=slab_correction, chain_lhs=D, chain_rhs=chain_rhs)


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


def directional_jump_measure(u: GridFunction, axis: int) -> float:
    """Measure of jump faces with normal along ``axis``."""
    return int(np.count_nonzero(u.jump_mask(axis))) * u.geom.face_area


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
    _derived = ("lsc_holds",)

    @property
    def lsc_holds(self) -> bool:
        return all(mg >= -1e-12 for mg in self.margins) and self.total_margin >= -1e-12


def _row_jumps(u: GridFunction, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump faces of ``axis`` as row-major (row, face index) pairs, a row per 1D slice."""
    n = u.geom.shape[axis]
    rows = np.moveaxis(u.jump_mask(axis), axis, -1).reshape(u.geom.num_cells // n, n - 1)
    return np.nonzero(rows)


def lsc_report(seq: Sequence[GridFunction], limit: GridFunction) -> SliceLscReport:
    """Check lower semicontinuity of the jump measure via directional slicing.

    Per axis the directional jump measures are exact face counts; the margin
    is min_n seq - limit and must be nonnegative for LSC.  The 1D locality
    check searches the smallest dyadic multiple of 2h such that every limit
    jump on every slice has a sequence jump within that distance for all n.
    """
    if not seq:
        raise ValueError("need a nonempty sequence")
    for g in seq:
        require_same_geometry(g.geom, limit.geom)
    geom = limit.geom
    axes = tuple(range(geom.dim))
    lim_dir = tuple(directional_jump_measure(limit, k) for k in axes)
    seq_dir = tuple(tuple(directional_jump_measure(g, k) for g in seq) for k in axes)
    margins = tuple(min(s) - l for s, l in zip(seq_dir, lim_dir))
    total_margin = min(sum(col) for col in zip(*seq_dir)) - sum(lim_dir)

    etas: list[float | None] = []
    limited: list[bool] = []
    ok: list[bool] = []
    lim_counts: list[tuple[int, ...]] = []
    seq_counts: list[tuple[tuple[int, ...], ...]] = []
    h = geom.spacing
    for axis in axes:
        n = geom.shape[axis]
        n_rows = geom.num_cells // n
        origin = geom.origin[axis]
        lim_row, lim_index = _row_jumps(limit, axis)
        x = origin + (lim_index + 1) * h
        lim_counts.append(tuple(np.bincount(lim_row, minlength=n_rows).tolist()))
        per_g = []
        required = 0.0
        missing = False
        for g in seq:
            row, index = _row_jumps(g, axis)
            counts = np.bincount(row, minlength=n_rows)
            per_g.append(tuple(counts.tolist()))
            covered = counts[lim_row] > 0
            missing |= not covered.all()
            # positions grow with the index: a row's nearest jump is next to x's sort slot
            y = origin + (index + 1) * h
            j = np.searchsorted(row * n + index, (lim_row * n + lim_index)[covered])
            r, xc = lim_row[covered], x[covered]
            near = np.full(xc.size, np.inf)
            for side in (np.maximum(j - 1, 0), np.minimum(j, row.size - 1)):
                near = np.minimum(near, np.where(row[side] == r, np.abs(xc - y[side]), np.inf))
            required = max(required, float(np.max(near, initial=0.0)))
        seq_counts.append(tuple(per_g))
        if missing:
            etas.append(None)
            limited.append(False)
            ok.append(False)
            continue
        eta = 2 * h
        while eta < required:
            eta *= 2
        etas.append(eta)
        limited.append(required <= 2 * h)
        ok.append(True)
    return SliceLscReport(
        axes=axes, limit_directional=lim_dir, seq_directional=seq_dir,
        margins=margins, total_margin=total_margin,
        limit_slice_counts=tuple(lim_counts), seq_slice_counts=tuple(seq_counts),
        eta=tuple(etas), eta_resolution_limited=tuple(limited), eta_ok=tuple(ok))


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
    _derived = ("ok",)

    @property
    def ok(self) -> bool:
        return not self.violations


def bubble_partition(v: GridFunction, prof: ConcentrationProfile, eps: float,
                     ref_radius: float, gap_delta: float, omega: CellSet | None = None):
    """Bubbles of ``v``'s profile, their radii and the partition they induce,
    all at the profile's window: ``(decomposition, radii, partition)``."""
    window = prof.window
    dec = extract_bubbles(prof, eps=eps, gap_delta=gap_delta, ref_radius=ref_radius)
    radii = select_radii(prof, dec.bubbles, base_radius=ref_radius, width=window, window=window)
    part = build_partition(v, radii, window=window, omega=omega)
    return dec, radii, part


def _pipeline_one(v: GridFunction, prof: ConcentrationProfile, bulk_v: float, jump_v: float,
                  omega: CellSet | None, eps: float, ref_radius: float, gap_delta: float):
    """One function at one eps, at its profile's window: ``(entry, decomposition,
    rest mask, renormalized function, violations)``."""
    window = prof.window
    dec, radii, part = bubble_partition(v, prof, eps, ref_radius, gap_delta, omega)
    violations = [f"decomposition: {msg}" for msg in dec.validate()]
    w = renormalize(v, part)
    region = vanishing_region(v, dec.bubbles, radius=ref_radius, omega=omega)
    cert = None
    if v.geom.dim == 2:
        # certified at the region's own Lévy score
        cert = vanishing_certificate(v, region, eps=None, radius=ref_radius, window=window)
        if not cert.certified:
            violations.append("vanishing certificate failed")
    sup_norm = float(np.max(np.abs(w.values)))
    max_radius = max((max(c.r_minus, c.r_plus) for c in radii), default=0.0)
    jump_w = w.jump_measure()
    outside = part.outside_jump
    if sup_norm > max_radius + window + 1e-12:
        violations.append("renormalized sup-norm bound fails")
    if jump_w > jump_v + outside + 1e-12:
        violations.append("renormalized jump bound fails")
    rest = part.rest_mask()
    entry = {
        "total_mass": prof.total_mass(),
        "bubbles": [b.as_dict() for b in dec.bubbles],
        "vanishing_score": dec.vanishing_score,
        "remainder_mass": dec.remainder.total_mass(),
        "outside_jump": outside,
        "gap_boundary": part.gap_boundary,
        "rest_volume": float(np.count_nonzero(rest)) * v.geom.cell_volume,
        "vanishing_region_volume": region.volume(),
        "certificate": cert.as_dict() if cert is not None else None,
        "sup_norm": sup_norm,
        "max_radius": max_radius,
        "jump_original": jump_v,
        "jump_renormalized": jump_w,
        "bulk_original": bulk_v,
        "pairings": gradient_pairings(w),
    }
    return entry, dec, rest, w, violations


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

    Per eps and per function: profile, bubble extraction, radius selection,
    partition, renormalization, vanishing region and certificate, contract
    checks.  Across the sequence: Ky Fan distances (convergence in measure),
    gradient pairings against a fixed indicator dictionary with uniform
    p-norm bounds (weak-convergence proxy), directional jump LSC via slicing,
    boundary-outside-jump and vanishing-volume trends, and bubble tracks.
    The eps ladder must be strictly decreasing; rest-region nesting across
    consecutive ladder entries is reported cell-wise per function.
    """
    if not functions:
        raise ValueError("need at least one function")
    if not p > 1:
        raise ValueError("p must exceed 1")
    eps_ladder = list(eps_ladder)
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")
    geom = functions[0].geom
    for g in functions[1:]:
        require_same_geometry(g.geom, geom)
    if datum is not None:
        require_same_geometry(datum.geom, geom)
    if omega is not None:
        require_same_geometry(omega.geom, geom)
    if limit is not None:
        require_same_geometry(limit.geom, geom)

    reduced = [u.subtract(datum) if datum is not None else u for u in functions]
    # the eps-independent stage, once per function: profile, two bulk energies, jump measure
    stage = [(v, concentration_profile(v, domain=omega, window=window), energy(v, p).bulk,
              energy(v, 2.0).bulk, v.jump_measure()) for v in reduced]
    bulk_norms = [bulk_p for _, _, bulk_p, _, _ in stage]
    violations: list[str] = []
    per_eps: dict[str, dict] = {}
    nesting: dict[str, list[bool]] = {}
    for k, eps in enumerate(eps_ladder):
        entries, decs, rests, renorms, problems = map(list, zip(*(
            _pipeline_one(v, prof, bulk_2, jump_v, omega, eps, ref_radius, gap_delta)
            for v, prof, _, bulk_2, jump_v in stage)))
        for i, msgs in enumerate(problems):
            violations += [f"eps={eps} n_index={i}: {msg}" for msg in msgs]
        if k:  # each rest region against the one at the previous, larger eps
            nesting[f"{eps_ladder[k - 1]!r}->{eps!r}"] = [
                bool(np.all(lo <= hi)) for hi, lo in zip(prev_rests, rests)]
        prev_rests = rests
        consecutive = [kyfan_distance(a, b) for a, b in zip(renorms, renorms[1:])]
        if limit is None:  # the last renormalized function: its pairings and distances are at hand
            lim, lim_pairings = renorms[-1], entries[-1]["pairings"]
            to_limit = [kyfan_distance(w, lim) for w in renorms[:-2]] + consecutive[-1:] + [0.0]
        else:
            lim, lim_pairings = limit, gradient_pairings(limit)
            to_limit = [kyfan_distance(w, lim) for w in renorms]
        pairing_report = {}
        for key in lim_pairings:
            series = [e["pairings"][key] for e in entries]
            pairing_report[key] = {
                "series": series,
                "limit": lim_pairings[key],
                "max_gap": max(abs(s - lim_pairings[key]) for s in series),
            }
        lsc = lsc_report(reduced, lim)
        if not lsc.lsc_holds:
            violations.append(f"eps={eps}: jump LSC margin negative")
        tracks = track_sequence(decs) if all(d.bubbles for d in decs) else None
        per_eps[repr(eps)] = {
            "per_n": entries,
            "conclusion1_measure_convergence": {
                "consecutive_kyfan": consecutive,
                "kyfan_to_limit": to_limit,
            },
            "conclusion2_weak_gradient": {
                "bulk_pnorm": bulk_norms,
                "uniform_bulk_bound": max(bulk_norms) if bulk_norms else 0.0,
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
    settings = {
        "p": p,
        "eps_ladder": eps_ladder,
        "window": window,
        "ref_radius": ref_radius,
        "gap_delta": gap_delta,
        "n_functions": len(functions),
        "datum": datum is not None,
        "omega": omega is not None,
        "limit_supplied": limit is not None,
    }
    return SequenceReport(settings=settings, per_eps=per_eps,
                          nesting=nesting, violations=violations)
