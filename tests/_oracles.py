"""Face-by-face and breakpoint-by-breakpoint reference implementations for
oracle tests.

Each function walks ``FaceId`` objects, single cells, breakpoints or
intervals in plain Python loops, so it shares no code with the array
arithmetic of the package it checks; the tests require the package to agree
with it exactly.
"""

from __future__ import annotations

import math

import numpy as np

from crackgrid.grid import CellSet, FaceId, GridFunction, GridGeometry
from crackgrid.profile import ConcentrationProfile, _profile_faces


def face_ids(masks) -> frozenset[FaceId]:
    """The True entries of per-axis interior-face masks as ``FaceId`` objects."""
    return frozenset(FaceId(axis, tuple(int(i) for i in idx))
                     for axis, mask in enumerate(masks) for idx in np.argwhere(mask))


def jump_faces(u: GridFunction) -> frozenset[FaceId]:
    """Crack faces whose two adjacent values differ."""
    return frozenset(f for f in u.cracks if u.values[f.cell] != u.values[f.upper_cell()])


def crack_rows(u: GridFunction) -> list[list[int]]:
    """The ``cracks`` field of the file format: sorted ``[axis, *cell]`` rows."""
    return sorted([f.axis, *f.cell] for f in u.cracks)


def slice_line(u: GridFunction, axis: int, index: int) -> GridFunction:
    """1D section of a 2D function, its cracks found by scanning every crack."""
    other = 1 - axis
    geom = GridGeometry((u.geom.origin[axis],), u.geom.spacing, (u.geom.shape[axis],))
    cracks = [FaceId(0, (f.cell[axis],)) for f in u.cracks
              if f.axis == axis and f.cell[other] == index]
    return GridFunction(geom, u.values.take(index, axis=other), cracks)


def new_cracks(u: GridFunction, part) -> frozenset[FaceId]:
    """Cracks of u united with every interior face between distinct partition labels."""
    cracks = set(u.cracks)
    for axis in range(u.geom.dim):
        for idx in np.ndindex(*u.geom.face_shape(axis)):
            up = FaceId(axis, idx).upper_cell()
            if (part.label_kind[idx], part.label_index[idx]) != \
                    (part.label_kind[up], part.label_index[up]):
                cracks.add(FaceId(axis, idx))
    return frozenset(cracks)


def boundary_face_keys(S: CellSet) -> set[tuple]:
    """Hashable keys for the ambient boundary faces of a cell set, box faces included."""
    keys: set[tuple] = set()
    for cell in np.ndindex(*S.geom.shape):
        if not S.mask[cell]:
            continue
        for axis in range(S.geom.dim):
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                lower = cell if step == 1 else tuple(nb)
                if not 0 <= nb[axis] < S.geom.shape[axis]:
                    keys.add(("b", axis, step, cell))
                elif not S.mask[tuple(nb)]:
                    keys.add(("i", axis, lower))
    return keys


def certificate_face_measures(u: GridFunction, region: CellSet, cuts, radius: float):
    """(boundary_measure, chain_rhs) of a vanishing certificate with the given cuts."""
    area = u.geom.face_area
    jump = {("i", f.axis, f.cell) for f in jump_faces(u)}
    measure = len(jump | boundary_face_keys(region)) * area
    edges = [-math.inf, *cuts, math.inf]
    gaps = [boundary_face_keys(CellSet(u.geom, region.mask & (u.values > t - radius)
                                       & (u.values < t + radius))) for t in cuts]
    chain_rhs = 0.0
    for i in range(len(cuts) + 1):
        lo = edges[i] + radius if math.isfinite(edges[i]) else -math.inf
        hi = edges[i + 1] - radius if math.isfinite(edges[i + 1]) else math.inf
        keys = boundary_face_keys(CellSet(u.geom, region.mask & (u.values >= lo)
                                          & (u.values < hi)))
        if i >= 1:
            keys -= gaps[i - 1]
        if i < len(gaps):
            keys -= gaps[i]
        chain_rhs += 0.5 * len(keys) * area
    return measure, chain_rhs


def concentration_profile(u: GridFunction, domain: CellSet | None = None,
                          window: float = 1.0) -> ConcentrationProfile:
    """The profile built from a Python list of ``(lo, hi, area)`` tuples, one
    per gradient face and per trace, in the package's order."""
    area = u.geom.face_area
    faces = _profile_faces(u, domain)
    intervals: list[tuple[float, float, float]] = []
    for v_lo, v_hi, _ in faces:
        lo = np.minimum(v_lo, v_hi).tolist()
        hi = np.maximum(v_lo, v_hi).tolist()
        intervals.extend((a, b, area) for a, b in zip(lo, hi))
    for _, _, traces in faces:
        for tr in traces:
            intervals.extend((t - window, t + window, area) for t in tr.tolist())
    return ConcentrationProfile.from_intervals(intervals, window)


def mass_below(f: ConcentrationProfile, t: float) -> float:
    """Integral of the profile over (-inf, t) from a cumulative sum taken afresh."""
    bp, pv = f.breakpoints, f.plateau_values
    cum = np.zeros(bp.size)
    if bp.size > 1:
        np.cumsum(pv[1:-1] * np.diff(bp), out=cum[1:])
    k = int(np.searchsorted(bp, t, side="right"))
    if k == 0:
        return 0.0
    if k == bp.size:
        return float(cum[-1])
    return float(cum[k - 1] + pv[k] * (t - bp[k - 1]))


def objective_pieces(f: ConcentrationProfile, offsets, lo: float,
                     hi: float) -> list[tuple[float, float, float]]:
    """(left, right, value) pieces on [lo, hi) of r -> sum of f(scale*r + shift)
    over the (scale, shift) offsets, one breakpoint and one piece at a time."""
    cuts = {lo, hi}
    for scale, shift in offsets:
        for b in f.breakpoints:
            r = (b - shift) / scale
            if lo < r < hi:
                cuts.add(float(r))
    points = sorted(cuts)
    pieces = []
    for a, b in zip(points, points[1:]):
        mid = 0.5 * (a + b)
        val = sum(f.value_at(scale * mid + shift) for scale, shift in offsets)
        pieces.append((a, b, val))
    return pieces


def best_radius(f: ConcentrationProfile, offsets, lo: float, hi: float) -> tuple[float, float]:
    """Midpoint of the leftmost minimizing piece and the minimum."""
    pieces = objective_pieces(f, offsets, lo, hi)
    vmin = min(v for _, _, v in pieces)
    for a, b, v in pieces:
        if v == vmin:
            return 0.5 * (a + b), vmin
    raise AssertionError("unreachable")


def labels_present(part) -> list[tuple[int, int]]:
    """(kind, index) pairs that occur, sorted, from the unique rows of the two label arrays."""
    pairs = np.unique(np.stack([part.label_kind.ravel(), part.label_index.ravel()], axis=1),
                      axis=0)
    return [(int(k), int(i)) for k, i in pairs]


def label_mask(part, kind: int, index: int) -> np.ndarray:
    return (part.label_kind == kind) & (part.label_index == index)


def partition_stats(part, u: GridFunction) -> dict:
    """Per-label volume, perimeter and outside-jump from one ``CellSet`` per label."""
    from crackgrid.grid import boundary_outside_jump
    from crackgrid.partition import _KIND_NAMES, SetStats

    out = {}
    for kind, index in labels_present(part):
        S = CellSet(part.geom, label_mask(part, kind, index))
        out[f"{_KIND_NAMES[kind]}:{index}"] = SetStats(
            volume=S.volume(), perimeter=S.perimeter(),
            outside_jump=boundary_outside_jump(S, u))
    return out


def label_boundary(part, axis: int) -> np.ndarray:
    """Interior faces of ``axis`` whose two cells differ in kind or in index."""
    n = part.geom.shape[axis]
    kind, index = part.label_kind, part.label_index
    return ((kind.take(range(n - 1), axis=axis) != kind.take(range(1, n), axis=axis))
            | (index.take(range(n - 1), axis=axis) != index.take(range(1, n), axis=axis)))


def label_arrays(u: GridFunction, part) -> tuple[np.ndarray, np.ndarray]:
    """Kind and index of every cell, placing its value among the band edges one cell at a time."""
    from crackgrid.partition import KIND_GAP_MINUS, KIND_GAP_PLUS, KIND_MAIN, KIND_VANISHING

    edges = []
    for p in part.pieces:
        blo, bhi = p.band
        edges += [blo - part.window, blo, bhi, bhi + part.window]
    kind = np.empty(u.geom.shape, dtype=np.uint8)
    index = np.empty(u.geom.shape, dtype=np.int32)
    for cell in np.ndindex(*u.geom.shape):
        k = sum(1 for e in edges if e <= u.values[cell])
        kind[cell] = (KIND_VANISHING, KIND_GAP_MINUS, KIND_MAIN, KIND_GAP_PLUS)[k % 4]
        index[cell] = k // 4
    return kind, index


def partition_csv(part) -> str:
    """Label raster written one label mask at a time."""
    from crackgrid.partition import _KIND_NAMES

    names = np.empty(part.geom.shape, dtype=object)
    for kind, index in labels_present(part):
        names[label_mask(part, kind, index)] = f"{_KIND_NAMES[kind]}:{index}"
    if part.geom.dim == 1:
        return ",".join(names.tolist()) + "\n"
    return "\n".join(",".join(row) for row in names.tolist()) + "\n"


def lsc_report(seq, limit: GridFunction, box: CellSet | None = None):
    """Slicing LSC report from one ``slice_line`` per (function, row) and a
    pairwise search over the limit and sequence jumps of every row."""
    from crackgrid.analysis import SliceLscReport, directional_jump_measure, slice_line

    def positions(u, axis, row):
        line = slice_line(u, axis, row) if u.geom.dim == 2 else u
        g = line.geom
        return (g.origin[0] + (np.flatnonzero(line.jump_mask(0)) + 1) * g.spacing).tolist()

    geom = limit.geom
    axes = tuple(range(geom.dim))
    lim_dir = tuple(directional_jump_measure(limit, k, box) for k in axes)
    seq_dir = tuple(tuple(directional_jump_measure(g, k, box) for g in seq) for k in axes)
    margins = tuple(min(s) - l for s, l in zip(seq_dir, lim_dir))
    total_margin = min(sum(col) for col in zip(*seq_dir)) - sum(lim_dir)
    etas, limited, ok, lim_counts, seq_counts = [], [], [], [], []
    h = geom.spacing
    for axis in axes:
        rows = range(geom.shape[1 - axis]) if geom.dim == 2 else [0]
        lim_pos = [positions(limit, axis, row) for row in rows]
        seq_pos = [[positions(g, axis, row) for row in rows] for g in seq]
        lim_counts.append(tuple(len(p) for p in lim_pos))
        seq_counts.append(tuple(tuple(len(p) for p in per_g) for per_g in seq_pos))
        required = 0.0
        missing = False
        for r, lim_row in enumerate(lim_pos):
            if not lim_row:
                continue
            for per_g in seq_pos:
                if not per_g[r]:
                    missing = True
                    continue
                for x in lim_row:
                    required = max(required, min(abs(x - y) for y in per_g[r]))
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
