"""Face-by-face and breakpoint-by-breakpoint reference implementations for
oracle tests.

Each function walks ``(axis, *cell)`` face rows, single cells, breakpoints or
intervals in plain Python loops, or keeps the simpler per-item array code
that a whole-array path of the package replaced, so it shares no code with
the array arithmetic it checks; the tests require the package to agree with
it exactly.  ``compactness_report`` instead builds afresh, at every eps, the
stages the package's report reuses along the eps ladder.  ``level_set``,
``interior_boundary``, ``perimeter``, ``boundary_outside_jump``,
``jump_boundary_measure``, ``classify``, ``directional_jump_measure`` and
``labels_svg`` are the bodies the package shipped before it dropped, merged
or replaced them, kept as references for the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from crackgrid import analysis
from crackgrid.grid import (
    CellSet,
    GridFunction,
    GridGeometry,
    crack_masks_from_rows,
    face_count,
    face_pairs,
    require_same_geometry,
)
from crackgrid.profile import ConcentrationProfile

from _fixtures import empty_profile


def upper_cell(face: tuple[int, ...]) -> tuple[int, ...]:
    """The cell above the face ``(axis, *cell)``, whose lower cell is ``cell``."""
    axis, cell = face[0], face[1:]
    return tuple(c + (1 if k == axis else 0) for k, c in enumerate(cell))


def face_ids(masks) -> frozenset[tuple[int, ...]]:
    """The True entries of per-axis interior-face masks as ``(axis, *cell)`` rows."""
    return frozenset((axis, *(int(i) for i in idx))
                     for axis, mask in enumerate(masks) for idx in np.argwhere(mask))


def jump_faces(u: GridFunction) -> frozenset[tuple[int, ...]]:
    """Crack faces whose two adjacent values differ."""
    return frozenset(f for f in u.cracks if u.values[f[1:]] != u.values[upper_cell(f)])


def crack_rows(u: GridFunction) -> list[list[int]]:
    """The ``cracks`` field of the file format: sorted ``[axis, *cell]`` rows."""
    return sorted(list(f) for f in u.cracks)


def slice_line(u: GridFunction, axis: int, index: int) -> GridFunction:
    """1D section of a 2D function, its cracks found by scanning every crack."""
    other = 1 - axis
    geom = GridGeometry((u.geom.origin[axis],), u.geom.spacing, (u.geom.shape[axis],))
    cracks = [[0, f[1 + axis]] for f in u.cracks
              if f[0] == axis and f[1 + other] == index]
    return GridFunction(geom, u.values.take(index, axis=other),
                        crack_masks_from_rows(geom, cracks))


def new_cracks(u: GridFunction, part) -> frozenset[tuple[int, ...]]:
    """Cracks of u united with every interior face between distinct partition labels."""
    cracks = set(u.cracks)
    for axis in range(u.geom.dim):
        for idx in np.ndindex(*u.geom.face_shape(axis)):
            up = upper_cell((axis, *idx))
            if (part.label_kind[idx], part.label_index[idx]) != \
                    (part.label_kind[up], part.label_index[up]):
                cracks.add((axis, *idx))
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


def level_set(u: GridFunction, t: float) -> CellSet:
    """Strict superlevel set {u > t} as a cell set."""
    if not math.isfinite(t):
        raise ValueError("level must be finite")
    return CellSet(u.geom, u.values > t)


def interior_boundary(S: CellSet, axis: int) -> np.ndarray:
    """Mask over the interior faces of ``axis`` separating the set from its complement."""
    lower, upper = face_pairs(S.mask, axis)
    return lower ^ upper


def perimeter(S: CellSet) -> float:
    """Ambient perimeter: faces separating inside from outside or from beyond the box."""
    return len(boundary_face_keys(S)) * S.geom.face_area


def boundary_outside_jump(S: CellSet, u: GridFunction) -> float:
    """Measure of the relative reduced boundary of S not lying on the jump set.

    Box-boundary faces are excluded (boundary relative to the grid box), and
    so are crack faces with differing traces.
    """
    require_same_geometry(S.geom, u.geom)
    count = face_count(interior_boundary(S, k) & ~u.jump_mask(k) for k in range(u.geom.dim))
    return count * u.geom.face_area


def profile_faces(u: GridFunction, domain: CellSet | None = None):
    """Every face a profile is built from, walked one face at a time, as
    ``(kind, values)``: ``"gradient"`` and the two values across a non-crack
    face between different values, both cells in the domain; ``"jump"`` and
    the two traces of such a crack face; ``"edge"`` and the inside value of a
    face with one cell in the domain; ``"box"`` and the value of a domain cell
    on the grid box."""
    shape = u.geom.shape
    inside = np.ones(shape, dtype=bool) if domain is None else domain.mask
    for axis in range(u.geom.dim):
        cracks = u.crack_mask(axis)
        for cell in np.ndindex(*u.geom.face_shape(axis)):
            upper = upper_cell((axis, *cell))
            a, b = float(u.values[cell]), float(u.values[upper])
            if inside[cell] and inside[upper]:
                if a != b:
                    yield ("jump" if cracks[cell] else "gradient"), (a, b)
            elif inside[cell] or inside[upper]:
                yield "edge", (a if inside[cell] else b,)
        cross = tuple(1 if k == axis else n for k, n in enumerate(shape))
        for end in (0, shape[axis] - 1):
            for idx in np.ndindex(*cross):
                cell = idx[:axis] + (end,) + idx[axis + 1:]
                if inside[cell]:
                    yield "box", (float(u.values[cell]),)


def jump_boundary_measure(u: GridFunction, domain: CellSet | None = None) -> float:
    """Measure of the jump set together with the (domain or box) boundary,
    each face counted once."""
    count = sum(kind != "gradient" for kind, _ in profile_faces(u, domain))
    return count * u.geom.face_area


def slab_ranges(cuts, radius: float) -> list[tuple[float, float]]:
    """The ``[lo, hi)`` value range of each slab of a vanishing certificate with
    the given cuts: between consecutive cuts, each moved ``radius`` inward."""
    edges = [-math.inf, *cuts, math.inf]
    return [(lo + radius, hi - radius) for lo, hi in zip(edges, edges[1:])]


def certificate_face_counts(u: GridFunction, region: CellSet, cuts, radius: float):
    """(d, chain, region perimeter, gap perimeters, slab cells) of a vanishing
    certificate with the given cuts, in whole faces and cells: d counts the jump
    set united with the region boundary, and chain, per slab, the faces of its
    boundary on neither neighbouring gap's boundary."""
    jump = {("i", f[0], f[1:]) for f in jump_faces(u)}
    gaps = [boundary_face_keys(CellSet(u.geom, region.mask & (u.values > t - radius)
                                       & (u.values < t + radius))) for t in cuts]
    chain, slab_cells = [], []
    for i, (lo, hi) in enumerate(slab_ranges(cuts, radius)):
        slab = CellSet(u.geom, region.mask & (u.values >= lo) & (u.values < hi))
        keys = boundary_face_keys(slab)
        if i >= 1:
            keys -= gaps[i - 1]
        if i < len(gaps):
            keys -= gaps[i]
        chain.append(len(keys))
        slab_cells.append(int(np.count_nonzero(slab.mask)))
    return (len(jump | boundary_face_keys(region)), chain, len(boundary_face_keys(region)),
            [len(g) for g in gaps], slab_cells)


def certificate_skipping_faces(u: GridFunction, region: CellSet, cuts, radius: float):
    """Per axis, the interior faces of a vanishing certificate with the given cuts
    that are no jump faces and join cells of two different slabs: such a face lies
    on no gap's boundary either, so neither side of the chain inequality counts it."""
    ranges = slab_ranges(cuts, radius)

    def slab(cell):  # the index of the slab holding the cell, or None
        if not region.mask[cell]:
            return None
        return next((i for i, (lo, hi) in enumerate(ranges) if lo <= u.values[cell] < hi), None)

    jump, counts = jump_faces(u), []
    for axis in range(u.geom.dim):
        count = 0
        for idx in np.ndindex(*u.geom.face_shape(axis)):
            below, above = slab(idx), slab(upper_cell((axis, *idx)))
            count += ((axis, *idx) not in jump and None not in (below, above)
                      and below != above)
        counts.append(count)
    return counts


def certificate_face_measures(u: GridFunction, region: CellSet, cuts, radius: float):
    """(boundary_measure, chain_rhs, region_perimeter, gap_perimeters) of a
    vanishing certificate with the given cuts: the face counts times the face
    area, chain_rhs half of each slab's count, added slab by slab."""
    d, chain, region_faces, gap_faces, _ = certificate_face_counts(u, region, cuts, radius)
    area = u.geom.face_area
    chain_rhs = 0.0
    for c in chain:
        chain_rhs += 0.5 * c * area
    return d * area, chain_rhs, region_faces * area, tuple(g * area for g in gap_faces)


def certificate_cuts(u: GridFunction, region: CellSet, eps: float) -> tuple[int, list[float]]:
    """(alpha, cut points) of a vanishing certificate at eps, by loops over the
    region's sorted values: alpha capped at the size of their set, and per
    target ``j * n / alpha`` of the region's n cells the value above the first
    one with at least that many cells at or below it (the largest value where
    none is above), the cuts deduplicated through a set."""
    order = sorted(u.values[region.mask].tolist())
    n = len(order)
    alpha = max(1, min(math.ceil(1.0 / eps), len(set(order))))
    cuts = set()
    for j in range(1, alpha):
        i = next(i for i in range(n) if (i + 1) * alpha >= j * n)
        cuts.add(next((v for v in order if v > order[i]), order[-1]))
    return alpha, sorted(cuts)


def concentration_profile(u: GridFunction, domain: CellSet | None = None,
                          window: float = 1.0) -> ConcentrationProfile:
    """The profile built from a Python list of ``(lo, hi, area)`` tuples, one
    per gradient face and per trace of :func:`profile_faces`, merged by the
    two-search :func:`from_intervals` below, which shares no code with the
    package's one sort of the ends."""
    area = u.geom.face_area
    intervals: list[tuple[float, float, float]] = []
    for kind, values in profile_faces(u, domain):
        if kind == "gradient":
            intervals.append((min(values), max(values), area))
        else:
            intervals.extend((t - window, t + window, area) for t in values)
    return from_intervals(intervals, window)


def value_at(f: ConcentrationProfile, t: float) -> float:
    """Plateau value at ``t`` with the half-open convention [b_{k-1}, b_k)."""
    k = int(np.searchsorted(f.breakpoints, t, side="right"))
    return float(f.plateau_values[k])


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


def masked_mass_below(f: ConcentrationProfile, t):
    """Integral of the profile over (-inf, t) at every point of ``t``, the
    below / inside / above slot cases assigned through three boolean masks
    over a cumulative sum taken afresh; a scalar ``t`` gives a float."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    bp, pv = f.breakpoints, f.plateau_values
    if bp.size == 0:
        res = np.zeros_like(t_arr)
        return res if np.ndim(t) else float(res[0])
    cum = np.zeros(bp.size)
    if bp.size > 1:
        np.cumsum(pv[1:-1] * np.diff(bp), out=cum[1:])
    k = np.searchsorted(bp, t_arr, side="right")
    res = np.empty_like(t_arr)
    below = k == 0
    above = k == bp.size
    mid = ~below & ~above
    res[below] = 0.0
    res[above] = cum[-1]
    km = k[mid]
    res[mid] = cum[km - 1] + pv[km] * (t_arr[mid] - bp[km - 1])
    return res if np.ndim(t) else float(res[0])


def zero_on(f: ConcentrationProfile, a: float, b: float) -> ConcentrationProfile:
    """``f`` zeroed on (a, b): a and b merged into the breakpoints with
    ``np.unique``, every plateau inside (a, b) set to zero, then equal
    neighbouring plateaus merged by the construction."""
    if not b > a or f.breakpoints.size == 0:
        return f
    bp = np.unique(np.concatenate([f.breakpoints, [a, b]]))
    # plateau value on (bp[i-1], bp[i]) equals the old value just right of bp[i-1]
    slots = np.searchsorted(f.breakpoints, bp[:-1], side="right")
    pv = np.concatenate([[0.0], f.plateau_values[slots], [0.0]])
    inside = (bp[:-1] >= a) & (bp[1:] <= b)
    pv[1:-1][inside] = 0.0
    return ConcentrationProfile(bp, pv, f.window)


def window_masses(f: ConcentrationProfile, centers: np.ndarray, radius: float) -> np.ndarray:
    return masked_mass_below(f, centers + radius) - masked_mass_below(f, centers - radius)


def levy_concentration(f: ConcentrationProfile, radius: float) -> tuple[float, float]:
    """Largest window mass over the sorted candidates ``breakpoints +- radius``."""
    if f.breakpoints.size == 0:
        return 0.0, 0.0
    centers = np.unique(np.concatenate([f.breakpoints - radius, f.breakpoints + radius]))
    masses = window_masses(f, centers, radius)
    k = int(np.argmax(masses))
    return float(masses[k]), float(centers[k])


def levy_over_candidates(f: ConcentrationProfile, radius: float) -> tuple[float, float]:
    """Largest window mass, ``mass_below(c + r) - mass_below(c - r)``, over the
    candidates ``breakpoints +- radius`` built and scored in one go: the body
    ``profile.levy_concentration`` had before it became a scan's first ``best()``."""
    if f.breakpoints.size == 0:
        return 0.0, 0.0
    centers = np.unique(np.concatenate([f.breakpoints - radius, f.breakpoints + radius]))
    masses = f.mass_below(centers + radius) - f.mass_below(centers - radius)
    k = int(np.argmax(masses))  # first occurrence: smallest center wins ties
    return float(masses[k]), float(centers[k])


def constrained_levy(f: ConcentrationProfile, radius: float, keep_out, events=None):
    """Largest window mass over centers outside the open keep-out intervals,
    every candidate (breakpoints +- radius and keep-out edges) built and
    scored afresh; ``events`` counts maxima attained more than once."""
    if f.breakpoints.size == 0:
        return 0.0, 0.0
    cand = [f.breakpoints - radius, f.breakpoints + radius]
    for lo, hi in keep_out:
        cand.append(np.array([lo, hi]))
    centers = np.unique(np.concatenate(cand))
    if keep_out:
        ok = np.ones(centers.size, dtype=bool)
        for lo, hi in keep_out:
            ok &= ~((centers > lo) & (centers < hi))
        centers = centers[ok]
    if centers.size == 0:
        return 0.0, 0.0
    masses = window_masses(f, centers, radius)
    k = int(np.argmax(masses))
    if events is not None and np.count_nonzero(masses == masses[k]) > 1:
        events["tied maximum"] += 1
    return float(masses[k]), float(centers[k])


def iso_constant(side: int = 4) -> float:
    """Largest volume/perimeter^2 over all nonempty masks in a side x side
    box (h = 1), by enumerating the 2^(side^2) - 1 masks."""
    n = side * side
    bits = np.arange(1, 1 << n, dtype=np.uint32)
    masks = ((bits[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(bool)
    padded = np.pad(masks.reshape(-1, side, side), ((0, 0), (1, 1), (1, 1)))
    perim = sum(np.count_nonzero(np.diff(padded, axis=axis), axis=(1, 2)) for axis in (1, 2))
    return float(np.max(masks.sum(axis=1) / perim.astype(float) ** 2))


def scan_state(f: ConcentrationProfile, radius: float, edges) -> tuple[np.ndarray, np.ndarray]:
    """The ``(centers, masses)`` of a Levy scan built afresh: every breakpoint
    +- radius and every keep-out edge, sorted, minus those inside an open
    keep-out ``(edges[2i], edges[2i+1])``; per center the window mass between
    ``c - radius`` and ``c + radius``, from the right slots of both, the mass
    on each slot's plateau below its query point and a cumulative mass summed
    afresh."""
    bp, pv = f.breakpoints, f.plateau_values
    edges = np.array(edges, dtype=float)
    c = np.unique(np.concatenate([bp - radius, bp + radius, edges]))
    lo, hi = edges[0::2], edges[1::2]
    c = c[~np.any((c[:, None] > lo) & (c[:, None] < hi), axis=1)]
    q = np.stack([c + radius, c - radius])
    k = np.searchsorted(bp, q, side="right")
    if not bp.size:
        term = np.zeros_like(q)
    else:
        term = pv[k] * (np.clip(q, bp[0], bp[-1]) - bp[k - 1])
    cum = np.zeros(bp.size + 1)
    if bp.size > 1:
        np.cumsum(pv[1:-1] * np.diff(bp), out=cum[2:])
    below = cum[k] + term
    return c, below[0] - below[1]


class _MaskedIntegrals:
    """A profile seen only through ``masked_mass_below``, for ``bubbles._grow_window``:
    its ``window_masses(ends)``, the one window read the growth makes, is the
    mass below each upper end (row 1) minus the mass below its lower end
    (row 0), both from ``masked_mass_below``; ``integrate(a, b)`` is one such
    window, taken one end at a time, for the reference's own captured and
    removed masses.  (The free function ``window_masses(f, centers, radius)``
    above is another thing: the masses of the windows of one radius around
    ``centers``.)"""

    def __init__(self, f: ConcentrationProfile):
        self.f = f

    def window_masses(self, ends) -> np.ndarray:
        below = masked_mass_below(self.f, np.asarray(ends, dtype=float))
        return below[1] - below[0]

    def integrate(self, a: float, b: float) -> float:
        if not b > a:
            return 0.0
        return float(masked_mass_below(self.f, b) - masked_mass_below(self.f, a))


def extract_bubbles(f: ConcentrationProfile, eps: float, gap_delta: float,
                    ref_radius: float, max_bubbles: int = 64, events=None):
    """The greedy decomposition rebuilding and rescoring every candidate after
    each bubble, through ``constrained_levy``, ``zero_on`` and
    ``masked_mass_below``.  ``events`` (a ``collections.Counter``) counts the
    cases the fast path has to get right."""
    from collections import Counter

    from crackgrid.bubbles import Bubble, BubbleDecomposition, ExtractionParams, _grow_window

    events = Counter() if events is None else events
    params = ExtractionParams(eps, gap_delta, ref_radius)
    total = f.total_mass()
    current = f
    found = []
    zones_removed = []  # per bubble, the span its zeroing and keep-out can touch
    incomplete = False
    if total > 0:
        threshold = eps * total
        while True:
            keep_out = [
                (b.center - (b.inner_radius + ref_radius + gap_delta),
                 b.center + (b.inner_radius + ref_radius + gap_delta))
                for b, _, _ in found
            ]
            bp = current.breakpoints
            kinks = set((bp - ref_radius).tolist()) | set((bp + ref_radius).tolist())
            if any(e in kinks for pair in keep_out for e in pair):
                events["keep-out edge on a breakpoint +- r"] += 1
            mass, center = constrained_levy(current, ref_radius, keep_out, events)
            if mass <= threshold:
                break
            if len(found) >= max_bubbles:
                incomplete = True
                events["max_bubbles reached"] += 1
                break
            cap = math.inf
            zones = []
            for b, _, _ in found:
                cap = min(cap, abs(center - b.center) - b.inner_radius - gap_delta)
                zones.append((b.center - b.outer_radius, b.center + b.outer_radius))
            view = _MaskedIntegrals(current)
            inner, outer, was_capped = _grow_window(
                view, center, ref_radius, gap_delta, threshold, radius_cap=cap, zones=zones)
            captured = view.integrate(center - inner, center + inner)
            removed = view.integrate(center - outer, center + outer)
            found.append((Bubble(center, inner, outer, captured), removed - captured, was_capped))
            a, b = center - outer, center + outer
            reach = inner + ref_radius + gap_delta
            zone = (min(center - reach, a - ref_radius), max(center + reach, b + ref_radius))
            if any(zone[0] <= z_hi and z_lo <= zone[1] for z_lo, z_hi in zones_removed):
                events["overlapping zones"] += 1
            zones_removed.append(zone)
            if a in bp or b in bp:
                events["cut on a breakpoint"] += 1
            if a < bp[0] or b > bp[-1]:
                events["cut outside the support"] += 1
            current = zero_on(current, a, b)
    order = sorted(range(len(found)), key=lambda i: (-found[i][0].mass, found[i][0].center))
    return BubbleDecomposition(
        bubbles=tuple(found[i][0] for i in order),
        remainder=current,
        vanishing_score=levy_concentration(current, ref_radius)[0],
        params=params,
        total_mass=total,
        leakages=tuple(found[i][1] for i in order),
        capped=tuple(found[i][2] for i in order),
        incomplete=incomplete,
    )


def classify(f: ConcentrationProfile, eps: float, ref_radius: float,
             gap_delta: float = 2.0):
    """The trichotomy verdict as ``bubbles.classify`` computed it on its own:
    the package's Levy maximum, one growth with no cap and no zones, and the
    witness mass over the inner window.  Only ``eps`` is checked."""
    from crackgrid import profile
    from crackgrid.bubbles import Bubble, TrichotomyVerdict, _grow_window

    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    total = f.total_mass()
    if total == 0.0:
        return TrichotomyVerdict("vanishing", None, None, 0.0, eps, ref_radius)
    m_star, center = profile.levy_concentration(f, ref_radius)
    if m_star <= eps * total:
        return TrichotomyVerdict("vanishing", None, None, total, eps, ref_radius)
    inner, outer, _ = _grow_window(f, center, ref_radius, gap_delta, eps * total)
    witness = Bubble(center, inner, outer,
                     float(f.window_masses((center - inner, center + inner))))
    if m_star >= (1 - eps) * total:
        return TrichotomyVerdict("compactness", witness, None, total, eps, ref_radius)
    lam1 = witness.mass
    return TrichotomyVerdict("dichotomy", witness, (lam1, total - lam1), total, eps, ref_radius)


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
        val = sum(value_at(f, scale * mid + shift) for scale, shift in offsets)
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


def array_objective_pieces(f: ConcentrationProfile, offsets, lo: float,
                           hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted cut points on [lo, hi] and the objective on each piece between
    them, for one bubble: the whole breakpoint array mapped and masked once
    per (scale, shift) offset, then one ``searchsorted`` per offset at the
    piece midpoints, summed in offset order from 0."""
    cuts = [np.array([lo, hi])]
    for scale, shift in offsets:
        r = (f.breakpoints - shift) / scale
        cuts.append(r[(lo < r) & (r < hi)])
    points = np.unique(np.concatenate(cuts))
    mid = 0.5 * (points[:-1] + points[1:])
    values = np.zeros(mid.size)
    for scale, shift in offsets:
        values += f.plateau_values[np.searchsorted(f.breakpoints, scale * mid + shift,
                                                   side="right")]
    return points, values


def array_best_radius(f: ConcentrationProfile, offsets, lo: float,
                      hi: float) -> tuple[float, float]:
    """Midpoint of the leftmost minimizing piece and the minimum, from
    ``array_objective_pieces``."""
    points, values = array_objective_pieces(f, offsets, lo, hi)
    k = int(np.argmin(values))  # first occurrence
    return float(0.5 * (points[k] + points[k + 1])), float(values[k])


def interval_average(f: ConcentrationProfile, offsets, lo: float, hi: float) -> float:
    """Mean over r in (lo, hi) of the sum of f(scale * r + shift), one
    ``window_masses`` read per (scale, shift) offset."""
    total = 0.0
    for scale, shift in offsets:
        a, b = scale * lo + shift, scale * hi + shift
        total += float(f.window_masses((min(a, b), max(a, b))))
    return total / (hi - lo)


def select_radii(f: ConcentrationProfile, bubbles, base_radius: float,
                 best=array_best_radius):
    """``partition.select_radii`` one bubble at a time, each bubble's radius
    and minimum from ``best`` (``array_best_radius`` or ``best_radius``)."""
    from crackgrid.partition import RadiusChoice

    w = f.window
    lo, hi = base_radius, base_radius + w
    out = []
    for b in bubbles:
        offsets = [(1.0, b.center), (1.0, b.center + w), (-1.0, b.center), (-1.0, b.center - w)]
        r, val = best(f, offsets, lo, hi)
        out.append(RadiusChoice(b.center, r, r, val, interval_average(f, offsets, lo, hi)))
    return out


def labels_present(part) -> list[tuple[int, int]]:
    """(kind, index) pairs that occur, sorted, from the unique rows of the two label arrays."""
    pairs = np.unique(np.stack([part.label_kind.ravel(), part.label_index.ravel()], axis=1),
                      axis=0)
    return [(int(k), int(i)) for k, i in pairs]


def label_mask(part, kind: int, index: int) -> np.ndarray:
    return (part.label_kind == kind) & (part.label_index == index)


def partition_stats(part, u: GridFunction) -> dict:
    """Per-label volume, perimeter and outside-jump from one ``CellSet`` per label."""
    from crackgrid.partition import _KIND_NAMES, SetStats

    out = {}
    for kind, index in labels_present(part):
        S = CellSet(part.geom, label_mask(part, kind, index))
        out[f"{_KIND_NAMES[kind]}:{index}"] = SetStats(
            volume=S.volume(), perimeter=perimeter(S),
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
        blo, bhi = p.center - p.r_minus, p.center + p.r_plus
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


def labels_svg(part) -> str:
    """The label raster as SVG, one cell, one palette lookup and one ``<rect>`` at a time."""
    from crackgrid.partition import KIND_GAP_MINUS, KIND_GAP_PLUS, KIND_MAIN, KIND_VANISHING

    cell = 8  # pixels per grid cell
    shape = part.label_kind.shape
    if len(shape) == 1:
        shape = (shape[0], 1)
    palette = {KIND_MAIN: ["#4477aa", "#66ccee", "#228833", "#ccbb44"],
               KIND_GAP_PLUS: ["#ee6677"], KIND_GAP_MINUS: ["#aa3377"],
               KIND_VANISHING: ["#dddddd"]}
    w, h = shape[0] * cell, shape[1] * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">']
    kinds = part.label_kind.reshape(shape)
    indices = part.label_index.reshape(shape)
    for ix in range(shape[0]):
        for iy in range(shape[1]):
            kind, idx = int(kinds[ix, iy]), int(indices[ix, iy])
            color = palette[kind][idx % len(palette[kind])]
            y = (shape[1] - 1 - iy) * cell
            parts.append(f'<rect x="{ix * cell}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{color}"/>')
    parts.append("</svg>\n")
    return "".join(parts)


def volume_by_kind(part, kind: int) -> float:
    """Volume of the cells of one kind, counted afresh on ``label_kind``."""
    return int(np.count_nonzero(part.label_kind == kind)) * part.geom.cell_volume


def partition_dict(part) -> dict:
    """``DomainPartition.as_dict`` with the labels written one int at a time
    and the volumes from ``volume_by_kind``."""
    from crackgrid.partition import KIND_GAP_MINUS, KIND_GAP_PLUS, KIND_MAIN, KIND_VANISHING

    return {
        "pieces": [{"center": p.center, "r_minus": p.r_minus, "r_plus": p.r_plus}
                   for p in part.pieces],
        "window": part.window,
        "datum_piece": part.datum_piece,
        "label_kind": [int(x) for x in part.label_kind.ravel()],
        "label_index": [int(x) for x in part.label_index.ravel()],
        "stats": {k: s.as_dict() for k, s in part.stats.items()},
        "outside_jump": part.outside_jump,
        "gap_boundary": part.gap_boundary,
        "volumes": {
            "main": volume_by_kind(part, KIND_MAIN),
            "gap": volume_by_kind(part, KIND_GAP_PLUS) + volume_by_kind(part, KIND_GAP_MINUS),
            "vanishing": volume_by_kind(part, KIND_VANISHING),
        },
    }


_DYADIC_CANDIDATES: list[float] = [0.0, 1.0]
for _depth in range(1, 14):
    _den = 2**_depth
    _DYADIC_CANDIDATES.extend(k / _den for k in range(1, _den, 2))


def renormalize(part) -> GridFunction:
    """``partition.renormalize`` one main piece at a time, each piece's cells
    picked by their kind and index: the loop the package replaced by one gather."""
    from crackgrid.partition import KIND_MAIN

    v = part.function
    values = np.zeros(v.geom.shape)
    for j, p in enumerate(part.pieces):
        m = label_mask(part, KIND_MAIN, j)
        a = 0.0 if part.datum_piece == j else p.center
        values[m] = v.values[m] - a
    cracks = [v.crack_mask(axis) | label_boundary(part, axis) for axis in range(v.geom.dim)]
    return GridFunction(v.geom, values, cracks)


def perturbed_translation(part) -> tuple[GridFunction, dict[int, float]]:
    """``partition.perturbed_translation`` over a list of cross-piece face
    tuples and a table of dyadic candidates, with the offset of every piece
    id (-1 the gap/vanishing aggregate)."""
    from crackgrid.partition import KIND_MAIN

    w = renormalize(part)
    # main pieces keep their index; all gap/vanishing cells share id -1
    ids = np.where(part.label_kind == KIND_MAIN, part.label_index.astype(np.int64), -1)
    piece_order = [-1] + list(range(len(part.pieces)))  # aggregate first, then by band
    # collect cross-piece faces once: (id_lo, id_hi, base_lo, base_hi)
    cross: list[tuple[int, int, float, float]] = []
    for axis in range(w.geom.dim):
        id_lo, id_hi = face_pairs(ids, axis)
        b_lo, b_hi = face_pairs(w.values, axis)
        sel = id_lo != id_hi
        cross.extend(zip(id_lo[sel].tolist(), id_hi[sel].tolist(),
                         b_lo[sel].tolist(), b_hi[sel].tolist()))
    alphas: dict[int, float] = {}
    for pid in piece_order:
        forbidden = set(alphas.values())
        for id_a, id_b, x, y in cross:
            if id_a == pid and id_b in alphas:
                forbidden.add(alphas[id_b] + y - x)
            elif id_b == pid and id_a in alphas:
                forbidden.add(alphas[id_a] + x - y)
        for cand in _DYADIC_CANDIDATES:
            if cand not in forbidden:
                alphas[pid] = cand
                break
        else:
            raise RuntimeError("exhausted dyadic offsets; too many conflicting faces")
    # ids == -1 (the aggregate) indexes the last lookup slot
    lookup = np.array([alphas[j] for j in range(len(part.pieces))] + [alphas[-1]])
    return w.with_values(w.values + lookup[ids]), alphas


def directional_jump_measure(u: GridFunction, axis: int) -> float:
    """Measure of jump faces with normal along ``axis``."""
    return int(np.count_nonzero(u.jump_mask(axis))) * u.geom.face_area


def lsc_report(seq, limit: GridFunction):
    """Slicing LSC report from one ``slice_line`` per (function, row) and a
    pairwise search over the limit and sequence jumps of every row, at their
    exact rational positions."""
    from crackgrid.analysis import SliceLscReport, slice_line

    def positions(u, axis, row):
        line = slice_line(u, axis, row) if u.geom.dim == 2 else u
        origin, h = Fraction(line.geom.origin[0]), Fraction(line.geom.spacing)
        return [origin + (int(i) + 1) * h for i in np.flatnonzero(line.jump_mask(0))]

    geom = limit.geom
    axes = tuple(range(geom.dim))
    lim_dir = tuple(directional_jump_measure(limit, k) for k in axes)
    seq_dir = tuple(tuple(directional_jump_measure(g, k) for g in seq) for k in axes)
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
        required = Fraction(0)
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
        eta=tuple(etas), eta_resolution_limited=tuple(limited), eta_ok=tuple(ok),
        lsc_holds=all(min(map(sum, per_g)) >= sum(lim)
                      for lim, per_g in zip(lim_counts, seq_counts)))


def _touching(part, kinds, axis: int) -> np.ndarray:
    """Label-boundary faces of ``axis`` with a cell of one of ``kinds`` on either side."""
    n = part.geom.shape[axis]
    is_kind = np.isin(part.label_kind, kinds)
    return label_boundary(part, axis) & (is_kind.take(range(n - 1), axis=axis)
                                         | is_kind.take(range(1, n), axis=axis))


def partition_outside_jump(part, u: GridFunction) -> float:
    """Measure of main/vanishing piece boundaries not on the jump set."""
    from crackgrid.partition import KIND_MAIN, KIND_VANISHING

    count = sum(int(np.count_nonzero(_touching(part, (KIND_MAIN, KIND_VANISHING), axis)
                                     & ~u.jump_mask(axis)))
                for axis in range(part.geom.dim))
    return count * part.geom.face_area


def gap_boundary(part) -> float:
    """Ambient measure of the union of all gap-set boundaries."""
    from crackgrid.partition import KIND_GAP_MINUS, KIND_GAP_PLUS

    gaps = (KIND_GAP_PLUS, KIND_GAP_MINUS)
    is_gap = np.isin(part.label_kind, gaps)
    count = 0
    for axis in range(part.geom.dim):
        count += int(np.count_nonzero(_touching(part, gaps, axis)))
        count += int(np.count_nonzero(is_gap.take([0, -1], axis=axis)))  # box faces
    return count * part.geom.face_area


def kyfan_distance(u: GridFunction, v: GridFunction) -> float:
    """Ky Fan distance walking the distinct levels, each placed in a second sort."""
    diff = np.abs(u.values - v.values).ravel()
    cell_vol = u.geom.cell_volume
    levels = np.unique(diff)  # ascending
    # Volume strictly above each candidate threshold.
    counts = np.searchsorted(np.sort(diff), levels, side="right")
    above = (diff.size - counts) * cell_vol
    # Segment [0, levels[0]): vol above is everything >= levels[0] unless level 0.
    prev = 0.0
    vol_above_prev = diff.size * cell_vol if levels[0] > 0 else above[0]
    for lev, vol in zip(levels, above):
        # On [prev, lev) the exceedance volume is vol_above_prev.
        if vol_above_prev <= prev:
            return prev
        if vol_above_prev < lev:
            return vol_above_prev
        prev = float(lev)
        vol_above_prev = float(vol)
    # Beyond the largest value the exceedance volume is 0.
    return prev


def from_intervals(intervals, window: float = 1.0) -> ConcentrationProfile:
    """``ConcentrationProfile.from_intervals`` placing every end in the sorted
    breakpoints again, with one ``searchsorted`` per column.  Zero ends are
    made +0.0 first, as the package does."""
    if not isinstance(intervals, np.ndarray):
        intervals = list(intervals)
    rows = np.asarray(intervals, dtype=float).reshape(-1, 3)
    rows = rows[(rows[:, 1] > rows[:, 0]) & (rows[:, 2] != 0.0)]
    if not rows.size:
        return empty_profile(window)
    ends, weights = rows[:, :2] + 0.0, rows[:, 2]
    bp = np.unique(ends.ravel())
    lo_idx = np.searchsorted(bp, ends[:, 0])
    hi_idx = np.searchsorted(bp, ends[:, 1])
    delta = np.zeros(bp.size + 2)
    np.add.at(delta, lo_idx + 1, weights)
    np.add.at(delta, hi_idx + 1, -weights)
    values = np.cumsum(delta)[:-1]
    snap = 16 * np.finfo(float).eps * float(np.sum(np.abs(weights)))
    values[np.abs(values) <= snap] = 0.0
    values[0] = 0.0
    values[-1] = 0.0
    np.maximum(values, 0.0, out=values)
    return ConcentrationProfile(bp, values, window)


def gradient_pairings(u: GridFunction) -> dict[str, float]:
    """``analysis.gradient_pairings`` with each indicator built as a full cell
    mask and its faces picked by the mask of their lower cells."""
    h = u.geom.spacing
    fields = {"full": np.ones(u.geom.shape, dtype=bool)}
    for axis in range(u.geom.dim):
        half = np.zeros(u.geom.shape, dtype=bool)
        sel = [slice(None)] * u.geom.dim
        sel[axis] = slice(0, u.geom.shape[axis] // 2)
        half[tuple(sel)] = True
        fields[f"low_half_axis{axis}"] = half
    out = {}
    for axis in range(u.geom.dim):
        d = u.face_delta(axis)
        keep = ~u.crack_mask(axis)
        for name, mask in fields.items():
            lower = np.delete(mask, -1, axis=axis)
            out[f"axis{axis}:{name}"] = float(np.sum(d[keep & lower] / h) * u.geom.cell_volume)
    return out


def _pipeline_one(v: GridFunction, prof: ConcentrationProfile, bulk_v: float, jump_v: float,
                  omega: CellSet | None, eps: float, ref_radius: float, gap_delta: float):
    """One function at one eps, every stage built afresh: ``(entry,
    decomposition, rest mask, renormalized function, violations)``."""
    window = prof.window
    dec, radii, part = analysis.bubble_partition(v, eps, ref_radius, gap_delta, window, omega)
    violations = [f"decomposition: {msg}" for msg in dec.validate()]
    w = analysis.renormalize(part)
    region = analysis.vanishing_region(v, dec.bubbles, radius=ref_radius, omega=omega)
    cert = None
    if v.geom.dim == 2:
        cert = analysis.vanishing_certificate(v, region, eps=None, radius=ref_radius,
                                              window=window)
        if not cert.certified:
            violations.append("vanishing certificate failed")
    sup_norm = float(np.max(np.abs(w.values)))
    max_radius = max((max(c.r_minus, c.r_plus) for c in radii), default=0.0)
    jump_w = w.jump_measure()
    outside = part.outside_jump
    # each piece's band ends minus the constant renormalization subtracts from it,
    # the piece's center or, on the datum piece, 0.0
    shifts = [0.0 if j == part.datum_piece else c.center for j, c in enumerate(part.pieces)]
    if sup_norm > max((abs(end - s) for c, s in zip(part.pieces, shifts)
                       for end in (c.center - c.r_minus, c.center + c.r_plus)), default=0.0):
        violations.append("renormalized sup-norm bound fails")
    # whole face counts: the face area scales all three measures alike
    faces = [sum(int(np.count_nonzero(g.jump_mask(k))) for k in range(v.geom.dim))
             for g in (w, v)]
    if faces[0] > faces[1] + part.outside_faces:
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
        "pairings": analysis.gradient_pairings(w),
    }
    return entry, dec, rest, w, violations


def compactness_report(functions, datum=None, omega=None, p: float = 2.0,
                       eps_ladder=(0.2, 0.1), window: float = 1.0, ref_radius: float = 1.0,
                       gap_delta: float = 2.0, limit=None) -> analysis.SequenceReport:
    """``analysis.compactness_report`` building every stage after the profile
    again at every eps: the partition, certificate, pairings, Ky Fan distances
    and LSC of each eps from scratch.  Inputs must be valid; nothing is checked."""
    eps_ladder = list(eps_ladder)
    reduced = [u.subtract(datum) if datum is not None else u for u in functions]
    stage = [(v, analysis.concentration_profile(v, domain=omega, window=window),
              analysis.energy(v, p).bulk, analysis.energy(v, 2.0).bulk, v.jump_measure())
             for v in reduced]
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
        if k:
            nesting[f"{eps_ladder[k - 1]!r}->{eps!r}"] = [
                bool(np.all(lo <= hi)) for hi, lo in zip(prev_rests, rests)]
        prev_rests = rests
        consecutive = [analysis.kyfan_distance(a, b) for a, b in zip(renorms, renorms[1:])]
        if limit is None:
            lim, lim_pairings = renorms[-1], entries[-1]["pairings"]
            to_limit = [analysis.kyfan_distance(w, lim) for w in renorms[:-2]] \
                + consecutive[-1:] + [0.0]
        else:
            lim, lim_pairings = limit, analysis.gradient_pairings(limit)
            to_limit = [analysis.kyfan_distance(w, lim) for w in renorms]
        pairing_report = {}
        for key in lim_pairings:
            series = [e["pairings"][key] for e in entries]
            pairing_report[key] = {
                "series": series,
                "limit": lim_pairings[key],
                "max_gap": max(abs(s - lim_pairings[key]) for s in series),
            }
        lsc = analysis.lsc_report(reduced, lim)
        if not lsc.lsc_holds:
            violations.append(f"eps={eps}: jump LSC margin negative")
        tracks = analysis.track_sequence(decs) if all(d.bubbles for d in decs) else None
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
    return analysis.SequenceReport(settings=settings, per_eps=per_eps,
                                   nesting=nesting, violations=violations, ok=not violations)
