"""Concentration-compactness in the range: trichotomy and bubble extraction.

A profile with positive mass either concentrates in one window
(compactness), spreads so thin that every window is negligible (vanishing),
or splits (dichotomy).  Iterating the split yields a decomposition into
finitely many bubbles plus a weakly vanishing remainder.

All tolerances are relative: a threshold ``eps`` stands for the mass
``eps * total``, that fraction of the decomposed profile's total mass.  This
keeps the classification invariant under rescaling the profile and matches
the trichotomy contract, where both the compactness and vanishing tests
compare against ``eps * total``.

Extraction enforces the bubble separation guarantee
``|center_i - center_j| >= inner_i + inner_j + gap_delta`` by restricting
the center search and capping window growth; no mass is ever stranded by
the restriction because an allowed window always reaches the edge of the
previously removed zones.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .grid import InvariantError, Record, check_step
from .profile import ConcentrationProfile, _LevyScan, levy_concentration


@dataclass(frozen=True)
class ExtractionParams(Record):
    eps: float
    gap_delta: float
    ref_radius: float

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        check_step("gap_delta", self.gap_delta, "ref_radius", self.ref_radius)


@dataclass(frozen=True)
class Bubble(Record):
    """One cluster of range concentration: center, window radii, captured mass."""

    center: float
    inner_radius: float
    outer_radius: float
    mass: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and 0 < self.inner_radius <= self.outer_radius):
            raise InvariantError("need a finite center and 0 < inner_radius <= outer_radius")
        if not self.mass > 0:
            raise InvariantError("bubble mass must be positive")


@dataclass(frozen=True)
class BubbleDecomposition:
    """Bubbles in descending mass order plus the zeroed-out remainder."""

    bubbles: tuple[Bubble, ...]
    remainder: ConcentrationProfile
    vanishing_score: float
    params: ExtractionParams
    total_mass: float  # the mass eps is a fraction of; reported as params.mass_scale
    leakages: tuple[float, ...]
    capped: tuple[bool, ...] = ()
    incomplete: bool = False

    def bubble_mass(self) -> float:
        return sum(b.mass for b in self.bubbles)

    def leakage_total(self) -> float:
        return sum(self.leakages)

    def validate(self) -> list[str]:
        """Check the structural invariants; returns human-readable violations."""
        out = []
        slack = 1e-12 * self.total_mass  # mass sums round relative to the total
        if self.bubble_mass() > self.total_mass + slack:
            out.append("bubble masses exceed the total mass")
        masses = [b.mass for b in self.bubbles]
        if any(m2 > m1 for m1, m2 in zip(masses, masses[1:])):  # sorted by extraction
            out.append("bubble masses are not nonincreasing")
        gap = self.params.gap_delta
        for i, a in enumerate(self.bubbles):
            for b in self.bubbles[i + 1 :]:
                need = a.inner_radius + b.inner_radius + gap
                # a few ulps of the compared quantities: centers and radii round apart
                ulps = 8 * sys.float_info.epsilon * max(abs(a.center), abs(b.center), need)
                if abs(a.center - b.center) < need - ulps:
                    out.append(f"bubbles at {a.center} and {b.center} violate separation")
        threshold = self.params.eps * self.total_mass
        if not self.incomplete and self.vanishing_score > threshold + slack:
            out.append("remainder is not weakly vanishing at eps")
        for leak, was_capped in zip(self.leakages, self.capped):
            if not was_capped and leak > threshold + slack:
                out.append("uncapped bubble leaks more than eps * mass_scale")
        book = self.bubble_mass() + self.leakage_total() + self.remainder.total_mass()
        if abs(book - self.total_mass) > slack:
            out.append("mass bookkeeping identity fails")
        return out

    def as_dict(self) -> dict:
        return {
            "bubbles": [b.as_dict() for b in self.bubbles],
            "remainder_mass": self.remainder.total_mass(),
            "vanishing_score": self.vanishing_score,
            "leakage": list(self.leakages),
            "capped": list(self.capped),
            "incomplete": self.incomplete,
            "params": {**self.params.as_dict(), "mass_scale": self.total_mass},
        }


@dataclass(frozen=True)
class TrichotomyVerdict(Record):
    kind: str  # "compactness" | "vanishing" | "dichotomy"
    witness: Bubble | None
    split_masses: tuple[float, float] | None
    total: float
    eps: float
    ref_radius: float


def _grow_window(f: ConcentrationProfile, center: float, ref_radius: float,
                 gap_delta: float, leak_threshold: float,
                 radius_cap: float = math.inf,
                 zones: Sequence[tuple[float, float]] = ()) -> tuple[float, float, bool]:
    """Grow the window from ref_radius in gap_delta steps until the annulus
    (R, R+gap_delta] carries at most leak_threshold mass and no heavy narrow
    strip is trapped against a previously removed zone (or the cap binds).

    The strips are (a, lo) and (hi, b) beside the grown window (lo, hi), from
    the nearest zone edge on each side; one at least one window diameter wide
    still admits an allowed center, so only narrower ones can be stranded by
    the separation constraint.  Each growth step reads the annulus's two
    windows and those strips in one ``window_masses`` call.

    Returns (inner, outer, capped).  A cap exit lands the window flush
    against the capping zone, so the strip on that side is gone, but mass
    the growth would have captured can then land in the leakage annulus;
    ``capped`` records that the leak guarantee was forfeited this way.
    """
    r = ref_radius
    while r + gap_delta <= radius_cap:
        check_step("gap_delta", gap_delta, "radius", r)  # else the window never grows
        lo, hi = center - r - gap_delta, center + r + gap_delta
        a = max((z_hi for _, z_hi in zones if z_hi <= lo), default=-math.inf)
        b = min((z_lo for z_lo, _ in zones if z_lo >= hi), default=math.inf)
        windows = [(lo, hi), (center - r, center + r)]
        windows += [(x, y) for x, y in ((a, lo), (hi, b)) if 0 < y - x < 2 * ref_radius]
        outer, inner, *strips = f.window_masses(list(zip(*windows))).tolist()
        if outer - inner <= leak_threshold and not any(m > leak_threshold for m in strips):
            return r, r + gap_delta, False
        r += gap_delta
    return r, r + gap_delta, True


def _next_bubble(f: ConcentrationProfile, center: float, found, gap_delta: float,
                 ref_radius: float, threshold: float) -> tuple[Bubble, float, bool]:
    """One greedy step at ``center``, ``(bubble, leakage, capped)``: the window grown
    on ``f`` beside the zones of the steps ``found`` so far and capped by their
    separation; the bubble holds the inner window's mass, the leakage the rest."""
    cap = min((abs(center - b.center) - b.inner_radius - gap_delta for b, _, _ in found),
              default=math.inf)
    zones = [(b.center - b.outer_radius, b.center + b.outer_radius) for b, _, _ in found]
    inner, outer, capped = _grow_window(f, center, ref_radius, gap_delta, threshold,
                                        radius_cap=cap, zones=zones)
    captured, removed = f.window_masses([(center - inner, center - outer),
                                         (center + inner, center + outer)]).tolist()
    leakage = removed - captured
    return Bubble(center, inner, outer, captured), leakage, capped


def classify(f: ConcentrationProfile, eps: float, ref_radius: float,
             gap_delta: float = 2.0) -> TrichotomyVerdict:
    """Trichotomy at scale (eps, ref_radius): compactness, vanishing or dichotomy.

    The empty profile is vanishing by convention.  The witness is the first
    bubble :func:`extract_bubbles` takes, with the arguments checked as there;
    in the dichotomy case the first mass is the witness's.
    """
    ExtractionParams(eps, gap_delta, ref_radius)
    total = f.total_mass()
    m_star, center = levy_concentration(f, ref_radius)
    if m_star <= eps * total:
        return TrichotomyVerdict("vanishing", None, None, total, eps, ref_radius)
    witness = _next_bubble(f, center, (), gap_delta, ref_radius, eps * total)[0]
    if m_star >= (1 - eps) * total:
        return TrichotomyVerdict("compactness", witness, None, total, eps, ref_radius)
    split = (witness.mass, total - witness.mass)
    return TrichotomyVerdict("dichotomy", witness, split, total, eps, ref_radius)


def extract_bubbles(f: ConcentrationProfile, eps: float, gap_delta: float,
                    ref_radius: float, max_bubbles: int = 64) -> BubbleDecomposition:
    """Greedy multi-bubble decomposition of a profile.

    Repeatedly take the largest admissible window at ref_radius, grow it
    until the surrounding annulus leaks at most eps * total, record the
    bubble, zero the enlarged window, and stop once no window exceeds
    eps * total (weak vanishing).  Deterministic given the parameters;
    ties in the center search break toward the smallest center.  Bubbles are
    reported in descending mass order.

    Every uncapped bubble leaks at most eps * total.  When the
    separation cap stops growth early (a cluster squeezed between two
    windows too tightly for a third), the squeezed mass is zeroed as that
    bubble's leakage and the bubble is flagged in ``capped``.
    """
    return _extract_ladder(f, [eps], gap_delta, ref_radius, max_bubbles)[0]


def _extract_ladder(f: ConcentrationProfile, eps_ladder: Sequence[float], gap_delta: float,
                    ref_radius: float, max_bubbles: int = 64) -> list[BubbleDecomposition]:
    """:func:`extract_bubbles` at every eps of the ladder, in lockstep from one
    Lévy scan of ``f``.  At each scan state every rung that still runs takes its
    own greedy step; rungs whose steps are equal share one removal and one
    ``best()``, since equal steps on one state leave equal states.  Each group
    but the last steps on a copy of the scan, whose removals leave the scan as
    it is.  A rung that stops keeps the scan's profile as its remainder; each
    distinct remainder is scored once, and ``f`` itself by the first ``best()``."""
    params = [ExtractionParams(eps, gap_delta, ref_radius) for eps in eps_ladder]
    if max_bubbles < 0:
        raise ValueError(f"max_bubbles must be at least 0, got {max_bubbles}")
    total = f.total_mass()
    scan = _LevyScan(f, ref_radius)
    first = scan.best()
    ends = [None] * len(params)  # per rung: (steps, remainder, last best mass)
    states = [(scan, first, [], range(len(params)))]  # (scan, its best(), steps, rungs)
    while states:
        scan, (mass, center), found, rungs = states.pop()
        groups: dict[tuple[Bubble, float, bool], list[int]] = {}  # step -> its rungs
        for j in rungs:
            threshold = params[j].eps * total
            if total > 0 and mass > threshold and len(found) < max_bubbles:
                step = _next_bubble(scan.f, center, found, gap_delta, ref_radius, threshold)
                groups.setdefault(step, []).append(j)
            else:
                ends[j] = found, scan.f, mass
        for k, (step, group) in enumerate(groups.items()):
            # the last group steps on the scan itself: nothing reads it afterwards
            moved = scan if k == len(groups) - 1 else copy.copy(scan)
            b = step[0]
            reach = b.inner_radius + ref_radius + gap_delta
            moved.remove(center - b.outer_radius, center + b.outer_radius,
                         center - reach, center + reach)
            states.append((moved, moved.best(), found + [step], group))
    scan = moved = None  # the scans go before the remainders' are built
    scores = {id(f): first[0]}
    out = []
    for rung, (found, current, mass) in zip(params, ends):
        if id(current) not in scores:
            scores[id(current)] = levy_concentration(current, ref_radius)[0]
        order = sorted(range(len(found)), key=lambda i: (-found[i][0].mass, found[i][0].center))
        out.append(BubbleDecomposition(
            bubbles=tuple(found[i][0] for i in order),
            remainder=current,
            vanishing_score=scores[id(current)],
            params=rung,
            total_mass=total,
            leakages=tuple(found[i][1] for i in order),
            capped=tuple(found[i][2] for i in order),
            # stopped by max_bubbles
            incomplete=len(found) >= max_bubbles and mass > rung.eps * total,
        ))
    return out


@dataclass(frozen=True)
class BubbleTracks(Record):
    """Cross-sequence bubble matching by mass rank; pairs of ranks i < j are keyed "i-j"."""

    counts: tuple[int, ...]
    centers: tuple[tuple[float, ...], ...]  # [rank][n]
    mass_series: tuple[tuple[float, ...], ...]  # [rank][n]
    separations: dict[str, list[float]]
    trends: dict[str, str]


def track_sequence(decomps: Sequence[BubbleDecomposition]) -> BubbleTracks:
    """Match bubbles across a sequence by mass rank and report separations.

    All decompositions must share (eps, gap_delta, ref_radius).  Pair
    separation series get an "increasing" trend only when strictly monotone.
    """
    if not decomps:
        raise ValueError("need at least one decomposition")
    p0 = decomps[0].params
    for d in decomps[1:]:
        if d.params != p0:
            raise ValueError("decompositions were produced with different parameters")
    counts = tuple(len(d.bubbles) for d in decomps)
    j = min(counts)
    centers = tuple(tuple(d.bubbles[r].center for d in decomps) for r in range(j))
    masses = tuple(tuple(d.bubbles[r].mass for d in decomps) for r in range(j))
    seps: dict[str, list[float]] = {}
    trends: dict[str, str] = {}
    for a in range(j):
        for b in range(a + 1, j):
            series = [abs(x - y) for x, y in zip(centers[a], centers[b])]
            seps[f"{a}-{b}"] = series
            rising = all(t > s for s, t in zip(series, series[1:]))
            trends[f"{a}-{b}"] = "increasing" if rising else "bounded"
    return BubbleTracks(counts, centers, masses, seps, trends)
