"""Outside-in span tracer for crackgrid.

Spans are recorded by rebinding the module-level names through which
``crackgrid.cli`` and ``crackgrid.analysis`` call the other layers (plus the
one partition method the CLI calls for its label raster), and the originals
are put back when the traced pass ends.  No file of the program changes.

A span record is ``{"run_id", "span_id", "parent", "name", "start", "end",
"counts"}`` with times in seconds from the tracer's epoch; one run id covers
one CLI invocation.  Spans stay in memory and are written as JSON lines when
the benchmark run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import defaultdict


def _bubble_count(dec):
    return {"bubbles": len(dec.bubbles)}


def _breakpoints(f):
    return {"breakpoints": int(f.breakpoints.size)}


def _labels(part):
    return {"labels": len(part.stats)}


def _alpha(cert):
    return {"alpha": cert.alpha}


def _grid_size(u):
    return {"cells": u.geom.num_cells, "cracks": len(u.cracks)}


# (attribute, span name, counts taken from the result) per calling module.
# A public name is rebound in every module that calls it, so a call made from
# either the CLI or the sequence report lands in the same span name.
_CLI_TARGETS = [
    ("grid_function_from_dict", "grid.from_dict", _grid_size),
    ("grid_function_to_dict", "grid.to_dict", None),
    ("concentration_profile", "profile.concentration", _breakpoints),
    ("extract_bubbles", "bubbles.extract", _bubble_count),
    ("select_radii", "partition.select_radii", None),
    ("build_partition", "partition.build", _labels),
    ("renormalize", "partition.renormalize", None),
    ("perturbed_translation", "partition.perturbed", None),
    ("compactness_report", "analysis.compactness", None),
    ("lsc_report", "analysis.lsc", None),
    ("vanishing_certificate", "analysis.certificate", _alpha),
]
_ANALYSIS_TARGETS = [
    ("concentration_profile", "profile.concentration", _breakpoints),
    ("levy_concentration", "profile.levy", None),
    ("extract_bubbles", "bubbles.extract", _bubble_count),
    ("track_sequence", "bubbles.track", None),
    ("select_radii", "partition.select_radii", None),
    ("build_partition", "partition.build", _labels),
    ("renormalize", "partition.renormalize", None),
    ("vanishing_region", "partition.vanishing_region", None),
    ("vanishing_certificate", "analysis.certificate", _alpha),
    ("lsc_report", "analysis.lsc", None),
    ("gradient_pairings", "analysis.pairings", None),
    ("energy", "grid.energy", None),
    ("kyfan_distance", "grid.kyfan", None),
]


class Tracer:
    """In-memory spans for one benchmark run."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._profile_inputs: list[tuple] = []
        self._slices = 0
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"run_id": self.run_id, "span_id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter() - self.epoch,
                "end": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["span_id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.epoch
        self._stack.pop()

    def call(self, run_id: str, name: str, fn, *args):
        """Call ``fn(*args)`` inside a root span carrying ``run_id``."""
        self.run_id = run_id
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span["counts"] = counts(result)
            return result
        return traced

    def _wrap_profile(self, fn):
        traced = self._wrap(fn, "profile.concentration", _breakpoints)

        @functools.wraps(fn)
        def keep_inputs(u, domain=None, window=1.0):
            # inputs are immutable; they are hashed after the pass, untimed
            self._profile_inputs.append((u, domain, window))
            return traced(u, domain=domain, window=window)
        return keep_inputs

    def _wrap_slice(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._slices += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced names; :meth:`restore` undoes it."""
        from crackgrid import analysis, cli, partition

        def rebind(obj, attr, new):
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

        for module, targets in ((cli, _CLI_TARGETS), (analysis, _ANALYSIS_TARGETS)):
            for attr, name, counts in targets:
                fn = getattr(module, attr)
                rebind(module, attr, self._wrap_profile(fn) if name == "profile.concentration"
                       else self._wrap(fn, name, counts))
        rebind(analysis, "slice_line", self._wrap_slice(analysis.slice_line))
        rebind(partition.DomainPartition, "to_csv",
               self._wrap(partition.DomainPartition.to_csv, "partition.to_csv", None))

    def restore(self) -> None:
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    # -- aggregation --------------------------------------------------------

    def take_pass(self, first_span: int) -> dict:
        """Per-layer totals of the spans recorded since ``first_span``.

        Self time is a span's duration minus its direct children's.  Clears
        the per-pass counters.
        """
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        self_s = defaultdict(float)
        counts = defaultdict(float)
        calls = defaultdict(int)
        for s in spans:
            self_s[s["name"]] += s["end"] - s["start"] - child[s["span_id"]]
            calls[s["name"]] += 1
            for key, value in s["counts"].items():
                counts[f"{s['name']}.{key}"] += value
        distinct = {_profile_key(*inputs) for inputs in self._profile_inputs}
        out = {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts),
               "profile_distinct": len(distinct), "slice_rows": self._slices}
        self._profile_inputs.clear()
        self._slices = 0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def _profile_key(u, domain, window) -> str:
    h = hashlib.blake2b(digest_size=16)
    # a frozenset caches its hash, so repeated keys of one function are cheap
    h.update(repr((u.geom, float(window), hash(u.cracks))).encode())
    h.update(u.values.tobytes())
    if domain is not None:
        h.update(domain.mask.tobytes())
    return h.hexdigest()
