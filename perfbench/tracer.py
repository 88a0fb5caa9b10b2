"""Span recorder that wraps ``cvuq``'s public entry points from outside.

Wrappers are installed only for a traced pass and removed after it; timed
passes run the unmodified program.  A function imported into several modules
(``fit``, ``interval``, ``gauge``, ``stream``, ...) is rebound in every
``cvuq`` module that holds it, and methods are patched on their class, so no
call goes uncounted.  An entry point that no longer exists is reported as
absent instead of failing the run.

Each span records name, start, end, parent span, thread and the rep (index
given to ``indexed_map``'s function) it belongs to.  Spans stay in memory and
are reduced to per-layer metrics after the pass.  A span's self time is its
duration minus the union of its children's intervals; ``rng.indexed_map``
and ``rng.rep`` spans are transparent, so the per-rep work written inside an
experiment counts as that experiment's own time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

FOLD_KINDS = ("ridge", "constant", "max_response", "neg_max_response")
EXPERIMENTS = ("coverage_distribution", "jk_vs_jkplus_gap", "length_compare",
               "gauge_convergence", "infinite_length_probe")
TRANSPARENT = frozenset({"rng.indexed_map", "rng.rep"})


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    rep: tuple | None
    counts: dict | None


class Recorder:
    """In-memory spans for one pass.  ``list.append`` and ``next`` on an
    ``itertools.count`` are single bytecode-level calls, so worker threads
    can record without a lock."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        return sid, name, parent, perf_counter()

    def close(self, token, counts: dict | None = None) -> None:
        end = perf_counter()
        sid, name, parent, start = token
        self._stack().pop()
        rep = getattr(self._tls, "rep", None)
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), rep, counts))

    @contextmanager
    def span(self, name: str):
        """Span around a block."""
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)


def _wrap(rec: Recorder, orig, name, counts=None):
    name_of = name if callable(name) else (lambda args: name)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        token = rec.open(name_of(args))
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            rec.close(token)
            raise
        rec.close(token, counts(args, result) if counts else None)
        return result

    return traced


def _wrap_indexed_map(rec: Recorder, orig):
    @functools.wraps(orig)
    def indexed_map(fn, count, threads=1):
        token = rec.open("rng.indexed_map")
        map_id = token[0]

        def rep(i):
            tls = rec._tls
            previous = getattr(tls, "rep", None)
            tls.rep = (map_id, i)
            rep_token = rec.open("rng.rep", parent=map_id)
            try:
                return fn(i)
            finally:
                rec.close(rep_token)
                tls.rep = previous

        try:
            result = orig(rep, count, threads)
        except BaseException:
            rec.close(token)
            raise
        rec.close(token, {"threads": threads, "count": count})
        return result

    return indexed_map


def _fold_kind(args) -> str:
    return "predictors.foldfits." + getattr(args[1], "kind", "callable")


# ("module:attribute[.method]", span name or name function, counts from (args, result))
TARGETS = (
    ("cvuq.data:DgpSpec.draw", "data.draw", lambda a, r: {"rows": len(r[0])}),
    ("cvuq.predictors:FoldFits.__init__", _fold_kind, lambda a, r: {"folds": a[0].partition.k}),
    ("cvuq.predictors:fit", "predictors.fit", None),
    ("cvuq.predictors:FoldFits.fold_predictions", "predictors.fold_predictions",
     lambda a, r: {"cells": int(r.size)}),
    ("cvuq.simlab:CoverageEngine.coverage", "simlab.coverage", None),
    *((f"cvuq.simlab:{e}", f"simlab.{e}", None) for e in EXPERIMENTS),
    ("cvuq.intervals:interval", "intervals.interval", None),
    ("cvuq.ecdf:weighted_ecdf", "ecdf.build", None),
    ("cvuq.ecdf:uniform_ecdf", "ecdf.build", None),
    ("cvuq.ecdf:fold_ecdf", "ecdf.build", None),
    ("cvuq.ecdf:quantile", "ecdf.quantile", None),
    # both one-sided sups take the union of F's jumps and G's shifted jumps
    ("cvuq.levy_gauge:gauge", "levy_gauge.gauge",
     lambda a, r: {"candidates": 2 * (a[0].jumps.size + a[1].jumps.size)}),
    ("cvuq.stability:variance_gap", "stability.variance_gap", None),
    ("cvuq.rng:stream", "rng.stream", None),
    ("cvuq.rng:indexed_map", None, None),
)


def _cvuq_modules():
    return [m for k, m in list(sys.modules.items()) if k == "cvuq" or k.startswith("cvuq.")]


@contextmanager
def installed(rec: Recorder):
    """Install every wrapper for the duration of the block; yields the sorted
    list of targets that do not exist in this version of ``cvuq``."""
    patches = []
    absent = []
    try:
        for target, name, counts in TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(target)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = None if owner is None else vars(owner).get(attr)
            if orig is None:
                absent.append(target)
                continue
            if name is None:
                wrapper = _wrap_indexed_map(rec, orig)
            else:
                wrapper = _wrap(rec, orig, name, counts)
            if outer:  # a method: patch the class
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for module in _cvuq_modules():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        patches.append((module, key, orig))
                        setattr(module, key, wrapper)
        yield sorted(absent)
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class PassStats:
    """Per-name reductions over the spans of one pass."""

    def __init__(self, spans: list[Span]):
        by_id = {s.id: s for s in spans}
        self._by_id = by_id
        self._by_name = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            self._by_name[s.name].append(s)
            if s.name in TRANSPARENT:
                continue
            parent = s.parent
            while parent is not None and parent in by_id and by_id[parent].name in TRANSPARENT:
                parent = by_id[parent].parent
            if parent is not None:
                children[parent].append((s.start, s.end))
        self._children = children

    def outermost(self, name: str) -> list[Span]:
        """Spans of ``name`` not nested in another span of the same name."""
        out = []
        for s in self._by_name.get(name, ()):
            parent = s.parent
            while parent is not None and parent in self._by_id and self._by_id[parent].name != name:
                parent = self._by_id[parent].parent
            if parent is None or parent not in self._by_id:
                out.append(s)
        return out

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self.outermost(name))

    def self_time(self, name: str) -> float:
        return sum(
            (s.end - s.start) - _union_length(self._children[s.id], s.start, s.end)
            for s in self.outermost(name)
        )

    def count(self, name: str, key: str) -> int:
        return sum((s.counts or {}).get(key, 0) for s in self.outermost(name))

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self._by_name.get(name, ())]


def _percentiles_ms(durations: list[float]) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    if len(durations) < 2:
        return durations[0] * 1e3, durations[0] * 1e3
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return statistics.median(durations) * 1e3, deciles[8] * 1e3


def layer_metrics(one: PassStats, two: PassStats, threads: int) -> dict[str, float]:
    """Per-layer metrics from the traced 1-thread and ``threads``-thread passes.

    Counts, busy and self times come from the 1-thread pass, where nothing
    interleaves.  ``rng.indexed_map.wall_s`` is the wall time of the
    multi-thread pass and ``busy_s`` the single-thread rep work, so
    ``efficiency`` is the share of ``threads`` cores the same work kept busy.
    """
    m: dict[str, float] = {
        "data.draw.calls": one.calls("data.draw"),
        "data.draw.busy_s": one.busy("data.draw"),
        "data.draw.rows": one.count("data.draw", "rows"),
    }
    for kind in FOLD_KINDS:
        name = f"predictors.foldfits.{kind}"
        m[f"{name}.calls"] = one.calls(name)
        m[f"{name}.busy_s"] = one.busy(name)
        m[f"{name}.folds"] = one.count(name, "folds")
    cells = one.count("predictors.fold_predictions", "cells")
    m.update({
        "predictors.fit.calls": one.calls("predictors.fit"),
        "predictors.fit.busy_s": one.busy("predictors.fit"),
        "predictors.fold_predictions.calls": one.calls("predictors.fold_predictions"),
        "predictors.fold_predictions.busy_s": one.busy("predictors.fold_predictions"),
        "predictors.fold_predictions.cells": cells,
        "predictors.fold_predictions.bytes_computed": 8 * cells,
        "simlab.coverage.calls": one.calls("simlab.coverage"),
        "simlab.coverage.self_s": one.self_time("simlab.coverage"),
    })
    for e in EXPERIMENTS:
        m[f"simlab.{e}.self_s"] = one.self_time(f"simlab.{e}")
    map_wall_1t = one.busy("rng.indexed_map")
    map_wall = two.busy("rng.indexed_map")
    rep_busy = sum(one.durations("rng.rep"))
    p50, p90 = _percentiles_ms(one.durations("rng.rep"))
    m.update({
        "intervals.interval.calls": one.calls("intervals.interval"),
        "intervals.interval.busy_s": one.busy("intervals.interval"),
        "ecdf.build.calls": one.calls("ecdf.build"),
        "ecdf.build.busy_s": one.busy("ecdf.build"),
        "ecdf.quantile.calls": one.calls("ecdf.quantile"),
        "ecdf.quantile.busy_s": one.busy("ecdf.quantile"),
        "levy_gauge.gauge.calls": one.calls("levy_gauge.gauge"),
        "levy_gauge.gauge.busy_s": one.busy("levy_gauge.gauge"),
        "levy_gauge.gauge.candidates": one.count("levy_gauge.gauge", "candidates"),
        "stability.variance_gap.self_s": one.self_time("stability.variance_gap"),
        "rng.stream.calls": one.calls("rng.stream"),
        "rng.stream.busy_s": one.busy("rng.stream"),
        "rng.indexed_map.calls": one.calls("rng.indexed_map"),
        "rng.indexed_map.wall_s": map_wall,
        "rng.indexed_map.busy_s": rep_busy,
        "rng.indexed_map.efficiency": rep_busy / (threads * map_wall) if map_wall else 0.0,
        "rng.indexed_map.speedup_2t": map_wall_1t / map_wall if map_wall else 0.0,
        "rng.rep.p50_ms": p50,
        "rng.rep.p90_ms": p90,
        "rng.rep.samples": len(one.durations("rng.rep")),
        "cli.main.self_s": one.self_time("cli.main"),
        "cli.stdout_bytes": one.count("cli.main", "stdout_bytes"),
    })
    return m


# Every per-layer metric a traced run prints, with its unit.  Counts marked
# "computed" are derived from arguments and array shapes, so they repeat
# exactly for a seed.
PER_LAYER = {
    "data.draw.calls": "count", "data.draw.busy_s": "s", "data.draw.rows": "count",
    **{f"predictors.foldfits.{k}.{stat}": unit
       for k in FOLD_KINDS for stat, unit in (("calls", "count"), ("busy_s", "s"), ("folds", "count"))},
    "predictors.fit.calls": "count", "predictors.fit.busy_s": "s",
    "predictors.fold_predictions.calls": "count", "predictors.fold_predictions.busy_s": "s",
    "predictors.fold_predictions.cells": "count", "predictors.fold_predictions.bytes_computed": "B",
    "simlab.coverage.calls": "count", "simlab.coverage.self_s": "s",
    "simlab.kernel.atoms": "count", "simlab.kernel.atoms_per_rep": "count",
    "simlab.kernel.bytes_computed": "B",
    **{f"simlab.{e}.self_s": "s" for e in EXPERIMENTS},
    "intervals.interval.calls": "count", "intervals.interval.busy_s": "s",
    "ecdf.build.calls": "count", "ecdf.build.busy_s": "s",
    "ecdf.quantile.calls": "count", "ecdf.quantile.busy_s": "s",
    "levy_gauge.gauge.calls": "count", "levy_gauge.gauge.busy_s": "s",
    "levy_gauge.gauge.candidates": "count",
    "stability.variance_gap.self_s": "s",
    "rng.stream.calls": "count", "rng.stream.busy_s": "s",
    "rng.indexed_map.calls": "count", "rng.indexed_map.wall_s": "s", "rng.indexed_map.busy_s": "s",
    "rng.indexed_map.efficiency": "ratio", "rng.indexed_map.speedup_2t": "ratio",
    "rng.rep.p50_ms": "ms", "rng.rep.p90_ms": "ms", "rng.rep.samples": "count",
    "cli.main.self_s": "s", "cli.stdout_bytes": "B", "cli.import_s": "s",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count", "trace.layers_missing": "count", "trace.targets_absent": "count",
}

COMPUTED = (
    "data.draw.rows", *(f"predictors.foldfits.{k}.folds" for k in FOLD_KINDS),
    "predictors.fold_predictions.cells", "predictors.fold_predictions.bytes_computed",
    "simlab.kernel.atoms", "simlab.kernel.atoms_per_rep", "simlab.kernel.bytes_computed",
    "levy_gauge.gauge.candidates",
)

# Which end-to-end metric each layer's metrics should move, and on which
# workload they show.
LAYERS = {
    "data": {"metrics": ["data.draw.*"], "moves": ["reps_per_s"],
             "workloads": {"coverage_cv": "about 2/3 of a p=50 rep", "probes_loo": "small"}},
    "predictors.foldfits": {"metrics": ["predictors.foldfits.<kind>.*", "predictors.fit.*"],
                            "moves": ["reps_per_s", "reps_per_s_1t"],
                            "workloads": {"coverage_cv": "ridge", "probes_loo": "ridge, constant, max",
                                          "equiv_p50": "about 6%"}},
    "predictors.fold_predictions": {"metrics": ["predictors.fold_predictions.*"],
                                    "moves": ["reps_per_s", "peak_rss_mb"],
                                    "workloads": {"equiv_p50": "fold-prediction matrix"}},
    "simlab": {"metrics": ["simlab.coverage.*", "simlab.kernel.*", "simlab.<experiment>.self_s"],
               "moves": ["reps_per_s", "peak_rss_mb"],
               "workloads": {"equiv_p50": "cv+ atom gather and sort", "coverage_cv": "close to 0"}},
    "intervals": {"metrics": ["intervals.interval.*"], "moves": ["reps_per_s_1t"],
                  "workloads": {"probes_loo": "scalar interval path"}},
    "ecdf": {"metrics": ["ecdf.build.*", "ecdf.quantile.*"], "moves": ["reps_per_s_1t"],
             "workloads": {"probes_loo": "scalar ecdf path"}},
    "levy_gauge": {"metrics": ["levy_gauge.gauge.*"], "moves": ["reps_per_s_1t"],
                   "workloads": {"probes_loo": "sim gauge"}},
    "stability": {"metrics": ["stability.variance_gap.self_s"], "moves": ["reps_per_s_1t"],
                  "workloads": {"probes_loo": "vargap"}},
    "rng": {"metrics": ["rng.stream.*", "rng.indexed_map.*", "rng.rep.*"],
            "moves": ["reps_per_s relative to reps_per_s_1t"],
            "workloads": {"probes_loo": "efficiency below 0.5", "equiv_p50": "about 1.7x"}},
    "cli": {"metrics": ["cli.main.self_s", "cli.stdout_bytes", "cli.import_s"], "moves": ["setup_s"],
            "workloads": {"equiv_p50": "all", "coverage_cv": "all", "probes_loo": "all"}},
}
