"""In-memory span tracer and the entry-point instrumentation of a traced run.

Spans are recorded from outside the program: :func:`instrument` replaces
each public entry point listed in :data:`ENTRY_POINTS` with a timing
wrapper for the duration of one ``with`` block and restores the originals
afterwards.  A wrapper replaces every module attribute that resolves to
the original object, so a function imported by name into another module
(``cluster_local_recover`` in ``repro.robustness.controller``, say) is
wrapped where the caller actually looks it up.

A span records its name, start, end and parent (the enclosing span,
tracked with :mod:`contextvars`).  Self time is a span's duration minus
the time covered by its direct children, so the self times of all spans
under one root add up to the root's wall time exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter_ns

#: Layers in report order; a span's layer is its name up to the first dot.
LAYERS = ("graph", "flow", "core", "robustness", "serving", "adaptive")
#: Root span around one workload body: its self time is the unattributed rest.
ROOT = "bench.body"
#: Span around the decomposed solve's process-pool map (worker wall time).
POOL = "workers.pool"
#: Modules whose by-name imports of an entry point are replaced: the
#: package and the benchmark's own workload module.
SCANNED = ("repro", "workloads")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index]`` per span, in open order.
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )

    def open(self, name: str) -> tuple[int, contextvars.Token]:
        idx = len(self.spans)
        self.spans.append([name, _now(), 0, self._current.get()])
        return idx, self._current.set(idx)

    def close(self, handle: tuple[int, contextvars.Token]) -> None:
        idx, token = handle
        self.spans[idx][2] = _now()
        self._current.reset(token)

    @contextmanager
    def span(self, name: str):
        handle = self.open(name)
        try:
            yield
        finally:
            self.close(handle)

    def current_name(self) -> str | None:
        idx = self._current.get()
        return self.spans[idx][0] if idx >= 0 else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for k, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start - child[k]) / 1e9
        return dict(out)

    def root_seconds(self) -> float:
        return sum(
            (end - start) / 1e9
            for name, start, end, _parent in self.spans
            if name == ROOT
        )

    def dump(self) -> list[dict]:
        """Spans as plain records (times in ns relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0
        return [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
            for name, start, end, parent in self.spans
        ]


# ----------------------------------------------------------------------
# Counter hooks: (tracer, args, kwargs, result, before) -> None
# ----------------------------------------------------------------------


def _dijkstra_rows(tr, args, kwargs, result, _before):
    tr.count("graph.dijkstra_rows", np.atleast_2d(result).shape[0])


def _lazy_repair(tr, args, _kwargs, result, _before):
    tr.count("graph.rows_memoized", args[0].materialized)
    tr.count("graph.rows_carried", result.materialized)


def _rows_so_far(tr, _args, _kwargs):
    return tr.counters["graph.dijkstra_rows"]


def _dense_repair(tr, args, kwargs, result, rows_before):
    parent = args[0].matrix
    valid_parent = int(np.count_nonzero(~np.isnan(parent).all(axis=1))) if parent.size else 0
    sources = kwargs.get("sources")
    valid_out = len(result.nodes) if sources is None else len(
        {v for v in sources if v in result.index}
    )
    recomputed = tr.counters["graph.dijkstra_rows"] - rows_before
    tr.count("graph.rows_memoized", valid_parent)
    tr.count("graph.rows_carried", max(0, valid_out - recomputed))


def _lp_solved(tr, _args, _kwargs, result, _before):
    tr.count("flow.lp_solves")
    if result.report is not None:
        tr.count("flow.lp_attempts", result.report.num_attempts)


def _nnz(lp) -> int:
    return sum(a.nnz for a in (lp.a_ub, lp.a_eq) if a is not None)


def _builder_materialized(tr, _args, _kwargs, result, _before):
    # Count only the arrays a solve hands to HiGHS, not freeze() snapshots.
    if tr.current_name() == "flow.lp_solve":
        tr.count("flow.lp_nnz", _nnz(result))


def _template_solved(tr, args, kwargs, result, before):
    _lp_solved(tr, args, kwargs, result, before)
    tr.count("flow.lp_nnz", _nnz(args[0].materialized()))


def _called(counter):
    def hook(tr, _args, _kwargs, _result, _before):
        tr.count(counter)

    return hook


def _clusters(tr, args, kwargs, _result, _before):
    partition = args[1] if len(args) > 1 else kwargs["partition"]
    ids = args[3] if len(args) > 3 else kwargs["cluster_ids"]
    tr.count("core.clusters_resolved", len(ids))
    tr.count("core.resolve_calls")
    tr.count("core.touched_sum", len(ids) / max(1, partition.n_clusters))


def _timeline(tr, _args, _kwargs, report, _before):
    tr.count("robustness.reopts", report.reoptimizations)
    tr.count("robustness.deferrals", report.deferrals)
    tr.count("robustness.flaps_absorbed", report.reroutes_avoided)


def _streamed(tr, _args, _kwargs, report, _before):
    tr.count("serving.segments", len(report.segments))


def _generated(tr, _args, _kwargs, batch, _before):
    tr.count("serving.requests", len(batch))


def _engine_step(tr, _args, _kwargs, metrics, _before):
    tr.count("adaptive.requests", len(metrics.costs))
    tr.count("adaptive.edge_hits", int(metrics.edge_hits.sum()))


#: ``(module, attribute, span name or None, after hook, before hook)``.
#: ``attribute`` may be ``Class.method``.  A ``None`` span name makes a
#: counter-only wrapper that adds no span (and so splits no self time).
ENTRY_POINTS = (
    ("scipy.sparse.csgraph", "dijkstra", "graph.dijkstra", _dijkstra_rows, None),
    ("repro.graph.backends", "LazyRowBackend.repair", "graph.repair", _lazy_repair, None),
    (
        "repro.graph.distance_matrix", "repair_distance_matrix", "graph.repair",
        _dense_repair, _rows_so_far,
    ),
    ("repro.flow.lp", "LPBuilder.solve", "flow.lp_solve", _lp_solved, None),
    ("repro.flow.lp", "LPTemplate.solve", "flow.lp_solve", _template_solved, None),
    ("repro.flow.lp", "LPBuilder.materialize", None, _builder_materialized, None),
    ("repro.flow.mincost", "min_cost_multicommodity_flow", "flow.mcf", None, None),
    ("repro.flow.decomposition", "decompose_single_source_flow", "flow.mcf", None, None),
    ("repro.core.algorithm1", "algorithm1", "core.alg1", _called("core.alg1_calls"), None),
    ("repro.core.submodular", "local_search_swap", "core.polish", None, None),
    ("repro.core.pipage", "pipage_round", "core.pipage", None, None),
    (
        "repro.core.rnr", "route_to_nearest_replica", "core.rnr",
        _called("core.rnr_calls"), None,
    ),
    ("repro.core.decomposed", "cluster_subproblem", "core.cluster_subproblem", None, None),
    ("repro.core.decomposed", "resolve_clusters", "core.resolve_clusters", _clusters, None),
    ("repro.core.decomposed", "decomposed_solve", "core.decomposed_solve", None, None),
    ("repro.core.routing", "mmufp_routing", "core.mmufp", None, None),
    ("repro.core.placement", "optimize_placement", "core.placement", None, None),
    ("repro.core.alternating", "alternating_optimization", "core.alternating", None, None),
    ("repro.robustness.faults", "apply_failure", "robustness.apply_failure", None, None),
    (
        "repro.robustness.degraded", "degraded_context",
        "robustness.degraded_context", None, None,
    ),
    ("repro.robustness.recovery", "recover", "robustness.recover", None, None),
    ("repro.robustness.recovery", "cluster_local_recover", "robustness.recover", None, None),
    (
        "repro.robustness.controller", "TimelineController.run",
        "robustness.controller", _timeline, None,
    ),
    (
        "repro.robustness.streaming", "replay_timeline_streaming",
        "robustness.streaming", _streamed, None,
    ),
    ("repro.serving.tables", "compile_tables", "serving.compile", None, None),
    ("repro.serving.degraded", "degrade_tables", "serving.degrade", None, None),
    ("repro.serving.engine", "generate_requests", "serving.generate", _generated, None),
    ("repro.serving.engine", "serve_batch", "serving.serve_batch", None, None),
    (
        "repro.adaptive.strategies", "ReactiveStrategyEngine.step",
        "adaptive.step", _engine_step, None,
    ),
)


def _wrap(tracer: Tracer, fn, name, after, before):
    if name is None:

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            pre = before(tracer, args, kwargs) if before else None
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result, pre)
            return result

        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        pre = before(tracer, args, kwargs) if before else None
        handle = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(handle)
        if after is not None:
            after(tracer, args, kwargs, result, pre)
        return result

    return timed


def _pool_class(tracer: Tracer, base):
    """``base`` with ``map`` drained inside one span (the workers' wall time)."""

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            with tracer.span(POOL):
                return iter(list(super().map(fn, *iterables, **kwargs)))

    return TracedPool


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every entry point for the duration of the block, then restore."""
    restore: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for module_name, attr, name, after, before in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                replace(cls, method, _wrap(tracer, original, name, after, before))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(tracer, original, name, after, before)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod is not module and not mod_name.startswith(SCANNED):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, key, wrapper)
        decomposed = importlib.import_module("repro.core.decomposed")
        replace(
            decomposed,
            "ProcessPoolExecutor",
            _pool_class(tracer, decomposed.ProcessPoolExecutor),
        )
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer self times and counters, averaged over traced iterations."""
    per = max(1, iterations)
    selfs = tracer.self_seconds()
    c = tracer.counters
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, s in selfs.items() if name.split(".")[0] == layer
        ) / per

    def t(name):
        return selfs.get(name, 0.0) / per

    for name in {entry[2] for entry in ENTRY_POINTS if entry[2]}:
        out[f"{name}_s"] = t(name)
    for name in (
        "graph.dijkstra_rows", "flow.lp_solves", "flow.lp_attempts",
        "flow.lp_nnz", "core.alg1_calls", "core.rnr_calls",
        "core.clusters_resolved", "robustness.reopts",
        "robustness.deferrals", "robustness.flaps_absorbed",
        "serving.segments", "serving.requests",
    ):
        out[name] = c.get(name, 0.0) / per
    memo = c.get("graph.rows_memoized", 0.0)
    out["graph.rows_carried_frac"] = c.get("graph.rows_carried", 0.0) / memo if memo else 0.0
    calls = c.get("core.resolve_calls", 0.0)
    out["core.touched_frac"] = c.get("core.touched_sum", 0.0) / calls if calls else 0.0
    reqs = c.get("adaptive.requests", 0.0)
    out["adaptive.edge_hit_ratio"] = c.get("adaptive.edge_hits", 0.0) / reqs if reqs else 0.0
    body = tracer.root_seconds() / per
    out["trace.body_s"] = body
    out["trace.worker_s"] = t(POOL)
    out["trace.unattributed_s"] = t(ROOT)
    return out
