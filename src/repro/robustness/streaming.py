"""Timeline-driven segmented streaming replay (failures under load).

:func:`replay_timeline_streaming` couples two existing engines:

- the **analytic** side runs the ordinary
  :class:`~repro.robustness.controller.TimelineController` replay —
  exact piecewise-constant integration, detection delays, flap backoff,
  re-optimizations — and an observer records the controller's *installed*
  state (its compiled tables and their
  :class:`~repro.serving.degraded.TableDegradation`) at every boundary
  where that state changes;
- the **streaming** side splits the request stream at those boundaries
  (plus the breakpoints of an optional non-stationary
  :class:`~repro.workload.nonstationary.WorkloadRegime`) and replays
  each segment through the vectorized serving engine against tables
  degraded *in place* by :func:`~repro.serving.degraded.degrade_tables`
  — no recompilation between failure events of the same installed
  routing.

Request accounting matches :func:`repro.serving.engine.replay` exactly:
Poisson counts per (type, segment), uniform order-statistic timestamps,
one spawned :class:`numpy.random.SeedSequence` stream per shard
(materialized up front, consumed shard-major across segments in time
order), and the same ``serve_batch`` alias-table dispatch.  The
controller computes its rates with
:func:`~repro.serving.degraded.delivered_rates` on the same tables and
mask, so the expected served / cost rates of every segment equal the
controller's instantaneous rates bit for bit, and the time-averaged
streamed cost is an unbiased estimator of the analytic ``cost_integral``
— the statistical-parity gate in the test suite and
``benchmarks/bench_serving_degraded.py`` pins this.

Reactive strategies (:class:`~repro.adaptive.strategies.
ReactiveStrategyEngine`) can ride the same stream: each segment's
arrivals are fed in time order with the engine's cache state marked down
(:meth:`~repro.adaptive.state.CacheArrayState.set_down`) for the
segment's failed nodes — dead caches are wiped on failure and skipped
while down, and come back empty.
"""

from __future__ import annotations

import bisect
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, Routing
from repro.exceptions import InvalidProblemError
from repro.robustness.controller import (
    RecoveryPolicy,
    TimelineController,
    TimelineReport,
)
from repro.robustness.timeline import FailureEvent, FailureTimeline
from repro.serving.degraded import degrade_tables
from repro.serving.engine import (
    ServingConfig,
    ShardAccumulator,
    _empty_accumulator,
    generate_requests,
    serve_batch,
    shard_seed_sequences,
)
from repro.serving.tables import RoutingTables

__all__ = [
    "StreamSegment",
    "StreamingTimelineReport",
    "replay_timeline_streaming",
]


# ----------------------------------------------------------------------
# Boundary capture
# ----------------------------------------------------------------------


def _capture_observer(entries: list, chained):
    """Observer recording the installed state at init/event/action phases."""

    def observe(phase, t, ctl, detail):
        if phase in ("init", "event", "action"):
            if phase == "event":
                kind = "fail" if isinstance(detail, FailureEvent) else "repair"
            else:
                kind = phase
            entries.append((float(t), kind, (ctl.tables, ctl.degradation)))
        if chained is not None:
            chained(phase, t, ctl, detail)

    return observe


def _coalesce(entries: list) -> list:
    """Merge same-time snapshots: the last state wins, kinds union up.

    The controller's agenda is time-ordered, so entries arrive sorted;
    a batch of events/actions at one instant collapses into a single
    boundary carrying the state after the whole batch.
    """
    out: list[tuple[float, tuple[str, ...], tuple]] = []
    for t, kind, state in entries:
        if out and out[-1][0] == t:
            prev = out[-1]
            out[-1] = (t, prev[1] + (kind,), state)
        else:
            out.append((t, (kind,), state))
    return out


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------


@dataclass
class StreamSegment:
    """One constant-state slice of the segmented replay."""

    index: int
    start: float
    end: float
    #: What opened this segment: ``init`` / ``fail`` / ``repair`` /
    #: ``action`` (re-optimization installed) / ``workload`` (regime
    #: breakpoint with unchanged network state) — possibly several.
    kinds: tuple[str, ...]
    #: Degraded (and regime-scaled) serving tables of this segment.
    tables: RoutingTables
    down_nodes: frozenset = frozenset()
    down_links: frozenset = frozenset()
    #: Analytic rates of this segment's tables (per unit time, unscaled).
    offered_rate: float = 0.0
    served_rate: float = 0.0
    cost_rate: float = 0.0
    #: Merged request-level aggregates (all shards, this segment).
    accumulator: ShardAccumulator | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def generated(self) -> int:
        acc = self.accumulator
        return int(acc.generated.sum()) if acc is not None else 0

    @property
    def served(self) -> int:
        acc = self.accumulator
        return int(acc.served.sum()) if acc is not None else 0

    @property
    def dropped(self) -> int:
        return self.generated - self.served


def _build_segments(
    entries: list,
    horizon: float,
    workload,
) -> list[StreamSegment]:
    boundaries = _coalesce(entries)
    if not boundaries or boundaries[0][0] != 0.0:
        raise InvalidProblemError(
            "controller produced no t=0 init snapshot"
        )  # pragma: no cover - init always fires
    if workload is not None:
        known = [b[0] for b in boundaries]
        extra = sorted(
            {
                float(t)
                for t in workload.breakpoints(horizon)
                if 0.0 < t < horizon
            }
            - set(known)
        )
        for t in extra:
            # The network state at a pure workload breakpoint is the one
            # installed at the latest controller boundary before it.
            i = bisect.bisect_right(known, t) - 1
            boundaries.append((t, ("workload",), boundaries[i][2]))
        boundaries.sort(key=lambda b: b[0])

    segments: list[StreamSegment] = []
    for i, (t, kinds, (tables, degradation)) in enumerate(boundaries):
        end = boundaries[i + 1][0] if i + 1 < len(boundaries) else horizon
        if end <= t:
            continue  # zero-width boundary batch (coalesced already)
        tabs = degrade_tables(tables, degradation)
        if workload is not None:
            tabs = workload.scale(tabs, t)
        segments.append(
            StreamSegment(
                index=len(segments),
                start=t,
                end=end,
                kinds=kinds,
                tables=tabs,
                down_nodes=degradation.down_nodes,
                down_links=degradation.down_links,
                offered_rate=tabs.total_rate,
                served_rate=tabs.expected_served_rate(),
                cost_rate=tabs.expected_cost_rate(),
            )
        )
    return segments


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


@dataclass
class StreamingTimelineReport:
    """Analytic replay + the sampled request stream laid over it."""

    analytic: TimelineReport
    segments: list[StreamSegment]
    rate_scale: float
    n_shards: int
    generated: int
    served: int
    delivered_cost: float
    #: Per-type counts in the tables' (= ``problem.requests``) order —
    #: the type space is identical across segments and routings.
    per_type_generated: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    per_type_served: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    #: Expected arrival/served counts and delivered cost of the sampled
    #: stream (at ``rate_scale``), from the segments' analytic rates.
    expected_generated: float = 0.0
    expected_served: float = 0.0
    expected_cost: float = 0.0
    #: Variance of ``delivered_cost`` under the compound-Poisson stream.
    cost_variance: float = 0.0
    elapsed_seconds: float = 0.0
    #: Reactive riders (present when ``reactive`` engines were passed).
    reactive_costs: dict[str, float] = field(default_factory=dict)
    reactive_edge_hits: dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return self.generated - self.served

    @property
    def served_fraction(self) -> float:
        if self.generated == 0:
            return float("nan")
        return self.served / self.generated

    @property
    def streamed_cost_integral(self) -> float:
        """Unbiased estimator of ``analytic.cost_integral``."""
        return self.delivered_cost / self.rate_scale

    @property
    def requests_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.generated / self.elapsed_seconds

    def format(self, *, title: str = "timeline") -> str:
        """The analytic report, then one line on the streamed requests."""
        return (
            f"{self.analytic.format(title=title)}\n"
            f"streamed {self.generated} requests over {len(self.segments)} segments"
            f" ({self.served} served, {self.dropped} dropped,"
            f" rate scale {self.rate_scale:g}) | "
            f"streamed cost integral {self.streamed_cost_integral:.6g}"
            f" vs analytic {self.analytic.cost_integral:.6g}"
        )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def replay_timeline_streaming(
    problem: ProblemInstance,
    placement: Placement,
    timeline: FailureTimeline,
    policy: RecoveryPolicy | None = None,
    *,
    config: ServingConfig | None = None,
    rate_scale: float = 1.0,
    workload=None,
    reactive: dict | None = None,
    context=None,
    healthy_routing: Routing | None = None,
    observer=None,
) -> StreamingTimelineReport:
    """Replay ``timeline`` analytically *and* at the request level.

    Runs the analytic controller first (capturing installed-state
    snapshots), then streams Poisson arrivals segment by segment through
    degraded tables.  ``config.horizon`` must match the timeline's;
    ``rate_scale`` thins every arrival rate (use
    ``n / (total_demand * horizon)`` to target ``n`` requests).
    ``workload`` is an optional
    :class:`~repro.workload.nonstationary.WorkloadRegime`; ``reactive``
    an optional ``{name: ReactiveStrategyEngine}`` mapping fed the same
    stream with dead-node handling.  The returned report's ``analytic``
    field carries the ordinary :class:`TimelineReport`, equal to what
    :func:`~repro.robustness.controller.replay_timeline` returns.
    """
    config = config or ServingConfig(horizon=timeline.horizon)
    if abs(config.horizon - timeline.horizon) > 1e-12 * max(
        1.0, timeline.horizon
    ):
        raise InvalidProblemError(
            f"config.horizon={config.horizon:g} must equal the timeline "
            f"horizon {timeline.horizon:g}"
        )
    if not math.isfinite(rate_scale) or rate_scale <= 0:
        raise InvalidProblemError(
            f"rate_scale must be finite and > 0, got {rate_scale!r}"
        )

    entries: list = []
    controller = TimelineController(
        problem,
        placement,
        timeline,
        policy,
        context=context,
        healthy_routing=healthy_routing,
        observer=_capture_observer(entries, observer),
    )
    analytic = controller.run()

    segments = _build_segments(entries, timeline.horizon, workload)
    expected_generated = rate_scale * sum(
        s.offered_rate * s.duration for s in segments
    )
    if expected_generated > config.max_requests:
        raise InvalidProblemError(
            f"streaming replay would generate ~{expected_generated:.0f} "
            f"arrivals > max_requests={config.max_requests}; lower "
            "rate_scale or the horizon"
        )

    # Shard-major, segment-minor: each shard owns one spawned stream and
    # walks the segments in time order — serving.engine.replay's shard
    # discipline, with the horizon split at the boundaries.
    accs = [_empty_accumulator(s.tables) for s in segments]
    type_chunks: list[list[np.ndarray]] | None = (
        [[] for _ in segments] if reactive else None
    )
    start = _time.perf_counter()
    for seed_seq in shard_seed_sequences(config):
        rng = np.random.default_rng(seed_seq)
        for seg in segments:
            batch = generate_requests(
                seg.tables,
                seg.duration,
                rng,
                rate_scale=rate_scale / config.n_shards,
            )
            accs[seg.index].merge(serve_batch(seg.tables, batch, rng))
            if type_chunks is not None:
                type_chunks[seg.index].append(batch.type_ids)
    elapsed = _time.perf_counter() - start

    num_types = len(problem.requests)
    per_type_generated = np.zeros(num_types, dtype=np.int64)
    per_type_served = np.zeros(num_types, dtype=np.int64)
    delivered_cost = 0.0
    expected_served = 0.0
    expected_cost = 0.0
    cost_variance = 0.0
    for seg, acc in zip(segments, accs):
        seg.accumulator = acc
        per_type_generated += acc.generated
        per_type_served += acc.served
        delivered_cost += acc.delivered_cost
        dt = seg.duration * rate_scale
        expected_served += seg.served_rate * dt
        expected_cost += seg.cost_rate * dt
        lam = seg.tables.rates[seg.tables.path_type] * seg.tables.path_amount
        cost_variance += float(
            (lam * dt) @ (seg.tables.path_cost * seg.tables.path_cost)
        )

    reactive_costs: dict[str, float] = {}
    reactive_edge_hits: dict[str, int] = {}
    if reactive:
        for name, engine in reactive.items():
            node_id = {v: k for k, v in enumerate(engine.rt.nodes)}
            total_cost = 0.0
            total_hits = 0
            for seg in segments:
                engine.state.set_down(
                    [node_id[v] for v in seg.down_nodes if v in node_id]
                )
                chunks = type_chunks[seg.index]
                ids = (
                    np.concatenate(chunks)
                    if chunks
                    else np.zeros(0, dtype=np.int64)
                )
                if len(ids) == 0:
                    continue
                metrics = engine.step(ids)
                total_cost += float(metrics.costs.sum())
                total_hits += int(metrics.edge_hits.sum())
            reactive_costs[name] = total_cost
            reactive_edge_hits[name] = total_hits

    return StreamingTimelineReport(
        analytic=analytic,
        segments=segments,
        rate_scale=rate_scale,
        n_shards=config.n_shards,
        generated=int(per_type_generated.sum()),
        served=int(per_type_served.sum()),
        delivered_cost=delivered_cost,
        per_type_generated=per_type_generated,
        per_type_served=per_type_served,
        expected_generated=expected_generated,
        expected_served=expected_served,
        expected_cost=expected_cost,
        cost_variance=cost_variance,
        elapsed_seconds=elapsed,
        reactive_costs=reactive_costs,
        reactive_edge_hits=reactive_edge_hits,
    )
