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
(materialized up front; the segments are drawn in time order, each by
every shard in shard order, so every stream walks the segments in time
order), and the same ``serve_batch`` alias-table dispatch.  The
controller computes its rates with
:func:`~repro.serving.degraded.delivered_rates` on the same tables and
mask, so the expected served / cost rates of every segment equal the
controller's instantaneous rates bit for bit, and the time-averaged
streamed cost is an unbiased estimator of the analytic ``cost_integral``
— the statistical-parity gate in the test suite and
``benchmarks/bench_serving_degraded.py`` pins this.

Reactive strategies (:class:`~repro.adaptive.strategies.
ReactiveStrategyEngine`) can ride the same stream: once a segment is
drawn, each engine marks the segment's failed nodes down
(:meth:`~repro.adaptive.state.CacheArrayState.set_down`) — dead caches
are wiped on failure and skipped while down, and come back empty — and
steps once on the segment's arrivals, concatenated in shard order.  Only
one segment's arrivals are alive at a time.
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
    #: Seconds spent drawing and serving the arrivals; the reactive
    #: riders' steps are not timed.
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


def _stream_segment(seg, rngs, rate_scale, riders, costs, hits) -> float:
    """Draw and serve ``seg`` on every shard, then step each rider on its
    arrivals; return the seconds spent drawing and serving."""
    start = _time.perf_counter()
    acc = seg.accumulator = _empty_accumulator(seg.tables)
    chunks = []
    for rng in rngs:
        batch = generate_requests(
            seg.tables, seg.duration, rng, rate_scale=rate_scale
        )
        acc.merge(serve_batch(seg.tables, batch, rng))
        if riders:
            chunks.append(batch.type_ids)
    elapsed = _time.perf_counter() - start
    ids = np.concatenate(chunks) if riders else None
    del batch, chunks  # the riders need only the type ids
    for name, engine, node_id in riders:
        engine.state.set_down(
            [node_id[v] for v in seg.down_nodes if v in node_id]
        )
        if len(ids):
            metrics = engine.step(ids)
            costs[name] += float(metrics.costs.sum())
            hits[name] += int(metrics.edge_hits.sum())
    return elapsed


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
    stream with dead-node handling, one distinct engine per name, each
    built for ``problem``'s request types.  The returned report's
    ``analytic`` field carries the ordinary :class:`TimelineReport`, equal
    to what :func:`~repro.robustness.controller.replay_timeline` returns.
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
    types = tuple(problem.requests)
    reactive = reactive or {}
    if len({id(engine) for engine in reactive.values()}) < len(reactive):
        raise InvalidProblemError(
            "reactive engines must be distinct objects: one engine under "
            "two names would step through the stream twice"
        )
    for name, engine in reactive.items():
        if engine.rt.tables.types != types:
            raise InvalidProblemError(
                f"reactive engine {name!r} was built for other request "
                "types than the problem's"
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

    # Segment-major, shard-minor: each segment is drawn and served by every
    # shard in shard order, then every rider steps once on its arrivals in
    # shard order.  Each generator and rider gets the calls of a
    # shard-major walk, in the same order, with one segment's ids alive.
    rngs = [np.random.default_rng(s) for s in shard_seed_sequences(config)]
    riders = [
        (name, engine, {v: k for k, v in enumerate(engine.rt.nodes)})
        for name, engine in reactive.items()
    ]
    reactive_costs = dict.fromkeys(reactive, 0.0)
    reactive_edge_hits = dict.fromkeys(reactive, 0)
    per_type_generated = np.zeros(len(types), dtype=np.int64)
    per_type_served = np.zeros(len(types), dtype=np.int64)
    delivered_cost = 0.0
    expected_served = 0.0
    expected_cost = 0.0
    cost_variance = 0.0
    elapsed = 0.0
    for seg in segments:
        elapsed += _stream_segment(
            seg, rngs, rate_scale / config.n_shards, riders,
            reactive_costs, reactive_edge_hits,
        )
        acc = seg.accumulator
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
