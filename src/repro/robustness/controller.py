"""Online recovery controller: replay a failure timeline against a placement.

:func:`replay_timeline` runs a discrete-event simulation of a
:class:`~repro.robustness.timeline.FailureTimeline` over one healthy
instance + placement.  Between events the network state is constant, so
availability, unserved demand, and routing cost integrate exactly as
piecewise-constant functions of time — no sampling error.

The controller mirrors how an operator's control loop behaves under churn:

- **detection delay** — it notices an event ``detection_delay`` after it
  happens; until it reacts, the *installed* routing keeps running and any
  path crossing a down element simply delivers nothing (charged as
  unserved time).  Which paths still deliver is decided by
  :func:`~repro.serving.degraded.delivered_rates` on the installed
  routing's compiled tables — the mask the streaming replay degrades its
  tables with;
- **flap backoff** — on a failure it re-checks with exponential backoff
  (``flap_backoff * 2^k`` for ``max_retries`` checks) before committing to
  a re-route; a transient flap that clears in time never triggers
  re-optimization (counted in ``reroutes_avoided``);
- **hysteresis** — ``min_dwell`` spaces consecutive re-optimizations;
  actions landing inside the dwell window are deferred and coalesced;
- **placement repair** — with ``repair=True`` each re-optimization may
  greedily refill residual cache space
  (:func:`~repro.robustness.recovery.repair_placement`), gated on the
  oldest live outage being at least ``repair_after`` old.

Re-optimization recovers via the *same* code path as the static
survivability layer — ``apply_failure`` → ``degraded_context`` →
``recover`` → ``survivability_record`` — so a timeline holding a single
permanent failure at ``t=0`` reproduces the static record **bit-for-bit**
(the chaos harness asserts this).  Every action composes the active fault
set and derives its degraded problem and context from the healthy root;
a derived context computes only the distance rows its recovery reads.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.context import SolverContext
from repro.core.evaluation import routing_cost
from repro.core.problem import Node, ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement, Routing
from repro.exceptions import InvalidProblemError
from repro.robustness.degraded import degraded_context
from repro.robustness.faults import (
    CapacityDegradation,
    FailureScenario,
    Fault,
    LinkFailure,
    NodeFailure,
    apply_failure,
)
from repro.robustness.recovery import cluster_local_recover, recover
from repro.robustness.report import (
    SurvivabilityRecord,
    survivability_record,
)
from repro.robustness.timeline import FailureEvent, FailureTimeline, RepairEvent
from repro.serving.degraded import TableDegradation, delivered_rates
from repro.serving.tables import RoutingTables, compile_tables

Edge = tuple[Node, Node]

#: Observer callback: ``observer(phase, time, controller, detail)`` with
#: phase one of ``"init" | "event" | "action" | "end"``; ``detail`` is the
#: processed :class:`TimelineEvent` / :class:`TimelineAction` (or ``None``).
Observer = Callable[[str, float, "TimelineController", object], None]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Control-loop knobs of the online recovery controller.

    The zero default for every delay makes the controller react instantly —
    the configuration under which a single-failure timeline matches the
    static survivability path exactly.
    """

    #: Time between an event and the controller noticing it.
    detection_delay: float = 0.0
    #: Base backoff before committing a failure to re-route (0 = immediate).
    flap_backoff: float = 0.0
    #: Number of backoff re-checks (``flap_backoff * 2^k``, k < max_retries).
    max_retries: int = 0
    #: Minimum spacing between re-optimizations (hysteresis).
    min_dwell: float = 0.0
    #: Greedily refill residual cache space at re-optimization.
    repair: bool = False
    #: Only repair once the oldest live outage is at least this old.
    repair_after: float = 0.0
    #: Budget forwarded to :func:`repair_placement`.
    max_repairs: int | None = None

    def validate(self) -> None:
        for label, value in (
            ("detection_delay", self.detection_delay),
            ("flap_backoff", self.flap_backoff),
            ("min_dwell", self.min_dwell),
            ("repair_after", self.repair_after),
        ):
            if value < 0:
                raise InvalidProblemError(f"{label} must be >= 0")
        if self.max_retries < 0:
            raise InvalidProblemError("max_retries must be >= 0")


@dataclass(frozen=True)
class TimelineAction:
    """One committed re-optimization during a replay."""

    #: Simulation time the re-route was installed.
    time: float
    #: Time since the earliest event this action responds to.
    latency: float
    #: Static-survivability scoring of the recovered state.
    record: SurvivabilityRecord
    #: Demand rate served immediately after installation.
    served_rate: float


@dataclass
class TimelineReport:
    """Time-weighted outcome of replaying one timeline against a placement.

    Integrals are exact (piecewise-constant integration between events).
    ``wall_seconds`` is excluded from equality so parity tests can compare
    reports directly.
    """

    name: str
    horizon: float
    healthy_cost: float
    total_demand: float
    #: Time-weighted served-demand fraction over the horizon.
    availability: float
    #: ``∫ unserved_rate dt`` (demand × time units).
    unserved_integral: float
    #: ``∫ cost_rate dt`` of the traffic actually delivered.
    cost_integral: float
    #: ``cost_integral / (healthy_cost * horizon)`` — 1.0 means failures were free.
    cost_inflation_integral: float
    #: Timeline events processed (state-changing or not).
    events: int
    reoptimizations: int
    #: Failure detections that cleared during backoff (flaps absorbed).
    reroutes_avoided: int
    #: Re-optimizations pushed back by the ``min_dwell`` hysteresis.
    deferrals: int
    #: Total placement entries installed by repair across all actions.
    repaired_entries: int
    actions: list[TimelineAction] = field(default_factory=list)
    wall_seconds: float = field(default=0.0, compare=False)

    @property
    def recovery_latencies(self) -> list[float]:
        return [a.latency for a in self.actions]

    @property
    def mean_recovery_latency(self) -> float:
        lat = self.recovery_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def final_record(self) -> SurvivabilityRecord | None:
        """The last action's record (the static-parity comparison point)."""
        return self.actions[-1].record if self.actions else None

    def to_json_dict(self) -> dict:
        """JSON-serializable summary (bench artifacts, RunRecord extras)."""
        return {
            "name": self.name,
            "horizon": self.horizon,
            "healthy_cost": self.healthy_cost,
            "availability": self.availability,
            "unserved_integral": self.unserved_integral,
            "cost_inflation_integral": self.cost_inflation_integral,
            "events": self.events,
            "reoptimizations": self.reoptimizations,
            "reroutes_avoided": self.reroutes_avoided,
            "deferrals": self.deferrals,
            "repaired_entries": self.repaired_entries,
            "mean_recovery_latency": self.mean_recovery_latency,
            "wall_seconds": self.wall_seconds,
        }

    def format(self, *, title: str = "timeline") -> str:
        from repro.experiments.reporting import format_sweep

        rows = [
            {
                "t": a.time,
                "latency": a.latency,
                "scenario": a.record.scenario,
                "cost": a.record.cost,
                "unserved": a.record.unserved_fraction,
                "repaired": a.record.repaired_entries,
            }
            for a in self.actions
        ]
        table = format_sweep(
            rows,
            ["t", "latency", "scenario", "cost", "unserved", "repaired"],
            title=title,
        )
        summary = (
            f"availability {self.availability:.4%} over horizon {self.horizon:g} | "
            f"{self.events} events, {self.reoptimizations} re-optimizations "
            f"({self.reroutes_avoided} flaps absorbed, {self.deferrals} deferred) | "
            f"cost inflation integral {self.cost_inflation_integral:.4g} | "
            f"mean recovery latency {self.mean_recovery_latency:.4g}"
        )
        return f"{table}\n{summary}"


class TimelineController:
    """Discrete-event replay engine (see module docstring for semantics).

    Instances are single-use: construct and call :meth:`run` once.  The
    public attributes (``placement``, ``routing``, ``down_nodes``,
    ``down_links``, ``active_faults``, ``last_result``) exist for the chaos
    harness's invariant observer; ``tables`` and :attr:`degradation` give
    the streaming replay the installed state it serves requests from.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        placement: Placement,
        timeline: FailureTimeline,
        policy: RecoveryPolicy | None = None,
        *,
        context: SolverContext | None = None,
        healthy_routing: Routing | None = None,
        observer: Observer | None = None,
        partition=None,
    ) -> None:
        self.problem = problem
        self.timeline = timeline
        self.policy = policy or RecoveryPolicy()
        self.policy.validate()
        self.context = context or SolverContext.from_problem(problem, backend="lazy")
        self.observer = observer
        #: Optional :class:`~repro.core.decomposed.ClusterPartition` of the
        #: healthy topology.  When set, re-optimizations run
        #: :func:`~repro.robustness.recovery.cluster_local_recover` — only
        #: the clusters the cumulative fault set touches are re-solved and
        #: stitched — instead of :func:`recover`'s greedy repair (the
        #: ``repair``/``max_repairs`` policy knobs are superseded).
        self.partition = partition
        self.horizon = timeline.horizon

        if healthy_routing is None:
            healthy_routing = route_to_nearest_replica(
                problem, placement, context=self.context
            )
        self.healthy_cost = routing_cost(
            problem, healthy_routing, demand=problem.demand
        )
        self.placement = placement.copy()
        self.last_result = None  # RecoveryResult of the latest action
        self._install(healthy_routing)

        # --- element state ------------------------------------------------
        self.active_faults: dict[Fault, int] = {}
        self.down_links: dict[Edge, int] = {}
        self.down_nodes: dict[Node, int] = {}
        self._active_since: dict[Fault, float] = {}
        self._dropped_pending: list[tuple] = []

        # --- control loop -------------------------------------------------
        #: Fault set the installed routing was recovered for.
        self._composed_faults: set[Fault] = set()
        #: (time, fault) of effective transitions not yet covered by a re-opt.
        self._uncovered: list[tuple[float, Fault]] = []
        self._deferred_scheduled = False
        self._last_reopt = -float("inf")
        self._agenda: list[tuple] = []
        self._seq = 0

        # --- metrics ------------------------------------------------------
        self._now = 0.0
        self._served_integral = 0.0
        self._cost_integral = 0.0
        self._events_processed = 0
        self.reoptimizations = 0
        self.reroutes_avoided = 0
        self.deferrals = 0
        self.repaired_entries = 0
        self.actions: list[TimelineAction] = []
        self._cur_served, self._cur_cost = self._rates()

    # ------------------------------------------------------------------
    # Instantaneous state
    # ------------------------------------------------------------------

    def _install(self, routing: Routing) -> None:
        """Install ``routing``: compile it once, and note the copies it reads
        that the placement no longer holds."""
        self.routing = routing
        #: The installed routing compiled against the *healthy* instance, so
        #: every routing shares one request-type order and arrival rates.
        self.tables: RoutingTables = compile_tables(
            self.problem, routing, allow_unrouted=True
        )
        #: Cached ``(source, item)`` copies the installed routing reads;
        #: pinned contents are permanent and never count.
        self._reads: set[tuple[Node, object]] = {
            (pf.source, item)
            for (item, _s), pfs in routing.paths.items()
            for pf in pfs
        } - self.problem.pinned
        #: The read copies the placement no longer holds (node failures
        #: add the entries they wipe).
        self._wiped = {key for key in self._reads if self.placement[key] <= 0}

    @property
    def degradation(self) -> TableDegradation:
        """The current fault state as a mask of :attr:`tables`."""
        return TableDegradation(
            down_nodes=frozenset(self.down_nodes),
            down_links=frozenset(self.down_links),
            wiped=frozenset(self._wiped),
        )

    def _rates(self) -> tuple[float, float]:
        """(served demand rate, delivered-traffic cost rate) right now.

        A path delivers only when its requester and every element on it are
        up *and* its source still holds the item: a node flap wipes the
        node's cache, so a stale routing that survives the flap (absorbed
        before the controller reacted) serves nothing from that source
        until a re-optimization re-routes.
        """
        return delivered_rates(self.tables, self.degradation)

    def served_rate(self) -> float:
        """Demand rate currently delivered by the installed routing."""
        return self._cur_served

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------

    def _push_action(self, when: float, payload: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._agenda, (when, 1, self._seq, payload))

    def _activate_element(self, fault: Fault, t: float) -> None:
        if isinstance(fault, LinkFailure):
            for e in fault.directed_edges:
                self.down_links[e] = self.down_links.get(e, 0) + 1
        elif isinstance(fault, NodeFailure):
            node = fault.node
            self.down_nodes[node] = self.down_nodes.get(node, 0) + 1
            dead = [(v, i) for (v, i) in self.placement if v == node]
            for key in dead:
                self.placement[key] = 0.0
            self._dropped_pending.extend(dead)
            self._wiped.update(key for key in dead if key in self._reads)
        # CapacityDegradation leaves liveness untouched.

    def _deactivate_element(self, fault: Fault) -> None:
        if isinstance(fault, LinkFailure):
            for e in fault.directed_edges:
                n = self.down_links.get(e, 0) - 1
                if n <= 0:
                    self.down_links.pop(e, None)
                else:
                    self.down_links[e] = n
        elif isinstance(fault, NodeFailure):
            n = self.down_nodes.get(fault.node, 0) - 1
            if n <= 0:
                self.down_nodes.pop(fault.node, None)
            else:
                self.down_nodes[fault.node] = n

    def _handle_failure(self, event: FailureEvent) -> None:
        fault = event.fault
        n = self.active_faults.get(fault, 0)
        self.active_faults[fault] = n + 1
        if n > 0:
            return  # already down through another process (e.g. SRLG overlap)
        self._activate_element(fault, event.time)
        self._active_since[fault] = event.time
        self._uncovered.append((event.time, fault))
        self._push_action(
            event.time + self.policy.detection_delay, ("check", fault, 0)
        )

    def _handle_repair(self, event: RepairEvent) -> None:
        fault = event.fault
        n = self.active_faults.get(fault, 0)
        if n <= 0:
            raise InvalidProblemError(
                f"timeline {self.timeline.name!r} repairs inactive fault "
                f"{fault.describe()} at t={event.time:g}"
            )
        if n > 1:
            self.active_faults[fault] = n - 1
            return  # another process still holds the element down
        del self.active_faults[fault]
        self._deactivate_element(fault)
        self._active_since.pop(fault, None)
        if fault in self._composed_faults:
            # The installed routing avoids this element: re-optimize so
            # traffic can use it again.
            self._uncovered.append((event.time, fault))
            self._push_action(
                event.time + self.policy.detection_delay, ("repair",)
            )
        else:
            # Absorbed flap: it was never routed around, and its fail/repair
            # pair cancels out — scrub it from the uncovered ledger.
            self._uncovered = [
                (tt, f) for (tt, f) in self._uncovered if f != fault
            ]

    def _handle_action(self, payload: tuple) -> None:
        kind = payload[0]
        if kind == "check":
            _, fault, retry = payload
            if not self.active_faults.get(fault):
                self.reroutes_avoided += 1
                return
            if retry < self.policy.max_retries and self.policy.flap_backoff > 0:
                self._push_action(
                    self._now + self.policy.flap_backoff * (2**retry),
                    ("check", fault, retry + 1),
                )
                return
            self._request_reopt()
        elif kind in ("repair", "deferred"):
            self._request_reopt()
        else:  # pragma: no cover - internal agenda discipline
            raise InvalidProblemError(f"unknown controller action {kind!r}")

    def _request_reopt(self) -> None:
        if not self._uncovered:
            return  # the installed state already reflects every event
        if self.reoptimizations > 0 and self.policy.min_dwell > 0:
            earliest = self._last_reopt + self.policy.min_dwell
            if self._now < earliest:
                if not self._deferred_scheduled:
                    self._deferred_scheduled = True
                    self.deferrals += 1
                    self._push_action(earliest, ("deferred",))
                return
        self._reoptimize()

    # ------------------------------------------------------------------
    # Re-optimization
    # ------------------------------------------------------------------

    def _ordered_faults(self, faults) -> tuple[Fault, ...]:
        """Capacity scalings, then link, then node removals.

        A safe application order for ``apply_failure``: degrading before
        removing never references a missing link, and node removals absorb
        whatever incident links survive the explicit link faults.
        """
        caps = [f for f in faults if isinstance(f, CapacityDegradation)]
        links = [f for f in faults if isinstance(f, LinkFailure)]
        nodes = [f for f in faults if isinstance(f, NodeFailure)]
        return tuple([*caps, *links, *nodes])

    def _composed_scenario(self, name: str) -> FailureScenario:
        return FailureScenario(name, self._ordered_faults(self.active_faults))

    def _reoptimize(self) -> TimelineAction:
        now = self._now
        name = (
            self.timeline.name
            if self.reoptimizations == 0 and now == 0.0
            else f"{self.timeline.name}@t={now:g}"
        )
        scenario = self._composed_scenario(name)
        degraded = apply_failure(self.problem, scenario)
        ctx = degraded_context(self.context, degraded)

        if self.partition is not None:
            result = cluster_local_recover(
                degraded, self.placement, self.partition, context=ctx
            )
        else:
            do_repair = self.policy.repair
            if do_repair and self.policy.repair_after > 0 and self._active_since:
                oldest = min(self._active_since.values())
                do_repair = now - oldest >= self.policy.repair_after
            result = recover(
                degraded,
                self.placement,
                repair=do_repair,
                max_repairs=self.policy.max_repairs,
                context=ctx,
            )
        # Entries lost at event time (the placement is pre-pruned so repairs
        # cannot resurrect dead caches); charge them to this action's record.
        result.dropped = list(self._dropped_pending)
        record = survivability_record(result, healthy_cost=self.healthy_cost)

        self.placement = result.placement
        self._install(result.routing)
        self.last_result = result
        self._composed_faults = set(scenario.faults)
        self._dropped_pending = []
        trigger = self._uncovered[0][0]
        self._uncovered = []
        self._deferred_scheduled = False
        self._last_reopt = now
        self.reoptimizations += 1
        self.repaired_entries += len(result.repaired)

        self._cur_served, self._cur_cost = self._rates()
        action = TimelineAction(
            time=now,
            latency=now - trigger,
            record=record,
            served_rate=self._cur_served,
        )
        self.actions.append(action)
        return action

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _advance(self, t: float) -> None:
        t = min(t, self.horizon)
        if t > self._now:
            dt = t - self._now
            self._served_integral += self._cur_served * dt
            self._cost_integral += self._cur_cost * dt
            self._now = t

    def _notify(self, phase: str, detail) -> None:
        if self.observer is not None:
            self.observer(phase, self._now, self, detail)

    def run(self) -> TimelineReport:
        start = _time.perf_counter()
        for event in self.timeline.events:
            if not 0.0 <= event.time < self.horizon:
                raise InvalidProblemError(
                    f"timeline event at t={event.time:g} outside [0, "
                    f"{self.horizon:g})"
                )
            self._seq += 1
            heapq.heappush(self._agenda, (event.time, 0, self._seq, event))
        self._notify("init", None)

        while self._agenda:
            when, prio, _seq, payload = heapq.heappop(self._agenda)
            if when >= self.horizon:
                continue  # a scheduled action past the observation window
            self._advance(when)
            if prio == 0:
                if isinstance(payload, FailureEvent):
                    self._handle_failure(payload)
                else:
                    self._handle_repair(payload)
                self._events_processed += 1
                self._cur_served, self._cur_cost = self._rates()
                self._notify("event", payload)
            else:
                before = len(self.actions)
                self._handle_action(payload)
                if len(self.actions) > before:
                    self._notify("action", self.actions[-1])
        self._advance(self.horizon)
        self._notify("end", None)

        total = self.problem.total_demand
        denom = total * self.horizon
        # Clamp float summation noise: per-segment served rate never exceeds
        # total demand (the chaos conservation invariant), so any overshoot
        # of the integral is epsilon-level arithmetic, not real service.
        availability = min(1.0, self._served_integral / denom) if denom > 0 else 1.0
        unserved = max(0.0, denom - self._served_integral)
        healthy_denom = self.healthy_cost * self.horizon
        if healthy_denom > 0:
            inflation = self._cost_integral / healthy_denom
        else:
            inflation = 1.0 if self._cost_integral <= 0 else float("inf")
        return TimelineReport(
            name=self.timeline.name,
            horizon=self.horizon,
            healthy_cost=self.healthy_cost,
            total_demand=total,
            availability=availability,
            unserved_integral=unserved,
            cost_integral=self._cost_integral,
            cost_inflation_integral=inflation,
            events=self._events_processed,
            reoptimizations=self.reoptimizations,
            reroutes_avoided=self.reroutes_avoided,
            deferrals=self.deferrals,
            repaired_entries=self.repaired_entries,
            actions=list(self.actions),
            wall_seconds=_time.perf_counter() - start,
        )


def replay_timeline(
    problem: ProblemInstance,
    placement: Placement,
    timeline: FailureTimeline,
    policy: RecoveryPolicy | None = None,
    *,
    context: SolverContext | None = None,
    healthy_routing: Routing | None = None,
    observer: Observer | None = None,
    partition=None,
) -> TimelineReport:
    """Replay ``timeline`` against a healthy placement under ``policy``.

    ``context`` is the *healthy* instance's solver context (a lazy one is
    built when none is passed); each action's degraded context is derived
    from it.  The context may be primed or lazy: derived contexts compute
    rows on demand either way, so timelines replay unchanged on 10k-node
    topologies under ``backend="lazy"``.  ``observer`` is invoked after
    every processed event and action; the chaos harness uses it to assert
    invariants mid-replay.  ``partition`` (a healthy-topology
    :class:`~repro.core.decomposed.ClusterPartition`) switches
    re-optimizations to cluster-local re-solves — see
    :class:`TimelineController`.
    """
    return TimelineController(
        problem,
        placement,
        timeline,
        policy,
        context=context,
        healthy_routing=healthy_routing,
        observer=observer,
        partition=partition,
    ).run()
