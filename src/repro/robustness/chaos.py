"""Chaos harness: fuzz randomized failure campaigns, assert hard invariants.

The timeline controller claims a lot — degraded state identical to the
static survivability path, piecewise-exact availability integration,
policies that never lose track of demand.  This module earns trust in
those claims the operational way: seeded random campaigns (random
instances × random timelines × random policies) replayed with an
:class:`InvariantChecker` observer that verifies, after *every* event and
action:

1. **routing feasibility** — every installed path runs over currently-up
   nodes/links that exist in the degraded graph;
2. **live replicas only** — every serving source still holds the item
   (placement entry or pinned) on an up node;
3. **demand conservation** — no request is over-served, and for every
   healthy request either its requester is dead (and charged to
   ``lost_demand``) or ``served + stranded = 1``;
4. **monotone state** — a repair event never decreases the served rate,
   and neither does a re-optimization;
5. **static parity** — a timeline holding one permanent failure at
   ``t=0`` reproduces the static ``survivability_record`` bit-for-bit.

:func:`run_chaos` is the one campaign driver.  :class:`ChaosConfig`
picks the instance family: small random topologies (the default),
1k–10k-node :func:`hierarchy_problem` instances on a lazy context with
cluster-local recovery (``n_total``), or request-level campaigns
(``requests``) that replay through the segmented streaming engine
(:func:`~repro.robustness.streaming.replay_timeline_streaming`) under a
random non-stationary workload regime with reactive cache strategies
riding the stream, where :func:`check_streaming_invariants` also asserts

6. **dead links carry nothing** — zero served volume over any edge that
   is down (or endpoint-down) during its segment, and zero served
   requests for dead requesters;
7. **request conservation** — ``served + dropped == generated`` exactly
   (globally and per type), and generated/served/delivered-cost all land
   within 6 sigma of their segment-exact expectations (compound-Poisson
   variance) — demand is conserved under popularity churn by
   construction, and the harness re-checks the segment rates;
8. **monotone repairs** — the expected served rate never drops across a
   repair/re-optimization boundary (when the workload multipliers are
   unchanged).

Everything is derived from ``numpy.random.SeedSequence`` spawns, so a
failing campaign reproduces from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.context import SolverContext
from repro.core.decomposed import partition_graph
from repro.core.problem import ProblemInstance, pin_full_catalog
from repro.core.solution import Placement
from repro.exceptions import InvalidProblemError
from repro.graph.network import CacheNetwork
from repro.graph.topologies import pop_core_edge_hierarchy
from repro.robustness.controller import (
    RecoveryPolicy,
    TimelineController,
    TimelineReport,
    replay_timeline,
)
from repro.robustness.faults import FailureScenario, canonical_links
from repro.robustness.report import survivability_report
from repro.robustness.timeline import (
    FailureTimeline,
    RepairEvent,
    TimelineConfig,
    generate_timeline,
    timeline_from_scenario,
)

_TOL = 1e-6


# ----------------------------------------------------------------------
# Randomized fixtures
# ----------------------------------------------------------------------


def random_problem(
    rng: np.random.Generator,
    *,
    n_nodes: int = 8,
    n_items: int = 4,
    extra_edge_fraction: float = 0.5,
) -> ProblemInstance:
    """A seeded random connected instance with a pinned origin at ``n0``.

    Random spanning tree plus extra chords (always connected), uniform link
    costs, uncapacitated links, random integral cache capacities, and random
    per-(item, node) demand.  Deterministic given the generator state.
    """
    if n_nodes < 3:
        raise InvalidProblemError("random_problem needs at least 3 nodes")
    nodes = [f"n{k}" for k in range(n_nodes)]
    links: set[tuple[str, str]] = set()
    for k in range(1, n_nodes):
        j = int(rng.integers(0, k))
        links.add((nodes[min(j, k)], nodes[max(j, k)]))
    extra = int(extra_edge_fraction * n_nodes)
    for _ in range(10 * extra):
        if len(links) >= n_nodes - 1 + extra:
            break
        a, b = (int(x) for x in rng.integers(0, n_nodes, size=2))
        if a != b:
            links.add((nodes[min(a, b)], nodes[max(a, b)]))

    graph = nx.DiGraph()
    for u, v in sorted(links):
        cost = round(float(rng.uniform(1.0, 10.0)), 3)
        graph.add_edge(u, v, cost=cost, capacity=float("inf"))
        graph.add_edge(v, u, cost=cost, capacity=float("inf"))

    origin = nodes[0]
    caches = {origin: 2.0}
    for v in nodes[1:]:
        if rng.random() < 0.7:
            caches[v] = float(rng.integers(1, 4))
    catalog = tuple(f"i{k}" for k in range(n_items))
    demand: dict = {}
    for item in catalog:
        for v in nodes[1:]:
            if rng.random() < 0.5:
                demand[(item, v)] = round(float(rng.uniform(0.5, 5.0)), 3)
    if not demand:
        demand[(catalog[0], nodes[-1])] = 1.0
    return ProblemInstance(
        network=CacheNetwork(graph, caches),
        catalog=catalog,
        demand=demand,
        pinned=pin_full_catalog(catalog, [origin]),
    )


def random_placement(rng: np.random.Generator, problem: ProblemInstance) -> Placement:
    """Random integral placement filling each cache up to its capacity."""
    placement = Placement()
    items = list(problem.catalog)
    for v in sorted(problem.network.cache_nodes(), key=repr):
        residual = problem.network.cache_capacity(v)
        order = [items[int(j)] for j in rng.permutation(len(items))]
        for item in order:
            if (v, item) in problem.pinned:
                continue
            size = problem.size_of(item)
            if size <= residual + _TOL:
                placement[(v, item)] = 1.0
                residual -= size
    return placement


def hierarchy_problem(
    n_total: int,
    *,
    n_items: int = 12,
    n_caches: int = 80,
    n_requesters: int = 150,
    cache_capacity: float = 4.0,
    seed: int = 0,
) -> ProblemInstance:
    """A seeded cache-placement instance on a ~``n_total``-node hierarchy.

    The large-topology twin of :func:`random_problem`: a
    :func:`~repro.graph.topologies.pop_core_edge_hierarchy` of
    ``(n_total // 100, 9, 10)`` (exactly ``100 * n_core`` nodes), caches on
    a seeded sample of PoPs, demand from a seeded sample of edge leaves,
    and the full catalog pinned at the highest-degree core node.  The same
    shape the scale benches solve — here it feeds failure timelines and
    chaos campaigns at 1k–10k nodes.  Deterministic given ``seed``.
    """
    n_core = max(2, n_total // 100)
    net = pop_core_edge_hierarchy(n_core, 9, 10, seed=seed)
    nodes = list(net.nodes)
    pops = [v for v in nodes if str(v).startswith("p")]
    leaves = [v for v in nodes if str(v).startswith("e")]
    origin = max(
        (v for v in nodes if str(v).startswith("c")),
        key=lambda v: (net.undirected_degree(v), str(v)),
    )
    rng = np.random.default_rng(seed)
    cache_idx = rng.choice(len(pops), size=min(n_caches, len(pops)), replace=False)
    cache_nodes = [pops[int(i)] for i in cache_idx]
    items = [f"it{k}" for k in range(n_items)]
    demand: dict = {}
    requesters = rng.choice(
        len(leaves), size=min(n_requesters, len(leaves)), replace=False
    )
    for s in requesters:
        for it in rng.choice(items, size=2, replace=False):
            demand[(str(it), leaves[int(s)])] = round(float(rng.uniform(0.5, 2.0)), 3)
    capped = CacheNetwork(net.graph, {v: cache_capacity for v in cache_nodes})
    return ProblemInstance(
        network=capped,
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [origin]),
    )


def pinned_origin(problem: ProblemInstance):
    """The (single) node holding the pinned catalog, repr-lowest on ties."""
    return min({v for (v, _item) in problem.pinned}, key=repr)


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------


class InvariantChecker:
    """Observer asserting the chaos invariants after every event/action.

    Violations accumulate as human-readable strings in ``violations``; pass
    ``strict=True`` to raise :class:`AssertionError` on the first one
    (pinpoints the exact event in a failing seed).
    """

    def __init__(self, *, strict: bool = False, tol: float = _TOL) -> None:
        self.strict = strict
        self.tol = tol
        self.violations: list[str] = []
        self._last_served: float | None = None

    def _violate(self, time: float, message: str) -> None:
        entry = f"t={time:g}: {message}"
        self.violations.append(entry)
        if self.strict:
            raise AssertionError(f"chaos invariant violated at {entry}")

    # -- observer protocol ---------------------------------------------

    def __call__(
        self, phase: str, time: float, ctl: TimelineController, detail
    ) -> None:
        if phase == "end":
            return
        served = ctl.served_rate()
        total = ctl.problem.total_demand
        scale = max(1.0, total)
        if served > total + self.tol * scale:
            self._violate(
                time, f"conservation: served rate {served:g} exceeds demand {total:g}"
            )
        if self._last_served is not None:
            if phase == "event" and isinstance(detail, RepairEvent):
                if served < self._last_served - self.tol * scale:
                    self._violate(
                        time,
                        f"monotone: repair {detail.fault.describe()} dropped served "
                        f"rate {self._last_served:g} -> {served:g}",
                    )
            elif phase == "action" and served < self._last_served - self.tol * scale:
                self._violate(
                    time,
                    f"monotone: re-optimization dropped served rate "
                    f"{self._last_served:g} -> {served:g}",
                )
        if phase == "action":
            self._check_action(time, ctl)
        self._last_served = served

    def _check_action(self, time: float, ctl: TimelineController) -> None:
        result = ctl.last_result
        if result is None:  # pragma: no cover - actions always install one
            self._violate(time, "action without a recovery result")
            return
        problem = result.degraded.problem
        graph = problem.network.graph
        record_scenario = result.degraded.scenario.name

        for (item, s), flows in ctl.routing.paths.items():
            served = 0.0
            for pf in flows:
                served += pf.amount
                for v in pf.path:
                    if ctl.down_nodes.get(v) or v not in graph:
                        self._violate(
                            time,
                            f"feasibility[{record_scenario}]: path for "
                            f"({item!r}, {s!r}) crosses down node {v!r}",
                        )
                for e in zip(pf.path[:-1], pf.path[1:]):
                    if ctl.down_links.get(e) or not graph.has_edge(*e):
                        self._violate(
                            time,
                            f"feasibility[{record_scenario}]: path for "
                            f"({item!r}, {s!r}) crosses down link {e!r}",
                        )
                src = pf.source
                if (
                    ctl.placement[(src, item)] <= 0
                    and (src, item) not in problem.pinned
                ):
                    self._violate(
                        time,
                        f"dead replica[{record_scenario}]: ({item!r}, {s!r}) "
                        f"served from {src!r} which holds no copy",
                    )
            if served > 1.0 + self.tol:
                self._violate(
                    time,
                    f"conservation[{record_scenario}]: ({item!r}, {s!r}) served "
                    f"{served:g} > 1",
                )

        lost = result.degraded.lost_demand
        stranded = result.stranded
        for request in ctl.problem.demand:
            _item, s = request
            if ctl.down_nodes.get(s):
                if request not in lost:
                    self._violate(
                        time,
                        f"lost-accounting[{record_scenario}]: dead requester "
                        f"{s!r} not charged to lost_demand",
                    )
                continue
            frac = ctl.routing.served_fraction(request)
            gap = stranded.get(request, 0.0)
            if abs(frac + gap - 1.0) > 1e-5:
                self._violate(
                    time,
                    f"conservation[{record_scenario}]: request {request!r} has "
                    f"served {frac:g} + stranded {gap:g} != 1",
                )
        record = ctl.actions[-1].record
        if not 0.0 <= record.unserved_fraction <= 1.0:
            self._violate(
                time,
                f"range[{record_scenario}]: unserved_fraction "
                f"{record.unserved_fraction:g} outside [0, 1]",
            )


def check_static_parity(
    problem: ProblemInstance,
    placement: Placement,
    scenario: FailureScenario,
    *,
    repair: bool = False,
    context: SolverContext | None = None,
) -> bool:
    """Assert the static-parity invariant for one scenario.

    Replaying ``scenario`` as a single permanent failure at ``t=0`` (default
    zero-delay policy) must reproduce ``survivability_report``'s record for
    the same scenario bit-for-bit.  Raises :class:`AssertionError` with the
    differing fields otherwise; returns ``True`` on success.
    """
    static = survivability_report(
        problem, placement, [scenario], repair=repair, context=context
    ).records[0]
    report = replay_timeline(
        problem,
        placement.copy(),
        timeline_from_scenario(scenario),
        RecoveryPolicy(repair=repair),
        context=context,
    )
    dynamic = report.final_record
    if dynamic != static:
        raise AssertionError(
            f"static parity broken for {scenario.name!r}:\n"
            f"  timeline: {dynamic}\n  static:   {static}"
        )
    return True


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Fuzzing budget and instance family of a chaos run.

    By default every campaign replays a random policy over a random
    topology of ``min_nodes``..``max_nodes`` nodes.  ``n_total`` switches to
    :func:`hierarchy_problem` instances of about that many nodes on a lazy
    context, re-optimized by cluster-local recovery under a scale-tuned
    policy.  ``requests > 0`` streams about that many requests per campaign
    through the failures (random instances only).
    """

    campaigns: int = 5
    seed: int = 0
    min_nodes: int = 6
    max_nodes: int = 12
    n_items: int = 4
    horizon: float = 60.0
    #: Regenerate (halving MTBF) until a campaign's timeline has this many events.
    min_events: int = 40
    #: Approximate hierarchy size; ``hierarchy_problem`` rounds to 100·n_core.
    n_total: int | None = None
    #: Expected arrivals per streamed campaign (0 = analytic replay only).
    requests: int = 0


@dataclass
class CampaignResult:
    """Outcome of one randomized campaign."""

    index: int
    nodes: int
    links: int
    events: int
    reoptimizations: int
    availability: float
    #: The healthy context had every distance row computed up front.
    primed: bool
    violations: list[str] = field(default_factory=list)
    static_parity_ok: bool = True
    #: Streamed campaigns only: the workload regime and request counts.
    regime: str | None = None
    segments: int = 0
    generated: int = 0
    served: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.static_parity_ok


@dataclass
class ChaosReport:
    """Aggregate of a chaos run across campaigns."""

    results: list[CampaignResult]

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.results)

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results) + sum(
            1 for r in self.results if not r.static_parity_ok
        )

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def summary(self) -> dict:
        summary = {
            "campaigns": len(self.results),
            "total_events": self.total_events,
            "total_reoptimizations": sum(r.reoptimizations for r in self.results),
            "total_violations": self.total_violations,
            "mean_availability": (
                sum(r.availability for r in self.results) / len(self.results)
                if self.results
                else 1.0
            ),
        }
        if any(r.regime is not None for r in self.results):
            summary["total_segments"] = sum(r.segments for r in self.results)
            summary["total_generated"] = sum(r.generated for r in self.results)
            summary["total_served"] = sum(r.served for r in self.results)
        return summary

    def format(self) -> str:
        lines = [
            f"chaos: {len(self.results)} campaigns, {self.total_events} events, "
            f"{self.total_violations} violations"
        ]
        for r in self.results:
            status = "ok" if r.ok else f"VIOLATIONS={len(r.violations)}"
            if not r.static_parity_ok:
                status += " static-parity-FAILED"
            stream = ""
            if r.regime is not None:
                stream = (
                    f"segments={r.segments} generated={r.generated} "
                    f"served={r.served} regime={r.regime} "
                )
            lines.append(
                f"  #{r.index}: |V|={r.nodes} |E|={r.links} events={r.events} "
                f"reopts={r.reoptimizations} avail={r.availability:.4f} "
                f"primed={'y' if r.primed else 'n'} {stream}{status}"
            )
        return "\n".join(lines)


def _random_policy(rng: np.random.Generator) -> RecoveryPolicy:
    return RecoveryPolicy(
        detection_delay=round(float(rng.uniform(0.0, 1.0)), 3),
        flap_backoff=float(rng.choice([0.0, 0.25, 0.5])),
        max_retries=int(rng.integers(0, 3)),
        min_dwell=float(rng.choice([0.0, 1.0, 3.0])),
        repair=bool(rng.random() < 0.5),
        repair_after=float(rng.choice([0.0, 0.5])),
    )


def _scale_policy(rng: np.random.Generator, horizon: float) -> RecoveryPolicy:
    # A dwell floor bounds re-optimizations to ~horizon/dwell per campaign,
    # and structural repair stays off (cluster re-solves already re-place
    # within touched clusters).
    return RecoveryPolicy(
        detection_delay=round(float(rng.uniform(0.1, 0.5)), 3),
        min_dwell=horizon / 8.0,
        repair=False,
    )


def _campaign_timeline(
    rng: np.random.Generator,
    problem: ProblemInstance,
    config: ChaosConfig,
    *,
    timeline_seed: int,
) -> FailureTimeline:
    links = canonical_links(problem)
    exclude = (pinned_origin(problem),) if rng.random() < 0.5 else ()
    srlg: tuple = ()
    if len(links) >= 3 and rng.random() < 0.5:
        chosen = rng.choice(len(links), size=int(rng.integers(2, 4)), replace=False)
        srlg = (tuple(links[int(j)] for j in sorted(chosen)),)
    link_mtbf = max(1.0, len(links) * config.horizon / max(1, config.min_events))
    mttr = round(float(rng.uniform(1.0, 5.0)), 3)
    for _ in range(8):
        tcfg = TimelineConfig(
            horizon=config.horizon,
            link_mtbf=link_mtbf,
            link_mttr=mttr,
            node_mtbf=None if rng.random() < 0.4 else 4.0 * link_mtbf,
            node_mttr=2.0 * mttr,
            flap_probability=round(float(rng.uniform(0.0, 0.5)), 3),
            flap_mttr=0.05,
            srlg_groups=srlg,
            srlg_mtbf=2.0 * link_mtbf,
            srlg_mttr=mttr,
            exclude_nodes=exclude,
        )
        timeline = generate_timeline(
            problem, tcfg, seed=timeline_seed, name=f"chaos:{timeline_seed}"
        )
        if len(timeline) >= config.min_events:
            return timeline
        link_mtbf /= 2.0
    return timeline


def run_chaos(
    config: ChaosConfig = ChaosConfig(), *, raise_on_violation: bool = False
) -> ChaosReport:
    """Run seeded randomized campaigns with full invariant checking.

    Every campaign replays its timeline under an :class:`InvariantChecker`
    and checks static parity on its first fault; streamed campaigns also
    assert :func:`check_streaming_invariants`.  With ``raise_on_violation``
    the first broken invariant raises :class:`AssertionError` naming the
    event time (or campaign); otherwise violations are collected per
    campaign into the returned report.
    """
    streamed = config.requests > 0
    scale = config.n_total is not None
    if streamed and scale:
        raise InvalidProblemError(
            "streamed chaos campaigns run on random instances; "
            "set n_total or requests, not both"
        )
    results: list[CampaignResult] = []
    children = np.random.SeedSequence(config.seed).spawn(config.campaigns)
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        if scale:
            problem = hierarchy_problem(
                config.n_total, n_items=config.n_items, seed=1000 * config.seed + index
            )
        else:
            n_nodes = int(rng.integers(config.min_nodes, config.max_nodes + 1))
            problem = random_problem(rng, n_nodes=n_nodes, n_items=config.n_items)
        placement = random_placement(rng, problem)
        timeline_seed = int(rng.integers(0, 2**31 - 1))
        timeline = _campaign_timeline(rng, problem, config, timeline_seed=timeline_seed)
        policy = _scale_policy(rng, config.horizon) if scale else _random_policy(rng)
        primed = False
        if not (scale or streamed):
            primed = bool(rng.random() < 0.7)
        context = SolverContext.from_problem(
            problem, backend="dense" if primed else "lazy"
        )
        partition = partition_graph(problem.network, seed=index) if scale else None

        checker = InvariantChecker(strict=raise_on_violation)
        counts: dict = {}
        stream_violations: list[str] = []
        if streamed:
            report, counts, stream_violations = _streamed_replay(
                rng, problem, placement, timeline, policy, config, context, checker
            )
            if stream_violations and raise_on_violation:
                raise AssertionError(
                    f"chaos campaign #{index} violated streaming invariants:\n  "
                    + "\n  ".join(stream_violations)
                )
        else:
            report = replay_timeline(
                problem,
                placement.copy(),
                timeline,
                policy,
                context=context,
                observer=checker,
                partition=partition,
            )

        parity_ok = True
        if timeline.failures:
            first = timeline.failures[0].fault
            scenario = FailureScenario(f"chaos-parity:{index}", (first,))
            try:
                check_static_parity(
                    problem,
                    placement,
                    scenario,
                    repair=policy.repair,
                    context=context,
                )
            except AssertionError:
                parity_ok = False
                if raise_on_violation:
                    raise

        results.append(
            CampaignResult(
                index=index,
                nodes=problem.network.num_nodes,
                links=len(canonical_links(problem)),
                events=report.events,
                reoptimizations=report.reoptimizations,
                availability=report.availability,
                primed=primed,
                violations=checker.violations + stream_violations,
                static_parity_ok=parity_ok,
                **counts,
            )
        )
    return ChaosReport(results=results)


# ----------------------------------------------------------------------
# Streamed campaigns (failures under load)
# ----------------------------------------------------------------------


def check_streaming_invariants(report, *, tol: float = _TOL) -> list[str]:
    """Request-level chaos invariants over a segmented streaming replay.

    ``report`` is a :class:`~repro.robustness.streaming.
    StreamingTimelineReport`.  Returns human-readable violation strings
    (empty = all invariants hold); see the module docstring, items 6-8.
    """
    violations: list[str] = []

    def violate(msg: str) -> None:
        violations.append(msg)

    prev = None
    for seg in report.segments:
        acc, tables = seg.accumulator, seg.tables
        where = f"segment #{seg.index} [{seg.start:g}, {seg.end:g})"
        if acc is None:  # pragma: no cover - driver always attaches one
            violate(f"{where}: no accumulator")
            continue
        if (acc.served > acc.generated).any():
            violate(f"{where}: a type served more requests than it generated")

        node_idx = tables.node_index()
        node_down = np.zeros(len(tables.nodes), dtype=bool)
        for v in seg.down_nodes:
            k = node_idx.get(v)
            if k is not None:
                node_down[k] = True
        edge_dead = node_down[tables.edge_src] | node_down[tables.edge_dst]
        if seg.down_links:
            for k, e in enumerate(tables.edges):
                if e in seg.down_links:
                    edge_dead[k] = True
        bad = edge_dead & (acc.edge_volume > 0)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            violate(
                f"{where}: served volume {acc.edge_volume[k]:g} over dead "
                f"link {tables.edges[k]!r}"
            )
        req_down = node_down[tables.type_req]
        if (req_down & (acc.served > 0)).any():
            t = int(np.flatnonzero(req_down & (acc.served > 0))[0])
            violate(
                f"{where}: dead requester type {tables.types[t]!r} was served"
            )

        if (
            prev is not None
            and "fail" not in seg.kinds
            and "workload" not in seg.kinds
        ):
            scale = max(1.0, prev.served_rate)
            if seg.served_rate < prev.served_rate - tol * scale:
                violate(
                    f"{where}: {'/'.join(seg.kinds)} boundary dropped the "
                    f"expected served rate {prev.served_rate:g} -> "
                    f"{seg.served_rate:g}"
                )
        prev = seg

    if report.served + report.dropped != report.generated:
        violate(
            f"global: served {report.served} + dropped {report.dropped} "
            f"!= generated {report.generated}"
        )
    if (report.per_type_served > report.per_type_generated).any():
        violate("global: a type served more requests than it generated")

    for label, observed, expected, variance in (
        ("generated", report.generated, report.expected_generated,
         report.expected_generated),
        ("served", report.served, report.expected_served,
         report.expected_served),
        ("delivered cost", report.delivered_cost, report.expected_cost,
         report.cost_variance),
    ):
        bound = 6.0 * float(np.sqrt(max(variance, 0.0))) + tol
        if abs(observed - expected) > bound:
            violate(
                f"global: {label} {observed:g} is over 6 sigma from its "
                f"expectation {expected:g} (sigma {np.sqrt(max(variance, 0.0)):g})"
            )
    return violations


def _random_regime(rng: np.random.Generator, problem, horizon: float):
    """A random non-stationary workload (name, regime-or-None)."""
    from repro.workload.nonstationary import (
        CompositeRegime,
        DiurnalCycle,
        FlashCrowd,
        PopularityChurn,
    )

    regimes = []
    names = []
    items = list(problem.catalog)
    if rng.random() < 0.8:
        hot = items[int(rng.integers(0, len(items)))]
        start = round(float(rng.uniform(0.0, 0.6 * horizon)), 3)
        duration = round(float(rng.uniform(0.1, 0.3)) * horizon, 3)
        regimes.append(
            FlashCrowd(
                start=start,
                duration=duration,
                hot_items=(hot,),
                multiplier=float(rng.choice([10.0, 100.0])),
            )
        )
        names.append("flash")
    if rng.random() < 0.5:
        regimes.append(
            DiurnalCycle(period=horizon / 2.0, amplitude=0.4, steps=8)
        )
        names.append("diurnal")
    if rng.random() < 0.5:
        regimes.append(
            PopularityChurn(
                interval=horizon / 5.0, seed=int(rng.integers(0, 2**31 - 1))
            )
        )
        names.append("churn")
    if not regimes:
        return "stationary", None
    if len(regimes) == 1:
        return names[0], regimes[0]
    return "+".join(names), CompositeRegime(tuple(regimes))


#: Reactive strategies riding every streamed campaign's request stream.
_STREAM_RIDERS = ("lce", "probcache")


def _streamed_replay(
    rng, problem, placement, timeline, policy, config, context, observer
) -> tuple[TimelineReport, dict, list[str]]:
    """Replay one campaign at the request level.

    Streams a random non-stationary regime with the ``_STREAM_RIDERS``
    reactive engines riding it, and asserts
    :func:`check_streaming_invariants`, exact offered-rate conservation when
    the regime is churn-only or absent, and that dead reactive caches hold
    nothing.  Returns the analytic report, the request counts of the
    campaign's :class:`CampaignResult` and the request-level violations.
    """
    from repro.adaptive.strategies import (
        ReactiveStrategyEngine,
        build_reactive_tables,
    )
    from repro.robustness.streaming import replay_timeline_streaming
    from repro.serving.engine import ServingConfig

    regime_name, regime = _random_regime(rng, problem, config.horizon)
    rt = build_reactive_tables(problem)
    engines = {
        name: ReactiveStrategyEngine(
            rt, strategy=name, seed=int(rng.integers(0, 2**31 - 1))
        )
        for name in _STREAM_RIDERS
    }
    total = problem.total_demand
    stream = replay_timeline_streaming(
        problem,
        placement.copy(),
        timeline,
        policy,
        config=ServingConfig(
            horizon=config.horizon,
            seed=int(rng.integers(0, 2**31 - 1)),
            n_shards=int(rng.integers(1, 4)),
        ),
        rate_scale=config.requests / (total * config.horizon),
        workload=regime,
        reactive=engines,
        context=context,
        observer=observer,
    )

    violations = check_streaming_invariants(stream)
    if regime_name in ("stationary", "churn"):
        # Churn permutes popularity but conserves the total demand
        # rate exactly — offered load must match in every segment.
        for seg in stream.segments:
            if abs(seg.offered_rate - total) > 1e-9 * max(1.0, total):
                violations.append(
                    f"segment #{seg.index}: churn broke demand "
                    f"conservation: offered {seg.offered_rate!r} != "
                    f"total {total!r}"
                )
    for name, engine in engines.items():
        state = engine.state
        if state.resident[state.down].any():
            violations.append(f"reactive[{name}]: a dead cache still holds items")
    counts = {
        "regime": regime_name,
        "segments": len(stream.segments),
        "generated": stream.generated,
        "served": stream.served,
    }
    return stream.analytic, counts, violations
