"""Evaluation metrics: routing cost, link loads, congestion, feasibility.

These implement the quantities reported in the paper's Section 6:

- *routing cost* — objective (1a), evaluated against a (possibly different,
  e.g. true-instead-of-predicted) demand;
- *congestion* — the maximum load-to-capacity ratio over all links;
- *max cache occupancy* — used to expose the benchmarks' infeasible
  placements in the heterogeneous-size experiments (Fig. 5);
- a full feasibility report for constraints (1b)-(1f).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.context import SolverContext
from repro.core.problem import Node, ProblemInstance, Request
from repro.core.solution import Placement, Routing, Solution
from repro.graph.network import CacheNetwork

Edge = tuple[Node, Node]

_EPS = 1e-9
#: Slack :func:`check_feasibility` allows on every constraint.
_FEASIBILITY_TOL = 1e-6


def path_cost(network: CacheNetwork, path: tuple[Node, ...]) -> float:
    """Routing cost of one concrete path."""
    return sum(network.cost(u, v) for u, v in zip(path[:-1], path[1:]))


def routing_cost(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> float:
    """Total routing cost (1a) of ``routing`` under ``demand``.

    ``demand`` defaults to the problem's own demand; pass the *true* rates to
    evaluate a solution computed from predicted rates (Section 6's protocol).
    Requests present in ``demand`` but unrouted contribute nothing here — use
    :func:`check_feasibility` to detect them.
    """
    demand = problem.demand if demand is None else demand
    network = problem.network
    total = 0.0
    for request, rate in demand.items():
        for pf in routing.paths.get(request, []):
            total += rate * pf.amount * path_cost(network, pf.path)
    return total


def link_loads(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> dict[Edge, float]:
    """Traffic load imposed on every link (left side of constraint (1b))."""
    demand = problem.demand if demand is None else demand
    loads: dict[Edge, float] = {}
    for request, rate in demand.items():
        for pf in routing.paths.get(request, []):
            for e in pf.edges():
                loads[e] = loads.get(e, 0.0) + rate * pf.amount
    return loads


def link_utilization(
    network: CacheNetwork, loads: Mapping[Edge, float]
) -> dict[Edge, float]:
    """Load-to-capacity ratio of every capacitated link in ``loads``, the one
    per-link rule.  A zero-capacity link (possible when callers mutate edge
    attributes directly) reports ``inf`` under positive load and 0.0 under none."""
    profile: dict[Edge, float] = {}
    for (u, v), load in loads.items():
        cap = network.capacity(u, v)
        if math.isinf(cap):
            continue
        if cap <= 0:
            profile[(u, v)] = math.inf if load > _EPS else 0.0
        else:
            profile[(u, v)] = load / cap
    return profile


def congestion(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> float:
    """Maximum :func:`link_utilization` over all links (0 if all uncapacitated)."""
    loads = link_loads(problem, routing, demand=demand)
    return max(link_utilization(problem.network, loads).values(), default=0.0)


def max_cache_occupancy(problem: ProblemInstance, placement: Placement) -> float:
    """Max over cache nodes of used/available cache space (pinned is free)."""
    worst = 0.0
    usage = placement.used_capacities(problem)
    for v in problem.network.cache_nodes():
        cap = problem.network.cache_capacity(v)
        used = usage.get(v, 0)
        if cap > 0:
            worst = max(worst, used / cap)
        elif used > _EPS:
            worst = math.inf
    return worst


@dataclass
class FeasibilityReport:
    """Outcome of checking a solution against constraints (1b)-(1f)."""

    cache_ok: bool = True
    links_ok: bool = True
    served_ok: bool = True
    sources_ok: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.cache_ok and self.links_ok and self.served_ok and self.sources_ok


def check_feasibility(
    problem: ProblemInstance,
    solution: Solution,
) -> FeasibilityReport:
    """Verify cache capacities, link capacities, service, and source validity."""
    report = FeasibilityReport()
    network = problem.network
    placement, routing = solution.placement, solution.routing

    usage = placement.used_capacities(problem)
    for v in network.nodes:
        used = usage.get(v, 0)
        cap = network.cache_capacity(v)
        if used > cap + _FEASIBILITY_TOL:
            report.cache_ok = False
            report.violations.append(
                f"cache at {v!r} holds {used:.4g} > capacity {cap:.4g}"
            )

    for (u, v), load in link_loads(problem, routing).items():
        if not network.has_edge(u, v):
            report.links_ok = False
            report.violations.append(f"routing uses missing link ({u!r}, {v!r})")
            continue
        cap = network.capacity(u, v)
        if load > cap + _FEASIBILITY_TOL * max(1.0, cap):
            report.links_ok = False
            report.violations.append(
                f"link ({u!r}, {v!r}) carries {load:.6g} > capacity {cap:.6g}"
            )

    for request, rate in problem.demand.items():
        served = routing.served_fraction(request)
        if served < 1 - _FEASIBILITY_TOL:
            report.served_ok = False
            report.violations.append(
                f"request {request!r} only served at fraction {served:.4g}"
            )
        item, requester = request
        for pf in routing.paths.get(request, []):
            if pf.sink != requester:
                report.sources_ok = False
                report.violations.append(
                    f"path for {request!r} ends at {pf.sink!r}, not the requester"
                )
        for source, fraction in routing.sources(request).items():
            available = placement[(source, item)]
            if (source, item) in problem.pinned:
                available = 1.0
            if fraction > available + _FEASIBILITY_TOL:
                report.sources_ok = False
                report.violations.append(
                    f"request {request!r} draws {fraction:.4g} from {source!r} "
                    f"which stores only {available:.4g} of item {item!r}"
                )
    return report


def cache_hit_rate(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> float:
    """Fraction of demand served from caches rather than pinned origins.

    A request (fraction) counts as a cache hit when its serving source is
    not a pinned holder of the item — i.e. the traffic an operator keeps off
    the origin. Self-serving from the requester's own cache counts as a hit.
    """
    demand = problem.demand if demand is None else demand
    total = 0.0
    hits = 0.0
    for request, rate in demand.items():
        item, _s = request
        for source, fraction in routing.sources(request).items():
            total += rate * fraction
            if (source, item) not in problem.pinned:
                hits += rate * fraction
    return hits / total if total > 0 else 0.0


def path_stretch(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> float:
    """Demand-weighted mean ratio of served cost to the cheapest possible.

    The floor per request is the distance from the nearest node that COULD
    hold the item (cache-capable or pinned): 1.0 means every request is
    served as cheaply as any placement/routing ever could; larger values
    quantify detours from capacity constraints or suboptimal placement.
    Requests whose floor is 0 (servable from their own cache) contribute
    stretch 1.0 when actually served at zero cost.
    """
    demand = problem.demand if demand is None else demand
    context = SolverContext.from_problem(problem, backend="lazy")
    # Only nodes that could actually hold a copy enter the floor: caches
    # with strictly positive capacity (zero-capacity nodes would understate
    # the floor and overstate stretch).  Pinned holders stay regardless.
    candidates_base = {
        v
        for v in problem.network.cache_nodes()
        if problem.network.cache_capacity(v) > 0
    }
    total_weight = 0.0
    weighted = 0.0
    for request, rate in demand.items():
        item, s = request
        candidates = candidates_base | problem.pinned_holders(item)
        floor = min((context.distance(v, s) for v in candidates), default=math.inf)
        served = sum(
            pf.amount * path_cost(problem.network, pf.path)
            for pf in routing.paths.get(request, [])
        )
        if math.isinf(floor):
            continue
        stretch = 1.0 if served <= floor + _EPS else (
            served / floor if floor > _EPS else math.inf
        )
        if math.isinf(stretch):
            continue
        total_weight += rate
        weighted += rate * stretch
    return weighted / total_weight if total_weight > 0 else 1.0


def utilization_profile(
    problem: ProblemInstance,
    routing: Routing,
    *,
    demand: dict[Request, float] | None = None,
) -> dict[Edge, float]:
    """Per-link :func:`link_utilization` of ``routing`` (capacitated links only)."""
    loads = link_loads(problem, routing, demand=demand)
    return link_utilization(problem.network, loads)


def summarize(problem: ProblemInstance, solution: Solution) -> dict[str, float]:
    """A solution's headline metrics in one dict (cost, congestion, cache
    occupancy, hit rate and feasibility as 0/1); a public helper for
    library users, not called inside the package."""
    return {
        "routing_cost": routing_cost(problem, solution.routing),
        "congestion": congestion(problem, solution.routing),
        "max_cache_occupancy": max_cache_occupancy(problem, solution.placement),
        "cache_hit_rate": cache_hit_rate(problem, solution.routing),
        "feasible": float(check_feasibility(problem, solution).feasible),
    }
