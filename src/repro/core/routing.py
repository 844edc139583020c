"""Source selection + routing under a fixed placement (Section 4.3.2).

With the placement fixed, adding one virtual source per content item — wired
by free uncapacitated links to every node holding that item — reduces joint
source selection and routing to a pure routing problem in the auxiliary
graph ``G^x`` (the per-item analogue of Lemma 4.5):

- fractional routing: the minimum-cost multiple-source splittable flow
  problem (MMSFP), solved exactly as an LP with one commodity per item.
  :func:`mmsfp_routing` is the only MMSFP path: every call assembles that LP
  over the current placement's ``G^x`` through
  :func:`~repro.flow.mincost.min_cost_multicommodity_flow`;
- integral routing: MMUFP, NP-hard, attacked by the paper's two heuristics —
  LP relaxation with randomized path rounding, and greedy capacity-aware
  path assignment.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.evaluation import congestion, routing_cost
from repro.core.problem import Item, ProblemInstance
from repro.core.solution import Placement, Routing
from repro.exceptions import InfeasibleError
from repro.flow.decomposition import PathFlow, decompose_single_source_flow
from repro.flow.mincost import Commodity, min_cost_multicommodity_flow
from repro.graph.network import CAPACITY, COST
from repro.graph.shortest_paths import reconstruct_path, single_source_dijkstra

Node = Hashable

_EPS = 1e-9


def _item_source(item: Item) -> tuple[str, Item]:
    return ("__item_source__", item)


def holders_of(problem: ProblemInstance, placement: Placement, item: Item) -> set[Node]:
    """Nodes that can serve ``item``: integral replicas plus pinned copies."""
    holders = {
        v for v in placement.holders(item) if placement[(v, item)] >= 1 - 1e-6
    }
    holders |= problem.pinned_holders(item)
    return holders


def build_item_auxiliary_graph(
    problem: ProblemInstance, placement: Placement
) -> tuple[nx.DiGraph, dict[Item, tuple[str, Item]]]:
    """The auxiliary graph ``G^x`` with one virtual source per requested item."""
    aux = problem.network.graph.copy()
    sources: dict[Item, tuple[str, Item]] = {}
    for item in sorted({i for (i, _s) in problem.demand}, key=repr):
        vs = _item_source(item)
        aux.add_node(vs)
        sources[item] = vs
        holders = holders_of(problem, placement, item)
        if not holders:
            raise InfeasibleError(f"no node holds item {item!r}")
        for holder in sorted(holders, key=repr):
            aux.add_edge(vs, holder, **{COST: 0.0, CAPACITY: math.inf})
    return aux, sources


def _strip_virtual(path: tuple[Node, ...]) -> tuple[Node, ...]:
    if path and isinstance(path[0], tuple) and path[0][0] == "__item_source__":
        return path[1:]
    return path


@dataclass
class FractionalRoutingResult:
    routing: Routing
    #: Optimal MMSFP objective — a lower bound on any integral routing cost
    #: under the same placement.
    cost: float


def mmsfp_routing(
    problem: ProblemInstance, placement: Placement
) -> FractionalRoutingResult:
    """Optimal fractional routing (MMSFP) under the given placement."""
    aux, sources = build_item_auxiliary_graph(problem, placement)
    commodities = []
    for item, vs in sources.items():
        demands: dict[Node, float] = {}
        for (i, s), rate in problem.demand.items():
            if i == item:
                demands[s] = demands.get(s, 0.0) + rate
        commodities.append(Commodity(name=item, source=vs, demands=demands))
    flows, cost = min_cost_multicommodity_flow(aux, commodities)
    routing = Routing()
    for commodity in commodities:
        per_sink = decompose_single_source_flow(
            flows[commodity.name], commodity.source, commodity.demands
        )
        for (i, s), rate in problem.demand.items():
            if i != commodity.name:
                continue
            routing.paths[(i, s)] = [
                PathFlow(path=_strip_virtual(pf.path), amount=pf.amount / rate)
                for pf in per_sink[s]
            ]
    return FractionalRoutingResult(routing=routing, cost=cost)


def randomized_rounding_routing(
    problem: ProblemInstance,
    placement: Placement,
    *,
    rng: np.random.Generator | None = None,
    n_samples: int = 16,
) -> Routing:
    """MMUFP heuristic: LP relaxation + randomized path rounding.

    Draw each request's single path proportionally to its fractional flow,
    ``n_samples`` times; keep the draw with the best (congestion clamped at
    feasibility, then cost) score — the standard rounding of [26].
    """
    rng = rng or np.random.default_rng()
    fractional = mmsfp_routing(problem, placement)
    requests = problem.requests
    options: dict = {}
    for request in requests:
        pfs = fractional.routing.paths[request]
        amounts = np.array([pf.amount for pf in pfs])
        total = amounts.sum()
        if total <= _EPS:
            raise InfeasibleError(f"request {request!r} has no fractional flow")
        options[request] = (pfs, amounts / total)

    best: Routing | None = None
    best_score: tuple[float, float] | None = None
    for _ in range(max(1, n_samples)):
        candidate = Routing()
        for request in requests:
            pfs, probs = options[request]
            choice = int(rng.choice(len(pfs), p=probs))
            candidate.paths[request] = [PathFlow(path=pfs[choice].path, amount=1.0)]
        score = (
            max(1.0, congestion(problem, candidate)),
            routing_cost(problem, candidate),
        )
        if best_score is None or score < best_score:
            best, best_score = candidate, score
    assert best is not None
    return best


def greedy_unsplittable_routing(
    problem: ProblemInstance,
    placement: Placement,
) -> Routing:
    """MMUFP heuristic: capacity-aware greedy path assignment.

    Requests are processed in decreasing rate order; each is routed on the
    cheapest path whose links all retain enough residual capacity, falling
    back to the cheapest unconstrained path when no such path exists (the
    overload is then visible as congestion > 1, as in the paper's plots).
    """
    aux, sources = build_item_auxiliary_graph(problem, placement)
    residual = {
        (u, v): d.get(CAPACITY, math.inf) for u, v, d in aux.edges(data=True)
    }
    routing = Routing()
    order = sorted(problem.demand.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for (item, s), rate in order:
        vs = sources[item]
        feasible = nx.DiGraph()
        feasible.add_node(vs)
        feasible.add_node(s)
        for (u, v), res in residual.items():
            if res >= rate - _EPS:
                feasible.add_edge(u, v, **{COST: aux.edges[u, v][COST]})
        dist, pred = single_source_dijkstra(feasible, vs)
        if s in dist:
            path = tuple(reconstruct_path(pred, vs, s))
        else:
            dist, pred = single_source_dijkstra(aux, vs)
            if s not in dist:
                raise InfeasibleError(f"requester {s!r} unreachable for item {item!r}")
            path = tuple(reconstruct_path(pred, vs, s))
        for e in zip(path[:-1], path[1:]):
            residual[e] = residual.get(e, math.inf) - rate
        routing.paths[(item, s)] = [PathFlow(path=_strip_virtual(path), amount=1.0)]
    return routing


def mmufp_routing(
    problem: ProblemInstance,
    placement: Placement,
    *,
    method: str = "randomized",
    rng: np.random.Generator | None = None,
    n_samples: int = 16,
) -> Routing:
    """Integral routing under a fixed placement, by the selected heuristic.

    ``method="best"`` runs both heuristics and keeps the better one under
    the (feasibility-first, then cost) score.
    """
    if method == "randomized":
        return randomized_rounding_routing(
            problem, placement, rng=rng, n_samples=n_samples
        )
    if method == "greedy":
        return greedy_unsplittable_routing(problem, placement)
    if method == "best":
        candidates = [
            randomized_rounding_routing(
                problem, placement, rng=rng, n_samples=n_samples
            ),
            greedy_unsplittable_routing(problem, placement),
        ]
        return min(
            candidates,
            key=lambda r: (
                max(1.0, congestion(problem, r)),
                routing_cost(problem, r),
            ),
        )
    raise ValueError(f"unknown MMUFP method {method!r}")
