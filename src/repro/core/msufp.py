"""Algorithm 2: bicriteria approximation for MSUFP (Section 4.2, Theorem 4.7).

The minimum-cost single-source unsplittable flow problem arises when a known
subset of nodes stores the entire catalog (binary cache capacities): adding a
virtual source wired to every replica node with free, uncapacitated links
turns joint source selection + routing into pure single-source routing
(Lemma 4.5, Fig. 2 / Fig. 10).

Algorithm 2:

1. solve the splittable relaxation at minimum cost (one LP through
   :func:`~repro.flow.mincost.min_cost_single_source_flow`);
2. convert it to path flows and *round demands down* to the grid
   ``lambda_max * 2^(m/K)`` (equation (11)), trimming each commodity's most
   expensive paths to match the rounded demand;
3. partition commodities into ``K`` groups whose rounded demands differ by
   powers of two (equation (12)) and round each group's flow to single paths
   with the Skutella subroutine (Lemma 4.6).

The result costs no more than the splittable optimum and loads every link at
most ``2^(1/K) * c_e + 2^(1/K) / (2 (2^(1/K) - 1)) * lambda_max``
(Theorem 4.7): K=2 recovers the state of the art of [33]; large K gives the
first ``(1 + eps, 1)``-approximation when demands are small.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

import networkx as nx

from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, Routing, Solution
from repro.exceptions import InvalidProblemError
from repro.flow.decomposition import (
    PathFlow,
    decompose_single_source_flow,
    split_among_commodities,
    split_with_removal_quotas,
)
from repro.flow.mincost import min_cost_single_source_flow
from repro.flow.unsplittable import round_to_unsplittable
from repro.graph.network import CAPACITY, COST

Node = Hashable
Edge = tuple[Node, Node]

_EPS = 1e-9

#: Node id of the virtual source added by the binary-cache reduction.
VIRTUAL_SOURCE = "__virtual_source__"


@dataclass(frozen=True)
class MSUFPCommodity:
    """One commodity: route ``demand`` from the common source to ``sink``."""

    id: Hashable
    sink: Node
    demand: float


@dataclass
class MSUFPResult:
    """Paths chosen by Algorithm 2 plus bookkeeping for its guarantees."""

    paths: dict[Hashable, tuple[Node, ...]]
    splittable_cost: float
    splittable_flow: dict[Edge, float]
    rounded_demands: dict[Hashable, float]
    unsplittable_cost: float
    K: int

    def link_loads(self, demands: dict[Hashable, float]) -> dict[Edge, float]:
        loads: dict[Edge, float] = {}
        for cid, path in self.paths.items():
            for e in zip(path[:-1], path[1:]):
                loads[e] = loads.get(e, 0.0) + demands[cid]
        return loads


def theorem_4_7_load_bound(K: int, lambda_max: float, capacity: float) -> float:
    """Per-link load bound of Theorem 4.7(ii)."""
    g = 2.0 ** (1.0 / K)
    return g / (2.0 * (g - 1.0)) * lambda_max + g * capacity


def _round_demand(value: float, lambda_max: float, K: int) -> tuple[float, int]:
    """Equation (11): rounded demand and its grid exponent ``m`` (value = lmax*2^(m/K))."""
    if value >= lambda_max * (1 - 1e-12):
        m = -1
    else:
        m = math.floor(K * math.log2(value / lambda_max) + 1e-9)
    j = m % K
    q = (j - m) // K
    rounded = lambda_max * (2.0 ** (j / K)) * (0.5**q)
    return rounded, m


def solve_msufp(
    graph: nx.DiGraph,
    source: Node,
    commodities: list[MSUFPCommodity],
    *,
    K: int = 2,
) -> MSUFPResult:
    """Run Algorithm 2.  ``K=2`` reproduces the benchmark of [33].

    Line 1's splittable flow is solved exactly as an LP (HiGHS);
    :func:`~repro.flow.ssp.min_cost_flow_ssp` is its independent
    combinatorial cross-check in the tests.
    """
    if K < 1:
        raise InvalidProblemError("K must be a positive integer")
    ids = [c.id for c in commodities]
    if len(set(ids)) != len(ids):
        raise InvalidProblemError("commodity ids must be unique")
    if not commodities:
        return MSUFPResult({}, 0.0, {}, {}, 0.0, K)
    if any(c.demand <= 0 for c in commodities):
        raise InvalidProblemError("demands must be positive")

    costs = {(u, v): d.get(COST, 0.0) for u, v, d in graph.edges(data=True)}

    # Line 1: optimal splittable flow (aggregated by sink).
    aggregate: dict[Node, float] = {}
    for c in commodities:
        aggregate[c.sink] = aggregate.get(c.sink, 0.0) + c.demand
    # The arc incidence is cached per graph object, so repeated Algorithm 2
    # runs on the same (auxiliary) graph skip the rebuild.
    flow, splittable_cost = min_cost_single_source_flow(graph, source, aggregate)

    # Line 3 first: rounded demands (equation (11)) fix each commodity's
    # removal quota, which then steers the per-commodity path split so that
    # expensive slices go to commodities able to trim them (Theorem 4.7(i)).
    lambda_max = max(c.demand for c in commodities)
    rounded: dict[Hashable, float] = {}
    exponents: dict[Hashable, int] = {}
    for c in commodities:
        rounded[c.id], exponents[c.id] = _round_demand(c.demand, lambda_max, K)

    # Line 2: path-level flow per commodity.
    per_sink = decompose_single_source_flow(flow, source, aggregate)
    per_commodity = split_with_removal_quotas(
        per_sink,
        [(c.id, c.sink, c.demand, c.demand - rounded[c.id]) for c in commodities],
        costs=costs,
    )

    # Line 4: trim each commodity's most expensive paths down to its
    # rounded demand.
    reduced: dict[Hashable, list[PathFlow]] = {}
    for c in commodities:
        bar = rounded[c.id]
        paths = sorted(
            per_commodity[c.id],
            key=lambda pf: sum(costs.get(e, 0.0) for e in pf.edges()),
            reverse=True,
        )
        to_remove = c.demand - bar
        kept: list[PathFlow] = []
        for pf in paths:
            if to_remove >= pf.amount - _EPS:
                to_remove -= pf.amount
                continue
            kept.append(PathFlow(path=pf.path, amount=pf.amount - max(0.0, to_remove)))
            to_remove = 0.0
        reduced[c.id] = kept

    # Lines 5-7: per-group Skutella rounding.
    paths_out: dict[Hashable, tuple[Node, ...]] = {}
    groups: dict[int, list[MSUFPCommodity]] = {}
    for c in commodities:
        groups.setdefault(exponents[c.id] % K, []).append(c)
    for j, members in sorted(groups.items()):
        group_flow: dict[Edge, float] = {}
        for c in members:
            for pf in reduced[c.id]:
                for e in pf.edges():
                    group_flow[e] = group_flow.get(e, 0.0) + pf.amount
        group_paths = round_to_unsplittable(
            costs,
            source,
            [(c.id, c.sink, rounded[c.id]) for c in members],
            group_flow,
        )
        paths_out.update(group_paths)

    # Line 8: serve the ORIGINAL demand of each commodity on its path.
    unsplittable_cost = sum(
        c.demand * sum(costs.get(e, 0.0) for e in zip(paths_out[c.id][:-1], paths_out[c.id][1:]))
        for c in commodities
    )
    return MSUFPResult(
        paths=paths_out,
        splittable_cost=splittable_cost,
        splittable_flow=flow,
        rounded_demands=rounded,
        unsplittable_cost=unsplittable_cost,
        K=K,
    )


# ----------------------------------------------------------------------
# Binary-cache-capacity scenario (Section 4.2 / Appendix B)
# ----------------------------------------------------------------------


def build_auxiliary_graph(problem: ProblemInstance, servers: list[Node]) -> nx.DiGraph:
    """Add the virtual source of Lemma 4.5, wired freely to every server."""
    aux = problem.network.graph.copy()
    if VIRTUAL_SOURCE in aux:
        raise InvalidProblemError("network already contains the virtual source id")
    aux.add_node(VIRTUAL_SOURCE)
    for server in servers:
        if server not in problem.network:
            raise InvalidProblemError(f"server {server!r} not in network")
        aux.add_edge(VIRTUAL_SOURCE, server, **{COST: 0.0, CAPACITY: math.inf})
    return aux


def _strip_virtual(path: tuple[Node, ...]) -> tuple[Node, ...]:
    return path[1:] if path and path[0] == VIRTUAL_SOURCE else path


def _check_servers(problem: ProblemInstance, servers: list[Node]) -> None:
    requested = {i for (i, _s) in problem.demand}
    for server in servers:
        missing = requested - problem.pinned_items_at(server)
        if missing:
            raise InvalidProblemError(
                f"server {server!r} must pin the full requested catalog; "
                f"missing {sorted(map(repr, missing))[:3]}..."
            )


def solve_binary_cache_case(
    problem: ProblemInstance,
    servers: list[Node],
    *,
    K: int = 2,
) -> tuple[Solution, MSUFPResult]:
    """Joint source selection + integral routing when ``servers`` hold everything.

    ``servers`` must each pin the whole requested catalog in ``problem``
    (this models ``c_v = |C|`` for ``v in V_s`` and 0 elsewhere).  Returns the
    IC-IR solution obtained by Algorithm 2 on the auxiliary graph together
    with the raw MSUFP result.
    """
    _check_servers(problem, servers)
    aux = build_auxiliary_graph(problem, servers)
    commodities = [
        MSUFPCommodity(id=(i, s), sink=s, demand=rate)
        for (i, s), rate in problem.demand.items()
    ]
    result = solve_msufp(aux, VIRTUAL_SOURCE, commodities, K=K)
    routing = Routing()
    for c in commodities:
        real_path = _strip_virtual(result.paths[c.id])
        routing.paths[c.id] = [PathFlow(path=real_path, amount=1.0)]
    return Solution(Placement(), routing), result


def splittable_binary_cache(
    problem: ProblemInstance,
    servers: list[Node],
) -> tuple[Solution, float]:
    """Fractional-routing lower bound for the binary-cache case (LP optimum)."""
    _check_servers(problem, servers)
    aux = build_auxiliary_graph(problem, servers)
    aggregate: dict[Node, float] = {}
    for (_i, s), rate in problem.demand.items():
        aggregate[s] = aggregate.get(s, 0.0) + rate
    flow, cost = min_cost_single_source_flow(aux, VIRTUAL_SOURCE, aggregate)
    per_sink = decompose_single_source_flow(flow, VIRTUAL_SOURCE, aggregate)
    split = split_among_commodities(
        per_sink,
        [((i, s), s, rate) for (i, s), rate in problem.demand.items()],
    )
    routing = Routing()
    for (i, s), rate in problem.demand.items():
        routing.paths[(i, s)] = [
            PathFlow(path=_strip_virtual(pf.path), amount=pf.amount / rate)
            for pf in split[(i, s)]
        ]
    return Solution(Placement(), routing), cost
