"""Combinatorial min-cost flow: successive shortest paths with potentials.

An LP-independent reference for the single-source splittable flows at the
heart of Algorithm 2, which solves them with the LP of
:mod:`repro.flow.mincost`.  The classic
algorithm maintains Johnson potentials so every augmentation is a plain
Dijkstra run on reduced costs:

1. start from the zero flow and potentials = shortest-path distances;
2. repeatedly send flow from the source to the nearest sink with unmet
   demand along a shortest path of the residual network;
3. update potentials with the new distances.

With nonnegative costs this returns an exact optimum, which
``tests/flow/test_ssp.py`` checks against the LP on random instances.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Hashable, Mapping

import networkx as nx

from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.graph.network import CAPACITY, COST

Node = Hashable
Edge = tuple[Node, Node]

_EPS = 1e-9


def min_cost_flow_ssp(
    graph: nx.DiGraph,
    source: Node,
    demands: Mapping[Node, float],
) -> tuple[dict[Edge, float], float]:
    """Exact min-cost single-source flow by successive shortest paths.

    Same contract as :func:`repro.flow.mincost.min_cost_single_source_flow`.
    """
    if source not in graph:
        raise InvalidProblemError(f"source {source!r} not in graph")
    remaining: dict[Node, float] = {}
    for sink, demand in demands.items():
        if sink not in graph:
            raise InvalidProblemError(f"sink {sink!r} not in graph")
        if demand < 0:
            raise InvalidProblemError("demands must be nonnegative")
        if sink != source and demand > _EPS:
            remaining[sink] = float(demand)
    flow: dict[Edge, float] = {}
    if not remaining:
        return flow, 0.0

    costs = {
        (u, v): data.get(COST, 1.0) for u, v, data in graph.edges(data=True)
    }
    caps = {
        (u, v): data.get(CAPACITY, math.inf)
        for u, v, data in graph.edges(data=True)
    }
    if any(c < 0 for c in costs.values()):
        raise InvalidProblemError("costs must be nonnegative")
    in_edges: dict[Node, list[Node]] = {v: [] for v in graph.nodes}
    out_edges: dict[Node, list[Node]] = {v: [] for v in graph.nodes}
    for (u, v) in costs:
        out_edges[u].append(v)
        in_edges[v].append(u)
        flow[(u, v)] = 0.0

    potential: dict[Node, float] = {v: 0.0 for v in graph.nodes}

    counter = itertools.count()
    while remaining:
        # Dijkstra on reduced costs over the residual network.
        dist: dict[Node, float] = {source: 0.0}
        pred: dict[Node, tuple[Edge, int]] = {}
        done: set[Node] = set()
        heap = [(0.0, next(counter), source)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v in out_edges[u]:
                if caps[(u, v)] - flow[(u, v)] > _EPS and v not in done:
                    reduced = costs[(u, v)] + potential[u] - potential[v]
                    nd = d + max(reduced, 0.0)
                    if nd < dist.get(v, math.inf) - 1e-15:
                        dist[v] = nd
                        pred[v] = ((u, v), +1)
                        heapq.heappush(heap, (nd, next(counter), v))
            for v in in_edges[u]:
                if flow[(v, u)] > _EPS and v not in done:
                    reduced = -costs[(v, u)] + potential[u] - potential[v]
                    nd = d + max(reduced, 0.0)
                    if nd < dist.get(v, math.inf) - 1e-15:
                        dist[v] = nd
                        pred[v] = ((v, u), -1)
                        heapq.heappush(heap, (nd, next(counter), v))

        target = None
        best = math.inf
        for sink in remaining:
            d = dist.get(sink, math.inf)
            if d < best:
                best, target = d, sink
        if target is None:
            raise InfeasibleError("remaining demand is unreachable within capacities")

        # Trace the augmenting path and its bottleneck.
        path: list[tuple[Edge, int]] = []
        node = target
        while node != source:
            edge, direction = pred[node]
            path.append((edge, direction))
            node = edge[0] if direction > 0 else edge[1]
        bottleneck = remaining[target]
        for edge, direction in path:
            if direction > 0:
                bottleneck = min(bottleneck, caps[edge] - flow[edge])
            else:
                bottleneck = min(bottleneck, flow[edge])
        for edge, direction in path:
            flow[edge] += direction * bottleneck
            if flow[edge] < 0:
                flow[edge] = 0.0
        remaining[target] -= bottleneck
        if remaining[target] <= _EPS:
            del remaining[target]
        for v, d in dist.items():
            potential[v] += d

    total_cost = sum(costs[e] * f for e, f in flow.items() if f > _EPS)
    return {e: f for e, f in flow.items() if f > _EPS}, total_cost
