"""Shortest-path primitives (Dijkstra, all-pairs costs, Yen's k-shortest paths).

The paper's algorithms need, for every (cache node ``v``, requester ``s``)
pair, the least routing cost ``w_{v->s}`` of moving one item from ``v`` to
``s`` (Section 4.1.1), plus the actual least-cost paths for building routes,
and k-shortest paths for the candidate-path baseline of [3].

Implemented from scratch on binary heaps; networkx is only used as the graph
container.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Hashable

import networkx as nx

from repro.exceptions import InvalidNetworkError
from repro.graph.network import COST

Node = Hashable


def single_source_dijkstra(
    graph: nx.DiGraph,
    source: Node,
    *,
    weight: str = COST,
) -> tuple[dict[Node, float], dict[Node, Node]]:
    """Least-cost distances and predecessors from ``source`` to all nodes.

    Returns ``(dist, pred)`` where ``dist[v]`` is the least cost of a
    ``source -> v`` path (missing if unreachable) and ``pred[v]`` is ``v``'s
    predecessor on one such path.
    """
    if source not in graph:
        raise InvalidNetworkError(f"source {source!r} not in graph")
    dist: dict[Node, float] = {source: 0.0}
    pred: dict[Node, Node] = {}
    done: set[Node] = set()
    counter = itertools.count()  # tie-breaker so heap never compares nodes
    heap: list[tuple[float, int, Node]] = [(0.0, next(counter), source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for _, v, data in graph.out_edges(u, data=True):
            if v in done:
                continue
            w = data.get(weight, 1.0)
            if w < 0:
                raise InvalidNetworkError(f"negative weight on ({u!r}, {v!r})")
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, next(counter), v))
    return dist, pred


def reconstruct_path(pred: dict[Node, Node], source: Node, target: Node) -> list[Node]:
    """Rebuild the ``source -> target`` path from a predecessor map."""
    if target == source:
        return [source]
    if target not in pred:
        raise InvalidNetworkError(f"{target!r} unreachable from {source!r}")
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def all_pairs_least_costs(
    graph: nx.DiGraph,
    *,
    weight: str = COST,
) -> tuple[dict[Node, dict[Node, float]], float]:
    """All-pairs least costs plus the maximum finite pairwise cost ``w_max``.

    Returns ``(costs, w_max)`` with ``costs[v][s] = w_{v->s}`` (missing keys
    mean unreachable).  ``w_max`` is the paper's upper bound on the maximum
    pairwise cost; for a single-node graph it degenerates to ``1.0`` so that
    downstream formulas stay well-defined.
    """
    costs: dict[Node, dict[Node, float]] = {}
    w_max = 0.0
    for v in graph.nodes:
        dist, _ = single_source_dijkstra(graph, v, weight=weight)
        costs[v] = dist
        if dist:
            w_max = max(w_max, max(dist.values()))
    return costs, (w_max if w_max > 0 else 1.0)


def path_cost(graph: nx.DiGraph, path: list[Node], *, weight: str = COST) -> float:
    """Total cost of a node path under the given edge weight attribute."""
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        if not graph.has_edge(u, v):
            raise InvalidNetworkError(f"path uses missing link ({u!r}, {v!r})")
        total += graph.edges[u, v].get(weight, 1.0)
    return total


def k_shortest_paths(
    graph: nx.DiGraph,
    source: Node,
    target: Node,
    k: int,
    *,
    weight: str = COST,
) -> list[list[Node]]:
    """Yen's algorithm: up to ``k`` loopless least-cost ``source -> target`` paths.

    Returns fewer than ``k`` paths when the graph does not contain that many
    distinct loopless paths. Paths are sorted by increasing cost.

    The spur computations run on a private copy of ``graph``: the caller's
    graph is never mutated, so its node/edge insertion order — which
    iteration-order-dependent code like :func:`all_pairs_least_costs`,
    topology dumps, and heap tie-breaking silently relies on — is preserved.
    (The seed implementation removed and re-added nodes/edges of the shared
    graph, permanently permuting that order.)
    """
    if k <= 0:
        return []
    dist, pred = single_source_dijkstra(graph, source, weight=weight)
    if target not in dist:
        return []
    work = graph.copy()  # all removals/re-additions happen on the copy
    paths: list[list[Node]] = [reconstruct_path(pred, source, target)]
    # Candidate heap holds (cost, counter, path).
    candidates: list[tuple[float, int, list[Node]]] = []
    seen: set[tuple[Node, ...]] = {tuple(paths[0])}
    counter = itertools.count()
    for _ in range(1, k):
        prev_path = paths[-1]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            removed_edges: list[tuple[Node, Node, dict]] = []
            removed_nodes: list[tuple[Node, list[tuple[Node, Node, dict]]]] = []
            # Remove edges that would recreate an already-found path.
            for p in paths:
                if len(p) > i and p[: i + 1] == root and work.has_edge(p[i], p[i + 1]):
                    data = dict(work.edges[p[i], p[i + 1]])
                    work.remove_edge(p[i], p[i + 1])
                    removed_edges.append((p[i], p[i + 1], data))
            # Remove root nodes (except the spur) to keep paths loopless.
            for node in root[:-1]:
                incident = [
                    (u, v, dict(d))
                    for u, v, d in itertools.chain(
                        work.in_edges(node, data=True), work.out_edges(node, data=True)
                    )
                ]
                work.remove_node(node)
                removed_nodes.append((node, incident))
            try:
                spur_dist, spur_pred = single_source_dijkstra(work, spur_node, weight=weight)
                if target in spur_dist:
                    spur_path = reconstruct_path(spur_pred, spur_node, target)
                    total = root[:-1] + spur_path
                    key = tuple(total)
                    if key not in seen:
                        seen.add(key)
                        # Cost the candidate against the intact input graph.
                        cost = path_cost(graph, total, weight=weight)
                        heapq.heappush(candidates, (cost, next(counter), total))
            finally:
                for node, incident in reversed(removed_nodes):
                    work.add_node(node)
                    for u, v, d in incident:
                        work.add_edge(u, v, **d)
                for u, v, d in removed_edges:
                    work.add_edge(u, v, **d)
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths
