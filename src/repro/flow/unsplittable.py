"""Splittable -> unsplittable flow rounding ([33, Algorithm 2], Skutella 2002).

Given a single-source splittable flow satisfying demands whose pairwise
ratios are integer powers of two, produce one path per commodity such that

- the total (demand-weighted) path cost does not exceed the cost of the
  input flow (Lemma 4.6(i)), and
- on every link, all but the single largest commodity fit within the input
  flow value (Lemma 4.6(ii)).

The construction processes demand values from smallest to largest.  At each
value ``delta`` the flow is first made *delta-integral* — every link load a
multiple of ``delta`` — by canceling flow around cycles of non-integral
links in the cost-non-increasing direction; mod-``delta`` flow conservation
guarantees every node incident to a non-integral link has at least two such
links, so such a cycle always exists.  Then every commodity of demand
``delta`` is routed on a cheapest path inside the flow's support and its
flow is removed.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import networkx as nx

from repro.exceptions import InvalidProblemError, SolverError
from repro.graph.network import COST

Node = Hashable
Edge = tuple[Node, Node]

#: Flow slack forgiven per unit of demand (LP solutions carry ~1e-9 noise).
_TOLERANCE = 1e-7


@dataclass(frozen=True)
class _Demand:
    commodity: Hashable
    sink: Node
    value: float
    level: int  # value == delta_min * 2**level


def _mod(value: float, delta: float) -> float:
    m = math.fmod(value, delta)
    if m < 0:
        m += delta
    return m


def _is_multiple(value: float, delta: float, tol: float) -> bool:
    m = _mod(value, delta)
    return m <= tol or delta - m <= tol


def _snap(value: float, delta: float, tol: float) -> float:
    k = round(value / delta)
    if abs(value - k * delta) <= tol:
        return k * delta
    return value


def _classify_levels(
    commodities: list[tuple[Hashable, Node, float]],
    *,
    rel_tol: float = 1e-6,
) -> list[_Demand]:
    demands = [d for _, _, d in commodities]
    if any(d <= 0 for d in demands):
        raise InvalidProblemError("demands must be positive")
    d_min = min(demands)
    out = []
    for cid, sink, value in commodities:
        level_f = math.log2(value / d_min)
        level = round(level_f)
        if abs(level_f - level) > rel_tol:
            raise InvalidProblemError(
                f"demand {value} of {cid!r} is not a power-of-two multiple of {d_min}"
            )
        out.append(_Demand(commodity=cid, sink=sink, value=value, level=level))
    return out


def _make_delta_integral(
    flow: dict[Edge, float],
    delta: float,
    costs: Mapping[Edge, float],
    tol: float,
) -> None:
    """Cancel cycles of non-delta-integral links until none remain (in place)."""
    max_rounds = 4 * len(flow) + len(flow) ** 2 + 64
    for _ in range(max_rounds):
        nonintegral = [e for e, f in flow.items() if not _is_multiple(f, delta, tol)]
        if not nonintegral:
            return
        cycle = _find_cycle(nonintegral)
        # Orient so the cost change per unit is non-positive.
        unit_cost = sum(direction * costs.get(edge, 0.0) for edge, direction in cycle)
        if unit_cost > 0:
            cycle = [(edge, -direction) for edge, direction in cycle]
        eps = math.inf
        for edge, direction in cycle:
            m = _mod(flow[edge], delta)
            gap = delta - m if direction > 0 else m
            eps = min(eps, gap)
        if not (eps > tol):
            raise SolverError("cycle canceling stalled (numerical issue)")
        for edge, direction in cycle:
            flow[edge] = _snap(flow[edge] + direction * eps, delta, tol)
            if flow[edge] < 0:
                if flow[edge] < -tol:
                    raise SolverError("cycle canceling produced negative flow")
                flow[edge] = 0.0
    raise SolverError("delta-integralization did not converge")


def _find_cycle(edges: list[Edge]) -> list[tuple[Edge, int]]:
    """A cycle in the undirected multigraph spanned by the given directed edges.

    Returns ``[(edge, direction), ...]`` where direction ``+1`` means the
    cycle traverses the edge forward (flow increases when augmenting).
    """
    adjacency: dict[Node, list[tuple[Node, Edge, int]]] = {}
    for edge in sorted(edges, key=repr):
        u, v = edge
        adjacency.setdefault(u, []).append((v, edge, +1))
        adjacency.setdefault(v, []).append((u, edge, -1))
    start = min(adjacency, key=repr)
    trail_nodes = [start]
    trail_steps: list[tuple[Edge, int]] = []
    index = {start: 0}
    used: set[Edge] = set()
    for _ in range(len(adjacency) + 1):
        current = trail_nodes[-1]
        step = next(
            (
                (other, edge, direction)
                for other, edge, direction in adjacency[current]
                if edge not in used
            ),
            None,
        )
        if step is None:
            raise SolverError(
                "mod-delta conservation violated: dead end while searching cycle"
            )
        other, edge, direction = step
        used.add(edge)
        if other in index:
            p = index[other]
            return trail_steps[p:] + [(edge, direction)]
        index[other] = len(trail_nodes)
        trail_nodes.append(other)
        trail_steps.append((edge, direction))
    raise SolverError("cycle search did not terminate")


def _cheapest_support_path(
    flow: Mapping[Edge, float],
    costs: Mapping[Edge, float],
    source: Node,
    sink: Node,
    delta: float,
    tol: float,
) -> tuple[Node, ...]:
    support = nx.DiGraph()
    support.add_node(source)
    for (u, v), f in flow.items():
        if f >= delta - tol:
            support.add_edge(u, v, **{COST: costs.get((u, v), 0.0)})
    from repro.graph.shortest_paths import reconstruct_path, single_source_dijkstra

    dist, pred = single_source_dijkstra(support, source)
    if sink not in dist:
        raise SolverError(
            f"no support path from {source!r} to {sink!r} at level {delta}"
        )
    return tuple(reconstruct_path(pred, source, sink))


def round_to_unsplittable(
    costs: Mapping[Edge, float],
    source: Node,
    commodities: list[tuple[Hashable, Node, float]],
    flow: Mapping[Edge, float],
) -> dict[Hashable, tuple[Node, ...]]:
    """Round a splittable flow into one path per commodity (Lemma 4.6).

    Parameters
    ----------
    costs:
        Per-link routing costs (links absent from the mapping cost 0; this is
        how virtual links are naturally handled).
    source:
        The common source of all commodities.
    commodities:
        ``(commodity_id, sink, demand)`` triples; demands must pairwise differ
        by integer powers of two.
    flow:
        Link-level splittable flow satisfying exactly those demands.

    Returns
    -------
    dict mapping commodity id to its routing path (tuple of nodes).
    """
    if not commodities:
        return {}
    ids = [cid for cid, _, _ in commodities]
    if len(set(ids)) != len(ids):
        raise InvalidProblemError("commodity ids must be unique")
    demands = _classify_levels(commodities)
    d_min = min(d.value for d in demands)
    working: dict[Edge, float] = {e: f for e, f in flow.items() if f > _TOLERANCE}
    paths: dict[Hashable, tuple[Node, ...]] = {}
    for level in sorted({d.level for d in demands}):
        delta = d_min * (2.0**level)
        tol = _TOLERANCE * max(1.0, delta)
        _make_delta_integral(working, delta, costs, tol)
        at_level = sorted(
            (d for d in demands if d.level == level), key=lambda d: repr(d.commodity)
        )
        for demand in at_level:
            if demand.sink == source:
                paths[demand.commodity] = (source,)
                continue
            path = _cheapest_support_path(
                working, costs, source, demand.sink, delta, tol
            )
            for u, v in zip(path[:-1], path[1:]):
                new_value = _snap(working[(u, v)] - delta, delta, tol)
                if new_value <= tol:
                    del working[(u, v)]
                else:
                    working[(u, v)] = new_value
            paths[demand.commodity] = path
    return paths
