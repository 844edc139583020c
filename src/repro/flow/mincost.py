"""Minimum-cost splittable flows (single-source and multicommodity) via LP.

Two building blocks used throughout the paper's algorithms:

- :func:`min_cost_single_source_flow` — the splittable relaxation at the
  heart of Algorithm 2 (line 1).  Because all commodities share the single
  (virtual) source and costs are per-unit, the per-commodity LP aggregates
  exactly into a standard arc-based min-cost flow with one balance constraint
  per node, which is dramatically cheaper to solve.
- :func:`min_cost_multicommodity_flow` — MMSFP (Section 4.3.2): one
  single-source flow per *commodity group* (in our use, per content item
  rooted at its virtual source), coupled only through shared link capacities.

Both assemble their LP from the node-arc incidence of the graph,
materialized once as COO index arrays (:func:`arc_incidence`, cached per
graph object and reused across Algorithm 2 iterations): the
balance/capacity families are registered through
:meth:`~repro.flow.lp.LPBuilder.add_eq_batch` /
:meth:`~repro.flow.lp.LPBuilder.add_le_batch`.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.exceptions import InvalidProblemError
from repro.flow.lp import LPBuilder
from repro.graph.network import CAPACITY, COST

Node = Hashable
Edge = tuple[Node, Node]

_EPS = 1e-9


@dataclass(frozen=True)
class ArcIncidence:
    """Node-arc incidence of a digraph as index arrays for LP assembly.

    ``tail_idx[k]`` / ``head_idx[k]`` are the node indices of edge
    ``edges[k]``; flow conservation at node ``n`` sums ``+f_k`` over edges
    with ``tail_idx[k] == n`` and ``-f_k`` over edges with
    ``head_idx[k] == n``.  The structure is topology-only (costs and
    capacities are read fresh at each solve), so it can be cached per graph
    and reused across Algorithm 2 iterations.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    node_index: dict[Node, int] = field(compare=False)
    tail_idx: np.ndarray = field(compare=False)
    head_idx: np.ndarray = field(compare=False)

    @classmethod
    def from_graph(cls, graph: nx.DiGraph) -> "ArcIncidence":
        nodes = tuple(graph.nodes)
        edges = tuple(graph.edges)
        node_index = {v: k for k, v in enumerate(nodes)}
        tail_idx = np.fromiter(
            (node_index[u] for u, _ in edges), dtype=np.intp, count=len(edges)
        )
        head_idx = np.fromiter(
            (node_index[v] for _, v in edges), dtype=np.intp, count=len(edges)
        )
        return cls(
            nodes=nodes,
            edges=edges,
            node_index=node_index,
            tail_idx=tail_idx,
            head_idx=head_idx,
        )


_INCIDENCE_CACHE: "weakref.WeakKeyDictionary[nx.DiGraph, ArcIncidence]" = (
    weakref.WeakKeyDictionary()
)


def arc_incidence(graph: nx.DiGraph) -> ArcIncidence:
    """Cached :class:`ArcIncidence` of ``graph`` (rebuilt if topology changed)."""
    cached = _INCIDENCE_CACHE.get(graph)
    if (
        cached is not None
        and len(cached.nodes) == graph.number_of_nodes()
        and cached.edges == tuple(graph.edges)
    ):
        return cached
    built = ArcIncidence.from_graph(graph)
    try:
        _INCIDENCE_CACHE[graph] = built
    except TypeError:  # pragma: no cover - non-weakrefable graph subclass
        pass
    return built


@dataclass(frozen=True)
class Commodity:
    """A single-source commodity group: ship ``demands[t]`` from ``source`` to each ``t``."""

    name: Hashable
    source: Node
    demands: Mapping[Node, float] = field(default_factory=dict)

    @property
    def total_demand(self) -> float:
        return sum(self.demands.values())


def _validate(graph: nx.DiGraph, source: Node, demands: Mapping[Node, float]) -> None:
    if source not in graph:
        raise InvalidProblemError(f"source {source!r} not in graph")
    for t, d in demands.items():
        if t not in graph:
            raise InvalidProblemError(f"sink {t!r} not in graph")
        if d < 0:
            raise InvalidProblemError(f"negative demand at {t!r}")


def _balance_rhs(
    inc: ArcIncidence, source: Node, demands: Mapping[Node, float], total: float
) -> np.ndarray:
    rhs = np.zeros(len(inc.nodes))
    for t, d in demands.items():
        rhs[inc.node_index[t]] = -d
    src = inc.node_index[source]
    rhs[src] = total - demands.get(source, 0.0)
    return rhs


def min_cost_single_source_flow(
    graph: nx.DiGraph,
    source: Node,
    demands: Mapping[Node, float],
) -> tuple[dict[Edge, float], float]:
    """Cheapest splittable flow shipping ``demands`` from ``source``.

    Returns ``(flow, cost)`` where ``flow[(u, v)]`` is the aggregate amount on
    each link (zero entries omitted).  Raises :class:`InfeasibleError` when
    the demands cannot be routed within link capacities.
    """
    _validate(graph, source, demands)
    demands = {t: d for t, d in demands.items() if d > _EPS}
    if not demands:
        return {}, 0.0
    total = sum(demands.values())

    inc = arc_incidence(graph)
    n_edges = len(inc.edges)
    costs = np.fromiter(
        (d.get(COST, 1.0) for _, _, d in graph.edges(data=True)),
        dtype=np.float64,
        count=n_edges,
    )
    caps = np.fromiter(
        (d.get(CAPACITY, math.inf) for _, _, d in graph.edges(data=True)),
        dtype=np.float64,
        count=n_edges,
    )
    lp = LPBuilder(sense="min")
    fb = lp.add_variable_block("f", (n_edges,), lb=0.0, ub=caps, cost=costs)
    cols = fb.indices()
    lp.add_eq_batch(
        np.concatenate([inc.tail_idx, inc.head_idx]),
        np.concatenate([cols, cols]),
        np.concatenate([np.ones(n_edges), -np.ones(n_edges)]),
        _balance_rhs(inc, source, demands, total),
    )
    solution = lp.solve()
    values = solution.block("f")
    flow = {
        inc.edges[k]: float(values[k]) for k in np.flatnonzero(values > _EPS)
    }
    return flow, solution.objective


def min_cost_multicommodity_flow(
    graph: nx.DiGraph,
    commodities: list[Commodity],
) -> tuple[dict[Hashable, dict[Edge, float]], float]:
    """Cheapest splittable multicommodity flow under shared link capacities.

    Each :class:`Commodity` is itself a single-source/multi-sink group (so a
    content item with many requesters is *one* commodity here — its
    per-requester split is recovered later by path decomposition).  Returns
    ``(flows, cost)`` with ``flows[name][(u, v)]`` the per-commodity loads.
    """
    if not commodities:
        return {}, 0.0
    names = [c.name for c in commodities]
    if len(set(names)) != len(names):
        raise InvalidProblemError("commodity names must be unique")

    inc = arc_incidence(graph)
    n_edges = len(inc.edges)
    n_comm = len(commodities)
    costs = np.fromiter(
        (d.get(COST, 1.0) for _, _, d in graph.edges(data=True)),
        dtype=np.float64,
        count=n_edges,
    )
    caps = np.fromiter(
        (d.get(CAPACITY, math.inf) for _, _, d in graph.edges(data=True)),
        dtype=np.float64,
        count=n_edges,
    )
    lp = LPBuilder(sense="min")
    offsets = np.empty(n_comm, dtype=np.intp)
    for k, commodity in enumerate(commodities):
        _validate(graph, commodity.source, commodity.demands)
        block = lp.add_variable_block(
            ("f", commodity.name), (n_edges,), lb=0.0, cost=costs
        )
        offsets[k] = block.offset
    # Shared capacity constraints over finitely-capacitated links.
    finite = np.flatnonzero(np.isfinite(caps))
    if finite.size:
        e_rep = np.repeat(finite, n_comm)
        c_rep = np.tile(np.arange(n_comm, dtype=np.intp), finite.size)
        lp.add_le_batch(
            np.repeat(np.arange(finite.size, dtype=np.intp), n_comm),
            offsets[c_rep] + e_rep,
            np.ones(e_rep.size),
            caps[finite],
        )
    # Per-commodity balance.
    edge_cols = np.arange(n_edges, dtype=np.intp)
    ones = np.ones(n_edges)
    for k, commodity in enumerate(commodities):
        demands = {t: d for t, d in commodity.demands.items() if d > _EPS}
        total = sum(demands.values())
        lp.add_eq_batch(
            np.concatenate([inc.tail_idx, inc.head_idx]),
            np.concatenate([offsets[k] + edge_cols, offsets[k] + edge_cols]),
            np.concatenate([ones, -ones]),
            _balance_rhs(inc, commodity.source, demands, total),
        )
    solution = lp.solve()
    flows = {}
    for commodity in commodities:
        values = solution.block(("f", commodity.name))
        flows[commodity.name] = {
            inc.edges[k]: float(values[k]) for k in np.flatnonzero(values > _EPS)
        }
    return flows, solution.objective
