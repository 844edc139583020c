"""Cache-network model.

A :class:`CacheNetwork` is a directed graph where

- every directed link ``(u, v)`` carries a nonnegative routing ``cost``
  (the paper's ``w_uv``) and a positive ``capacity`` (``c_uv``, possibly
  ``math.inf``), and
- every node ``v`` owns a cache of capacity ``c_v >= 0`` (items for the
  homogeneous model of the paper's Sections 2-4, bits/bytes for the
  heterogeneous model of Section 5).

The class is a thin validated wrapper around :class:`networkx.DiGraph` so all
the usual graph tooling remains available through :attr:`CacheNetwork.graph`.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

import networkx as nx

from repro.exceptions import InvalidNetworkError

Node = Hashable
Edge = tuple[Node, Node]

#: Edge-attribute names used throughout the package.
COST = "cost"
CAPACITY = "capacity"


class CacheNetwork:
    """A directed cache network (topology + link costs/capacities + caches).

    Parameters
    ----------
    graph:
        Directed graph whose edges carry ``cost`` and ``capacity`` attributes.
        Missing attributes default to ``1.0`` cost and infinite capacity.
    cache_capacity:
        Mapping node -> cache capacity ``c_v``. Nodes absent from the mapping
        get capacity ``0`` (no cache).

    Raises
    ------
    InvalidNetworkError
        If any cost is negative, any capacity is nonpositive, or the cache
        mapping references unknown nodes.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        cache_capacity: Mapping[Node, float] | None = None,
    ) -> None:
        if not isinstance(graph, nx.DiGraph) or isinstance(graph, nx.MultiDiGraph):
            raise InvalidNetworkError("graph must be a plain networkx.DiGraph")
        self._graph = graph
        self._cache: dict[Node, float] = {}
        cache_capacity = cache_capacity or {}
        for node, cap in cache_capacity.items():
            if node not in graph:
                raise InvalidNetworkError(f"cache node {node!r} not in graph")
            if cap < 0:
                raise InvalidNetworkError(f"cache capacity of {node!r} is negative")
            self._cache[node] = float(cap)
        for node in graph.nodes:
            self._cache.setdefault(node, 0.0)
        for u, v, data in graph.edges(data=True):
            cost = float(data.setdefault(COST, 1.0))
            cap = float(data.setdefault(CAPACITY, math.inf))
            if cost < 0:
                raise InvalidNetworkError(f"link ({u!r}, {v!r}) has negative cost")
            if cap <= 0:
                raise InvalidNetworkError(f"link ({u!r}, {v!r}) has nonpositive capacity")
            data[COST] = cost
            data[CAPACITY] = cap

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node, float] | tuple[Node, Node, float, float]],
        cache_capacity: Mapping[Node, float] | None = None,
        *,
        symmetric: bool = False,
        default_capacity: float = math.inf,
    ) -> "CacheNetwork":
        """Build a network from ``(u, v, cost)`` or ``(u, v, cost, capacity)`` tuples.

        With ``symmetric=True`` each tuple also adds the reverse link with the
        same cost/capacity (the common way of reading undirected ISP maps).
        """
        graph = nx.DiGraph()
        for item in edges:
            if len(item) == 3:
                u, v, cost = item  # type: ignore[misc]
                cap = default_capacity
            else:
                u, v, cost, cap = item  # type: ignore[misc]
            graph.add_edge(u, v, **{COST: float(cost), CAPACITY: float(cap)})
            if symmetric:
                graph.add_edge(v, u, **{COST: float(cost), CAPACITY: float(cap)})
        return cls(graph, cache_capacity)

    def copy(self) -> "CacheNetwork":
        """Deep-enough copy (graph attributes and cache map are duplicated)."""
        return CacheNetwork(self._graph.copy(), dict(self._cache))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (shared, not a copy)."""
        return self._graph

    @property
    def nodes(self) -> list[Node]:
        return list(self._graph.nodes)

    @property
    def edges(self) -> list[Edge]:
        return list(self._graph.edges)

    @property
    def num_nodes(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def cost(self, u: Node, v: Node) -> float:
        """Routing cost ``w_uv`` of link ``(u, v)``."""
        return self._graph.edges[u, v][COST]

    def capacity(self, u: Node, v: Node) -> float:
        """Transfer capacity ``c_uv`` of link ``(u, v)``."""
        return self._graph.edges[u, v][CAPACITY]

    def cache_capacity(self, v: Node) -> float:
        """Cache capacity ``c_v`` of node ``v`` (0 means no cache)."""
        return self._cache[v]

    @property
    def cache_capacities(self) -> dict[Node, float]:
        """Mapping of every node to its cache capacity (copy)."""
        return dict(self._cache)

    def cache_nodes(self) -> list[Node]:
        """Nodes with strictly positive cache capacity."""
        return [v for v, c in self._cache.items() if c > 0]

    def costs(self) -> dict[Edge, float]:
        return {(u, v): d[COST] for u, v, d in self._graph.edges(data=True)}

    def capacities(self) -> dict[Edge, float]:
        return {(u, v): d[CAPACITY] for u, v, d in self._graph.edges(data=True)}

    def out_edges(self, v: Node) -> Iterator[Edge]:
        return iter(self._graph.out_edges(v))

    def in_edges(self, v: Node) -> Iterator[Edge]:
        return iter(self._graph.in_edges(v))

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._graph.has_edge(u, v)

    def degree(self, v: Node) -> int:
        """Total (in + out) degree of ``v``."""
        return self._graph.in_degree(v) + self._graph.out_degree(v)

    def undirected_degree(self, v: Node) -> int:
        """Degree in the undirected sense (anti-parallel links count once)."""
        neighbors = set(self._graph.predecessors(v)) | set(self._graph.successors(v))
        return len(neighbors)

    # ------------------------------------------------------------------
    # Mutators used by experiment setups
    # ------------------------------------------------------------------

    def set_cache_capacity(self, v: Node, capacity: float) -> None:
        if v not in self._graph:
            raise InvalidNetworkError(f"node {v!r} not in graph")
        if capacity < 0:
            raise InvalidNetworkError("cache capacity must be nonnegative")
        self._cache[v] = float(capacity)

    def set_link_capacity(self, u: Node, v: Node, capacity: float) -> None:
        if capacity <= 0:
            raise InvalidNetworkError("link capacity must be positive")
        self._graph.edges[u, v][CAPACITY] = float(capacity)

    def set_uniform_link_capacity(self, capacity: float) -> None:
        """Give every link the same capacity (the paper's default ``kappa``)."""
        for _, _, data in self._graph.edges(data=True):
            if capacity <= 0:
                raise InvalidNetworkError("link capacity must be positive")
            data[CAPACITY] = float(capacity)

    def uncapacitated(self) -> "CacheNetwork":
        """Copy of this network with every link capacity set to infinity."""
        other = self.copy()
        for _, _, data in other.graph.edges(data=True):
            data[CAPACITY] = math.inf
        return other

    def augment_capacity_along_path(self, path: list[Node], extra: float) -> None:
        """Add ``extra`` capacity to each link along ``path``.

        The paper augments capacities along a cycle-free path from the origin
        server to each edge node so serving everything from the origin is
        always feasible (Section 6).
        """
        if extra < 0:
            raise InvalidNetworkError("extra capacity must be nonnegative")
        for u, v in zip(path[:-1], path[1:]):
            data = self._graph.edges[u, v]
            data[CAPACITY] = data[CAPACITY] + extra

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __contains__(self, node: Any) -> bool:
        return node in self._graph

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        caches = sum(1 for c in self._cache.values() if c > 0)
        return (
            f"CacheNetwork(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"caches={caches})"
        )
