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

A network can also be *derived* (:meth:`CacheNetwork.derive`): another
network minus failed nodes and directed links, with some link capacities
overridden.  A derived network copies no graph.  It answers membership,
``has_edge``, ``cost``, ``capacity``, cache capacities and the node and link
lists from the network it was derived from, skipping the failed ids and
reading capacities through its overlay.  Its own :class:`networkx.DiGraph`
is built only when a consumer reads :attr:`CacheNetwork.graph`; from then
on the network reads only that graph, so mutating it never touches the
network it was derived from.  The derived network reads the parent's link
data live: mutate a network's links before deriving from it, not after.
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
        self._read(graph)

    def _read(self, graph: nx.DiGraph) -> None:
        """Answer every query from ``graph`` alone (no failures, no overlay)."""
        self._graph: nx.DiGraph | None = graph
        #: The graph's live successor and predecessor dicts (networkx's own
        #: storage), read directly by the per-link lookups.
        self._adj = graph._adj
        self._pred = graph._pred
        #: The graph-backed network a derived one reads, else ``None``.
        self._base: CacheNetwork | None = None
        self._down_nodes: frozenset[Node] = frozenset()
        #: Failed directed links; every link of a failed node is one.
        self._down_links: frozenset[Edge] = frozenset()
        #: Link capacities that override the base graph's.
        self._capacity: dict[Edge, float] = {}

    def derive(
        self,
        failed_nodes: frozenset[Node],
        failed_links: frozenset[Edge],
        capacities: Mapping[Edge, float],
    ) -> "CacheNetwork":
        """This network minus ``failed_nodes`` and the directed
        ``failed_links``, with ``capacities`` overriding link capacities.

        No graph is copied and nothing already validated is re-validated:
        the result reads this network's links, skipping the failed ids.
        ``failed_links`` must hold every surviving link of each failed node,
        and every overriding capacity must be positive.  Deriving from a
        derived network composes both onto the graph-backed network they
        share.
        """
        caps = {e: float(c) for e, c in capacities.items()}
        for (u, v), cap in caps.items():
            if cap <= 0:
                raise InvalidNetworkError(f"link ({u!r}, {v!r}) has nonpositive capacity")
        child = CacheNetwork.__new__(CacheNetwork)
        child._graph = None
        child._adj, child._pred = self._adj, self._pred
        child._base = self if self._base is None else self._base
        child._down_nodes = self._down_nodes | failed_nodes
        child._down_links = self._down_links | failed_links
        child._capacity = {**self._capacity, **caps}
        child._cache = {v: c for v, c in self._cache.items() if v not in failed_nodes}
        return child

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
        return CacheNetwork(self.graph.copy(), dict(self._cache))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying directed graph (shared, not a copy).

        A derived network builds its graph on first read: a copy of the
        base graph minus the failed nodes and links, carrying the
        overriding capacities.  After that it reads only this graph.
        """
        if self._graph is None:
            base = self._base
            graph = base.graph.copy()
            graph.remove_edges_from(self._down_links)
            graph.remove_nodes_from(self._down_nodes)
            adj = graph._adj
            for (u, v), cap in self._capacity.items():
                if (u, v) not in self._down_links:
                    adj[u][v][CAPACITY] = cap
            self._read(graph)
        return self._graph

    def links(self) -> Iterator[tuple[Node, Node, float, float]]:
        """``(u, v, cost, capacity)`` of every link, in graph order."""
        down_nodes, down_links, overlay = self._down_nodes, self._down_links, self._capacity
        for u, nbrs in self._adj.items():
            if u in down_nodes:
                continue
            for v, data in nbrs.items():
                if (u, v) not in down_links:
                    yield u, v, data[COST], overlay.get((u, v), data[CAPACITY])

    def _data(self, u: Node, v: Node) -> dict:
        """Attribute dict of link ``(u, v)``; ``KeyError`` if it is absent."""
        if self._down_links and (u, v) in self._down_links:
            raise KeyError(f"The edge {(u, v)} is not in the graph.")
        return self._adj[u][v]

    @property
    def nodes(self) -> list[Node]:
        down = self._down_nodes
        return [v for v in self._adj if v not in down] if down else list(self._adj)

    @property
    def edges(self) -> list[Edge]:
        return [(u, v) for u, v, _, _ in self.links()]

    @property
    def num_nodes(self) -> int:
        return len(self._adj) - len(self._down_nodes)

    @property
    def num_edges(self) -> int:
        if self._base is None:
            return self._graph.number_of_edges()
        return sum(1 for _ in self.links())

    def cost(self, u: Node, v: Node) -> float:
        """Routing cost ``w_uv`` of link ``(u, v)``."""
        return self._data(u, v)[COST]

    def capacity(self, u: Node, v: Node) -> float:
        """Transfer capacity ``c_uv`` of link ``(u, v)``."""
        return self._capacity.get((u, v), self._data(u, v)[CAPACITY])

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
        return {(u, v): cost for u, v, cost, _ in self.links()}

    def capacities(self) -> dict[Edge, float]:
        return {(u, v): cap for u, v, _, cap in self.links()}

    def _neighbors(self, v: Node) -> tuple[list[Node], list[Node]]:
        """Surviving ``(predecessors, successors)`` of ``v``; ``KeyError``
        if ``v`` is not in the network."""
        if v in self._down_nodes:
            raise KeyError(f"node {v!r} is not in the network")
        pred, succ, down = self._pred[v], self._adj[v], self._down_links
        if not down:
            return list(pred), list(succ)
        return (
            [u for u in pred if (u, v) not in down],
            [w for w in succ if (v, w) not in down],
        )

    def out_edges(self, v: Node) -> Iterator[Edge]:
        return iter([(v, w) for w in self._neighbors(v)[1]])

    def in_edges(self, v: Node) -> Iterator[Edge]:
        """Links into ``v``, in the base graph's predecessor order."""
        return iter([(u, v) for u in self._neighbors(v)[0]])

    def has_edge(self, u: Node, v: Node) -> bool:
        if self._down_links and (u, v) in self._down_links:
            return False
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, v: Node) -> int:
        """Total (in + out) degree of ``v``."""
        pred, succ = self._neighbors(v)
        return len(pred) + len(succ)

    def undirected_degree(self, v: Node) -> int:
        """Degree in the undirected sense (anti-parallel links count once)."""
        pred, succ = self._neighbors(v)
        return len(set(pred) | set(succ))

    # ------------------------------------------------------------------
    # Mutators used by experiment setups
    # ------------------------------------------------------------------

    def set_cache_capacity(self, v: Node, capacity: float) -> None:
        if v not in self:
            raise InvalidNetworkError(f"node {v!r} not in graph")
        if capacity < 0:
            raise InvalidNetworkError("cache capacity must be nonnegative")
        self._cache[v] = float(capacity)

    def set_link_capacity(self, u: Node, v: Node, capacity: float) -> None:
        if capacity <= 0:
            raise InvalidNetworkError("link capacity must be positive")
        self.graph.edges[u, v][CAPACITY] = float(capacity)

    def set_uniform_link_capacity(self, capacity: float) -> None:
        """Give every link the same capacity (the paper's default ``kappa``)."""
        for _, _, data in self.graph.edges(data=True):
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
        graph = self.graph
        for u, v in zip(path[:-1], path[1:]):
            data = graph.edges[u, v]
            data[CAPACITY] = data[CAPACITY] + extra

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __contains__(self, node: Any) -> bool:
        try:
            return node in self._adj and node not in self._down_nodes
        except TypeError:  # unhashable: never a node
            return False

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        caches = sum(1 for c in self._cache.values() if c > 0)
        return (
            f"CacheNetwork(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"caches={caches})"
        )
