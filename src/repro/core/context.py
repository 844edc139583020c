"""Shared solver context: index maps + the distance row backend.

Every Section 4 solver consumes the same instance-level structure — the
least costs ``w_{v->s}`` between cache nodes and requesters, the per-item
requester lists with their rates, and the bound ``w_max``.  The seed code
recomputed (or dict-looked-up) these inside inner loops through
:class:`~repro.core.rnr.ShortestPathCache`.  A :class:`SolverContext`
materializes them once per instance:

- a :class:`~repro.graph.backends.LazyRowBackend` over the graph's nodes,
  primed with every row up front (the dense policy) up to
  :data:`DENSE_NODE_THRESHOLD` nodes, or computing and memoizing only the
  rows solvers actually consult above it — the rows are the same either
  way;
- per-item requester index arrays and rate vectors, aligned with
  :meth:`ProblemInstance.requesters_of` order so vectorized reductions are
  deterministic and comparable with the dict-based code path;
- precomputed per-request baseline serving costs over pinned holders;
- an edge-cost dict for O(1) link-cost lookups (serving-path suffix sums);
- a lazy :class:`ShortestPathCache` for actual path reconstruction, which
  numpy cannot replace.

The context is an optional argument everywhere (``context=None`` keeps the
dict-based fallback), so callers can cross-check both paths.  Solver code
never touches a raw matrix: every distance access goes through
:meth:`row_of`/:meth:`rows_of`/:meth:`distance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import Item, Node, ProblemInstance
from repro.core.rnr import PredecessorPathCache, ShortestPathCache
from repro.exceptions import InvalidProblemError
from repro.graph.backends import LazyRowBackend

Edge = tuple[Node, Node]

#: Up to this many nodes, ``from_problem(backend="auto")`` primes every
#: distance row up front; above it, rows are computed on first read.
DENSE_NODE_THRESHOLD = 2048


def relevant_sources(problem: ProblemInstance) -> list[Node]:
    """Distance rows a solve can consult: cache nodes, pinned holders,
    requesters — in deterministic (repr-sorted) order.

    This is the row scope a :class:`LazyRowBackend` is primed and broadcast
    with; everything the solvers read (LP (7) coefficients, F_RNR
    baselines, RNR candidate orderings, repair greedies) lives in these
    rows.
    """
    scope = {v for v in problem.network.cache_nodes()}
    scope.update(v for (v, _i) in problem.pinned)
    scope.update(s for (_i, s) in problem.demand)
    return sorted(scope, key=repr)


@dataclass(frozen=True)
class RequesterBlock:
    """Requesters of one item as parallel arrays (deterministic order)."""

    #: Requester nodes, sorted like :meth:`ProblemInstance.requesters_of`.
    nodes: tuple[Node, ...]
    #: Column indices of ``nodes`` in the distance rows.
    idx: np.ndarray
    #: Request rates ``lambda_{(i, s)}`` aligned with ``nodes``.
    rates: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


class SolverContext:
    """Per-instance solver state shared across algorithms.

    ``backend`` supplies the distances; :meth:`from_problem` builds one with
    the priming policy suited to the topology.
    """

    def __init__(self, problem: ProblemInstance, *, backend: LazyRowBackend) -> None:
        self.problem = problem
        self.backend = backend
        self.nodes: tuple[Node, ...] = backend.nodes
        self.node_index: dict[Node, int] = backend.index
        self.items: tuple[Item, ...] = problem.catalog
        self.item_index: dict[Item, int] = {i: k for k, i in enumerate(self.items)}
        self._w_max: float | None = None
        self._requesters: dict[Item, RequesterBlock] = {}
        self._pinned_base: dict[Item, np.ndarray] = {}
        self._edge_costs: dict[Edge, float] = problem.network.costs()
        self._sp: ShortestPathCache | None = None
        self._path_oracle: PredecessorPathCache | None = None

    @classmethod
    def from_problem(
        cls,
        problem: ProblemInstance,
        *,
        backend: str = "auto",
    ) -> "SolverContext":
        """Build a context, choosing the priming policy for the topology.

        ``backend`` is ``"dense"`` (every row computed up front in one
        batched sweep), ``"lazy"`` (rows computed on first read), or
        ``"auto"`` (dense up to :data:`DENSE_NODE_THRESHOLD` nodes, lazy
        above).  A broadcast row store matching the topology (see
        :mod:`repro.graph.shm`) is reused as is, whatever the choice —
        costless when no broadcast is live.
        """
        from repro.graph.shm import lookup_rows

        if backend not in ("auto", "dense", "lazy"):
            raise InvalidProblemError("backend must be 'auto', 'dense' or 'lazy'")
        graph = problem.network.graph
        store = lookup_rows(graph)
        rows = LazyRowBackend(graph, store=store)
        dense = backend == "dense" or (
            backend == "auto" and graph.number_of_nodes() <= DENSE_NODE_THRESHOLD
        )
        if dense and store is None:
            rows.prime()
        return cls(problem, backend=rows)

    # ------------------------------------------------------------------
    # Backend access
    # ------------------------------------------------------------------

    @property
    def w_max(self) -> float:
        """Paper bound on pairwise costs (max finite entry, floored at 1.0).

        Lazily computed and streamed in bounded memory (see
        :meth:`repro.graph.backends.LazyRowBackend.w_max`).
        """
        if self._w_max is None:
            self._w_max = self.backend.w_max()
        return self._w_max

    def prime_rows(self, sources=None) -> None:
        """Materialize distance rows for ``sources`` in one batched sweep.

        Defaults to :func:`relevant_sources` of the problem — the rows any
        solver consults; nodes outside the graph are ignored.  No-op on a
        primed backend.  Call before exporting a row store
        (:func:`repro.graph.shm.RowsBroadcast`) or to front-load the
        Dijkstra cost out of a timed section.
        """
        nodes = relevant_sources(self.problem) if sources is None else sources
        self.backend.ensure_rows(
            self.node_index[v] for v in nodes if v in self.node_index
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def distance(self, source: Node, target: Node) -> float:
        """Least cost ``source -> target`` (``inf`` if unreachable)."""
        return self.backend.distance(
            self.node_index[source], self.node_index[target]
        )

    def distances_from(self, source: Node) -> np.ndarray:
        """Row of distances from ``source`` (read-only array view)."""
        return self.backend.row(self.node_index[source])

    def row_of(self, source: Node) -> np.ndarray:
        """Alias of :meth:`distances_from` (solver hot paths)."""
        return self.backend.row(self.node_index[source])

    def rows_of(self, sources) -> np.ndarray:
        """Stacked distance rows for ``sources`` as a ``(k, |V|)`` array."""
        idx = np.fromiter(
            (self.node_index[v] for v in sources), dtype=np.intp, count=len(sources)
        )
        return self.backend.rows(idx)

    def reachable(self, source: Node, target: Node) -> bool:
        return bool(np.isfinite(self.distance(source, target)))

    def finite_max_from(self, sources) -> float:
        """Max finite distance out of ``sources``, floored at 1.0.

        Matches Algorithm 1's ``w_max`` over candidate sources.
        """
        sources = list(sources) if not hasattr(sources, "__len__") else sources
        idx = np.fromiter(
            (self.node_index[v] for v in sources), dtype=np.intp, count=len(sources)
        )
        top = self.backend.finite_max_rows(idx)
        return top if top > 0 else 1.0

    # ------------------------------------------------------------------
    # Demand structure
    # ------------------------------------------------------------------

    def requesters(self, item: Item) -> RequesterBlock:
        """Requesters of ``item`` with matrix column indices and rates."""
        block = self._requesters.get(item)
        if block is None:
            nodes = tuple(self.problem.requesters_of(item))
            idx = np.fromiter(
                (self.node_index[s] for s in nodes), dtype=np.intp, count=len(nodes)
            )
            rates = np.fromiter(
                (self.problem.demand[(item, s)] for s in nodes),
                dtype=np.float64,
                count=len(nodes),
            )
            block = RequesterBlock(nodes=nodes, idx=idx, rates=rates)
            self._requesters[item] = block
        return block

    def pinned_min_costs(self, item: Item) -> np.ndarray:
        """Per-requester least cost over ``item``'s pinned holders (uncapped).

        ``inf`` where the item is pinned nowhere reachable.  One fancy-indexed
        ``np.minimum.reduce`` over all holder rows (min is exact and
        order-independent, so this is bit-identical to the historical
        per-holder loop).  Computed once per item and cached read-only, so
        repeated :meth:`baseline_costs` calls (every ``RNRCostSaving``
        construction, every repair greedy) stop re-sorting holders and
        re-slicing matrix rows.
        """
        base = self._pinned_base.get(item)
        if base is None:
            block = self.requesters(item)
            holders = sorted(self.problem.pinned_holders(item), key=repr)
            if holders and block.size:
                holder_rows = self.rows_of(holders)[:, block.idx]
                base = np.minimum.reduce(holder_rows, axis=0)
            else:
                base = np.full(block.size, np.inf, dtype=np.float64)
            base.setflags(write=False)
            self._pinned_base[item] = base
        return base

    def baseline_costs(self, item: Item, *, cap: float | None = None) -> np.ndarray:
        """Per-requester serving cost from pinned holders, capped at ``cap``.

        This is F_RNR's empty-placement baseline: ``min(cap,
        min_{pinned holder h} w_{h->s})`` for each requester ``s`` of the
        item; ``cap`` defaults to the context's ``w_max``.  Returns a fresh
        writable copy each call.
        """
        cap = self.w_max if cap is None else cap
        return np.minimum(self.pinned_min_costs(item), cap)

    # ------------------------------------------------------------------
    # Paths and link costs
    # ------------------------------------------------------------------

    @property
    def sp(self) -> ShortestPathCache:
        """Lazy dict-based cache used only for path reconstruction."""
        if self._sp is None:
            self._sp = ShortestPathCache(self.problem)
        return self._sp

    @property
    def path_oracle(self) -> PredecessorPathCache:
        """Lazy scipy predecessor-tree path oracle over the backend's CSR."""
        if self._path_oracle is None:
            self._path_oracle = PredecessorPathCache(self.backend.csgraph, self.nodes)
        return self._path_oracle

    def path(self, source: Node, target: Node) -> tuple[Node, ...]:
        return self.sp.path(source, target)

    def link_cost(self, u: Node, v: Node) -> float:
        """Routing cost ``w_uv`` of a single link (precomputed dict)."""
        return self._edge_costs[(u, v)]

    def __repr__(self) -> str:
        w = f"{self._w_max:.4g}" if self._w_max is not None else "<unread>"
        return (
            f"SolverContext(|V|={len(self.nodes)}, |C|={len(self.items)}, "
            f"backend={self.backend!r}, w_max={w})"
        )
