"""Shared solver context: index maps + the distance row backend.

Every Section 4 solver consumes the same instance-level structure — the
least costs ``w_{v->s}`` between cache nodes and requesters, the per-item
requester lists with their rates, and the bound ``w_max``.  A
:class:`SolverContext` materializes them once per instance:

- a :class:`~repro.graph.backends.LazyRowBackend` over the graph's nodes,
  primed with every row up front (the dense policy) up to
  :data:`DENSE_NODE_THRESHOLD` nodes, or computing and memoizing only the
  rows solvers actually consult above it — the rows are the same either
  way;
- per-item requester index arrays and rate vectors, aligned with
  :meth:`ProblemInstance.requesters_of` order so vectorized reductions are
  deterministic;
- precomputed per-request baseline serving costs over pinned holders;
- a lazy :class:`PredecessorPathCache` that backtracks actual paths
  through the backend's memoized shortest-path trees.

The context is the only distance source of the solvers.  Their public
entry points take it as an optional argument; called without one, they
build ``SolverContext.from_problem(problem, backend="lazy")``, which
computes one Dijkstra row per source read.  Solver code never touches a
raw matrix: every distance access goes through
:meth:`row_of`/:meth:`rows_of`/:meth:`distance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import Item, Node, ProblemInstance
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.graph.backends import LazyRowBackend

#: Up to this many nodes, ``from_problem(backend="auto")`` primes every
#: distance row up front; above it, rows are computed on first read.
DENSE_NODE_THRESHOLD = 2048


def relevant_sources(problem: ProblemInstance) -> list[Node]:
    """Distance rows a solve can consult: cache nodes, pinned holders,
    requesters — in deterministic (repr-sorted) order.

    This is the row scope :meth:`SolverContext.prime_rows` fills by
    default; everything the solvers read (LP (7) coefficients, F_RNR
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


class PredecessorPathCache:
    """Path reconstruction from the backend's memoized shortest-path trees.

    RNR only needs actual node paths for holders that serve flow, and a
    failure sweep asks for paths out of many sources on many degraded
    graphs.  Every :class:`~repro.graph.backends.LazyRowBackend` sweep keeps
    each row's predecessor array beside the row, so this oracle only
    backtracks :meth:`~repro.graph.backends.LazyRowBackend.predecessors`:
    a source whose row a solver has read costs no further Dijkstra, and
    one that has none gets its row and tree from one sweep.  Paths
    therefore follow exactly the trees the rows measure.
    """

    def __init__(self, backend: LazyRowBackend) -> None:
        self._backend = backend
        self._nodes = backend.nodes
        self._paths: dict[tuple[int, int], tuple[Node, ...]] = {}

    def path_by_index(self, source: int, target: int) -> tuple[Node, ...]:
        """Shortest ``nodes[source] -> nodes[target]`` path as node labels."""
        cached = self._paths.get((source, target))
        if cached is not None:
            return cached
        pred = self._backend.predecessors(source)
        hops = [target]
        j = target
        while j != source:
            j = int(pred[j])
            if j < 0:
                nodes = self._nodes
                raise InfeasibleError(
                    f"{nodes[target]!r} unreachable from {nodes[source]!r}"
                )
            hops.append(j)
        nodes = self._nodes
        path = tuple(nodes[k] for k in reversed(hops))
        self._paths[(source, target)] = path
        return path


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
        above).
        """
        if backend not in ("auto", "dense", "lazy"):
            raise InvalidProblemError("backend must be 'auto', 'dense' or 'lazy'")
        graph = problem.network.graph
        rows = LazyRowBackend(graph)
        if backend == "dense" or (
            backend == "auto" and graph.number_of_nodes() <= DENSE_NODE_THRESHOLD
        ):
            rows.prime()
        return cls(problem, backend=rows)

    # ------------------------------------------------------------------
    # Backend access
    # ------------------------------------------------------------------

    @property
    def w_max(self) -> float:
        """Paper bound on pairwise costs: the max finite entry (1.0 if it is 0).

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
        primed backend.  Call it to front-load the Dijkstra cost out of a
        timed section.
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

    def row_of(self, source: Node) -> np.ndarray:
        """Row of distances from ``source`` (read-only array view)."""
        return self.backend.row(self.node_index[source])

    def rows_of(self, sources) -> np.ndarray:
        """Stacked distance rows for ``sources`` as a ``(k, |V|)`` array."""
        idx = np.fromiter(
            (self.node_index[v] for v in sources), dtype=np.intp, count=len(sources)
        )
        return self.backend.rows(idx)

    def finite_max_from(self, sources) -> float:
        """Max finite distance out of ``sources`` (1.0 if that max is 0).

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

    def baseline_costs(self, item: Item) -> np.ndarray:
        """Per-requester serving cost from pinned holders, capped at ``w_max``.

        This is F_RNR's empty-placement baseline: ``min(w_max,
        min_{pinned holder h} w_{h->s})`` for each requester ``s`` of the
        item.  Returns a fresh writable copy each call.
        """
        return np.minimum(self.pinned_min_costs(item), self.w_max)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def path_oracle(self) -> PredecessorPathCache:
        """Lazy path oracle over the backend's predecessor trees."""
        if self._path_oracle is None:
            self._path_oracle = PredecessorPathCache(self.backend)
        return self._path_oracle

    def __repr__(self) -> str:
        w = f"{self._w_max:.4g}" if self._w_max is not None else "<unread>"
        return (
            f"SolverContext(|V|={len(self.nodes)}, |C|={len(self.items)}, "
            f"backend={self.backend!r}, w_max={w})"
        )
