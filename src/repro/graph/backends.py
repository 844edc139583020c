"""The distance backend: least-cost rows, computed on demand or all up front.

Every Section 4 solver consumes the distance structure through a handful of
row-oriented operations — a single ``d(source, target)`` lookup, one full
row ``d(source, ·)``, a stack of rows for a holder set, and two reductions
(finite max over rows, elementwise min over holder rows).
:class:`LazyRowBackend` serves all of them from memoized rows, each produced
by a batched ``scipy.sparse.csgraph.dijkstra`` sweep over one CSR adjacency
(:func:`repro.graph.distance_matrix._sparse_adjacency`), and
:class:`~repro.core.context.SolverContext` routes every distance access
through it.

How many rows exist before the first read is a priming policy, not a second
implementation:

- **dense** (:meth:`LazyRowBackend.prime`): every row in one batched sweep
  when the backend is built — O(1) reads afterwards.  Right below a few
  thousand nodes, fatal above (an 80k-node matrix is 51 GiB), so the sweep
  is guarded by :func:`~repro.graph.distance_matrix.dense_bytes_ceiling`.
- **lazy**: a row is computed the first time it is read and memoized.
  Solvers consult cache-node, pinned-holder and requester rows only, so
  memory stays O(relevant · |V|).

Every sweep also returns each row's shortest-path tree (scipy's
``return_predecessors=True``), memoized as an ``int32`` predecessor array
beside the row.  :class:`~repro.core.context.PredecessorPathCache`
backtracks serving paths through these trees, so one Dijkstra per source
yields both its distances and its paths, on both priming policies.

A row and its tree hold the same bytes whichever sweep produced them
(asserted in ``tests/graph/test_backends.py`` and
``tests/graph/test_predecessor_parity.py``), so the two policies are
interchangeable on every operation.

``w_max`` (the paper's bound on pairwise costs) is streamed through the
full Dijkstra sweep in bounded-memory chunks without retaining the rows —
max is order-independent, so the value does not depend on which rows were
already memoized.  The sweep runs only when ``w_max`` is actually read
(greedy/local-search baselines); Algorithm 1 takes its bound from
``finite_max_from`` over candidate sources and never pays it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import ResourceError
from repro.graph.distance_matrix import (
    DENSE_MAX_BYTES_ENV,
    _sparse_adjacency,
    dense_bytes_ceiling,
    estimate_dense_bytes,
)
from repro.graph.network import COST

Node = Hashable

__all__ = ["LazyRowBackend"]

#: Rows per chunk of the streamed ``w_max`` sweep (memory = chunk * |V| * 12:
#: float64 rows and their int32 trees).
_WMAX_CHUNK = 256


def _finite_max(rows: np.ndarray) -> float:
    """Max finite entry of ``rows`` (0.0 if none)."""
    finite = rows[np.isfinite(rows)]
    return float(finite.max()) if finite.size else 0.0


class LazyRowBackend:
    """Distance rows and their shortest-path trees, computed in batched
    sweeps and memoized.

    Rows and columns follow the graph's node insertion order, as everywhere
    in the repo; the CSR adjacency over the ``cost`` link attribute is built
    once (O(|V| + |E|)).  A fresh backend holds no rows; :meth:`prime`
    computes all of them at once, and any read computes the missing ones.
    The sweep that computes a row also keeps its predecessor array
    (:meth:`predecessors`), so path reconstruction never runs a Dijkstra of
    its own; a primed backend holds an ``n x n`` ``int32`` tree matrix next
    to its ``n x n`` rows.
    """

    def __init__(self, graph: nx.DiGraph) -> None:
        nodes = tuple(graph.nodes)
        index = {v: k for k, v in enumerate(nodes)}
        self._adopt(nodes, index, _sparse_adjacency(graph, nodes, index, COST))

    def _adopt(self, nodes: tuple[Node, ...], index: dict[Node, int], csgraph) -> None:
        self.nodes: tuple[Node, ...] = nodes
        self.index: dict[Node, int] = index
        #: CSR adjacency every row and tree is computed from.
        self.csgraph = csgraph
        self._rows: dict[int, np.ndarray] = {}
        self._preds: dict[int, np.ndarray] = {}
        self._w_max: float | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def materialized(self) -> int:
        """Number of rows currently memoized (tests/benchmarks)."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # Row computation
    # ------------------------------------------------------------------

    def _compute_rows(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh rows and their predecessor trees for ``sources``.

        One batched Dijkstra sweep; ``preds[k, j]`` is the node before ``j``
        on the least-cost path out of ``sources[k]`` (negative at the source
        and wherever ``j`` is unreachable).
        """
        from scipy.sparse.csgraph import dijkstra

        rows, preds = dijkstra(
            self.csgraph, directed=True, indices=sources, return_predecessors=True
        )
        rows = np.atleast_2d(rows)
        rows[np.arange(len(sources)), sources] = 0.0
        return rows, np.atleast_2d(preds)

    def ensure_rows(self, idx: Iterable[int]) -> None:
        """Materialize any missing rows (and their trees) in one batched sweep."""
        missing = {int(i) for i in idx if i not in self._rows}
        if not missing:
            return
        ids = sorted(missing)
        rows, preds = self._compute_rows(np.asarray(ids, dtype=np.intp))
        rows.setflags(write=False)
        preds.setflags(write=False)
        self._rows.update(zip(ids, rows))
        self._preds.update(zip(ids, preds))

    def prime(self) -> "LazyRowBackend":
        """Compute every row now, in one batched sweep (the dense policy).

        Raises :class:`~repro.exceptions.ResourceError` *before* allocating
        when :func:`~repro.graph.distance_matrix.estimate_dense_bytes`
        exceeds :func:`~repro.graph.distance_matrix.dense_bytes_ceiling`.
        Returns ``self`` for chaining.
        """
        n = len(self.nodes)
        ceiling = dense_bytes_ceiling()
        estimated = estimate_dense_bytes(n)
        if estimated > ceiling:
            raise ResourceError(
                f"computing all {n} distance rows needs an estimated "
                f"{estimated:,} bytes, above the {ceiling:,.0f}-byte ceiling; "
                "read rows on demand instead (an unprimed LazyRowBackend, or "
                "SolverContext.from_problem(backend='lazy')) or raise "
                f"{DENSE_MAX_BYTES_ENV}"
            )
        self.ensure_rows(range(n))
        return self

    def row(self, i: int) -> np.ndarray:
        i = int(i)
        row = self._rows.get(i)
        if row is None:
            self.ensure_rows((i,))
            row = self._rows[i]
        return row

    def rows(self, idx: np.ndarray) -> np.ndarray:
        ids = np.asarray(idx, dtype=np.intp).tolist()
        self.ensure_rows(ids)
        if not ids:
            return np.empty((0, len(self.nodes)), dtype=np.float64)
        return np.array([self._rows[i] for i in ids])

    def predecessors(self, i: int) -> np.ndarray:
        """Shortest-path tree of row ``i`` as an ``int32`` predecessor array.

        Computed by the sweep that computed the row, so it records exactly
        the paths the row measures.
        """
        i = int(i)
        pred = self._preds.get(i)
        if pred is None:
            self.ensure_rows((i,))
            pred = self._preds[i]
        return pred

    def distance(self, i: int, j: int) -> float:
        row = self._rows.get(i)  # inlined hit path: solvers call this per pair
        return float((self.row(i) if row is None else row)[j])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def finite_max_rows(self, idx: np.ndarray) -> float:
        return _finite_max(self.rows(idx))

    def w_max(self) -> float:
        """Global max finite pairwise cost (1.0 if every finite cost is 0).

        Streams the full Dijkstra sweep in chunks of ``_WMAX_CHUNK`` rows,
        serving memoized rows from the cache and computing the rest
        transiently without retaining them — O(chunk · |V|) memory.
        Computed once, then cached.
        """
        if self._w_max is None:
            n = len(self.nodes)
            top = 0.0
            for start in range(0, n, _WMAX_CHUNK):
                chunk = range(start, min(start + _WMAX_CHUNK, n))
                cached = [self._rows[i] for i in chunk if i in self._rows]
                fresh = [i for i in chunk if i not in self._rows]
                if cached:
                    top = max(top, _finite_max(np.array(cached)))
                if fresh:
                    rows, _ = self._compute_rows(np.asarray(fresh, dtype=np.intp))
                    top = max(top, _finite_max(rows))
            self._w_max = top if top > 0 else 1.0
        return self._w_max

    # ------------------------------------------------------------------
    # Failure derivation
    # ------------------------------------------------------------------

    def repair(
        self, failed_nodes: Iterable[Node], failed_links: Iterable[tuple[Node, Node]]
    ) -> "LazyRowBackend":
        """A fresh backend for this graph minus ``failed_nodes`` and the
        directed ``failed_links``; no rows are carried.

        The child's CSR is this one's arrays with the failed entries masked
        out: the rows and columns of failed nodes, and the entries of failed
        links (a failed self-loop leaves the zero diagonal, which stands in
        for every node's self-loop).  Surviving nodes keep their order and
        are renumbered densely, so the arrays equal
        ``_sparse_adjacency`` of the degraded graph entry for entry, and
        the child equals ``LazyRowBackend(degraded_graph)`` on every
        operation.  No graph is walked.

        Every row recomputes on first read.  Carrying the rows a failure
        provably cannot touch would need an affected-row test per
        derivation, and on the workloads measured (recovery reads only
        cache, pinned and holder rows) that test cost more than the
        Dijkstra it saved.
        """
        index = self.index
        n = len(self.nodes)
        adj = self.csgraph
        indptr, indices = adj.indptr, adj.indices
        entry_row = np.repeat(np.arange(n), np.diff(indptr))
        alive = np.ones(n, dtype=bool)
        alive[[index[v] for v in failed_nodes]] = False
        keep = alive[entry_row] & alive[indices]
        cut = [(index[u], index[v]) for u, v in failed_links if u != v]
        if cut:
            tail, head = np.asarray(cut, dtype=np.int64).T
            keep &= ~np.isin(entry_row * n + indices, tail * n + head)
        renumber = np.cumsum(alive) - 1
        nodes = tuple(v for v, up in zip(self.nodes, alive.tolist()) if up)
        m = len(nodes)
        counts = np.bincount(renumber[entry_row[keep]], minlength=m)
        child_indptr = np.zeros(m + 1, dtype=indptr.dtype)
        np.cumsum(counts, out=child_indptr[1:])
        csgraph = csr_matrix(
            (
                adj.data[keep],
                renumber[indices[keep]].astype(indices.dtype),
                child_indptr,
            ),
            shape=(m, m),
        )
        child = LazyRowBackend.__new__(LazyRowBackend)
        child._adopt(nodes, {v: k for k, v in enumerate(nodes)}, csgraph)
        return child

    def __repr__(self) -> str:
        return (
            f"LazyRowBackend(|V|={len(self.nodes)}, "
            f"materialized={len(self._rows)})"
        )
