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

A row holds the same bytes whichever sweep produced it (asserted in
``tests/graph/test_backends.py``), so the two policies are interchangeable
on every operation.

Materialized rows can be exported once into shared memory
(:meth:`LazyRowBackend.row_store` + :class:`repro.graph.shm.RowsBroadcast`)
and attached zero-copy by pool workers, which fall back to local
computation only for rows outside the store.

``w_max`` (the paper's bound on pairwise costs) is streamed through the
full Dijkstra sweep in bounded-memory chunks without retaining the rows —
max is order-independent, so the value does not depend on which rows were
already memoized.  The sweep runs only when ``w_max`` is actually read
(greedy/local-search baselines); Algorithm 1 takes its bound from
``finite_max_from`` over candidate sources and never pays it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.exceptions import ResourceError
from repro.graph.distance_matrix import (
    DENSE_MAX_BYTES_ENV,
    _sparse_adjacency,
    dense_bytes_ceiling,
    estimate_dense_bytes,
)
from repro.graph.network import COST

Node = Hashable

__all__ = [
    "LazyRowBackend",
    "RowStore",
]

#: Rows per chunk of the streamed ``w_max`` sweep (memory = chunk * |V| * 8).
_WMAX_CHUNK = 256


def _finite_max(rows: np.ndarray) -> float:
    """Max finite entry of ``rows`` (0.0 if none)."""
    finite = rows[np.isfinite(rows)]
    return float(finite.max()) if finite.size else 0.0


class RowStore:
    """Materialized distance rows as one shm-shareable block.

    ``row_ids[k]`` is the source index of ``block[k]``.  The block is what
    :class:`~repro.graph.shm.RowsBroadcast` exports and what workers attach
    read-only; a :class:`LazyRowBackend` built on an attached store serves
    those rows zero-copy.
    """

    def __init__(self, row_ids: np.ndarray, block: np.ndarray) -> None:
        self.row_ids = np.asarray(row_ids, dtype=np.intp)
        self.block = block
        if self.block.ndim != 2 or len(self.row_ids) != self.block.shape[0]:
            raise ValueError("row_ids must index the block's rows")

    def __len__(self) -> int:
        return len(self.row_ids)


class LazyRowBackend:
    """Distance rows computed in batched sweeps and memoized.

    Parameters
    ----------
    graph:
        The network graph; the CSR adjacency is built once (O(|V| + |E|)).
    nodes:
        Row/column order (defaults to graph insertion order, as everywhere
        in the repo).
    store:
        Optional preloaded :class:`RowStore` (typically attached from a
        shared-memory broadcast); its rows are served as read-only views
        without any computation or copying.

    A fresh backend holds no rows; :meth:`prime` computes all of them at
    once, and any read computes the missing ones.
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        *,
        weight: str = COST,
        nodes: Sequence[Node] | None = None,
        store: RowStore | None = None,
    ) -> None:
        self.nodes: tuple[Node, ...] = tuple(graph.nodes if nodes is None else nodes)
        self.index: dict[Node, int] = {v: k for k, v in enumerate(self.nodes)}
        self._weight = weight
        #: CSR adjacency every row is computed from (shared with the
        #: context's predecessor-path oracle).
        self.csgraph = _sparse_adjacency(graph, self.nodes, self.index, weight)
        self._rows: dict[int, np.ndarray] = {}
        self._w_max: float | None = None
        if store is not None:
            n = len(self.nodes)
            if store.block.shape[1] != n:
                raise ValueError(
                    f"row store has {store.block.shape[1]} columns, graph has "
                    f"{n} nodes"
                )
            for k, i in enumerate(store.row_ids):
                self._rows[int(i)] = store.block[k]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def materialized(self) -> int:
        """Number of rows currently memoized (tests/benchmarks)."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # Row computation
    # ------------------------------------------------------------------

    def _compute_rows(self, sources: np.ndarray) -> np.ndarray:
        """Fresh rows for ``sources`` (one batched Dijkstra sweep)."""
        from scipy.sparse.csgraph import dijkstra

        rows = np.atleast_2d(dijkstra(self.csgraph, directed=True, indices=sources))
        rows[np.arange(len(sources)), sources] = 0.0
        return rows

    def ensure_rows(self, idx: Iterable[int]) -> None:
        """Materialize any missing rows in one batched sweep."""
        missing = {int(i) for i in idx if i not in self._rows}
        if not missing:
            return
        ids = sorted(missing)
        computed = self._compute_rows(np.asarray(ids, dtype=np.intp))
        computed.setflags(write=False)
        self._rows.update(zip(ids, computed))

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

    def distance(self, i: int, j: int) -> float:
        row = self._rows.get(i)  # inlined hit path: solvers call this per pair
        return float((self.row(i) if row is None else row)[j])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def finite_max_rows(self, idx: np.ndarray) -> float:
        return _finite_max(self.rows(idx))

    def w_max(self) -> float:
        """Global max finite pairwise cost, floored at 1.0.

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
                    rows = self._compute_rows(np.asarray(fresh, dtype=np.intp))
                    top = max(top, _finite_max(rows))
            self._w_max = top if top > 0 else 1.0
        return self._w_max

    # ------------------------------------------------------------------
    # Failure derivation
    # ------------------------------------------------------------------

    def repair(self, degraded_graph: nx.DiGraph) -> "LazyRowBackend":
        """A fresh backend for ``degraded_graph``; no rows are carried.

        Every row recomputes on first read against the degraded CSR, so the
        child equals ``LazyRowBackend(degraded_graph)`` on every operation
        by construction.  Carrying the rows a failure provably cannot touch
        would need an affected-row test per derivation, and on the
        workloads measured (recovery reads only cache, pinned and holder
        rows) that test cost more than the Dijkstra it saved.
        """
        return LazyRowBackend(degraded_graph, weight=self._weight)

    # ------------------------------------------------------------------
    # Shared-memory export
    # ------------------------------------------------------------------

    def row_store(self) -> RowStore:
        """Snapshot of every materialized row as one contiguous block.

        The block is a fresh read-only copy (safe to hand to
        :class:`~repro.graph.shm.RowsBroadcast`, which copies it into the
        segment); row order follows ascending source index for determinism.
        """
        ids = sorted(self._rows)
        block = np.empty((len(ids), len(self.nodes)), dtype=np.float64)
        for k, i in enumerate(ids):
            block[k] = self._rows[i]
        block.setflags(write=False)
        return RowStore(np.asarray(ids, dtype=np.intp), block)

    def __repr__(self) -> str:
        return (
            f"LazyRowBackend(|V|={len(self.nodes)}, "
            f"materialized={len(self._rows)})"
        )
