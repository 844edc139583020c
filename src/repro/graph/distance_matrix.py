"""All-pairs building blocks shared by the row backend and path oracles.

The Section 4 machinery (F_RNR greedy, local search, RNR routing, the [3]
candidate-path baseline) consumes the least routing cost ``w_{v->s}`` for
(cache node, requester) pairs.  :class:`repro.graph.backends.LazyRowBackend`
serves those costs as rows produced by ``scipy.sparse.csgraph.dijkstra``
over the CSR adjacency built here (:func:`_sparse_adjacency`); the same
sweeps return the predecessor trees that the path oracle of
:mod:`repro.core.context` backtracks, so distances and paths agree.

Computing *every* row up front (the "dense" priming policy) costs
O(|V|²) memory; :func:`estimate_dense_bytes` and :func:`dense_bytes_ceiling`
guard that path so it fails with a :class:`~repro.exceptions.ResourceError`
before allocating instead of dying in a raw ``MemoryError``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Hashable, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import InvalidNetworkError

Node = Hashable

#: Environment override for the dense-allocation ceiling (bytes).
DENSE_MAX_BYTES_ENV = "REPRO_DENSE_MAX_BYTES"


def estimate_dense_bytes(num_nodes: int) -> int:
    """Upper estimate of the peak allocation of computing every row at once.

    Two ``float64`` ``n x n`` arrays live at once (the result rows plus
    scipy's working copy), next to the ``int32`` ``n x n`` predecessor
    matrix the primed backend keeps for path reconstruction.
    """
    return (2 * 8 + 4) * num_nodes * num_nodes


def dense_bytes_ceiling() -> float:
    """Byte ceiling for computing every row at once.

    ``REPRO_DENSE_MAX_BYTES`` wins when set; otherwise 80% of the machine's
    currently available memory (``/proc/meminfo``), or ``inf`` where that is
    unreadable.  Consulted on every :meth:`LazyRowBackend.prime
    <repro.graph.backends.LazyRowBackend.prime>` call, so tests can
    monkeypatch the environment to simulate a small machine.
    """
    override = os.environ.get(DENSE_MAX_BYTES_ENV)
    if override:
        return float(override)
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return 0.8 * float(line.split()[1]) * 1024.0
    except OSError:  # pragma: no cover - non-Linux platforms
        pass
    return math.inf  # pragma: no cover - /proc/meminfo always has the key


def _sparse_adjacency(
    graph: nx.DiGraph,
    nodes: Sequence[Node],
    index: dict[Node, int],
    weight: str,
):
    """Adjacency of ``graph`` as a scipy CSR matrix, O(|V| + |E|) memory.

    Zero-cost edges are stored explicitly (a real edge, not a missing one),
    and an explicit zero-weight diagonal stands in for self-loops, so every
    ``csgraph`` routine consuming it sees the same graph whichever rows it
    is asked for.
    """
    n = len(nodes)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, v, edge in graph.edges(data=True):
        w = float(edge.get(weight, 1.0))
        if w < 0:
            raise InvalidNetworkError(f"negative weight on ({u!r}, {v!r})")
        i, j = index[u], index[v]
        if i != j:  # self-loops collapse into the zero diagonal below
            rows.append(i)
            cols.append(j)
            data.append(w)
    rows.extend(range(n))
    cols.extend(range(n))
    data.extend([0.0] * n)
    adj = csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)),
        ),
        shape=(n, n),
    )
    adj.sort_indices()
    return adj


# perfbench/tracer.py instruments this name by attribute lookup; it is kept
# only as an alias of ``LazyRowBackend.repair`` and is not called here.
def repair_distance_matrix(parent, failed_nodes, failed_links):
    return parent.repair(failed_nodes, failed_links)
