"""Predecessor trees kept beside the rows, against per-source Dijkstra.

Every :class:`~repro.graph.backends.LazyRowBackend` sweep returns each row's
shortest-path tree, and :class:`~repro.core.context.PredecessorPathCache`
backtracks those trees instead of running its own Dijkstra.  The references
kept here are what the trees and rows replaced:

- a path is the one backtracked from a single-source
  ``dijkstra(indices=s, return_predecessors=True)`` over the same CSR (the
  path oracle's own sweep);
- a row is the one a ``return_predecessors=False`` sweep computes.

Small random digraphs with integer and zero costs make equal-cost ties
common, which is where a batched and a single-source sweep could disagree
on the tree.  Primed, lazy (read in random batches) and repaired backends
must all match, bit for bit.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.context import PredecessorPathCache
from repro.exceptions import InfeasibleError
from repro.graph import LazyRowBackend
from repro.graph.network import COST


def reference_path(backend, source, target):
    """Backtrack a single-source predecessor tree (``None``: unreachable)."""
    _, pred = dijkstra(
        backend.csgraph, directed=True, indices=source, return_predecessors=True
    )
    hops = [target]
    j = target
    while j != source:
        j = int(pred[j])
        if j < 0:
            return None
        hops.append(j)
    return tuple(backend.nodes[k] for k in reversed(hops))


def reference_rows(backend):
    """Every row from one sweep without predecessors."""
    n = len(backend)
    sources = np.arange(n)
    rows = np.atleast_2d(dijkstra(backend.csgraph, directed=True, indices=sources))
    rows[sources, sources] = 0.0
    return rows


@st.composite
def tie_heavy_digraphs(draw):
    n = draw(st.integers(2, 12))
    labels = draw(st.permutations(range(n)))  # insertion order != label order
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(
        st.lists(st.tuples(pairs, st.integers(0, 3)), max_size=3 * n)
    )
    graph = nx.DiGraph()
    graph.add_nodes_from(labels)
    for (u, v), cost in edges:
        graph.add_edge(u, v, **{COST: float(cost)})
    return graph


def read_in_batches(backend, batches):
    for batch in batches:
        backend.ensure_rows(k % len(backend) for k in batch)


def assert_parity(backend):
    n = len(backend)
    expected = reference_rows(backend)
    oracle = PredecessorPathCache(backend)
    for s in range(n):
        row = backend.row(s)
        assert row.tobytes() == expected[s].tobytes(), f"row {s} differs"
        for t in range(n):
            want = reference_path(backend, s, t)
            if want is None:
                try:
                    oracle.path_by_index(s, t)
                except InfeasibleError:
                    continue
                raise AssertionError(f"{s}->{t} should be unreachable")
            assert oracle.path_by_index(s, t) == want, (s, t)


class TestPredecessorParity:
    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_digraphs())
    def test_primed(self, graph):
        assert_parity(LazyRowBackend(graph).prime())

    @settings(max_examples=60, deadline=None)
    @given(
        tie_heavy_digraphs(),
        st.lists(st.lists(st.integers(0, 20), max_size=6), max_size=4),
    )
    def test_lazy_in_batches(self, graph, batches):
        backend = LazyRowBackend(graph)
        read_in_batches(backend, batches)
        assert_parity(backend)

    @settings(max_examples=60, deadline=None)
    @given(tie_heavy_digraphs(), st.data())
    def test_repaired(self, graph, data):
        parent = LazyRowBackend(graph).prime()
        edges = list(graph.edges)
        removed = data.draw(
            st.lists(st.sampled_from(edges), unique=True) if edges else st.just([])
        )
        dead = data.draw(st.lists(st.sampled_from(list(graph.nodes)), max_size=2))
        child = parent.repair(dead, removed)
        degraded = graph.copy()
        degraded.remove_edges_from(removed)
        degraded.remove_nodes_from(dead)
        fresh = LazyRowBackend(degraded)
        assert child.nodes == fresh.nodes
        if len(child):
            read_in_batches(
                child,
                data.draw(st.lists(st.lists(st.integers(0, 20), max_size=6), max_size=3)),
            )
            assert_parity(child)
        for s in range(len(fresh)):
            assert np.array_equal(child.predecessors(s), fresh.predecessors(s))

    def test_tree_is_read_only_and_memoized(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", **{COST: 0.0})
        graph.add_edge("b", "c", **{COST: 1.0})
        backend = LazyRowBackend(graph)
        pred = backend.predecessors(0)
        assert backend.materialized == 1  # the row came with the tree
        assert pred is backend.predecessors(0)
        assert pred.dtype == np.int32
        assert pred[0] < 0 and pred[1] == 0 and pred[2] == 1
        assert not pred.flags.writeable
