"""LazyRowBackend.repair parity: masked rows == fresh degraded rows, bit for bit.

A repaired backend masks its parent's CSR arrays with the failed node and
directed-link ids and carries no rows: every row recomputes on first read,
so it must equal a fresh ``LazyRowBackend(degraded_graph)`` build exactly —
on node order, on the CSR arrays themselves, on every row and on every
predecessor tree.  These tests sweep random link and node removals over
embedded mid-size topologies and tie-heavy random digraphs, from warm and
cold parents, and assert that parity.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import abovenet, abvt, tinet
from repro.graph.backends import LazyRowBackend
from repro.graph.network import COST

TOPOLOGIES = [abovenet, abvt, tinet]


def _remove_links(graph, picks):
    """Degraded copy of ``graph`` minus ``picks`` (both directions), and the
    directed links it removed."""
    degraded = graph.copy()
    removed = []
    for u, v in picks:
        for a, b in ((u, v), (v, u)):
            if degraded.has_edge(a, b):
                degraded.remove_edge(a, b)
                removed.append((a, b))
    return degraded, removed


def _assert_full_parity(repaired, degraded_graph):
    fresh = LazyRowBackend(degraded_graph)
    assert repaired.nodes == fresh.nodes
    assert repaired.index == fresh.index
    for name in ("indptr", "indices", "data"):
        got, want = getattr(repaired.csgraph, name), getattr(fresh.csgraph, name)
        assert np.array_equal(got, want), name
    n = len(fresh.nodes)
    idx = np.arange(n, dtype=np.intp)
    assert repaired.rows(idx).tobytes() == fresh.rows(idx).tobytes()
    for i in range(n):
        assert np.array_equal(repaired.predecessors(i), fresh.predecessors(i)), i


class TestLinkRemovals:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_link_removals_bit_identical(self, factory, seed):
        graph = factory().graph
        backend = LazyRowBackend(graph)
        rng = np.random.default_rng(seed)
        nodes = list(graph.nodes)
        # memoize a representative subset of rows before the failure
        warm = rng.choice(len(nodes), size=min(10, len(nodes)), replace=False)
        backend.ensure_rows(int(k) for k in warm)
        links = sorted(
            {(min(u, v, key=repr), max(u, v, key=repr)) for u, v in graph.edges},
            key=repr,
        )
        picks = [links[int(k)] for k in
                 rng.choice(len(links), size=3, replace=False)]
        degraded, removed = _remove_links(graph, picks)
        repaired = backend.repair((), removed)
        assert repaired.materialized == 0
        _assert_full_parity(repaired, degraded)

    def test_empty_parent_repairs_to_fresh_backend(self):
        graph = abvt().graph
        backend = LazyRowBackend(graph)  # nothing memoized
        u, v = next(iter(graph.edges))
        degraded, removed = _remove_links(graph, [(u, v)])
        repaired = backend.repair((), removed)
        assert repaired.materialized == 0
        _assert_full_parity(repaired, degraded)


class TestNodeRemovals:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_node_removal_bit_identical(self, factory):
        graph = factory().graph
        backend = LazyRowBackend(graph).prime()
        dead = list(graph.nodes)[3]
        degraded = graph.copy()
        degraded.remove_node(dead)
        repaired = backend.repair([dead], ())
        assert dead not in repaired.index
        _assert_full_parity(repaired, degraded)
        # rows follow the surviving node order
        assert repaired.row(0).shape == (len(repaired.nodes),)


@st.composite
def failed_digraphs(draw):
    """A tie-heavy digraph (self-loops included) and a failure on it."""
    n = draw(st.integers(1, 10))
    labels = draw(st.permutations(range(n)))  # insertion order != label order
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(st.tuples(pairs, st.integers(0, 3)), max_size=3 * n))
    graph = nx.DiGraph()
    graph.add_nodes_from(labels)
    for (u, v), cost in edges:
        graph.add_edge(u, v, **{COST: float(cost)})
    nodes = draw(st.lists(st.sampled_from(labels), unique=True, max_size=n))
    links = list(graph.edges)
    cut = draw(st.lists(st.sampled_from(links), unique=True) if links else st.just([]))
    return graph, nodes, cut


class TestMaskedRepairParity:
    @settings(max_examples=80, deadline=None)
    @given(failed_digraphs(), st.booleans(), st.data())
    def test_masked_equals_fresh_degraded_backend(self, case, prime, data):
        # Failed links may touch failed nodes, and a failed self-loop keeps
        # the zero diagonal, exactly as a fresh build of the degraded graph.
        graph, nodes, cut = case
        parent = LazyRowBackend(graph)
        if prime:
            parent.prime()
        else:
            warm = data.draw(st.lists(st.integers(0, len(graph) - 1), max_size=4))
            parent.ensure_rows(warm)
        degraded = graph.copy()
        degraded.remove_edges_from(cut)
        degraded.remove_nodes_from(nodes)
        repaired = parent.repair(nodes, cut)
        assert repaired.materialized == 0
        _assert_full_parity(repaired, degraded)

    @settings(max_examples=40, deadline=None)
    @given(failed_digraphs(), st.data())
    def test_chained_masks_equal_fresh(self, first, data):
        # A repaired backend parents the next repair: ids are relative to
        # the parent's (already compacted) node order.
        graph, nodes, cut = first
        step1 = LazyRowBackend(graph).repair(nodes, cut)
        mid = graph.copy()
        mid.remove_edges_from(cut)
        mid.remove_nodes_from(nodes)
        more_nodes = data.draw(
            st.lists(st.sampled_from(list(mid.nodes)), unique=True)
            if len(mid) else st.just([])
        )
        more_links = data.draw(
            st.lists(st.sampled_from(list(mid.edges)), unique=True)
            if mid.number_of_edges() else st.just([])
        )
        step2 = step1.repair(more_nodes, more_links)
        last = mid.copy()
        last.remove_edges_from(more_links)
        last.remove_nodes_from(more_nodes)
        _assert_full_parity(step2, last)
