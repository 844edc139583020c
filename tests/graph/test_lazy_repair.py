"""LazyRowBackend.repair parity: derived rows == fresh degraded rows, bit for bit.

A repaired backend carries no rows: every row recomputes on first read
against the degraded CSR, so it must equal a fresh
``LazyRowBackend(degraded_graph)`` build exactly — these tests sweep random
link and node removals over embedded mid-size topologies, from warm and
cold parents, and assert the bit-parity.
"""

import numpy as np
import pytest

from repro.graph import abovenet, abvt, tinet
from repro.graph.backends import LazyRowBackend

TOPOLOGIES = [abovenet, abvt, tinet]


def _remove_links(graph, picks):
    """Degraded copy of ``graph`` minus ``picks`` (both directions)."""
    degraded = graph.copy()
    for u, v in picks:
        for a, b in ((u, v), (v, u)):
            if degraded.has_edge(a, b):
                degraded.remove_edge(a, b)
    return degraded


def _assert_full_parity(repaired, degraded_graph):
    fresh = LazyRowBackend(degraded_graph)
    assert repaired.nodes == fresh.nodes
    n = len(fresh.nodes)
    idx = np.arange(n, dtype=np.intp)
    assert np.array_equal(repaired.rows(idx), fresh.rows(idx))


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
        degraded = _remove_links(graph, picks)
        repaired = backend.repair(degraded)
        assert repaired.materialized == 0
        _assert_full_parity(repaired, degraded)

    def test_empty_parent_repairs_to_fresh_backend(self):
        graph = abvt().graph
        backend = LazyRowBackend(graph)  # nothing memoized
        u, v = next(iter(graph.edges))
        degraded = _remove_links(graph, [(u, v)])
        repaired = backend.repair(degraded)
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
        repaired = backend.repair(degraded)
        assert dead not in repaired.index
        _assert_full_parity(repaired, degraded)
        # rows follow the surviving node order
        assert repaired.row(0).shape == (len(repaired.nodes),)
