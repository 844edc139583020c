"""All-pairs least costs from a fully primed row backend (the dense policy)."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidNetworkError
from repro.graph import (
    LazyRowBackend,
    abovenet,
    all_pairs_least_costs,
    single_source_dijkstra,
)


def diamond() -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_edge("s", "a", cost=1.0)
    g.add_edge("s", "b", cost=4.0)
    g.add_edge("a", "t", cost=1.0)
    g.add_edge("b", "t", cost=1.0)
    g.add_edge("a", "b", cost=1.0)
    return g


def primed(graph) -> LazyRowBackend:
    return LazyRowBackend(graph).prime()


def dist(backend: LazyRowBackend, u, v) -> float:
    return backend.distance(backend.index[u], backend.index[v])


def all_rows(backend: LazyRowBackend) -> np.ndarray:
    return backend.rows(np.arange(len(backend), dtype=np.intp))


class TestBuild:
    def test_matches_dict_all_pairs_on_diamond(self):
        g = diamond()
        rows = primed(g)
        costs, wmax = all_pairs_least_costs(g)
        for u in g.nodes:
            for v in g.nodes:
                assert dist(rows, u, v) == pytest.approx(costs[u].get(v, math.inf))
        assert rows.w_max() == pytest.approx(wmax)

    def test_unreachable_pairs_are_inf(self):
        g = diamond()
        g.add_node("island")
        rows = primed(g)
        assert dist(rows, "s", "island") == math.inf
        assert dist(rows, "island", "s") == math.inf
        assert dist(rows, "island", "island") == 0.0

    def test_diagonal_is_zero(self):
        assert np.all(np.diag(all_rows(primed(diamond()))) == 0.0)

    def test_zero_cost_edges_survive(self):
        # A zero-weight edge must count as an edge, not as "no edge"
        # (the classic scipy csr_matrix pitfall).
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.0)
        g.add_edge("b", "c", cost=3.0)
        rows = primed(g)
        assert dist(rows, "a", "b") == 0.0
        assert dist(rows, "a", "c") == 3.0

    def test_parallel_duplicate_edges_keep_minimum(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=5.0)
        g.add_edge("a", "b", cost=2.0)  # overwrites in DiGraph
        assert dist(primed(g), "a", "b") == 2.0

    def test_negative_weight_raises(self):
        g = nx.DiGraph()
        g.add_edge(1, 2, cost=-1.0)
        with pytest.raises(InvalidNetworkError):
            LazyRowBackend(g)

    def test_matrix_is_read_only(self):
        rows = primed(diamond())
        with pytest.raises(ValueError):
            rows.row(0)[0] = 99.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_dict_on_random_graphs(self, seed):
        g = nx.gnp_random_graph(10, 0.3, seed=seed, directed=True)
        for u, v in g.edges:
            g.edges[u, v]["cost"] = ((u * 7 + v * 13 + seed) % 19) + 1.0
        rows = primed(g)
        costs, wmax = all_pairs_least_costs(g)
        for u in g.nodes:
            row = costs[u]
            for v in g.nodes:
                assert dist(rows, u, v) == pytest.approx(row.get(v, math.inf))
        assert rows.w_max() == pytest.approx(wmax)

    def test_scipy_and_python_paths_agree(self):
        # The pure-python Dijkstra is the reference the scipy rows are
        # checked against.
        g = abovenet().graph
        rows = primed(g)
        for u in g.nodes:
            reference, _ = single_source_dijkstra(g, u)
            expected = [reference.get(v, math.inf) for v in rows.nodes]
            np.testing.assert_allclose(rows.row(rows.index[u]), expected)


class TestAccessors:
    def test_row_and_column_slices(self):
        g = diamond()
        rows = primed(g)
        row = rows.row(rows.index["s"])
        col = all_rows(rows)[:, rows.index["t"]]
        for v in g.nodes:
            assert row[rows.index[v]] == dist(rows, "s", v)
            assert col[rows.index[v]] == dist(rows, v, "t")

    def test_len_and_contains(self):
        rows = primed(diamond())
        assert len(rows) == 4
        assert rows.materialized == 4
        assert "s" in rows.index
        assert "zz" not in rows.index

    def test_unknown_node_raises(self):
        rows = primed(diamond())
        with pytest.raises(KeyError):
            dist(rows, "s", "zz")

    def test_wmax_small_costs_kept(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.25)
        assert primed(g).w_max() == 0.25

    def test_wmax_degenerates_to_one(self):
        # All-zero costs (and single-node graphs) floor w_max at 1.0,
        # matching all_pairs_least_costs.
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.0)
        assert primed(g).w_max() == 1.0
        lone = nx.DiGraph()
        lone.add_node("x")
        assert primed(lone).w_max() == 1.0

    def test_explicit_node_order_is_respected(self):
        # Rows and columns follow the graph's node insertion order.
        order = ("t", "b", "a", "s")
        g = nx.DiGraph()
        g.add_nodes_from(order)
        g.add_edges_from(diamond().edges(data=True))
        rows = primed(g)
        assert rows.nodes == order
        assert all_rows(rows)[rows.index["s"], rows.index["t"]] == 2.0
