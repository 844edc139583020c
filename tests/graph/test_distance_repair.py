"""Parity tests: rows of a repaired backend vs a fresh primed rebuild.

The reuse layer's correctness hinges on :meth:`LazyRowBackend.repair`
(the parent's CSR masked with the failed node and directed-link ids)
serving *bit-identical* rows to a fresh fully primed backend on the
degraded graph — these tests exercise randomized single-link, k-link, and
node failures (including ones that disconnect the graph) and compare with
exact checks (inf == inf, no tolerances).
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.graph import LazyRowBackend, single_source_dijkstra


def random_graph(seed: int, n: int = 12, p: float = 0.3) -> nx.DiGraph:
    rng = np.random.default_rng(seed)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v, cost=float(rng.uniform(0.5, 10.0)))
    return g


def primed(graph) -> LazyRowBackend:
    return LazyRowBackend(graph).prime()


def all_rows(backend: LazyRowBackend) -> np.ndarray:
    return backend.rows(np.arange(len(backend), dtype=np.intp))


def assert_bit_identical(repaired, fresh):
    assert repaired.nodes == fresh.nodes
    got, want = all_rows(repaired), all_rows(fresh)
    assert np.array_equal(got, want), np.argwhere(~np.isclose(got, want))
    # w_max feeds the submodular oracle's saturation cap: assert it too.
    assert repaired.w_max() == fresh.w_max()


def remove_edges(g: nx.DiGraph, edges):
    for (u, v) in edges:
        g.remove_edge(u, v)


class TestSingleLink:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_single_link_bit_identical(self, seed):
        g = random_graph(seed)
        parent = primed(g)
        rng = np.random.default_rng(1000 + seed)
        edges = list(g.edges)
        target = edges[int(rng.integers(len(edges)))]
        degraded = g.copy()
        remove_edges(degraded, [target])
        repaired = parent.repair((), [target])
        assert repaired.materialized == 0  # nothing carried, rows on demand
        assert_bit_identical(repaired, primed(degraded))

    def test_every_single_link_on_one_topology(self):
        g = random_graph(3, n=8, p=0.35)
        parent = primed(g)
        for target in list(g.edges):
            degraded = g.copy()
            remove_edges(degraded, [target])
            assert_bit_identical(parent.repair((), [target]), primed(degraded))

    def test_disconnecting_bridge_goes_inf(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=1.0)
        g.add_edge("b", "c", cost=2.0)
        g.add_edge("c", "b", cost=2.0)
        parent = primed(g)
        degraded = g.copy()
        remove_edges(degraded, [("a", "b")])
        repaired = parent.repair((), [("a", "b")])
        assert_bit_identical(repaired, primed(degraded))
        assert repaired.distance(repaired.index["a"], repaired.index["c"]) == math.inf


class TestKLink:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3])
    def test_random_k_link_bit_identical(self, seed, k):
        g = random_graph(seed, n=14)
        parent = primed(g)
        rng = np.random.default_rng(2000 + 10 * seed + k)
        edges = list(g.edges)
        picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
        cut = [edges[int(i)] for i in picks]
        degraded = g.copy()
        remove_edges(degraded, cut)
        assert_bit_identical(parent.repair((), cut), primed(degraded))


class TestNodeFailure:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_node_removal_bit_identical(self, seed):
        g = random_graph(seed, n=12)
        parent = primed(g)
        rng = np.random.default_rng(3000 + seed)
        dead = int(rng.integers(g.number_of_nodes()))
        degraded = g.copy()
        degraded.remove_node(dead)
        repaired = parent.repair([dead], ())
        assert dead not in repaired.index
        assert_bit_identical(repaired, primed(degraded))

    def test_articulation_node_disconnects(self):
        # line a -> m -> b: removing m strands a from b entirely.
        g = nx.DiGraph()
        g.add_edge("a", "m", cost=1.0)
        g.add_edge("m", "b", cost=1.0)
        g.add_edge("b", "m", cost=1.0)
        g.add_edge("m", "a", cost=1.0)
        parent = primed(g)
        degraded = g.copy()
        degraded.remove_node("m")
        repaired = parent.repair(["m"], ())
        assert_bit_identical(repaired, primed(degraded))
        assert repaired.distance(repaired.index["a"], repaired.index["b"]) == math.inf


class TestGuards:
    def test_empty_after_removing_everything(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=1.0)
        repaired = primed(g).repair(["a", "b"], [("a", "b")])
        assert len(repaired) == 0
        assert all_rows(repaired).shape == (0, 0)
        assert repaired.w_max() == 1.0

    def test_pure_dijkstra_backend_matches(self):
        # The pure-python Dijkstra is the reference for repaired rows too.
        g = random_graph(5, n=9)
        parent = primed(g)
        rng = np.random.default_rng(7)
        edges = list(g.edges)
        target = edges[int(rng.integers(len(edges)))]
        degraded = g.copy()
        remove_edges(degraded, [target])
        repaired = parent.repair((), [target])
        for u in degraded.nodes:
            reference, _ = single_source_dijkstra(degraded, u)
            expected = [reference.get(v, math.inf) for v in repaired.nodes]
            np.testing.assert_allclose(repaired.row(repaired.index[u]), expected)


class TestPartialSources:
    def test_chained_partial_repairs_stay_exact(self):
        # A repaired backend may parent further repairs; reading only a
        # shrinking set of rows at each step (the timeline controller's
        # usage) computes exactly those rows, and they match a fresh build.
        g = random_graph(3)
        parent = primed(g)
        edges = list(g.edges)
        first = g.copy()
        remove_edges(first, edges[:2])
        step1 = parent.repair((), edges[:2])
        sources = [step1.index[v] for v in list(step1.nodes)[:5]]
        step1.ensure_rows(sources)
        second = first.copy()
        remove_edges(second, list(first.edges)[:2])
        step2 = step1.repair((), list(first.edges)[:2])
        shrunk = sources[:3]
        fresh = primed(second)
        for i in shrunk:
            assert np.array_equal(step2.row(i), fresh.row(i))
        assert step2.materialized == len(shrunk)

    def test_unknown_source_nodes_ignored(self):
        # A row scope naming a node the degraded instance lost primes the
        # surviving rows and skips the rest.
        from repro.core.context import SolverContext
        from repro.robustness import (
            apply_failure,
            degraded_context,
            single_node_failures,
        )
        from tests.core.conftest import random_uncapacitated_problem

        problem = random_uncapacitated_problem(1)
        parent = SolverContext.from_problem(problem)
        degraded = apply_failure(problem, single_node_failures(problem)[1])
        child = degraded_context(parent, degraded)
        (dead,) = degraded.failed_nodes
        survivor = child.nodes[0]
        child.prime_rows(["not-a-node", dead, survivor])
        assert child.backend.materialized == 1
        fresh = SolverContext.from_problem(degraded.problem)
        assert np.array_equal(child.row_of(survivor), fresh.row_of(survivor))
