"""Shared-memory broadcast of rows and arrays: signatures, round-trips, cleanup."""

from pathlib import Path

import networkx as nx
import numpy as np
import pickle

from repro.graph import LazyRowBackend, line_topology
from repro.graph.shm import (
    BundleBroadcast,
    attach_bundle,
    graph_signature,
    lookup_rows,
    register_rows,
    unregister_rows,
)


def small_graph() -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_edge("a", "b", cost=1.5)
    g.add_edge("b", "c", cost=2.5)
    g.add_edge("c", "a", cost=0.5)
    return g


def shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.exists():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir()}


class TestSignature:
    def test_deterministic(self):
        assert graph_signature(small_graph()) == graph_signature(small_graph())

    def test_cost_change_changes_signature(self):
        g = small_graph()
        h = small_graph()
        h["a"]["b"]["cost"] = 1.5000000001
        assert graph_signature(g) != graph_signature(h)

    def test_edge_set_change_changes_signature(self):
        g = small_graph()
        h = small_graph()
        h.add_edge("a", "c", cost=9.0)
        assert graph_signature(g) != graph_signature(h)

    def test_node_order_change_changes_signature(self):
        g = small_graph()
        h = nx.DiGraph()
        h.add_nodes_from(reversed(list(g.nodes)))
        h.add_edges_from(g.edges(data=True))
        assert graph_signature(g) != graph_signature(h)


class TestBroadcast:
    def test_handle_pickles_small_and_subquadratic(self):
        # The per-pool payload of a fully primed context is the handle, not
        # the O(|V|^2) row block: O(|V|) bytes.
        from repro.graph.shm import RowsBroadcast

        sizes = {}
        for n in (30, 60):
            net = line_topology(n)
            backend = LazyRowBackend(net.graph).prime()
            store = backend.row_store()
            with RowsBroadcast(store, backend.nodes, "sig") as broadcast:
                sizes[n] = len(pickle.dumps(broadcast.handle))
                assert sizes[n] < store.block.nbytes / 10
        # Doubling |V| quadruples the block but must not quadruple the
        # handle (node labels grow linearly).
        assert sizes[60] < 3 * sizes[30]


class TestBundle:
    def sample_arrays(self) -> dict[str, np.ndarray]:
        return {
            "rates": np.array([1.0, 2.5, 4.0]),
            "ptr": np.array([0, 2, 5], dtype=np.int64),
            "flags": np.array([1, 0, 1], dtype=np.int8),
            "empty": np.zeros(0),
        }

    def test_attach_round_trip_read_only(self):
        arrays = self.sample_arrays()
        broadcast = BundleBroadcast(arrays)
        try:
            attached = attach_bundle(broadcast.handle)
            assert set(attached) == set(arrays)
            for name, arr in arrays.items():
                assert attached[name].dtype == arr.dtype
                assert np.array_equal(attached[name], arr)
                assert not attached[name].flags.writeable
        finally:
            broadcast.close()

    def test_close_unlinks_segment(self):
        before = shm_segments()
        broadcast = BundleBroadcast(self.sample_arrays())
        assert shm_segments() - before  # segment exists while open
        broadcast.close()
        assert shm_segments() - before == set()
        broadcast.close()  # idempotent

    def test_handle_pickles_small(self):
        # The per-pool payload is the handle, not the arrays.
        arrays = {"big": np.zeros(200_000)}
        broadcast = BundleBroadcast(arrays)
        try:
            assert len(pickle.dumps(broadcast.handle)) < 1_000
        finally:
            broadcast.close()

    def test_heterogeneous_dtypes_keep_alignment(self):
        arrays = {
            "bytes1": np.arange(7, dtype=np.int8),
            "floats": np.arange(5, dtype=np.float64),
            "ints": np.arange(3, dtype=np.int64),
        }
        broadcast = BundleBroadcast(arrays)
        try:
            for spec in broadcast.handle.specs:
                assert spec.offset % 64 == 0
            attached = attach_bundle(broadcast.handle)
            for name, arr in arrays.items():
                assert np.array_equal(attached[name], arr)
        finally:
            broadcast.close()


class TestRegistry:
    def test_lookup_hits_only_matching_graph(self):
        g = small_graph()
        store = LazyRowBackend(g).prime().row_store()
        sig = graph_signature(g)
        assert lookup_rows(g) is None  # empty registry: free miss
        register_rows(sig, store)
        try:
            assert lookup_rows(g) is store
            other = small_graph()
            other["a"]["b"]["cost"] = 7.0
            assert lookup_rows(other) is None
        finally:
            unregister_rows(sig)
        assert lookup_rows(g) is None

    def test_context_from_problem_uses_registry(self):
        from repro.core.context import SolverContext
        from tests.core.conftest import random_uncapacitated_problem

        problem = random_uncapacitated_problem(0)
        graph = problem.network.graph
        store = LazyRowBackend(graph).prime().row_store()
        sig = graph_signature(graph)
        register_rows(sig, store)
        try:
            ctx = SolverContext.from_problem(problem)
            # every row is a zero-copy view into the registered block
            assert ctx.backend.materialized == len(store)
            assert np.shares_memory(ctx.backend.row(0), store.block)
        finally:
            unregister_rows(sig)
        fresh = SolverContext.from_problem(problem)
        idx = np.arange(len(fresh.nodes))
        assert not np.shares_memory(fresh.backend.row(0), store.block)
        assert np.array_equal(fresh.backend.rows(idx), store.block)


class TestRowsBroadcast:
    def test_attach_round_trip_bit_identical(self):
        from repro.graph.backends import LazyRowBackend
        from repro.graph.shm import RowsBroadcast, attach_rows

        g = small_graph()
        backend = LazyRowBackend(g)
        backend.ensure_rows([0, 2])
        store = backend.row_store()
        sig = graph_signature(g)
        with RowsBroadcast(store, backend.nodes, sig) as broadcast:
            attached = attach_rows(broadcast.handle)
            assert np.array_equal(attached.row_ids, store.row_ids)
            assert np.array_equal(attached.block, store.block)
            assert not attached.block.flags.writeable
            # a backend over the attached store serves those rows zero-copy
            reloaded = LazyRowBackend(g, store=attached)
            assert reloaded.materialized == 2
            assert np.array_equal(reloaded.row(0), backend.row(0))

    def test_close_unlinks_segment(self):
        from repro.graph.backends import LazyRowBackend
        from repro.graph.shm import RowsBroadcast

        g = small_graph()
        backend = LazyRowBackend(g)
        backend.ensure_rows([1])
        before = shm_segments()
        broadcast = RowsBroadcast(
            backend.row_store(), backend.nodes, graph_signature(g)
        )
        assert shm_segments() - before
        broadcast.close()
        broadcast.close()  # idempotent
        assert shm_segments() == before

    def test_handle_pickles_small(self):
        from repro.graph.backends import LazyRowBackend
        from repro.graph.shm import RowsBroadcast

        g = nx.DiGraph()
        for i in range(200):
            g.add_edge(i, (i + 1) % 200, cost=1.0)
        backend = LazyRowBackend(g)
        backend.ensure_rows(range(100))
        with RowsBroadcast(
            backend.row_store(), backend.nodes, graph_signature(g)
        ) as broadcast:
            payload = pickle.dumps(broadcast.handle)
            # far below the 100 * 200 * 8 B block: only specs + labels travel
            assert len(payload) < 20_000

    def test_registry_round_trip_feeds_context(self):
        from repro.graph.backends import LazyRowBackend
        from repro.graph.shm import lookup_rows, register_rows, unregister_rows

        g = small_graph()
        backend = LazyRowBackend(g)
        backend.ensure_rows([0, 1, 2])
        store = backend.row_store()
        sig = graph_signature(g)
        register_rows(sig, store)
        try:
            assert lookup_rows(g) is store
            other = nx.DiGraph()
            other.add_edge("x", "y", cost=1.0)
            assert lookup_rows(other) is None
        finally:
            unregister_rows(sig)
        assert lookup_rows(g) is None
