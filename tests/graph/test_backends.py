"""The row backend: primed/lazy bit-parity, laziness, memory guard."""

import math

import numpy as np
import pytest

from repro.exceptions import ResourceError
from repro.graph import (
    LazyRowBackend,
    abovenet,
    abvt,
    deltacom,
    estimate_dense_bytes,
    line_topology,
    random_topology,
    single_source_dijkstra,
    tinet,
    tree_topology,
)

TOPOLOGIES = [abovenet, abvt, tinet, deltacom, lambda: line_topology(7),
              lambda: tree_topology(2, 3), lambda: random_topology(40, seed=3)]


def backends_for(net):
    """A fully primed backend (one all-rows sweep) and a lazy one."""
    graph = net.graph
    dense = LazyRowBackend(graph).prime()
    lazy = LazyRowBackend(graph)
    return dense, lazy


class TestBitParity:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_rows_bit_identical(self, factory):
        dense, lazy = backends_for(factory())
        n = len(dense.nodes)
        assert lazy.nodes == dense.nodes
        for i in range(n):
            d, l = dense.row(i), lazy.row(i)
            # bitwise equality, not approx: one all-rows sweep vs one
            # sweep per row over the same CSR
            assert np.array_equal(d, l), f"row {i} differs"
            assert d.tobytes() == l.tobytes()

    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_reductions_bit_identical(self, factory):
        dense, lazy = backends_for(factory())
        n = len(dense.nodes)
        idx = np.arange(0, n, 2, dtype=np.intp)
        assert dense.finite_max_rows(idx) == lazy.finite_max_rows(idx)
        assert dense.w_max() == lazy.w_max()

    def test_distance_and_stacked_rows(self):
        dense, lazy = backends_for(tinet())
        idx = np.asarray([4, 0, 17], dtype=np.intp)
        assert np.array_equal(dense.rows(idx), lazy.rows(idx))
        assert dense.distance(3, 40) == lazy.distance(3, 40)

    def test_python_fallback_matches_scipy(self):
        # The pure-python Dijkstra stays as the reference implementation.
        net = abvt()
        scipy_rows = LazyRowBackend(net.graph)
        for i, source in enumerate(scipy_rows.nodes):
            reference, _ = single_source_dijkstra(net.graph, source)
            expected = [reference.get(v, math.inf) for v in scipy_rows.nodes]
            assert np.allclose(scipy_rows.row(i), expected)


class TestLaziness:
    def test_only_consulted_rows_materialize(self):
        lazy = LazyRowBackend(deltacom().graph)
        assert lazy.materialized == 0
        lazy.row(5)
        lazy.rows(np.asarray([5, 9, 11], dtype=np.intp))
        assert lazy.materialized == 3

    def test_wmax_does_not_retain_rows(self):
        net = tinet()
        lazy = LazyRowBackend(net.graph)
        lazy.row(2)
        w = lazy.w_max()
        assert lazy.materialized == 1  # sweep streamed, nothing retained
        assert w == LazyRowBackend(net.graph).prime().w_max()

    def test_rows_are_read_only(self):
        lazy = LazyRowBackend(abvt().graph)
        row = lazy.row(0)
        with pytest.raises((ValueError, RuntimeError)):
            row[0] = 99.0


class TestMemoryGuard:
    def test_estimate_counts_matrix_and_adjacency(self):
        # two float64 row matrices plus the int32 predecessor matrix
        assert estimate_dense_bytes(1000) == (2 * 8 + 4) * 1000 * 1000

    def test_build_raises_over_explicit_ceiling(self, monkeypatch):
        net = deltacom()
        needed = estimate_dense_bytes(net.num_nodes)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(needed - 1))
        backend = LazyRowBackend(net.graph)
        with pytest.raises(ResourceError) as err:
            backend.prime()
        msg = str(err.value)
        assert f"{needed:,}" in msg or str(needed) in msg
        assert "LazyRowBackend" in msg
        assert backend.materialized == 0  # raised before computing a row

    def test_build_respects_env_ceiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "1024")
        with pytest.raises(ResourceError):
            LazyRowBackend(deltacom().graph).prime()

    def test_build_passes_under_ceiling(self, monkeypatch):
        net = abvt()
        monkeypatch.setenv(
            "REPRO_DENSE_MAX_BYTES", str(estimate_dense_bytes(net.num_nodes))
        )
        backend = LazyRowBackend(net.graph).prime()
        assert backend.materialized == 23
        assert backend.rows(np.arange(23)).shape == (23, 23)
