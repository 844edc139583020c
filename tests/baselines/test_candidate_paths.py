"""Tests for the [3] / [38] candidate-path benchmarks."""

import numpy as np
import pytest

from repro.baselines import (
    CandidatePathModel,
    candidate_path_baseline,
    naive_equal_swap_round,
    origin_server,
    shortest_path_baseline,
)
from repro.core import (
    ProblemInstance,
    algorithm1,
    max_cache_occupancy,
    pin_full_catalog,
    routing_cost,
)
from repro.exceptions import InvalidProblemError
from repro.graph import abovenet, edge_caching_roles

from tests.core.conftest import make_line_problem


def abovenet_problem(seed=0, catalog_size=20, cache=4, hetero=False):
    net = abovenet()
    rng = np.random.default_rng(seed)
    origin, edge_nodes = edge_caching_roles(net)
    for (u, v) in net.edges:
        w = rng.uniform(100, 200) if origin in (u, v) else rng.uniform(1, 20)
        net.graph.edges[u, v]["cost"] = float(w)
    catalog = tuple(f"c{i}" for i in range(catalog_size))
    demand = {}
    for i, item in enumerate(catalog):
        for s in edge_nodes:
            if rng.random() < 0.6:
                demand[(item, s)] = float(rng.uniform(1, 10) / (1 + i / 4))
    sizes = None
    if hetero:
        sizes = {item: float(rng.uniform(1.0, 4.0)) for item in catalog}
    for v in edge_nodes:
        net.set_cache_capacity(v, cache * (2.5 if hetero else 1))
    return ProblemInstance(
        net, catalog, demand, item_sizes=sizes,
        pinned=pin_full_catalog(catalog, [origin]),
    )


class TestOriginServer:
    def test_finds_pinned_origin(self):
        prob = make_line_problem()
        assert origin_server(prob) == 0

    def test_no_origin_raises(self):
        prob = make_line_problem()
        prob = ProblemInstance(
            network=prob.network, catalog=prob.catalog,
            demand=prob.demand, pinned=frozenset(),
        )
        with pytest.raises(InvalidProblemError):
            origin_server(prob)


class TestCandidatePathModel:
    def test_paths_start_at_server_end_at_requester(self):
        prob = abovenet_problem()
        model = CandidatePathModel.build(prob, 5)
        for s, paths in model.paths.items():
            for p in paths:
                assert p[0] == model.server
                assert p[-1] == s

    def test_requester_suffix_is_zero_cost(self):
        prob = abovenet_problem()
        model = CandidatePathModel.build(prob, 3)
        for (_i, s) in prob.demand:
            cost, suffix = model.serving[(s, s)]
            assert cost == 0.0
            assert suffix == (s,)

    def test_k_one_single_path(self):
        prob = abovenet_problem()
        model = CandidatePathModel.build(prob, 1)
        assert all(len(paths) == 1 for paths in model.paths.values())

    def test_invalid_k(self):
        with pytest.raises(InvalidProblemError):
            CandidatePathModel.build(abovenet_problem(), 0)

    def test_more_candidates_never_raise_serving_cost(self):
        prob = abovenet_problem()
        m1 = CandidatePathModel.build(prob, 1)
        m5 = CandidatePathModel.build(prob, 5)
        for key, (cost1, _p) in m1.serving.items():
            cost5, _ = m5.serving[key]
            assert cost5 <= cost1 + 1e-9


class TestNaiveEqualSwapRound:
    def test_homogeneous_behaves_like_pipage(self):
        out = naive_equal_swap_round(
            {(1, "a"): 0.5, (1, "b"): 0.5},
            {(1, "a"): 2.0, (1, "b"): 1.0},
        )
        assert out == {(1, "a"): 1.0}

    def test_can_overfill_with_sizes(self):
        """The equal-fraction swap ignores sizes: 0.5*big + 0.5*small can
        round to both items, exceeding the capacity that held the fractions."""
        out = naive_equal_swap_round(
            {(1, "big"): 0.6, (1, "small"): 0.9},
            {(1, "big"): 2.0, (1, "small"): 1.0},
        )
        # Total mass 1.5 -> both items end up cached.
        assert out == {(1, "big"): 1.0, (1, "small"): 1.0}


class TestBaselinesOnAbovenet:
    def test_all_solutions_serve_all_requests(self):
        prob = abovenet_problem()
        for sol in (
            shortest_path_baseline(prob),
            candidate_path_baseline(prob, k=1),
            candidate_path_baseline(prob, k=5),
        ):
            for request in prob.demand:
                assert sol.routing.served_fraction(request) == pytest.approx(1.0)

    def test_homogeneous_placements_feasible(self):
        prob = abovenet_problem()
        for sol in (
            shortest_path_baseline(prob),
            candidate_path_baseline(prob, k=5),
        ):
            assert max_cache_occupancy(prob, sol.placement) <= 1 + 1e-6

    def test_more_candidate_paths_reduce_cost(self):
        prob = abovenet_problem()
        c1 = routing_cost(prob, candidate_path_baseline(prob, k=1).routing)
        c10 = routing_cost(prob, candidate_path_baseline(prob, k=10).routing)
        assert c10 <= c1 + 1e-6

    def test_algorithm1_beats_benchmarks(self):
        """The headline Fig. 5 shape: Alg 1 < k-SP [3] and < SP [38]."""
        prob = abovenet_problem(catalog_size=30, cache=6)
        ours = routing_cost(prob, algorithm1(prob).solution.routing)
        sp = routing_cost(prob, shortest_path_baseline(prob).routing)
        ksp = routing_cost(prob, candidate_path_baseline(prob, k=10).routing)
        assert ours < sp
        assert ours < ksp

    def test_hetero_benchmark_placement_overfills_cache(self):
        """Fig. 5 file level: the benchmarks' placements are infeasible."""
        prob = abovenet_problem(hetero=True, seed=2)
        sol = candidate_path_baseline(prob, k=5)
        assert max_cache_occupancy(prob, sol.placement) > 1.0

    def test_line_topology_sp_equals_candidate_k1_cost(self):
        """On a line there is a single path, so both benchmarks coincide
        in routing cost (placements may differ by ties)."""
        prob = make_line_problem(cache_nodes={3: 1})
        sp = shortest_path_baseline(prob)
        k1 = candidate_path_baseline(prob, k=1)
        assert routing_cost(prob, sp.routing) == pytest.approx(
            routing_cost(prob, k1.routing)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidate_k1_placement_does_not_depend_on_cost_unit(self, seed):
        """[3]'s w_max falls back to 1.0 only when every serving cost is 0,
        so scaling every link cost scales the cost and keeps the placement."""
        prob = abovenet_problem(seed)
        scaled = abovenet_problem(seed)
        for u, v in scaled.network.edges:
            scaled.network.graph.edges[u, v]["cost"] *= 1e-3
        sol = candidate_path_baseline(prob, k=1)
        sol_scaled = candidate_path_baseline(scaled, k=1)
        assert dict(sol_scaled.placement.items()) == dict(sol.placement.items())
        assert routing_cost(scaled, sol_scaled.routing) * 1e3 == pytest.approx(
            routing_cost(prob, sol.routing), rel=1e-9
        )
