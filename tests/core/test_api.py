"""Tests for the unified solve() front door."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    Routing,
    check_feasibility,
    max_cache_occupancy,
    optimize_placement,
    solve,
)
from repro.exceptions import InvalidProblemError
from repro.flow.decomposition import PathFlow

from tests.core.conftest import make_line_problem


class TestSolveDispatch:
    def test_fcfr(self):
        prob = make_line_problem(cache_nodes={4: 1})
        result = solve(prob, caching="fractional", routing="fractional")
        assert result.regime == "FC-FR"
        assert "LP" in result.method
        assert result.feasible

    def test_icfr(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=50.0)
        result = solve(prob, caching="integral", routing="fractional")
        assert result.regime == "IC-FR"
        assert result.feasible

    def test_icir_uncapacitated_homogeneous_uses_algorithm1(self):
        prob = make_line_problem(cache_nodes={3: 1})
        result = solve(prob)
        assert result.regime == "IC-IR"
        assert "Algorithm 1" in result.method
        assert result.solution.placement.is_integral()

    def test_icir_uncapacitated_hetero_uses_greedy(self):
        from repro.core import ProblemInstance, pin_full_catalog
        from repro.graph import line_topology

        net = line_topology(4)
        net.set_cache_capacity(2, 5.0)
        prob = ProblemInstance(
            net,
            ("a", "b"),
            {("a", 3): 3.0, ("b", 3): 1.0},
            item_sizes={"a": 2.0, "b": 3.0},
            pinned=pin_full_catalog(("a", "b"), [0]),
        )
        result = solve(prob)
        assert "greedy" in result.method
        assert result.feasible

    def test_icir_capacitated_uses_alternating(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=50.0)
        result = solve(prob, rng=np.random.default_rng(0))
        assert "alternating" in result.method
        assert result.feasible

    def test_fcir_collapses_to_icir(self):
        prob = make_line_problem(cache_nodes={3: 1})
        result = solve(prob, caching="fractional", routing="integral")
        assert "IC-IR" in result.regime

    def test_invalid_modes(self):
        prob = make_line_problem()
        with pytest.raises(InvalidProblemError):
            solve(prob, caching="quantum")
        with pytest.raises(InvalidProblemError):
            solve(prob, routing="quantum")


class TestUniformNonUnitSizes:
    """Equal sizes above 1 must not reach the count-based solvers."""

    def sized_problem(self):
        prob = make_line_problem(
            num_nodes=6,
            catalog_size=4,
            cache_nodes={2: 2, 3: 2},
            demand={
                ("item0", 5): 5.0,
                ("item1", 5): 2.0,
                ("item2", 5): 1.0,
                ("item3", 4): 1.0,
            },
        )
        return replace(prob, item_sizes={i: 2.0 for i in prob.catalog})

    def test_solve_fills_caches_by_size(self):
        prob = self.sized_problem()
        result = solve(prob)
        assert "greedy" in result.method
        assert result.feasible
        assert check_feasibility(prob, result.solution).cache_ok
        assert result.max_cache_occupancy <= 1.0 + 1e-9
        assert result.cost == pytest.approx(25.0)

    def test_auto_placement_respects_sizes(self):
        prob = self.sized_problem()
        routing = Routing()
        for (item, s) in prob.demand:
            routing.paths[(item, s)] = [PathFlow(path=tuple(range(s + 1)), amount=1.0)]
        placement = optimize_placement(prob, routing, method="auto")
        assert max_cache_occupancy(prob, placement) <= 1.0 + 1e-9

    def test_shortest_path_baseline_respects_sizes(self):
        from repro.baselines import shortest_path_baseline

        prob = self.sized_problem()
        solution = shortest_path_baseline(prob)
        assert max_cache_occupancy(prob, solution.placement) <= 1.0 + 1e-9


class TestRegimeOrdering:
    def test_fcfr_cheapest_icir_most_expensive(self):
        """The regime ordering of Section 2.4 on a nontrivial instance."""
        prob = make_line_problem(
            cache_nodes={3: 1, 4: 1},
            demand={("item0", 4): 4.0, ("item1", 4): 2.0, ("item0", 2): 1.0},
            link_capacity=20.0,
        )
        rng = np.random.default_rng(0)
        fcfr = solve(prob, caching="fractional", routing="fractional")
        icfr = solve(prob, caching="integral", routing="fractional", rng=rng)
        icir = solve(prob, caching="integral", routing="integral", rng=rng)
        assert fcfr.cost <= icfr.cost + 1e-6
        assert fcfr.cost <= icir.cost + 1e-6

    def test_metrics_populated(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=50.0)
        result = solve(prob)
        assert result.cost > 0
        assert result.congestion >= 0
        assert 0 <= result.max_cache_occupancy <= 1 + 1e-9
