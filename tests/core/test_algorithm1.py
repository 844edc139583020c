"""Tests for Algorithm 1 (Theorem 4.4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import Algorithm1Template
from repro.core import (
    ProblemInstance,
    SolverContext,
    algorithm1,
    check_feasibility,
    pin_full_catalog,
    route_to_nearest_replica,
    routing_cost,
)
from repro.core.algorithm1 import assemble_lp7
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.graph import all_pairs_least_costs, line_topology

from tests.core.conftest import (
    brute_force_rnr_optimum,
    make_line_problem,
    random_uncapacitated_problem,
)


class TestAlgorithm1:
    def test_line_places_popular_item(self):
        prob = make_line_problem(cache_nodes={3: 1})
        result = algorithm1(prob)
        assert (3, prob.catalog[0]) in result.solution.placement
        assert routing_cost(prob, result.solution.routing) == pytest.approx(
            5 * 1 + 1 * 4
        )

    def test_solution_is_feasible(self):
        prob = make_line_problem(cache_nodes={3: 1})
        result = algorithm1(prob)
        assert check_feasibility(prob, result.solution).feasible

    def test_placement_is_integral(self):
        prob = make_line_problem(cache_nodes={3: 1, 4: 2})
        result = algorithm1(prob)
        assert result.solution.placement.is_integral()
        assert result.solution.routing.is_integral()

    def test_zero_cache_capacity_serves_from_origin(self):
        prob = make_line_problem()
        result = algorithm1(prob)
        assert len(result.solution.placement) == 0
        assert routing_cost(prob, result.solution.routing) == pytest.approx(24.0)

    def test_no_source_raises(self):
        prob = make_line_problem()
        prob = prob.__class__(
            network=prob.network,
            catalog=prob.catalog,
            demand=prob.demand,
            pinned=frozenset(),
        )
        with pytest.raises(InfeasibleError):
            algorithm1(prob)

    def test_exact_on_toy(self):
        prob = make_line_problem(cache_nodes={3: 2})
        result = algorithm1(prob)
        # Capacity 2 caches both items -> optimal cost 6 * 1 hop.
        assert routing_cost(prob, result.solution.routing) == pytest.approx(6.0)
        assert routing_cost(prob, result.solution.routing) == pytest.approx(
            brute_force_rnr_optimum(prob)
        )

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_theorem_4_4_guarantee(self, seed):
        """Cost saving >= (1 - 1/e) * optimal saving, measured vs w_max baseline."""
        prob = random_uncapacitated_problem(seed)
        result = algorithm1(prob)
        assert check_feasibility(prob, result.solution).feasible
        cost = routing_cost(prob, result.solution.routing)
        optimum = brute_force_rnr_optimum(prob)
        assert cost >= optimum - 1e-6  # never better than the true optimum
        # F' = constant - cost; Theorem 4.4 chain uses the LP optimum:
        # F'(final) >= (1-1/e) * lp_objective >= (1-1/e) * F'(opt).
        f_final = result.constant - cost
        assert f_final >= (1 - 1 / math.e) * result.lp_objective - 1e-6
        f_opt = result.constant - optimum
        assert f_final >= (1 - 1 / math.e) * f_opt - 1e-6

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_lp_upper_bounds_optimal_saving(self, seed):
        """L_RNR at the LP optimum dominates F' at the true optimum (Lemma 4.2)."""
        prob = random_uncapacitated_problem(seed)
        result = algorithm1(prob)
        optimum = brute_force_rnr_optimum(prob)
        assert result.lp_objective >= result.constant - optimum - 1e-6

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=500, max_value=700))
    def test_often_matches_brute_force(self, seed):
        """On small instances the rounded solution is usually optimal; never worse
        than the (1-1/e) bound (checked above), and its RNR routing is consistent."""
        prob = random_uncapacitated_problem(seed)
        result = algorithm1(prob)
        rebuilt = route_to_nearest_replica(prob, result.solution.placement)
        assert routing_cost(prob, rebuilt) == pytest.approx(
            routing_cost(prob, result.solution.routing)
        )


class TestItemSizes:
    """LP (7) counts items against c_v, so sizes other than 1 are refused."""

    @staticmethod
    def sized_problem() -> ProblemInstance:
        # Line o-a-b, a caches 2 units; i1 and i2 take 2 units each, so
        # counting items would place both at a (4 units).
        net = line_topology(3)
        net.set_cache_capacity(1, 2)
        catalog = ("i1", "i2", "i3")
        return ProblemInstance(
            network=net,
            catalog=catalog,
            demand={("i1", 2): 5.0, ("i2", 2): 4.0, ("i3", 2): 3.0},
            pinned=pin_full_catalog(catalog, [0]),
            item_sizes={"i1": 2.0, "i2": 2.0, "i3": 1.0},
        )

    @pytest.mark.parametrize(
        "entry", [algorithm1, assemble_lp7, Algorithm1Template],
        ids=["algorithm1", "assemble_lp7", "template"],
    )
    def test_non_unit_sizes_raise(self, entry):
        with pytest.raises(InvalidProblemError, match="greedy_rnr_placement"):
            entry(self.sized_problem())


class TestWmax:
    """``w_max`` is the largest finite least cost out of the candidate sources,
    whether or not the caller passes a context."""

    @staticmethod
    def scaled_problem(factor: float) -> ProblemInstance:
        prob = random_uncapacitated_problem(0)
        network = prob.network.copy()
        for u, v in network.edges:
            network.graph.edges[u, v]["cost"] *= factor
        return ProblemInstance(
            network=network,
            catalog=prob.catalog,
            demand=dict(prob.demand),
            pinned=prob.pinned,
        )

    def test_sub_unit_costs_keep_w_max_below_one(self):
        prob = self.scaled_problem(0.01)
        costs, _ = all_pairs_least_costs(prob.network.graph)
        sources = set(prob.network.cache_nodes()) | {v for v, _i in prob.pinned}
        expected = max(d for v in sources for d in costs[v].values())
        assert expected < 1.0
        result = algorithm1(prob)
        assert result.w_max == pytest.approx(expected)
        with_context = algorithm1(prob, context=SolverContext.from_problem(prob))
        assert with_context.w_max == result.w_max
        assert dict(result.solution.placement.items()) == dict(
            with_context.solution.placement.items()
        )
        assert routing_cost(prob, result.solution.routing) == routing_cost(
            prob, with_context.solution.routing
        )
