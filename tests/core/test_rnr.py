"""Tests for route-to-nearest-replica routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Placement,
    check_feasibility,
    route_to_nearest_replica,
    routing_cost,
    Solution,
)
from repro.core.rnr import _holder_index
from repro.exceptions import InfeasibleError

from tests.core.conftest import make_line_problem
from tests.core.test_evaluation import sized_placement


class TestRNR:
    def test_serves_from_origin_when_nothing_cached(self):
        prob = make_line_problem()
        routing = route_to_nearest_replica(prob, Placement())
        for (item, s), pfs in routing.paths.items():
            assert len(pfs) == 1
            assert pfs[0].source == 0
            assert pfs[0].sink == s
        assert routing_cost(prob, routing) == pytest.approx(24.0)

    def test_prefers_nearer_replica(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        routing = route_to_nearest_replica(prob, Placement({(3, item): 1.0}))
        assert routing.paths[(item, 4)][0].source == 3
        # The other item still comes from the origin.
        assert routing.paths[(prob.catalog[1], 4)][0].source == 0

    def test_self_cache_serves_at_zero_cost(self):
        prob = make_line_problem(cache_nodes={4: 1})
        item = prob.catalog[0]
        routing = route_to_nearest_replica(prob, Placement({(4, item): 1.0}))
        assert routing.paths[(item, 4)][0].path == (4,)

    def test_fractional_placement_spreads_over_holders(self):
        prob = make_line_problem(cache_nodes={3: 1, 4: 1})
        item = prob.catalog[0]
        placement = Placement({(4, item): 0.3, (3, item): 0.5})
        routing = route_to_nearest_replica(prob, placement)
        paths = routing.paths[(item, 4)]
        amounts = {pf.source: pf.amount for pf in paths}
        assert amounts[4] == pytest.approx(0.3)
        assert amounts[3] == pytest.approx(0.5)
        assert amounts[0] == pytest.approx(0.2)  # remainder from the origin

    def test_routing_is_feasible(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        placement = Placement({(3, item): 1.0})
        routing = route_to_nearest_replica(prob, placement)
        report = check_feasibility(prob, Solution(placement, routing))
        assert report.feasible

    def test_infeasible_without_any_holder(self):
        prob = make_line_problem()
        prob = prob.__class__(
            network=prob.network,
            catalog=prob.catalog,
            demand=prob.demand,
            pinned=frozenset(),  # no origin
        )
        with pytest.raises(InfeasibleError):
            route_to_nearest_replica(prob, Placement())

    def test_ignores_sub_eps_fractions(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        placement = Placement({(3, item): 1e-12})
        routing = route_to_nearest_replica(prob, placement)
        assert routing.paths[(item, 4)][0].source == 0


def walked_holder_fractions(problem, placement, item):
    """The per-item holder scan RNR made before its one-pass index (oracle)."""
    fractions = {}
    for holder in placement.holders(item):
        fractions[holder] = max(fractions.get(holder, 0.0), placement[(holder, item)])
    for holder in problem.pinned_holders(item):
        fractions[holder] = 1.0
    return fractions


class TestHolderIndex:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_item_walk(self, seed):
        # Pinned pairs overlap fractional placement entries: the pinned
        # copy must count 1.0 whatever the placement stores.
        problem, placement = sized_placement(seed)
        index = _holder_index(problem, placement)
        assert set(index) <= set(problem.catalog)
        for item in problem.catalog:
            assert index.get(item, {}) == walked_holder_fractions(
                problem, placement, item
            )
