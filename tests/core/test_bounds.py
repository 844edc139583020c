"""Tests for the lower-bound API."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    exact_icir,
    lower_bounds,
    rnr_relaxation_bound,
    solve,
)

from tests.core.conftest import (
    brute_force_rnr_optimum,
    make_line_problem,
    random_uncapacitated_problem,
)


class TestRNRRelaxation:
    def test_everything_cached_everywhere(self):
        prob = make_line_problem(cache_nodes={3: 1})
        # item at requester distance: nearest candidate (node 3) is 1 hop.
        bound = rnr_relaxation_bound(prob)
        assert bound == pytest.approx(6.0 * 1)

    def test_no_caches_uses_origin(self):
        prob = make_line_problem()
        assert rnr_relaxation_bound(prob) == pytest.approx(24.0)

    def test_bound_never_exceeds_exact(self):
        prob = make_line_problem(cache_nodes={3: 1})
        assert rnr_relaxation_bound(prob) <= exact_icir(prob).cost + 1e-9


class TestLowerBounds:
    def test_uncapacitated_includes_all(self):
        prob = make_line_problem(cache_nodes={3: 1})
        bounds = lower_bounds(prob)
        assert bounds.fcfr is not None
        assert bounds.best >= bounds.rnr_relaxation - 1e-9
        assert bounds.best == max(bounds.fcfr, bounds.rnr_relaxation)

    def test_fcfr_optional(self):
        prob = make_line_problem(cache_nodes={3: 1})
        bounds = lower_bounds(prob, include_fcfr=False)
        assert bounds.fcfr is None
        assert bounds.best < math.inf

    def test_infeasible_fcfr_degrades_gracefully(self):
        prob = make_line_problem(link_capacity=2.0)  # FC-FR infeasible
        bounds = lower_bounds(prob)
        assert bounds.fcfr is None
        assert bounds.rnr_relaxation == pytest.approx(24.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_all_bounds_below_optimum(self, seed):
        prob = random_uncapacitated_problem(seed)
        optimum = brute_force_rnr_optimum(prob)
        bounds = lower_bounds(prob)
        assert bounds.rnr_relaxation <= optimum + 1e-6
        if bounds.fcfr is not None:
            assert bounds.fcfr <= optimum + 1e-6
        assert bounds.best <= optimum + 1e-6

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=100))
    def test_gap_reporting_use_case(self, seed):
        """The intended usage: certify an approximation gap."""
        prob = random_uncapacitated_problem(seed)
        result = solve(prob)
        bounds = lower_bounds(prob)
        if bounds.best > 0:
            gap = result.cost / bounds.best
            assert gap >= 1 - 1e-9
