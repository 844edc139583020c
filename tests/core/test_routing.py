"""Tests for MMSFP / MMUFP routing under a fixed placement (Section 4.3.2)."""

import logging

import numpy as np
import pytest

from repro.core import (
    Placement,
    Solution,
    alternating_optimization,
    check_feasibility,
    congestion,
    greedy_unsplittable_routing,
    mmsfp_routing,
    mmufp_routing,
    randomized_rounding_routing,
    routing_cost,
)
from repro.core.routing import build_item_auxiliary_graph, holders_of
from repro.exceptions import InfeasibleError

from tests.core.conftest import make_line_problem


class TestAuxiliaryGraph:
    def test_holders_include_pinned_and_integral(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        placement = Placement({(3, item): 1.0, (2, item): 0.4})
        assert holders_of(prob, placement, item) == {0, 3}  # fractional excluded

    def test_virtual_sources_added(self):
        prob = make_line_problem()
        aux, sources = build_item_auxiliary_graph(prob, Placement())
        for item, vs in sources.items():
            assert aux.has_edge(vs, 0)
            assert aux.edges[vs, 0]["cost"] == 0.0

    def test_no_holder_raises(self):
        prob = make_line_problem()
        prob = prob.__class__(
            network=prob.network, catalog=prob.catalog,
            demand=prob.demand, pinned=frozenset(),
        )
        with pytest.raises(InfeasibleError):
            build_item_auxiliary_graph(prob, Placement())


class TestMMSFP:
    def test_origin_only(self):
        prob = make_line_problem()
        result = mmsfp_routing(prob, Placement())
        assert result.cost == pytest.approx(24.0)
        assert routing_cost(prob, result.routing) == pytest.approx(24.0)

    def test_uses_nearest_replica_when_uncapacitated(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        result = mmsfp_routing(prob, Placement({(3, item): 1.0}))
        assert result.cost == pytest.approx(5 * 1 + 1 * 4)

    def test_splits_under_tight_capacity(self):
        prob = make_line_problem(link_capacity=3.0)
        # total demand 6 > capacity 3 on the line: infeasible from origin only.
        with pytest.raises(InfeasibleError):
            mmsfp_routing(prob, Placement())

    def test_fractions_sum_to_one(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        result = mmsfp_routing(prob, Placement({(3, item): 1.0}))
        for request in prob.demand:
            assert result.routing.served_fraction(request) == pytest.approx(1.0)

    def test_lower_bounds_integral(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        frac = mmsfp_routing(prob, placement)
        integral = mmufp_routing(
            prob, placement, rng=np.random.default_rng(0), n_samples=4
        )
        assert frac.cost <= routing_cost(prob, integral) + 1e-6


class TestMMUFP:
    def test_randomized_is_integral_and_feasible(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        routing = randomized_rounding_routing(
            prob, placement, rng=np.random.default_rng(1), n_samples=8
        )
        assert routing.is_integral()
        assert check_feasibility(prob, Solution(placement, routing)).feasible

    def test_greedy_is_integral(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        routing = greedy_unsplittable_routing(prob, placement)
        assert routing.is_integral()
        assert check_feasibility(prob, Solution(placement, routing)).feasible

    def test_greedy_avoids_saturated_links(self):
        """With a tight cheap path and a loose detour, greedy splits requests."""
        import networkx as nx

        from repro.core import ProblemInstance, pin_full_catalog
        from repro.graph import CacheNetwork

        g = nx.DiGraph()
        g.add_edge("o", "m", cost=1.0, capacity=5.0)
        g.add_edge("m", "t", cost=1.0, capacity=5.0)
        g.add_edge("o", "d", cost=5.0, capacity=50.0)
        g.add_edge("d", "t", cost=5.0, capacity=50.0)
        net = CacheNetwork(g)
        catalog = ("a", "b")
        demand = {("a", "t"): 4.0, ("b", "t"): 4.0}
        prob = ProblemInstance(
            net, catalog, demand, pinned=pin_full_catalog(catalog, ["o"])
        )
        routing = greedy_unsplittable_routing(prob, Placement())
        loads: dict = {}
        for pfs in routing.paths.values():
            for pf in pfs:
                for e in pf.edges():
                    loads[e] = loads.get(e, 0.0) + 4.0
        assert loads.get(("o", "m"), 0.0) <= 5.0  # greedy respected capacity
        assert congestion(prob, routing) <= 1.0

    def test_unknown_method(self):
        prob = make_line_problem()
        with pytest.raises(ValueError):
            mmufp_routing(prob, Placement(), method="magic")

    def test_randomized_deterministic_under_seed(self):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        r1 = randomized_rounding_routing(
            prob, placement, rng=np.random.default_rng(7), n_samples=4
        )
        r2 = randomized_rounding_routing(
            prob, placement, rng=np.random.default_rng(7), n_samples=4
        )
        assert {k: [(p.path, p.amount) for p in v] for k, v in r1.paths.items()} == {
            k: [(p.path, p.amount) for p in v] for k, v in r2.paths.items()
        }

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_rejects_fewer_than_one_sample(self, n_samples):
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        with pytest.raises(ValueError, match="n_samples"):
            randomized_rounding_routing(prob, placement, n_samples=n_samples)
        with pytest.raises(ValueError, match="n_samples"):
            mmufp_routing(prob, placement, method="best", n_samples=n_samples)
        with pytest.raises(ValueError, match="n_samples"):
            alternating_optimization(prob, n_samples=n_samples)

    def test_logs_the_rounding_gap(self, caplog):
        """One DEBUG record: sizes, the winning draw's score, the LP bound."""
        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=10.0)
        placement = Placement({(3, prob.catalog[0]): 1.0})
        caplog.set_level(logging.DEBUG, logger="repro.core.routing")
        routing = randomized_rounding_routing(
            prob, placement, rng=np.random.default_rng(1), n_samples=8
        )
        (record,) = [r for r in caplog.records if r.name == "repro.core.routing"]
        assert record.levelno == logging.DEBUG
        assert record.args == (
            len(prob.demand),
            8,
            congestion(prob, routing),
            routing_cost(prob, routing),
            mmsfp_routing(prob, placement).cost,
        )
        assert "MMSFP" in record.getMessage()
