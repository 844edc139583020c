"""Tests for routing-table compilation and alias sampling."""

import numpy as np
import pytest

from repro.core import Placement, Routing, route_to_nearest_replica
from repro.core.evaluation import link_loads, routing_cost
from repro.exceptions import InvalidProblemError
from repro.flow.decomposition import PathFlow
from repro.serving import compile_tables
from repro.serving.tables import _alias_table

from tests.core.conftest import make_line_problem


def origin_routing(prob) -> Routing:
    return route_to_nearest_replica(prob, Placement())


class TestAliasTable:
    @pytest.mark.parametrize(
        "probs",
        [
            [1.0],
            [0.5, 0.5],
            [0.9, 0.1],
            [0.2, 0.3, 0.5],
            [0.01, 0.01, 0.98],
        ],
    )
    def test_alias_table_preserves_distribution(self, probs):
        probs = np.array(probs)
        accept, alias = _alias_table(probs)
        # Total acceptance mass per outcome reconstructs the distribution:
        # outcome i is drawn when slot i accepts, or any slot aliasing to i
        # rejects.
        k = len(probs)
        mass = np.zeros(k)
        for slot in range(k):
            mass[slot] += accept[slot] / k
            mass[alias[slot]] += (1.0 - accept[slot]) / k
        assert mass == pytest.approx(probs, abs=1e-12)

    def test_sampling_frequencies_match(self):
        probs = np.array([0.1, 0.6, 0.3])
        accept, alias = _alias_table(probs)
        rng = np.random.default_rng(0)
        n = 200_000
        v = rng.random(n) * 3
        slot = v.astype(np.int64)
        frac = v - slot
        outcome = np.where(frac < accept[slot], slot, alias[slot])
        freq = np.bincount(outcome, minlength=3) / n
        assert freq == pytest.approx(probs, abs=0.01)


class TestCompile:
    def test_types_follow_deterministic_order(self):
        prob = make_line_problem()
        tables = compile_tables(prob, origin_routing(prob))
        assert list(tables.types) == prob.requests
        assert tables.rates == pytest.approx(
            [prob.demand[r] for r in prob.requests]
        )
        assert tables.served_prob == pytest.approx(np.ones(tables.num_types))

    def test_expected_loads_match_core_link_loads(self):
        prob = make_line_problem(link_capacity=10.0)
        routing = origin_routing(prob)
        tables = compile_tables(prob, routing)
        expected = tables.expected_loads()
        # Homogeneous sizes: loads in the core metric are size-weighted too.
        for edge, load in link_loads(prob, routing).items():
            assert expected[edge] == pytest.approx(load, abs=1e-12)

    def test_expected_cost_rate_is_routing_cost(self):
        prob = make_line_problem()
        routing = origin_routing(prob)
        tables = compile_tables(prob, routing)
        assert tables.expected_cost_rate() == pytest.approx(
            routing_cost(prob, routing), abs=1e-9
        )

    def test_heterogeneous_sizes_weight_loads(self):
        from repro.core import ProblemInstance, pin_full_catalog
        from repro.graph import line_topology

        net = line_topology(3)
        prob = ProblemInstance(
            net,
            ("big", "small"),
            {("big", 2): 1.0, ("small", 2): 2.0},
            item_sizes={"big": 8.0, "small": 1.0},
            pinned=pin_full_catalog(("big", "small"), [0]),
        )
        tables = compile_tables(prob, origin_routing(prob))
        loads = tables.expected_loads()
        assert loads[(0, 1)] == pytest.approx(1.0 * 8.0 + 2.0 * 1.0)

    def test_fractional_routing_keeps_amounts(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        routing = origin_routing(prob)
        routing.paths[(item, 4)] = [
            PathFlow(path=(0, 1, 2, 3, 4), amount=0.25),
            PathFlow(path=(3, 4), amount=0.75),
        ]
        tables = compile_tables(prob, routing)
        t = tables.types.index((item, 4))
        assert tables.served_prob[t] == pytest.approx(1.0)
        lo, hi = tables.slot_ptr[t], tables.slot_ptr[t + 1]
        assert hi - lo == 2
        amounts = tables.path_amount[tables.slot_path[lo:hi]]
        assert sorted(amounts) == pytest.approx([0.25, 0.75])

    def test_partial_routing_records_unserved_mass(self):
        prob = make_line_problem()
        routing = origin_routing(prob)
        item = prob.catalog[0]
        pf = routing.paths[(item, 4)][0]
        routing.paths[(item, 4)] = [PathFlow(path=pf.path, amount=0.4)]
        tables = compile_tables(prob, routing)
        t = tables.types.index((item, 4))
        assert tables.served_prob[t] == pytest.approx(0.4)

    def test_unrouted_rejected_unless_allowed(self):
        prob = make_line_problem()
        routing = origin_routing(prob)
        routing.paths[("item1", 4)] = []
        with pytest.raises(InvalidProblemError, match="no routing"):
            compile_tables(prob, routing)
        tables = compile_tables(prob, routing, allow_unrouted=True)
        assert tables.unrouted_types == 1
        t = tables.types.index(("item1", 4))
        assert tables.served_prob[t] == 0.0

    def test_zero_amount_paths_count_as_unrouted(self):
        prob = make_line_problem()
        routing = origin_routing(prob)
        pf = routing.paths[("item1", 4)][0]
        routing.paths[("item1", 4)] = [PathFlow(path=pf.path, amount=0.0)]
        tables = compile_tables(prob, routing, allow_unrouted=True)
        assert tables.unrouted_types == 1

    def test_path_costs_match_network(self):
        from repro.core.evaluation import path_cost

        prob = make_line_problem()
        routing = origin_routing(prob)
        tables = compile_tables(prob, routing)
        for t, request in enumerate(tables.types):
            lo, hi = tables.slot_ptr[t], tables.slot_ptr[t + 1]
            costs = tables.path_cost[tables.slot_path[lo:hi]]
            for pf in routing.paths[request]:
                want = path_cost(prob.network, pf.path)
                assert any(abs(c - want) < 1e-9 for c in costs)
