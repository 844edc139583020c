"""Degraded routing tables: bit-parity with recompiling the masked routing."""

import numpy as np
import pytest

from repro.core import Placement, Routing, route_to_nearest_replica
from repro.core.evaluation import link_loads
from repro.flow.decomposition import PathFlow
from repro.robustness import FailureScenario, NodeFailure, apply_failure, recover
from repro.robustness.chaos import random_placement, random_problem
from repro.serving import TableDegradation, compile_tables, degrade_tables
from repro.serving.degraded import delivered_rates

from tests.core.conftest import make_line_problem


def _mask_routing(problem, routing, degr) -> Routing:
    """Reference filter: the exact clauses ``degrade_tables`` must apply."""
    down_nodes = set(degr.down_nodes)
    down_links = set(degr.down_links)
    wiped = set(degr.wiped)

    def alive(pf, item, requester):
        if requester in down_nodes:
            return False
        if any(v in down_nodes for v in pf.path):
            return False
        if any(e in down_links for e in zip(pf.path[:-1], pf.path[1:])):
            return False
        return (pf.source, item) not in wiped

    return Routing(
        {
            (item, s): [pf for pf in pfs if alive(pf, item, s)]
            for (item, s), pfs in routing.paths.items()
        }
    )


def assert_degrade_matches_recompile(problem, routing, degr):
    """``degrade_tables`` == fresh compile of the hand-masked routing.

    The degraded tables keep the original path/edge id space; the fresh
    compile renumbers surviving paths — the comparison goes through the
    order-preserving surviving-path id map, and every float (served_prob,
    slot thresholds, amounts) must match bit for bit.
    """
    base = compile_tables(problem, routing, allow_unrouted=True)
    deg = degrade_tables(base, degr)
    assert delivered_rates(base, degr) == (
        deg.expected_served_rate(),
        deg.expected_cost_rate(),
    )
    ref = compile_tables(
        problem, _mask_routing(problem, routing, degr), allow_unrouted=True
    )

    assert deg.num_types == ref.num_types == base.num_types
    assert np.array_equal(deg.rates, ref.rates)
    assert np.array_equal(deg.served_prob, ref.served_prob)  # bit-for-bit
    assert deg.unrouted_types == ref.unrouted_types

    # Order-preserving map: surviving original path id -> ref path id.
    survivors = np.flatnonzero(deg.path_amount > 0.0)
    assert len(survivors) == ref.num_paths
    to_ref = {int(orig): k for k, orig in enumerate(survivors)}
    assert np.array_equal(deg.path_amount[survivors], ref.path_amount)
    assert np.array_equal(deg.path_type[survivors], ref.path_type)
    assert np.array_equal(deg.path_cost[survivors], ref.path_cost)

    assert np.array_equal(deg.slot_ptr, ref.slot_ptr)
    assert np.array_equal(deg.slot_prob, ref.slot_prob)  # bit-for-bit
    assert np.array_equal(
        np.array([to_ref[int(p)] for p in deg.slot_path]), ref.slot_path
    )
    assert np.array_equal(
        np.array([to_ref[int(p)] for p in deg.slot_alias]), ref.slot_alias
    )


def _diamond_problem_and_routing():
    """Two disjoint 2-hop routes 0->1->3 and 0->2->3 with split flow."""
    import networkx as nx

    from repro.core import ProblemInstance, pin_full_catalog
    from repro.graph import CacheNetwork

    g = nx.DiGraph()
    for u, v, c in [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 1.0)]:
        g.add_edge(u, v, cost=c, capacity=float("inf"))
        g.add_edge(v, u, cost=c, capacity=float("inf"))
    net = CacheNetwork(g, {0: 2.0, 1: 1.0, 2: 1.0})
    catalog = ("A", "B")
    problem = ProblemInstance(
        network=net,
        catalog=catalog,
        demand={("A", 3): 4.0, ("B", 3): 1.0},
        pinned=pin_full_catalog(catalog, [0]),
    )
    routing = Routing(
        {
            ("A", 3): [
                PathFlow(path=(1, 3), amount=0.5),
                PathFlow(path=(0, 2, 3), amount=0.5),
            ],
            ("B", 3): [PathFlow(path=(0, 1, 3), amount=1.0)],
        }
    )
    return problem, routing


class TestBitParityEnumerated:
    def test_every_single_link_failure(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        for u, v in tables.edges:
            degr = TableDegradation(down_links=frozenset([(u, v), (v, u)]))
            assert_degrade_matches_recompile(problem, routing, degr)

    def test_every_single_node_failure(self):
        problem, routing = _diamond_problem_and_routing()
        for v in problem.network.nodes:
            degr = TableDegradation(down_nodes=frozenset([v]))
            assert_degrade_matches_recompile(problem, routing, degr)

    def test_wiped_copies(self):
        problem, routing = _diamond_problem_and_routing()
        for pair in [((1, "A"),), ((1, "A"), (2, "B"))]:
            degr = TableDegradation(wiped=frozenset(pair))
            assert_degrade_matches_recompile(problem, routing, degr)

    def test_random_instances_single_failures(self):
        rng = np.random.default_rng(11)
        for seed in range(3):
            problem = random_problem(rng, n_nodes=8, n_items=3)
            placement = random_placement(rng, problem)
            routing = route_to_nearest_replica(problem, placement)
            for scenario_node in sorted(problem.network.nodes, key=repr)[:4]:
                degr = TableDegradation(down_nodes=frozenset([scenario_node]))
                assert_degrade_matches_recompile(problem, routing, degr)
            links = sorted(
                {tuple(sorted(e, key=repr)) for e in problem.network.graph.edges}
            )[:4]
            for u, v in links:
                degr = TableDegradation(down_links=frozenset([(u, v), (v, u)]))
                assert_degrade_matches_recompile(problem, routing, degr)


class TestSemantics:
    def test_empty_degradation_is_identity(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        assert degrade_tables(tables, TableDegradation()) is tables

    def test_irrelevant_failure_is_identity(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        degr = TableDegradation(wiped=frozenset([(2, "A")]))  # unused source
        assert degrade_tables(tables, degr) is tables

    def test_all_replicas_dead_moves_mass_to_unserved(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        # Node 0 is the origin: every path of type B and half of A dies.
        deg = degrade_tables(tables, TableDegradation(down_nodes=frozenset([0])))
        t_b = tables.types.index(("B", 3))
        assert deg.served_prob[t_b] == 0.0
        assert deg.unrouted_types == 1
        # Arrival rates stay untouched: dead mass is explicit unserved.
        assert np.array_equal(deg.rates, tables.rates)
        t_a = tables.types.index(("A", 3))
        assert deg.served_prob[t_a] == pytest.approx(0.5)

    def test_dead_requester_is_offered_load(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        deg = degrade_tables(tables, TableDegradation(down_nodes=frozenset([3])))
        assert np.array_equal(deg.rates, tables.rates)
        assert (deg.served_prob == 0.0).all()
        assert deg.expected_served_rate() == 0.0

    def test_expected_loads_match_masked_link_loads(self):
        """Analytic per-edge loads == independent evaluation, within 1e-9."""
        rng = np.random.default_rng(5)
        problem = random_problem(rng, n_nodes=9, n_items=4)
        placement = random_placement(rng, problem)
        routing = route_to_nearest_replica(problem, placement)
        tables = compile_tables(problem, routing)
        victim = sorted(problem.network.nodes, key=repr)[3]
        degr = TableDegradation(down_nodes=frozenset([victim]))
        deg = degrade_tables(tables, degr)
        ref = link_loads(
            problem, _mask_routing(problem, routing, degr), demand=problem.demand
        )
        loads = deg.expected_loads()
        for edge in set(loads) | set(ref):
            assert loads.get(edge, 0.0) == pytest.approx(
                ref.get(edge, 0.0), abs=1e-9
            ), edge

    def test_recovered_routing_needs_no_degrading(self):
        """A recovery's routing avoids dead elements: degrade is a no-op."""
        rng = np.random.default_rng(9)
        problem = random_problem(rng, n_nodes=8, n_items=3)
        placement = random_placement(rng, problem)
        victim = sorted(
            v for v in problem.network.cache_nodes() if v != "n0"
        )[0]
        scenario = FailureScenario("one-node", (NodeFailure(victim),))
        result = recover(apply_failure(problem, scenario), placement)
        tables = compile_tables(problem, result.routing, allow_unrouted=True)
        deg = degrade_tables(
            tables, TableDegradation(down_nodes=frozenset([victim]))
        )
        assert deg is tables

    def test_line_problem_served_rate_matches_masked(self):
        prob = make_line_problem(cache_nodes={2: 1.0})
        placement = Placement({(2, "item0"): 1.0})
        routing = route_to_nearest_replica(prob, placement)
        tables = compile_tables(prob, routing)
        # Wiping the mid-line cache copy kills item0's short path.
        deg = degrade_tables(
            tables, TableDegradation(wiped=frozenset([(2, "item0")]))
        )
        assert deg.expected_served_rate() < tables.expected_served_rate()
        assert_degrade_matches_recompile(
            prob, routing, TableDegradation(wiped=frozenset([(2, "item0")]))
        )


class TestLabelMaps:
    def test_masks_reuse_one_map_per_label_tuple(self):
        problem, routing = _diamond_problem_and_routing()
        tables = compile_tables(problem, routing)
        first = TableDegradation(
            down_nodes=frozenset([1]),
            down_links=frozenset([(0, 2)]),
            wiped=frozenset([(1, "A")]),
        )
        second = TableDegradation(
            down_nodes=frozenset([2]),
            down_links=frozenset([(2, 3)]),
            wiped=frozenset([(1, "B")]),
        )

        def maps(t):
            return t.node_index(), t.edge_index()

        delivered_rates(tables, first)
        built = maps(tables)
        delivered_rates(tables, second)
        degraded = degrade_tables(tables, second)
        assert all(a is b for a, b in zip(built, maps(tables)))
        assert built == tuple(
            {x: k for k, x in enumerate(labels)}
            for labels in (tables.nodes, tables.edges)
        )
        # A replaced table builds its own maps; the ids are the same.
        assert not any(a is b for a, b in zip(built, maps(degraded)))
        assert maps(degraded) == built
