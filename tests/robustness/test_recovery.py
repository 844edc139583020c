"""Graceful-degradation recovery: the ISSUE's acceptance suite.

For EVERY single-link failure on the gadget and on Deltacom, recovery must
serve all servable demand — unserved fraction is 0 exactly when each
request still has reachable replicas covering it — and the recovered cost
never beats the healthy RNR cost while everything stays served.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import route_to_nearest_replica, routing_cost
from repro.core.context import SolverContext
from repro.core.solution import Placement
from repro.experiments import ScenarioConfig, build_scenario
from repro.experiments.algorithms import greedy
from repro.robustness import (
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
    recover,
    repair_placement,
    single_link_failures,
    surviving_placement,
)
from repro.robustness.chaos import random_placement, random_problem
from repro.robustness.degraded import degraded_context
from repro.robustness.demo import gadget_placement, gadget_problem

_TOL = 1e-6


def _servable(degraded, placement):
    """Requests whose surviving reachable replicas (incl. pins) cover them."""
    problem = degraded.problem
    graph = problem.network.graph
    holders = {v for v, _i in placement} | {v for v, _i in problem.pinned}
    reach = {
        v: nx.descendants(graph, v) | {v} for v in holders if v in graph
    }
    servable = set()
    for item, s in problem.demand:
        fractions = {}
        for v in placement.holders(item):
            fractions[v] = max(fractions.get(v, 0.0), placement[(v, item)])
        for v in problem.pinned_holders(item):
            fractions[v] = 1.0
        covered = sum(
            f for v, f in fractions.items() if s in reach.get(v, ())
        )
        if covered >= 1 - _TOL:
            servable.add((item, s))
    return servable


def _assert_survivability(problem, placement):
    healthy = route_to_nearest_replica(problem, placement)
    healthy_cost = routing_cost(problem, healthy, demand=problem.demand)
    scenarios = single_link_failures(problem)
    assert scenarios, "topology has no links?"
    for scenario in scenarios:
        degraded = apply_failure(problem, scenario)
        result = recover(degraded, placement)
        survivor, _ = surviving_placement(placement, degraded)
        servable = _servable(degraded, survivor)
        stranded = set(result.stranded)
        # Exactly the unservable requests are stranded...
        assert stranded == set(degraded.problem.demand) - servable, scenario.name
        # ...so unserved fraction is 0 iff every replica stayed reachable.
        if len(servable) == len(degraded.problem.demand) and not degraded.lost_demand:
            assert result.unserved_fraction <= _TOL, scenario.name
            cost = routing_cost(
                degraded.problem, result.routing, demand=degraded.problem.demand
            )
            # Detouring around a failure never beats the healthy routing.
            assert cost >= healthy_cost - _TOL, scenario.name
        else:
            assert result.unserved_fraction > _TOL, scenario.name


def test_every_single_link_failure_on_gadget():
    _assert_survivability(gadget_problem(), gadget_placement())


def test_every_single_link_failure_on_deltacom():
    scenario = build_scenario(
        ScenarioConfig(
            topology="deltacom",
            num_videos=2,
            link_capacity_fraction=None,
            num_edge_nodes=4,
            seed=0,
        )
    )
    _assert_survivability(scenario.problem, greedy(scenario).placement)


def test_double_cut_strands_all_demand():
    problem = gadget_problem()
    degraded = apply_failure(
        problem,
        FailureScenario(
            "cut-both", (LinkFailure("v1", "s"), LinkFailure("v2", "s"))
        ),
    )
    result = recover(degraded, gadget_placement())
    assert result.unserved_fraction == pytest.approx(1.0)
    assert set(result.stranded) == set(degraded.problem.demand)
    assert all(frac == pytest.approx(1.0) for frac in result.stranded.values())
    # Partial mode still returns a routing object (with empty path lists).
    assert all(not paths for paths in result.routing.paths.values())


def test_node_failure_drops_entries_and_reroutes():
    problem = gadget_problem()
    degraded = apply_failure(problem, FailureScenario("f", (NodeFailure("v1"),)))
    result = recover(degraded, gadget_placement())
    assert result.dropped == [("v1", "item1")]
    assert ("v1", "item1") not in result.placement
    # item1 now comes from the pinned origin through v2.
    [pf] = result.routing.paths[("item1", "s")]
    assert pf.path == ("vs", "v2", "s")
    assert result.unserved_fraction <= _TOL


class TestRepair:
    def _lost_copy(self):
        """v1 (holding the only cached copy of item1) fails; v2 is empty."""
        problem = gadget_problem()
        placement = Placement({("v1", "item1"): 1.0})
        degraded = apply_failure(
            problem, FailureScenario("f", (NodeFailure("v1"),))
        )
        return degraded, placement

    def test_repair_refills_residual_space(self):
        degraded, placement = self._lost_copy()
        result = recover(degraded, placement, repair=True)
        assert ("v2", "item1") in result.repaired
        assert result.placement[("v2", "item1")] == 1.0
        # The repaired copy serves the hot item locally instead of from vs.
        [pf] = result.routing.paths[("item1", "s")]
        assert pf.path == ("v2", "s")

    def test_repair_beats_no_repair_on_cost(self):
        degraded, placement = self._lost_copy()
        plain = recover(degraded, placement.copy())
        repaired = recover(degraded, placement, repair=True)
        problem = degraded.problem
        assert routing_cost(
            problem, repaired.routing, demand=problem.demand
        ) < routing_cost(problem, plain.routing, demand=problem.demand)

    def test_repair_respects_capacity(self):
        # Both caches full -> nothing to repair even though v1's copy is gone.
        problem = gadget_problem()
        degraded = apply_failure(
            problem, FailureScenario("f", (NodeFailure("v1"),))
        )
        placement = Placement({("v1", "item1"): 1.0, ("v2", "item2"): 1.0})
        result = recover(degraded, placement, repair=True)
        assert result.repaired == []
        assert result.unserved_fraction <= _TOL  # vs still serves item1

    def test_repair_placement_is_deterministic(self):
        degraded, _ = self._lost_copy()
        problem = degraded.problem
        runs = []
        for _ in range(2):
            placement = Placement()
            runs.append(list(repair_placement(problem, placement)))
        assert runs[0] == runs[1]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_links=st.integers(0, 2),
        n_nodes=st.integers(0, 1),
    )
    def test_repair_only_adds_copies_that_help(self, seed, n_links, n_nodes):
        rng = np.random.default_rng(seed)
        problem = random_problem(
            rng, n_nodes=int(rng.integers(4, 9)), n_items=int(rng.integers(2, 5))
        )
        # Half of a full placement, so caches keep residual space to refill.
        full = sorted(random_placement(rng, problem), key=repr)
        keep = rng.random(len(full)) < 0.5
        placement = Placement({key: 1.0 for key, k in zip(full, keep) if k})
        links = canonical_links(problem)
        nodes = sorted(problem.network.nodes, key=repr)
        cut = rng.choice(len(links), size=min(n_links, len(links)), replace=False)
        down = rng.choice(len(nodes), size=n_nodes, replace=False)
        faults = [LinkFailure(*links[j]) for j in sorted(cut)]
        faults += [NodeFailure(nodes[j]) for j in sorted(down)]
        degraded = apply_failure(problem, FailureScenario("f", tuple(faults)))

        plain = recover(degraded, placement.copy())
        repaired = recover(degraded, placement.copy(), repair=True)
        dp = degraded.problem
        caches = dp.network.cache_nodes()
        for v, item in repaired.repaired:
            assert v in caches and v not in degraded.failed_nodes
            assert (v, item) not in dp.pinned
            assert plain.placement[(v, item)] < 1 - _TOL
        for v in caches:
            assert repaired.placement.used_capacity(v, dp) <= (
                dp.network.cache_capacity(v) + 1e-9
            )
        assert set(repaired.stranded) <= set(plain.stranded)
        # Whole copies only shorten a request's nearest-replica path.
        for request, rate in dp.demand.items():
            if request in plain.stranded or request in repaired.stranded:
                continue
            before = routing_cost(dp, plain.routing, demand={request: rate})
            after = routing_cost(dp, repaired.routing, demand={request: rate})
            assert after <= before * (1 + 1e-9)


class TestWorstCases:
    def test_all_replicas_and_origin_dead(self):
        # Every holder (caches v1/v2 and the pinned origin vs) dies: nothing
        # is servable, and recover must say so instead of raising.
        problem = gadget_problem()
        degraded = apply_failure(
            problem,
            FailureScenario(
                "blackout",
                (NodeFailure("v1"), NodeFailure("v2"), NodeFailure("vs")),
            ),
        )
        result = recover(degraded, gadget_placement())
        assert result.unserved_fraction == pytest.approx(1.0)
        assert result.routing.paths == {} or all(
            not pfs for pfs in result.routing.paths.values()
        )
        stranded_requests = set(result.stranded)
        assert stranded_requests == set(problem.demand)
        assert all(v == pytest.approx(1.0) for v in result.stranded.values())

    def test_all_replicas_and_origin_dead_with_context(self):
        problem = gadget_problem()
        degraded = apply_failure(
            problem,
            FailureScenario(
                "blackout",
                (NodeFailure("v1"), NodeFailure("v2"), NodeFailure("vs")),
            ),
        )
        ctx = degraded_context(SolverContext.from_problem(problem), degraded)
        plain = recover(degraded, gadget_placement())
        via_ctx = recover(degraded, gadget_placement(), context=ctx)
        assert via_ctx.unserved_fraction == plain.unserved_fraction == 1.0
        assert via_ctx.stranded == plain.stranded

    def test_requester_node_failure_moves_demand_to_lost(self):
        problem = gadget_problem()
        degraded = apply_failure(
            problem, FailureScenario("f", (NodeFailure("s"),))
        )
        result = recover(degraded, gadget_placement())
        # The dead requester's demand is lost, not stranded: the degraded
        # instance no longer contains it, but it still counts as unserved.
        assert result.stranded == {}
        assert set(degraded.lost_demand) == set(problem.demand)
        assert result.unserved_fraction == pytest.approx(1.0)

    def test_repair_with_all_caches_dead_is_a_noop(self):
        # Both caches die: the only surviving cache node is the pinned
        # origin, which repair must skip (pins are not repair slots), and
        # the client s (fed only via v1/v2) is isolated outright.
        problem = gadget_problem()
        degraded = apply_failure(
            problem,
            FailureScenario("f", (NodeFailure("v1"), NodeFailure("v2"))),
        )
        result = recover(degraded, gadget_placement(), repair=True)
        assert result.repaired == []
        assert sorted(result.dropped) == [("v1", "item1"), ("v2", "item2")]
        assert result.unserved_fraction == pytest.approx(1.0)
