"""Tests for routing cost / congestion / occupancy / feasibility checking."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Placement,
    ProblemInstance,
    Routing,
    Solution,
    check_feasibility,
    congestion,
    link_loads,
    max_cache_occupancy,
    routing_cost,
    summarize,
    utilization_profile,
)
from repro.core.evaluation import link_utilization
from repro.flow.decomposition import PathFlow
from repro.graph.network import CacheNetwork

from tests.core.conftest import make_line_problem


def integral_routing_from_origin(prob):
    """Serve every request from node 0 along the line."""
    r = Routing()
    for (item, s) in prob.demand:
        r.paths[(item, s)] = [PathFlow(path=tuple(range(s + 1)), amount=1.0)]
    return r


class TestCostAndLoads:
    def test_routing_cost_from_origin(self):
        prob = make_line_problem()  # demand 5 + 1 at node 4, unit costs
        r = integral_routing_from_origin(prob)
        assert routing_cost(prob, r) == pytest.approx(6.0 * 4)

    def test_routing_cost_under_different_demand(self):
        prob = make_line_problem()
        r = integral_routing_from_origin(prob)
        true_demand = {req: 2 * rate for req, rate in prob.demand.items()}
        assert routing_cost(prob, r, demand=true_demand) == pytest.approx(48.0)

    def test_fractional_paths_weighted(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        r = Routing()
        r.paths[(item, 4)] = [
            PathFlow(path=(0, 1, 2, 3, 4), amount=0.5),
            PathFlow(path=(3, 4), amount=0.5),
        ]
        r.paths[(prob.catalog[1], 4)] = [PathFlow(path=(0, 1, 2, 3, 4), amount=1.0)]
        assert routing_cost(prob, r) == pytest.approx(5 * (0.5 * 4 + 0.5 * 1) + 1 * 4)

    def test_link_loads_accumulate(self):
        prob = make_line_problem()
        r = integral_routing_from_origin(prob)
        loads = link_loads(prob, r)
        assert loads[(0, 1)] == pytest.approx(6.0)
        assert loads[(3, 4)] == pytest.approx(6.0)

    def test_congestion_zero_when_uncapacitated(self):
        prob = make_line_problem()
        r = integral_routing_from_origin(prob)
        assert congestion(prob, r) == 0.0

    def test_congestion_ratio(self):
        prob = make_line_problem(link_capacity=3.0)
        r = integral_routing_from_origin(prob)
        assert congestion(prob, r) == pytest.approx(2.0)


class TestZeroCapacityLinks:
    """Edge attributes mutated to zero capacity must not divide by zero."""

    @staticmethod
    def _zero_cap(prob, u, v):
        # set_link_capacity forbids cap <= 0, so mutate the edge directly —
        # exactly the scenario the ZeroDivisionError fix guards against.
        prob.network.graph.edges[u, v]["capacity"] = 0.0

    def test_congestion_inf_when_zero_cap_link_loaded(self):
        prob = make_line_problem(link_capacity=3.0)
        self._zero_cap(prob, 1, 2)
        r = integral_routing_from_origin(prob)  # every path crosses (1, 2)
        assert congestion(prob, r) == math.inf

    def test_congestion_ignores_unloaded_zero_cap_link(self):
        prob = make_line_problem(link_capacity=3.0)
        self._zero_cap(prob, 4, 3)  # reverse link: never used
        r = integral_routing_from_origin(prob)
        assert congestion(prob, r) == pytest.approx(2.0)

    def test_utilization_profile_zero_cap_entries(self):
        from repro.core import utilization_profile

        prob = make_line_problem(link_capacity=3.0)
        self._zero_cap(prob, 1, 2)
        self._zero_cap(prob, 4, 3)
        r = integral_routing_from_origin(prob)
        # Register the reverse link with zero load (a degenerate flow).
        item = prob.catalog[0]
        r.paths[(item, 4)] = r.paths[(item, 4)] + [
            PathFlow(path=(4, 3), amount=0.0)
        ]
        profile = utilization_profile(prob, r)
        assert profile[(1, 2)] == math.inf  # loaded, no capacity
        assert profile[(4, 3)] == 0.0  # zero load, no capacity
        assert profile[(0, 1)] == pytest.approx(2.0)

    def test_path_stretch_ignores_zero_capacity_caches(self):
        from repro.core import path_stretch

        # Cache at node 3 -> floor for requester 4 is distance(3, 4) = 1,
        # so origin-served requests look stretched by 4x.
        prob = make_line_problem(cache_nodes={3: 1})
        r = integral_routing_from_origin(prob)
        assert path_stretch(prob, r) == pytest.approx(4.0)
        # Zero out that cache: it can never hold a copy, so the floor
        # falls back to the pinned origin and the stretch is exactly 1.
        prob.network.set_cache_capacity(3, 0.0)
        assert path_stretch(prob, r) == pytest.approx(1.0)


class TestOccupancy:
    def test_max_cache_occupancy(self):
        prob = make_line_problem(cache_nodes={3: 2})
        p = Placement({(3, prob.catalog[0]): 1.0})
        assert max_cache_occupancy(prob, p) == pytest.approx(0.5)

    def test_occupancy_infinite_when_no_capacity(self):
        prob = make_line_problem(cache_nodes={3: 1})
        p = Placement({(1, prob.catalog[0]): 1.0})  # node 1 has no cache
        # node 1 is not a cache node; occupancy only scans cache nodes
        assert max_cache_occupancy(prob, p) == pytest.approx(0.0)

    def test_overfull_cache_reported(self):
        prob = make_line_problem(cache_nodes={3: 1})
        p = Placement({(3, prob.catalog[0]): 1.0, (3, prob.catalog[1]): 1.0})
        assert max_cache_occupancy(prob, p) == pytest.approx(2.0)


class TestFeasibility:
    def test_feasible_solution(self):
        prob = make_line_problem()
        sol = Solution(Placement(), integral_routing_from_origin(prob))
        report = check_feasibility(prob, sol)
        assert report.feasible
        assert report.violations == []

    def test_cache_violation(self):
        prob = make_line_problem(cache_nodes={3: 1})
        p = Placement({(3, prob.catalog[0]): 1.0, (3, prob.catalog[1]): 1.0})
        sol = Solution(p, integral_routing_from_origin(prob))
        report = check_feasibility(prob, sol)
        assert not report.cache_ok
        assert not report.feasible

    def test_link_violation(self):
        prob = make_line_problem(link_capacity=2.0)
        sol = Solution(Placement(), integral_routing_from_origin(prob))
        report = check_feasibility(prob, sol)
        assert not report.links_ok

    def test_unserved_request(self):
        prob = make_line_problem()
        sol = Solution(Placement(), Routing())
        report = check_feasibility(prob, sol)
        assert not report.served_ok

    def test_source_without_content(self):
        prob = make_line_problem()
        r = Routing()
        for (item, s) in prob.demand:
            # node 2 serves but stores nothing and is not pinned
            r.paths[(item, s)] = [PathFlow(path=(2, 3, 4), amount=1.0)]
        report = check_feasibility(prob, Solution(Placement(), r))
        assert not report.sources_ok

    def test_path_not_ending_at_requester(self):
        prob = make_line_problem()
        r = Routing()
        for (item, s) in prob.demand:
            r.paths[(item, s)] = [PathFlow(path=(0, 1, 2, 3), amount=1.0)]
        report = check_feasibility(prob, Solution(Placement(), r))
        assert not report.sources_ok

    def test_missing_link_detected(self):
        prob = make_line_problem()
        r = Routing()
        for (item, s) in prob.demand:
            r.paths[(item, s)] = [PathFlow(path=(0, 4), amount=1.0)]
        report = check_feasibility(prob, Solution(Placement(), r))
        assert not report.links_ok

    def test_summarize_bundle(self):
        prob = make_line_problem()
        sol = Solution(Placement(), integral_routing_from_origin(prob))
        stats = summarize(prob, sol)
        assert set(stats) == {
            "routing_cost",
            "congestion",
            "max_cache_occupancy",
            "cache_hit_rate",
            "feasible",
        }
        assert stats["feasible"] == 1.0


def sized_placement(seed: int):
    """A line network with sized items, pinned copies and a fractional
    placement whose entries (pinned ones included) arrive in random order.
    Sizes and fractions use full mantissas, so a change in the order a
    node's terms are summed shows in the last bits."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 7))
    graph = nx.DiGraph()
    for v in range(n_nodes - 1):
        graph.add_edge(v, v + 1, cost=1.0, capacity=math.inf)
        graph.add_edge(v + 1, v, cost=1.0, capacity=math.inf)
    capacities = {
        v: float(rng.uniform(0.0, 6.0)) for v in range(n_nodes) if rng.random() < 0.8
    }
    catalog = tuple(f"i{k}" for k in range(int(rng.integers(1, 9))))
    sizes = {i: float(rng.uniform(0.1, 3.0)) for i in catalog}
    pairs = [(v, i) for v in range(n_nodes) for i in catalog]
    order = rng.permutation(len(pairs))
    pinned = frozenset(pairs[j] for j in order[: int(rng.integers(0, 5))])
    problem = ProblemInstance(
        network=CacheNetwork(graph, capacities),
        catalog=catalog,
        demand={(catalog[0], n_nodes - 1): 1.0},
        item_sizes=sizes,
        pinned=pinned,
    )
    placement = Placement()
    for j in rng.permutation(len(pairs))[: int(rng.integers(0, len(pairs) + 1))]:
        placement[pairs[j]] = float(rng.uniform(0.01, 1.0))
    return problem, placement


class TestOccupancyParity:
    """check_feasibility and max_cache_occupancy against per-node
    ``Placement.used_capacity``, the definition they must agree with."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_per_node_used_capacity(self, seed):
        problem, placement = sized_placement(seed)
        network = problem.network
        expected = []
        for v in network.nodes:
            used = placement.used_capacity(v, problem)
            cap = network.cache_capacity(v)
            if used > cap + 1e-6:
                expected.append(f"cache at {v!r} holds {used:.4g} > capacity {cap:.4g}")
        report = check_feasibility(problem, Solution(placement, Routing()))
        cache_msgs = [m for m in report.violations if m.startswith("cache at")]
        assert cache_msgs == expected
        assert report.cache_ok == (not expected)

        worst = 0.0
        for v in network.cache_nodes():
            cap = network.cache_capacity(v)
            used = placement.used_capacity(v, problem)
            if cap > 0:
                worst = max(worst, used / cap)
            elif used > 1e-9:
                worst = math.inf
        assert max_cache_occupancy(problem, placement) == worst


def walked_profile(problem, routing):
    """``utilization_profile``'s rule as it was written before
    :func:`link_utilization` (the oracle)."""
    profile = {}
    for (u, v), load in link_loads(problem, routing).items():
        cap = problem.network.capacity(u, v)
        if math.isinf(cap):
            continue
        if cap <= 0:
            profile[(u, v)] = math.inf if load > 1e-9 else 0.0
        else:
            profile[(u, v)] = load / cap
    return profile


def walked_congestion(problem, routing):
    """``congestion``'s rule as it was written before :func:`link_utilization`."""
    worst = 0.0
    for (u, v), load in link_loads(problem, routing).items():
        cap = problem.network.capacity(u, v)
        if math.isinf(cap):
            continue
        if cap <= 0:
            if load > 1e-9:
                return math.inf
            continue
        worst = max(worst, load / cap)
    return worst


def mixed_capacity_routing(seed: int):
    """A line network whose directed links are finite, uncapacitated or
    zero-capacity, and a fractional routing over it; a zero-amount path
    registers a link with zero load."""
    rng = np.random.default_rng(seed)
    prob = make_line_problem(
        num_nodes=int(rng.integers(3, 8)), catalog_size=3, link_capacity=1.0
    )
    n = prob.network.num_nodes
    for u, v in list(prob.network.graph.edges):
        draw = rng.random()
        if draw < 0.3:
            cap = math.inf
        elif draw < 0.5:
            cap = 0.0  # set directly, as in TestZeroCapacityLinks
        else:
            cap = float(rng.uniform(0.1, 10.0))
        prob.network.graph.edges[u, v]["capacity"] = cap
    routing = Routing()
    for item in prob.catalog:
        s = int(rng.integers(1, n))
        prob.demand[(item, s)] = float(rng.uniform(0.1, 5.0))
        paths = []
        for _ in range(int(rng.integers(1, 4))):
            src = int(rng.integers(0, n))
            step = 1 if src <= s else -1
            amount = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0))
            paths.append(PathFlow(path=tuple(range(src, s + step, step)), amount=amount))
        routing.paths[(item, s)] = paths
    return prob, routing


class TestLinkUtilization:
    """One per-link rule serves congestion and the utilization profile."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reproduces_walked_rules(self, seed):
        prob, routing = mixed_capacity_routing(seed)
        want = walked_profile(prob, routing)
        loads = link_loads(prob, routing)
        assert link_utilization(prob.network, loads) == want
        assert utilization_profile(prob, routing) == want
        assert congestion(prob, routing) == walked_congestion(prob, routing)
