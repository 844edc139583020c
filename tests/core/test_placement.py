"""Tests for content placement under fixed routing (Section 4.3.1 / 5.2.3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Placement,
    ProblemInstance,
    Routing,
    extract_serving_paths,
    optimize_placement,
    optimize_placement_greedy,
    optimize_placement_lp,
    pin_full_catalog,
    placement_cost,
    placement_saving,
)
from repro.core.placement import fractional_placement_lp
from repro.flow.decomposition import PathFlow
from repro.graph import line_topology

from tests.core.conftest import make_line_problem


def origin_routing(prob) -> Routing:
    r = Routing()
    for (item, s) in prob.demand:
        r.paths[(item, s)] = [PathFlow(path=tuple(range(s + 1)), amount=1.0)]
    return r


def brute_force_best_placement(prob, paths):
    """Exhaustive optimum of C_{r,f}(x) over integral placements."""
    cache_nodes = [
        v for v in prob.network.cache_nodes() if prob.network.cache_capacity(v) > 0
    ]
    options = []
    for v in cache_nodes:
        cap = int(prob.network.cache_capacity(v))
        items = [i for i in prob.catalog if (v, i) not in prob.pinned]
        opts = []
        for k in range(min(cap, len(items)) + 1):
            opts.extend(itertools.combinations(items, k))
        options.append(opts)
    best = float("inf")
    for combo in itertools.product(*options):
        placement = Placement()
        for v, chosen in zip(cache_nodes, combo):
            for i in chosen:
                placement[(v, i)] = 1.0
        best = min(best, placement_cost(prob, paths, placement))
    return best


class TestServingPaths:
    def test_extract_paths_and_suffix_costs(self):
        prob = make_line_problem()
        paths = extract_serving_paths(prob, origin_routing(prob))
        assert len(paths) == 2
        sp = paths[0]
        assert sp.path == (0, 1, 2, 3, 4)
        assert sp.suffix_cost == (4.0, 3.0, 2.0, 1.0, 0.0)

    def test_zero_amount_paths_skipped(self):
        prob = make_line_problem()
        r = Routing()
        for (item, s) in prob.demand:
            r.paths[(item, s)] = [
                PathFlow(path=tuple(range(s + 1)), amount=0.0),
                PathFlow(path=(s,), amount=1.0),
            ]
        assert extract_serving_paths(prob, r) == []


class TestPlacementCost:
    def test_no_placement_full_path_cost(self):
        prob = make_line_problem()
        paths = extract_serving_paths(prob, origin_routing(prob))
        assert placement_cost(prob, paths, Placement()) == pytest.approx(24.0)

    def test_on_path_replica_truncates(self):
        prob = make_line_problem(cache_nodes={3: 1})
        paths = extract_serving_paths(prob, origin_routing(prob))
        item = prob.catalog[0]
        cost = placement_cost(prob, paths, Placement({(3, item): 1.0}))
        # rate-5 item served from node 3 (1 hop), other from origin (4 hops).
        assert cost == pytest.approx(5 * 1 + 1 * 4)

    def test_requester_replica_is_free(self):
        prob = make_line_problem()
        paths = extract_serving_paths(prob, origin_routing(prob))
        item = prob.catalog[0]
        cost = placement_cost(prob, paths, Placement({(4, item): 1.0}))
        assert cost == pytest.approx(5 * 0 + 1 * 4)

    def test_head_placement_does_not_matter(self):
        """x at the path head is outside the products of (13)."""
        prob = make_line_problem()
        paths = extract_serving_paths(prob, origin_routing(prob))
        item = prob.catalog[0]
        with_head = placement_cost(prob, paths, Placement({(0, item): 1.0}))
        assert with_head == pytest.approx(24.0)

    def test_fractional_multilinear(self):
        prob = make_line_problem()
        paths = extract_serving_paths(prob, origin_routing(prob))
        item = prob.catalog[0]
        half = placement_cost(prob, paths, Placement({(3, item): 0.5}))
        # item0: links (3,4) always, others weighted by (1 - 0.5).
        assert half == pytest.approx(5 * (1 + 0.5 * 3) + 1 * 4)

    def test_saving_complements_cost(self):
        prob = make_line_problem(cache_nodes={3: 1})
        paths = extract_serving_paths(prob, origin_routing(prob))
        item = prob.catalog[0]
        placement = Placement({(3, item): 1.0})
        assert placement_saving(prob, paths, placement) == pytest.approx(
            24.0 - placement_cost(prob, paths, placement)
        )


class TestOptimizePlacementLP:
    def test_selects_best_on_line(self):
        prob = make_line_problem(cache_nodes={3: 1})
        placement = optimize_placement_lp(prob, origin_routing(prob))
        assert (3, prob.catalog[0]) in placement
        assert placement.is_integral()

    def test_respects_capacity(self):
        prob = make_line_problem(cache_nodes={3: 1, 4: 1})
        placement = optimize_placement_lp(prob, origin_routing(prob))
        for v in (3, 4):
            assert placement.used_capacity(v, prob) <= 1 + 1e-9

    def test_empty_when_no_caches(self):
        prob = make_line_problem()
        placement = optimize_placement_lp(prob, origin_routing(prob))
        assert len(placement) == 0

    def test_fractional_lp_capacity_rows_weigh_sizes(self):
        net = line_topology(4)
        net.set_cache_capacity(2, 3.0)
        catalog = ("a", "b", "c")
        sizes = {"a": 2.0, "b": 1.0, "c": 1.0}
        demand = {(i, 3): 1.0 for i in catalog}
        prob = ProblemInstance(
            net, catalog, demand, item_sizes=sizes,
            pinned=pin_full_catalog(catalog, [0]),
        )
        paths = extract_serving_paths(prob, origin_routing(prob))
        fractional, capacities = fractional_placement_lp(prob, paths)
        assert capacities == {2: 3.0}
        used = sum(sizes[i] * x for (_v, i), x in fractional.items())
        # The LP fills the cache exactly to its size-weighted capacity.
        assert used == pytest.approx(3.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_one_minus_one_over_e_guarantee(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        prob = make_line_problem(
            num_nodes=6,
            catalog_size=3,
            cache_nodes={2: 1, 4: 1},
            demand={
                (f"item{k}", 5): float(rng.integers(1, 10)) for k in range(3)
            },
        )
        routing = origin_routing(prob)
        paths = extract_serving_paths(prob, routing)
        placement = optimize_placement_lp(prob, routing)
        base = placement_cost(prob, paths, Placement())
        achieved = base - placement_cost(prob, paths, placement)
        optimum = base - brute_force_best_placement(prob, paths)
        assert achieved >= (1 - 1 / 2.718281828) * optimum - 1e-6


class TestOptimizePlacementGreedy:
    def test_matches_lp_on_simple_line(self):
        prob = make_line_problem(cache_nodes={3: 1})
        routing = origin_routing(prob)
        lp_placement = optimize_placement_lp(prob, routing)
        greedy_placement = optimize_placement_greedy(prob, routing)
        assert lp_placement.as_set() == greedy_placement.as_set()

    def test_heterogeneous_knapsack(self):
        net = line_topology(4)
        net.set_cache_capacity(2, 4.0)
        catalog = ("big", "small1", "small2")
        sizes = {"big": 4.0, "small1": 2.0, "small2": 2.0}
        demand = {("big", 3): 1.0, ("small1", 3): 6.0, ("small2", 3): 6.0}
        prob = ProblemInstance(
            net, catalog, demand, item_sizes=sizes,
            pinned=pin_full_catalog(catalog, [0]),
        )
        r = Routing()
        for (item, s) in demand:
            r.paths[(item, s)] = [PathFlow(path=(0, 1, 2, 3), amount=1.0)]
        placement = optimize_placement_greedy(prob, r)
        assert placement.used_capacity(2, prob) <= 4.0 + 1e-9
        assert (2, "small1") in placement and (2, "small2") in placement

    def test_pinned_on_path_reduces_gain(self):
        prob = make_line_problem(cache_nodes={2: 1})
        prob = ProblemInstance(
            network=prob.network,
            catalog=prob.catalog,
            demand=prob.demand,
            pinned=prob.pinned | {(3, prob.catalog[0])},
        )
        placement = optimize_placement_greedy(prob, origin_routing(prob))
        # item0 already pinned at 3 (1 hop); caching item0 at 2 saves nothing
        # downstream of 3, so item1 (4 hops from origin) wins at node 2.
        assert (2, prob.catalog[1]) in placement


class TestDispatch:
    def test_auto_uses_pipage_for_homogeneous(self):
        prob = make_line_problem(cache_nodes={3: 1})
        placement = optimize_placement(prob, origin_routing(prob), method="auto")
        assert placement.is_integral()

    def test_unknown_method(self):
        prob = make_line_problem()
        with pytest.raises(ValueError):
            optimize_placement(prob, origin_routing(prob), method="magic")
