"""Fault injection: degraded instances, enumerators, seeded samplers."""

import pytest

from repro.exceptions import InvalidProblemError
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    k_link_failures,
    sample_failures,
    single_link_failures,
    single_node_failures,
)
from repro.robustness.demo import gadget_problem


class TestLinkFailure:
    def test_removes_both_directions_by_default(self):
        problem = gadget_problem()
        # The gadget's links are one-directional; add a symmetric pair.
        problem.network.graph.add_edge("s", "v1", cost=1.0, capacity=1.0)
        degraded = apply_failure(
            problem,
            FailureScenario("f", (LinkFailure("v1", "s"),)),
        )
        assert not degraded.problem.network.has_edge("v1", "s")
        assert not degraded.problem.network.has_edge("s", "v1")
        assert ("v1", "s") in degraded.failed_links
        assert ("s", "v1") in degraded.failed_links

    def test_one_direction_only(self):
        problem = gadget_problem()
        problem.network.graph.add_edge("s", "v1", cost=1.0, capacity=1.0)
        degraded = apply_failure(
            problem,
            FailureScenario("f", (LinkFailure("v1", "s", both_directions=False),)),
        )
        assert not degraded.problem.network.has_edge("v1", "s")
        assert degraded.problem.network.has_edge("s", "v1")

    def test_directed_edges_orientations(self):
        one_way = LinkFailure("a", "b", both_directions=False)
        assert one_way.directed_edges == (("a", "b"),)
        assert LinkFailure("a", "b").directed_edges == (("a", "b"), ("b", "a"))

    def test_missing_link_raises(self):
        problem = gadget_problem()
        with pytest.raises(InvalidProblemError, match="missing"):
            apply_failure(
                problem, FailureScenario("f", (LinkFailure("s", "vs"),))
            )

    def test_original_instance_untouched(self):
        problem = gadget_problem()
        apply_failure(problem, FailureScenario("f", (LinkFailure("v1", "s"),)))
        assert problem.network.has_edge("v1", "s")


class TestNodeFailure:
    def test_removes_node_cache_and_pins(self):
        problem = gadget_problem()
        degraded = apply_failure(
            problem, FailureScenario("f", (NodeFailure("vs"),))
        )
        surviving = degraded.problem
        assert "vs" not in surviving.network
        assert "vs" not in surviving.network.cache_capacities
        assert not surviving.pinned  # vs pinned the whole catalog
        assert degraded.failed_nodes == frozenset({"vs"})
        # Both origin links die with the node.
        assert ("vs", "v1") in degraded.failed_links
        assert ("vs", "v2") in degraded.failed_links

    def test_requester_death_moves_demand_to_lost(self):
        problem = gadget_problem(lam=10.0, eps=0.01)
        degraded = apply_failure(
            problem, FailureScenario("f", (NodeFailure("s"),))
        )
        assert degraded.problem.demand == {}
        assert degraded.lost_demand == {("item1", "s"): 10.0, ("item2", "s"): 0.01}
        assert degraded.total_original_demand == pytest.approx(10.01)


class TestCapacityDegradation:
    def test_scales_capacities(self):
        problem = gadget_problem(lam=10.0)
        degraded = apply_failure(
            problem, FailureScenario("f", (CapacityDegradation(0.5),))
        )
        assert degraded.problem.network.capacity("vs", "v1") == pytest.approx(5.0)
        assert problem.network.capacity("vs", "v1") == pytest.approx(10.0)

    def test_selective_links(self):
        problem = gadget_problem(lam=10.0)
        degraded = apply_failure(
            problem,
            FailureScenario("f", (CapacityDegradation(0.25, links=(("v1", "s"),)),)),
        )
        assert degraded.problem.network.capacity("v1", "s") == pytest.approx(2.5)
        assert degraded.problem.network.capacity("v2", "s") == pytest.approx(10.0)

    @pytest.mark.parametrize("factor", [0.0, -1.0, 1.5])
    def test_bad_factor_rejected(self, factor):
        problem = gadget_problem()
        with pytest.raises(InvalidProblemError, match="factor"):
            apply_failure(
                problem, FailureScenario("f", (CapacityDegradation(factor),))
            )


class TestEnumerators:
    def test_single_link_failures_cover_every_undirected_link(self):
        problem = gadget_problem()
        scenarios = single_link_failures(problem)
        assert len(scenarios) == 4  # the gadget has 4 one-directional links
        assert len({s.name for s in scenarios}) == 4

    def test_k_link_failures_are_combinations(self):
        problem = gadget_problem()
        assert len(k_link_failures(problem, 2)) == 6  # C(4, 2)
        with pytest.raises(InvalidProblemError):
            k_link_failures(problem, 0)

    def test_single_node_failures_respect_exclude(self):
        problem = gadget_problem()
        names = {s.name for s in single_node_failures(problem, exclude=("s",))}
        assert names == {"node:'v1'", "node:'v2'", "node:'vs'"}

    def test_deterministic_order(self):
        problem = gadget_problem()
        first = [s.name for s in single_link_failures(problem)]
        second = [s.name for s in single_link_failures(problem)]
        assert first == second == sorted(first)


class TestSampler:
    def test_same_seed_same_scenarios(self):
        problem = gadget_problem()
        a = sample_failures(problem, n_scenarios=5, links_per_scenario=2, seed=7)
        b = sample_failures(problem, n_scenarios=5, links_per_scenario=2, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        problem = gadget_problem()
        a = sample_failures(problem, n_scenarios=8, links_per_scenario=2, seed=1)
        b = sample_failures(problem, n_scenarios=8, links_per_scenario=2, seed=2)
        assert a != b

    def test_mixed_link_and_node_faults(self):
        problem = gadget_problem()
        scenarios = sample_failures(
            problem,
            n_scenarios=3,
            links_per_scenario=1,
            nodes_per_scenario=1,
            exclude_nodes=("s", "vs"),
            seed=0,
        )
        for s in scenarios:
            kinds = [type(f).__name__ for f in s.faults]
            assert kinds == ["LinkFailure", "NodeFailure"]
            apply_failure(problem, s)  # every sampled scenario is applicable

    def test_oversized_request_rejected(self):
        problem = gadget_problem()
        with pytest.raises(InvalidProblemError):
            sample_failures(problem, n_scenarios=1, links_per_scenario=99)


class TestUniqueSampler:
    def test_unique_yields_distinct_fault_sets(self):
        problem = gadget_problem()
        scenarios = sample_failures(
            problem, n_scenarios=4, links_per_scenario=1, seed=0, unique=True
        )
        fault_sets = [frozenset(s.faults) for s in scenarios]
        assert len(set(fault_sets)) == 4  # the gadget has exactly 4 links

    def test_default_stream_unchanged_by_unique_flag(self):
        # unique=False must preserve the historical duplicated stream
        # bit-for-bit: the flag only filters, it never reorders draws.
        problem = gadget_problem()
        legacy = sample_failures(problem, n_scenarios=6, seed=5)
        again = sample_failures(problem, n_scenarios=6, seed=5, unique=False)
        assert legacy == again
        # With 4 links and 6 draws the pigeonhole guarantees duplicates.
        assert len({frozenset(s.faults) for s in legacy}) < len(legacy)

    def test_unique_is_seed_deterministic(self):
        problem = gadget_problem()
        a = sample_failures(problem, n_scenarios=3, seed=9, unique=True)
        b = sample_failures(problem, n_scenarios=3, seed=9, unique=True)
        assert a == b

    def test_unique_exhausted_pool_raises(self):
        problem = gadget_problem()
        with pytest.raises(InvalidProblemError, match="unique"):
            sample_failures(
                problem, n_scenarios=5, links_per_scenario=1, seed=0, unique=True
            )
