"""DegradedContext parity: derived contexts == fresh builds, bit for bit.

The failure-sweep fast path (:func:`repro.robustness.degraded.degraded_context`)
must never change a result — only how fast it is computed.  These tests
assert bit-identical distance rows and ``w_max`` against
``SolverContext.from_problem`` across randomized single-link, k-link, and
node failures (including disconnecting ones) and chains of them, and that
a full ``survivability_report`` with a threaded context equals the
uncontexted one record for record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pin_full_catalog
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.exceptions import InvalidProblemError
from repro.graph import CacheNetwork, abovenet
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
    degraded_context,
    k_link_failures,
    single_link_failures,
    single_node_failures,
    survivability_report,
)
from repro.robustness.demo import gadget_placement, gadget_problem
from tests.core.conftest import random_uncapacitated_problem


def all_rows(ctx: SolverContext) -> np.ndarray:
    return ctx.backend.rows(np.arange(len(ctx.nodes), dtype=np.intp))


def assert_context_parity(derived: SolverContext, degraded_problem) -> None:
    fresh = SolverContext.from_problem(degraded_problem, backend="dense")
    assert derived.nodes == fresh.nodes
    assert np.array_equal(all_rows(derived), all_rows(fresh))
    assert derived.w_max == fresh.w_max


class TestLinkFailures:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_single_link_scenario(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = SolverContext.from_problem(problem)
        for scenario in single_link_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_double_link_scenarios(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = SolverContext.from_problem(problem)
        scenarios = k_link_failures(problem, 2)
        rng = np.random.default_rng(100 + seed)
        picks = rng.choice(len(scenarios), size=min(8, len(scenarios)), replace=False)
        for k in picks:
            degraded = apply_failure(problem, scenarios[int(k)])
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)


class TestNodeFailures:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_single_node_scenario(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = SolverContext.from_problem(problem)
        # Node 0 holds the pinned catalog; removing it leaves items with no
        # holders, which SolverContext tolerates (empty requester blocks).
        for scenario in single_node_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)

    def test_disconnecting_node_failure(self):
        # The gadget's hub removal strands requesters: distances go inf and
        # the derived context must agree exactly.
        problem = gadget_problem()
        parent = SolverContext.from_problem(problem)
        for scenario in single_node_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)


class TestCapacityOnly:
    def test_capacity_scenario_shares_parent_matrix(self):
        problem = random_uncapacitated_problem(0)
        parent = SolverContext.from_problem(problem)
        scenario = FailureScenario(
            name="brownout", faults=(CapacityDegradation(factor=0.5),)
        )
        degraded = apply_failure(problem, scenario)
        derived = degraded_context(parent, degraded)
        assert derived.backend is parent.backend  # shared, primed rows too
        assert derived.problem is degraded.problem


class TestParentMismatch:
    def test_context_of_another_instance_raises(self):
        # The second scenario applies to the first's degraded instance, so
        # the healthy context is not its parent: its node ids do not match.
        problem = random_uncapacitated_problem(0)
        healthy = SolverContext.from_problem(problem)
        first = apply_failure(problem, single_node_failures(problem)[1])
        second = apply_failure(
            first.problem, FailureScenario("cap", (CapacityDegradation(factor=0.5),))
        )
        with pytest.raises(InvalidProblemError, match="context of the instance"):
            degraded_context(healthy, second)
        assert degraded_context(degraded_context(healthy, first), second).nodes == tuple(
            second.problem.network.nodes
        )


def abovenet_problem() -> ProblemInstance:
    net = abovenet()
    nodes = list(net.nodes)
    items = ("a", "b")
    return ProblemInstance(
        network=CacheNetwork(net.graph, {v: 1.0 for v in nodes[1:6]}),
        catalog=items,
        demand={(it, s): 1.0 for it in items for s in nodes[-4:]},
        pinned=pin_full_catalog(items, [nodes[0]]),
    )


class TestChainProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_chained_removals_read_on_demand_match_fresh(self, data):
        # Each step removes a random set of links and at most one node (or
        # only scales capacity) from the previous step's instance; rows are
        # read on demand from the derived chain and must equal a fresh
        # fully primed build of the same instance, bit for bit.
        ctx = SolverContext.from_problem(abovenet_problem())
        for step in range(data.draw(st.integers(2, 3), label="steps")):
            problem = ctx.problem
            links = data.draw(
                st.lists(
                    st.sampled_from(canonical_links(problem)),
                    max_size=3,
                    unique=True,
                ),
                label=f"links{step}",
            )
            nodes = data.draw(
                st.lists(
                    st.sampled_from(sorted(problem.network.nodes, key=repr)),
                    max_size=1,
                ),
                label=f"nodes{step}",
            )
            faults = [LinkFailure(u, v) for u, v in links]
            faults += [NodeFailure(v) for v in nodes]
            if not faults:
                faults = [CapacityDegradation(factor=0.5)]
            degraded = apply_failure(problem, FailureScenario("step", tuple(faults)))
            child = degraded_context(ctx, degraded)
            if not links and not nodes:
                assert child.backend is ctx.backend
            fresh = SolverContext.from_problem(degraded.problem, backend="dense")
            read = data.draw(
                st.lists(st.sampled_from(child.nodes), max_size=4),
                label=f"read{step}",
            )
            for v in read:
                assert np.array_equal(child.row_of(v), fresh.row_of(v))
            ctx = child
        assert_context_parity(ctx, ctx.problem)


class TestReportParity:
    @pytest.mark.parametrize("repair", [False, True])
    def test_report_with_context_is_identical(self, repair):
        problem = gadget_problem()
        placement = gadget_placement()
        scenarios = single_link_failures(problem) + single_node_failures(
            problem, exclude=("s",)
        )
        plain = survivability_report(problem, placement, scenarios, repair=repair)
        context = SolverContext.from_problem(problem)
        fast = survivability_report(
            problem, placement, scenarios, repair=repair, context=context
        )
        assert plain.healthy_cost == fast.healthy_cost
        assert len(plain.records) == len(fast.records)
        for a, b in zip(plain.records, fast.records):
            assert a == b

    def test_report_with_context_random_instances(self):
        for seed in range(3):
            problem = random_uncapacitated_problem(seed)
            context = SolverContext.from_problem(problem)
            from repro.core.submodular import greedy_rnr_placement

            placement = greedy_rnr_placement(problem, context=context)
            scenarios = single_link_failures(problem)
            plain = survivability_report(
                problem, placement, scenarios, repair=True
            )
            fast = survivability_report(
                problem, placement, scenarios, repair=True, context=context
            )
            assert plain.records == fast.records
