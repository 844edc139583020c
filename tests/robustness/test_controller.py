"""Online recovery controller: static parity, policies, exact integration."""

import networkx as nx
import pytest

from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance, pin_full_catalog
from repro.core.solution import Placement
from repro.exceptions import InvalidProblemError
from repro.graph.network import CacheNetwork
from repro.robustness import (
    FailureEvent,
    FailureTimeline,
    LinkFailure,
    NodeFailure,
    RecoveryPolicy,
    RepairEvent,
    TimelineConfig,
    generate_timeline,
    replay_timeline,
    single_link_failures,
    single_node_failures,
)
from repro.robustness import controller
from repro.robustness.chaos import check_static_parity
from repro.robustness.demo import gadget_placement, gadget_problem

_TOL = 1e-9


def line_problem():
    """Origin ``a`` pinned, single client ``b`` one link away."""
    g = nx.DiGraph()
    g.add_edge("a", "b", cost=1.0, capacity=float("inf"))
    net = CacheNetwork(g, {"a": 1.0})
    catalog = ("i",)
    return ProblemInstance(
        net, catalog, {("i", "b"): 2.0}, pinned=pin_full_catalog(catalog, ["a"])
    )


def manual_timeline(events, *, horizon, name="manual"):
    return FailureTimeline(name=name, horizon=horizon, events=tuple(events))


class TestStaticParity:
    """A single permanent failure at t=0 IS the static survivability path."""

    @pytest.mark.parametrize("repair", [False, True])
    @pytest.mark.parametrize("with_context", [False, True])
    def test_every_gadget_single_fault(self, repair, with_context):
        problem = gadget_problem()
        placement = gadget_placement()
        context = SolverContext.from_problem(problem) if with_context else None
        scenarios = single_link_failures(problem) + single_node_failures(
            problem, exclude=("s",)
        )
        assert scenarios
        for scenario in scenarios:
            check_static_parity(
                problem, placement, scenario, repair=repair, context=context
            )


class TestExactIntegration:
    def test_outage_window_availability(self):
        problem = line_problem()
        fault = LinkFailure("a", "b")
        timeline = manual_timeline(
            [FailureEvent(2.0, fault), RepairEvent(5.0, fault)], horizon=10.0
        )
        report = replay_timeline(problem, Placement(), timeline)
        # Demand 2.0 is dark exactly during [2, 5): availability 7/10.
        assert report.availability == pytest.approx(0.7, abs=_TOL)
        assert report.unserved_integral == pytest.approx(6.0, abs=_TOL)
        assert report.reoptimizations == 2
        # The post-repair action recovers the healthy cost exactly.
        assert report.actions[-1].record.cost_inflation == pytest.approx(1.0)
        assert report.actions[-1].record.unserved_fraction == 0.0

    def test_requester_death_charges_lost_demand(self):
        problem = line_problem()
        timeline = manual_timeline(
            [FailureEvent(4.0, NodeFailure("b"))], horizon=10.0
        )
        report = replay_timeline(problem, Placement(), timeline)
        assert report.availability == pytest.approx(0.4, abs=_TOL)
        record = report.final_record
        assert record.unserved_fraction == pytest.approx(1.0)

    def test_event_outside_horizon_rejected(self):
        problem = line_problem()
        timeline = manual_timeline(
            [FailureEvent(10.0, LinkFailure("a", "b"))], horizon=10.0
        )
        with pytest.raises(InvalidProblemError, match="outside"):
            replay_timeline(problem, Placement(), timeline)

    def test_repair_of_inactive_fault_rejected(self):
        problem = line_problem()
        timeline = manual_timeline(
            [RepairEvent(1.0, LinkFailure("a", "b"))], horizon=10.0
        )
        with pytest.raises(InvalidProblemError, match="inactive"):
            replay_timeline(problem, Placement(), timeline)


class TestPolicies:
    def test_absorbed_flap_never_reoptimizes(self):
        problem = line_problem()
        fault = LinkFailure("a", "b")
        timeline = manual_timeline(
            [FailureEvent(2.0, fault, transient=True), RepairEvent(2.1, fault)],
            horizon=10.0,
        )
        policy = RecoveryPolicy(detection_delay=0.5)
        report = replay_timeline(problem, Placement(), timeline, policy)
        assert report.reoptimizations == 0
        assert report.reroutes_avoided == 1
        # The 0.1-long outage is still charged (rate 2.0 over 0.1 time).
        assert report.unserved_integral == pytest.approx(0.2, abs=_TOL)

    def test_backoff_retries_before_committing(self):
        problem = line_problem()
        fault = LinkFailure("a", "b")
        timeline = manual_timeline([FailureEvent(2.0, fault)], horizon=10.0)
        policy = RecoveryPolicy(flap_backoff=0.5, max_retries=2)
        report = replay_timeline(problem, Placement(), timeline, policy)
        # Checks at 2.0 and 2.5 back off; the one at 3.5 commits.
        assert report.reoptimizations == 1
        assert report.actions[0].time == pytest.approx(3.5)
        assert report.actions[0].latency == pytest.approx(1.5)

    def test_detection_delay_sets_latency(self):
        problem = gadget_problem()
        timeline = manual_timeline(
            [FailureEvent(1.0, LinkFailure("v1", "s"))], horizon=5.0
        )
        policy = RecoveryPolicy(detection_delay=0.75)
        report = replay_timeline(problem, gadget_placement(), timeline, policy)
        assert report.reoptimizations == 1
        assert report.actions[0].time == pytest.approx(1.75)
        assert report.actions[0].latency == pytest.approx(0.75)
        assert report.mean_recovery_latency == pytest.approx(0.75)

    def test_min_dwell_defers_and_coalesces(self):
        problem = gadget_problem()
        timeline = manual_timeline(
            [
                FailureEvent(1.0, LinkFailure("v1", "s")),
                FailureEvent(2.0, LinkFailure("v2", "s")),
            ],
            horizon=20.0,
        )
        policy = RecoveryPolicy(min_dwell=5.0)
        report = replay_timeline(problem, gadget_placement(), timeline, policy)
        assert report.reoptimizations == 2
        assert report.deferrals == 1
        assert report.actions[1].time == pytest.approx(6.0)  # 1.0 + dwell
        assert report.actions[1].latency == pytest.approx(4.0)

    def test_repair_after_gates_refill(self):
        problem = gadget_problem()
        timeline = manual_timeline(
            [FailureEvent(1.0, NodeFailure("v2"))], horizon=5.0
        )
        gated = replay_timeline(
            problem,
            gadget_placement(),
            timeline,
            RecoveryPolicy(repair=True, repair_after=3.0),
        )
        eager = replay_timeline(
            problem,
            gadget_placement(),
            timeline,
            RecoveryPolicy(repair=True),
        )
        # The only action fires at outage age 0 < 3: repair is suppressed.
        assert gated.repaired_entries == 0
        assert eager.repaired_entries >= gated.repaired_entries

    def test_flap_wipes_cache_until_reoptimization(self):
        # A node flap absorbed by backoff still emptied the cache: the stale
        # routing keeps pointing at it but delivers nothing from it.
        problem = gadget_problem()
        fault = NodeFailure("v1")
        timeline = manual_timeline(
            [FailureEvent(1.0, fault, transient=True), RepairEvent(1.05, fault)],
            horizon=4.0,
        )
        policy = RecoveryPolicy(detection_delay=0.5)
        report = replay_timeline(problem, gadget_placement(), timeline, policy)
        assert report.reoptimizations == 0
        assert report.reroutes_avoided == 1
        # item1 (rate 10 of 10.01) stays dark after the flap: availability
        # collapses to roughly the first healthy unit of time.
        assert report.availability < 0.5


class TestDerivedStateParity:
    @pytest.mark.parametrize("repair", [False, True])
    def test_derived_rebuilt_plain_agree(self, repair, monkeypatch):
        # Every action derives its context from the healthy root; swapping
        # the derivation for a fresh build, or replaying without a healthy
        # context, must not change a single number.
        problem = gadget_problem()
        placement = gadget_placement()
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=120.0,
                link_mtbf=15.0,
                link_mttr=3.0,
                node_mtbf=60.0,
                node_mttr=5.0,
                flap_probability=0.3,
                exclude_nodes=("s", "vs"),
            ),
            seed=11,
        )
        assert len(timeline.events) > 10
        policy = RecoveryPolicy(
            detection_delay=0.2, flap_backoff=0.1, max_retries=1, repair=repair
        )
        context = SolverContext.from_problem(problem)
        derived = replay_timeline(
            problem, placement, timeline, policy, context=context
        )
        plain = replay_timeline(problem, placement, timeline, policy)
        monkeypatch.setattr(
            controller,
            "degraded_context",
            lambda _parent, degraded: SolverContext.from_problem(degraded.problem),
        )
        rebuilt = replay_timeline(
            problem, placement, timeline, policy, context=context
        )
        assert derived.reoptimizations > 0
        assert derived == rebuilt
        assert derived == plain
