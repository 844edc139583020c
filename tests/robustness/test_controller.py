"""Online recovery controller: static parity, policies, exact integration."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import algorithm1
from repro.core.context import SolverContext
from repro.core.decomposed import partition_graph
from repro.core.problem import ProblemInstance, pin_full_catalog
from repro.core.solution import Placement, Routing
from repro.exceptions import InvalidProblemError
from repro.experiments import ScenarioConfig, build_scenario
from repro.flow.decomposition import PathFlow
from repro.graph.network import CacheNetwork
from repro.robustness import (
    FailureEvent,
    FailureTimeline,
    LinkFailure,
    NodeFailure,
    RecoveryPolicy,
    RepairEvent,
    TimelineConfig,
    canonical_links,
    generate_timeline,
    replay_timeline,
    single_link_failures,
    single_node_failures,
)
from repro.robustness import controller
from repro.robustness.chaos import (
    check_static_parity,
    hierarchy_problem,
    random_placement,
    random_problem,
)
from repro.robustness.demo import gadget_placement, gadget_problem
from repro.serving.degraded import delivered_rates

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


def reference_rates(ctl) -> tuple[float, float]:
    """(served rate, cost rate) by walking every request's paths in Python.

    The delivery rule written out independently of the compiled-table
    masks: liveness comes straight from the active faults, a link failure
    downs both orientations unless ``both_directions`` is off, and a copy
    is gone when the controller's placement no longer holds it unpinned.
    """
    down_nodes = set()
    down_links = set()
    for fault in ctl.active_faults:
        if isinstance(fault, NodeFailure):
            down_nodes.add(fault.node)
        elif isinstance(fault, LinkFailure):
            down_links.add((fault.u, fault.v))
            if fault.both_directions:
                down_links.add((fault.v, fault.u))
    costs = ctl.problem.network.costs()
    pinned = ctl.problem.pinned

    def path_alive(path):
        if any(v in down_nodes for v in path):
            return False
        return not any(e in down_links for e in zip(path[:-1], path[1:]))

    served = 0.0
    cost = 0.0
    for (item, s), rate in ctl.problem.demand.items():
        if s in down_nodes:
            continue
        for pf in ctl.routing.paths.get((item, s), ()):
            src = pf.source
            if ctl.placement[(src, item)] <= 0 and (src, item) not in pinned:
                continue
            if path_alive(pf.path):
                amount = rate * pf.amount
                served += amount
                cost += amount * sum(
                    costs[e] for e in zip(pf.path[:-1], pf.path[1:])
                )
    return served, cost


class ReferenceObserver:
    """Checks the controller's rates against :func:`reference_rates`."""

    def __init__(self) -> None:
        #: The controller's served rate after each event and action.
        self.served: list[float] = []
        self.mismatches: list[str] = []

    def __call__(self, phase, t, ctl, detail) -> None:
        if phase not in ("event", "action"):
            return
        got = (ctl.served_rate(), ctl._cur_cost)
        self.served.append(got[0])
        want = reference_rates(ctl)
        if got != pytest.approx(want, rel=1e-9, abs=1e-12):
            self.mismatches.append(f"t={t:g} {phase}: {got} != {want}")


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

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_non_finite_horizon_rejected(self, horizon):
        # A FailureTimeline built directly skips the generators' checks.
        timeline = manual_timeline([], horizon=horizon)
        with pytest.raises(InvalidProblemError, match="finite"):
            controller.TimelineController(line_problem(), Placement(), timeline)

    @pytest.mark.parametrize(
        "field", ["detection_delay", "flap_backoff", "min_dwell", "repair_after"]
    )
    def test_nan_policy_delay_rejected(self, field):
        # NaN agenda times would break the controller's heap order.
        with pytest.raises(InvalidProblemError, match=field):
            RecoveryPolicy(**{field: float("nan")}).validate()


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


class TestDeliveryRule:
    """The controller's rates follow the per-request delivery rule."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(
            [
                RecoveryPolicy(),
                RecoveryPolicy(detection_delay=0.3),
                RecoveryPolicy(detection_delay=0.1, flap_backoff=0.2, max_retries=2),
                RecoveryPolicy(detection_delay=0.2, min_dwell=2.0, repair=True),
            ]
        ),
    )
    def test_rates_match_reference_after_every_callback(self, seed, policy):
        # Node failures, flaps, and an SRLG of two links that also run their
        # own per-link processes, so a link can be held down twice.
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_nodes=int(rng.integers(6, 10)), n_items=3)
        placement = random_placement(rng, problem)
        links = canonical_links(problem)
        picks = rng.choice(len(links), size=2, replace=False)
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=30.0,
                link_mtbf=20.0,
                link_mttr=2.0,
                node_mtbf=25.0,
                node_mttr=3.0,
                flap_probability=0.4,
                flap_mttr=0.15,
                srlg_groups=(tuple(links[int(j)] for j in picks),),
                srlg_mtbf=10.0,
                srlg_mttr=2.0,
                exclude_nodes=("n0",),
            ),
            seed=seed,
        )
        observer = ReferenceObserver()
        replay_timeline(problem, placement, timeline, policy, observer=observer)
        assert len(observer.served) >= len(timeline.events)
        assert not observer.mismatches, observer.mismatches[:3]

    def test_dead_requester_serves_nothing_off_path(self):
        # A hand-built routing whose path stops one hop short of its
        # requester: only the requester clause can see the requester die.
        g = nx.DiGraph()
        for u, v in [("a", "b"), ("b", "c")]:
            g.add_edge(u, v, cost=1.0, capacity=float("inf"))
            g.add_edge(v, u, cost=1.0, capacity=float("inf"))
        problem = ProblemInstance(
            CacheNetwork(g, {"a": 1.0}),
            ("i",),
            {("i", "c"): 2.0},
            pinned=pin_full_catalog(("i",), ["a"]),
        )
        routing = Routing({("i", "c"): [PathFlow(path=("a", "b"), amount=1.0)]})
        fault = NodeFailure("c")
        timeline = manual_timeline(
            [FailureEvent(1.0, fault), RepairEvent(2.0, fault)], horizon=3.0
        )
        observer = ReferenceObserver()
        replay_timeline(
            problem,
            Placement(),
            timeline,
            RecoveryPolicy(detection_delay=0.5),
            healthy_routing=routing,
            observer=observer,
        )
        assert observer.served[0] == 0.0  # c failed; no re-route yet
        assert not observer.mismatches, observer.mismatches


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


def paper_instance(topology: str, seed: int):
    """A paper topology scenario (chunk level) and Algorithm 1's placement."""
    scenario = build_scenario(ScenarioConfig(seed=seed, topology=topology))
    return scenario, algorithm1(scenario.problem).solution.placement


class InstalledCostObserver:
    """Pairs each action's record cost with the cost rate installed with it."""

    def __init__(self) -> None:
        self.pairs: list[tuple[float, float]] = []

    def __call__(self, phase, _t, ctl, detail) -> None:
        if phase == "action":
            installed = delivered_rates(ctl.tables, ctl.degradation)[1]
            self.pairs.append((detail.record.cost, installed))


class TestOneCostRule:
    """The healthy cost, every record and the integrated cost rate price a
    routing from the one table the controller installs."""

    @pytest.mark.parametrize(
        "topology,seed",
        [("abovenet", s) for s in range(5)]
        + [("abvt", s) for s in range(4)]
        + [("tinet", s) for s in range(2)],
    )
    def test_failure_free_inflation_is_exactly_one(self, topology, seed):
        scenario, placement = paper_instance(topology, seed)
        report = replay_timeline(
            scenario.problem, placement, manual_timeline([], horizon=10.0)
        )
        assert report.cost_inflation_integral == 1.0

    def test_record_cost_is_the_installed_rate(self):
        # Node failures wipe caches and repair refills them, so installed
        # routings read repaired copies and partially served types.
        scenario, placement = paper_instance("abovenet", 1)
        problem = scenario.problem
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=25.0, node_mtbf=20.0, exclude_nodes=(scenario.origin,)
            ),
            seed=1,
        )
        observer = InstalledCostObserver()
        report = replay_timeline(
            problem,
            placement,
            timeline,
            RecoveryPolicy(
                detection_delay=0.5, flap_backoff=0.25, max_retries=2, repair=True
            ),
            observer=observer,
        )
        assert report.reoptimizations >= 10
        assert len(observer.pairs) == report.reoptimizations
        assert all(record == installed for record, installed in observer.pairs)

    def test_cluster_local_record_cost_is_the_installed_rate(self):
        problem = hierarchy_problem(300, n_items=5, n_caches=20, n_requesters=30)
        placement = random_placement(np.random.default_rng(3), problem)
        timeline = generate_timeline(
            problem,
            TimelineConfig(horizon=10.0, link_mtbf=300.0, link_mttr=2.0),
            seed=5,
        )
        observer = InstalledCostObserver()
        report = replay_timeline(
            problem,
            placement,
            timeline,
            RecoveryPolicy(detection_delay=0.2),
            observer=observer,
            partition=partition_graph(problem.network, seed=0),
        )
        assert report.reoptimizations >= 5
        assert all(record == installed for record, installed in observer.pairs)
