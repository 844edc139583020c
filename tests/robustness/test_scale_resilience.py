"""Tier-aware resilience: primed and lazy contexts agree through the stack.

The guarantee of the scale-resilience work is that every layer of the
robustness subsystem — degraded-context derivation, recovery, timeline
replay, cluster-local re-optimization — produces *bit-identical* results
whether the threaded :class:`~repro.core.context.SolverContext` has every
distance row primed up front (``backend="dense"``) or computes rows on
first read (``backend="lazy"``).
These tests sweep the embedded mid-size topologies (the largest graphs
where both tiers are cheap enough to build side by side) and finish with a
reduced-scale chaos smoke on a generated hierarchy.
"""

import numpy as np
import pytest

from repro.core import (
    ProblemInstance,
    check_feasibility,
    partition_graph,
    pin_full_catalog,
    touched_clusters,
)
from repro.core.context import SolverContext
from repro.graph import CacheNetwork, abovenet, abvt, deltacom, tinet
from repro.robustness import (
    FailureScenario,
    InvariantChecker,
    LinkFailure,
    ChaosConfig,
    RecoveryPolicy,
    TimelineConfig,
    apply_failure,
    canonical_links,
    cluster_local_recover,
    degraded_context,
    generate_timeline,
    hierarchy_problem,
    recover,
    replay_timeline,
    run_chaos,
    timeline_from_scenario,
)
from repro.robustness.chaos import random_placement

TOPOLOGIES = [abovenet, abvt, tinet, deltacom]


def midsize_problem(factory, seed: int = 0) -> ProblemInstance:
    net = factory()
    nodes = list(net.nodes)
    rng = np.random.default_rng(seed)
    items = [f"it{k}" for k in range(4)]
    demand = {}
    for it in items:
        for s in rng.choice(len(nodes), size=min(6, len(nodes)), replace=False):
            demand[(it, nodes[int(s)])] = round(float(rng.uniform(0.5, 2.0)), 3)
    return ProblemInstance(
        network=CacheNetwork(net.graph, {v: 2.0 for v in nodes}),
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [nodes[0]]),
    )


def sample_link_scenario(problem, seed: int = 0) -> FailureScenario:
    links = canonical_links(problem)
    rng = np.random.default_rng(seed)
    u, v = links[int(rng.integers(len(links)))]
    return FailureScenario(f"link:{u}-{v}", (LinkFailure(u, v),))


def assert_lazy_rows_match_dense(lazy_ctx, dense_ctx) -> None:
    assert lazy_ctx.backend.nodes == dense_ctx.backend.nodes
    n = len(dense_ctx.backend.nodes)
    idx = np.arange(n, dtype=np.intp)
    assert np.array_equal(lazy_ctx.backend.rows(idx), dense_ctx.backend.rows(idx))


class TestDegradedContextTiers:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_lazy_derived_matches_dense_and_fresh(self, factory):
        problem = midsize_problem(factory)
        dense_parent = SolverContext.from_problem(problem, backend="dense")
        lazy_parent = SolverContext.from_problem(problem, backend="lazy")
        assert dense_parent.backend.materialized == len(dense_parent.nodes)
        assert lazy_parent.backend.materialized == 0
        for seed in range(3):
            scenario = sample_link_scenario(problem, seed=seed)
            degraded = apply_failure(problem, scenario)
            dense_child = degraded_context(dense_parent, degraded)
            lazy_child = degraded_context(lazy_parent, degraded)
            # lazy-derived == dense-derived == fresh primed build, bit for bit
            assert_lazy_rows_match_dense(lazy_child, dense_child)
            fresh = SolverContext.from_problem(degraded.problem, backend="dense")
            assert fresh.backend.materialized == len(fresh.nodes)
            assert_lazy_rows_match_dense(lazy_child, fresh)

    def test_capacity_only_failure_shares_backend(self):
        problem = midsize_problem(tinet)
        parent = SolverContext.from_problem(problem, backend="lazy")
        from repro.robustness import CapacityDegradation

        scenario = FailureScenario("cap", (CapacityDegradation(factor=0.5),))
        degraded = apply_failure(problem, scenario)
        child = degraded_context(parent, degraded)
        assert child.backend is parent.backend


class TestRecoverParity:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_recover_identical_across_tiers(self, factory):
        problem = midsize_problem(factory)
        rng = np.random.default_rng(1)
        placement = random_placement(rng, problem)
        scenario = sample_link_scenario(problem, seed=2)
        degraded = apply_failure(problem, scenario)
        results = {}
        for tier in ("dense", "lazy"):
            parent = SolverContext.from_problem(problem, backend=tier)
            ctx = degraded_context(parent, degraded)
            results[tier] = recover(
                degraded, placement.copy(), repair=False, context=ctx
            )
        dense, lazy = results["dense"], results["lazy"]
        # Placement compares by identity; compare the sparse maps directly
        assert dict(dense.placement.items()) == dict(lazy.placement.items())
        assert dense.dropped == lazy.dropped
        assert dense.repaired == lazy.repaired
        assert dense.stranded == lazy.stranded
        assert dense.routing == lazy.routing
        assert dense.unserved_fraction == lazy.unserved_fraction


class TestTimelineReplayParity:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_single_permanent_failure_replay(self, factory):
        problem = midsize_problem(factory)
        rng = np.random.default_rng(3)
        placement = random_placement(rng, problem)
        scenario = sample_link_scenario(problem, seed=4)
        timeline = timeline_from_scenario(scenario, horizon=2.0)
        policy = RecoveryPolicy(detection_delay=0.1)
        reports = {}
        for tier in ("dense", "lazy"):
            ctx = SolverContext.from_problem(problem, backend=tier)
            reports[tier] = replay_timeline(
                problem, placement.copy(), timeline, policy, context=ctx
            )
        # TimelineReport equality excludes wall-clock; everything else
        # (availability curve, reopt count, final state) must agree exactly
        assert reports["dense"] == reports["lazy"]

    @pytest.mark.parametrize("factory", [abovenet, tinet])
    def test_generated_timeline_replay_parity(self, factory):
        problem = midsize_problem(factory, seed=5)
        rng = np.random.default_rng(6)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem,
            TimelineConfig(horizon=20.0, link_mtbf=40.0, link_mttr=2.0),
            seed=7,
        )
        policy = RecoveryPolicy(detection_delay=0.2)
        reports = {}
        for tier in ("dense", "lazy"):
            ctx = SolverContext.from_problem(problem, backend=tier)
            reports[tier] = replay_timeline(
                problem, placement.copy(), timeline, policy, context=ctx
            )
        assert reports["dense"] == reports["lazy"]


class TestClusterLocalRecovery:
    @pytest.mark.parametrize("factory", [tinet, deltacom])
    def test_local_matches_global_unserved(self, factory):
        problem = midsize_problem(factory, seed=8)
        rng = np.random.default_rng(9)
        placement = random_placement(rng, problem)
        partition = partition_graph(problem.network, seed=0)
        scenario = sample_link_scenario(problem, seed=10)
        degraded = apply_failure(problem, scenario)
        parent = SolverContext.from_problem(problem, backend="lazy")
        ctx = degraded_context(parent, degraded)
        touched = touched_clusters(
            partition,
            failed_nodes=degraded.failed_nodes,
            failed_links=degraded.failed_links,
        )
        assert 0 < len(touched) <= partition.n_clusters
        local = cluster_local_recover(degraded, placement, partition, context=ctx)
        # only touched clusters may change placement
        for (v, _item) in set(local.placement) ^ set(
            recover(degraded, placement, repair=False, context=ctx).placement
        ):
            assert partition.labels[v] in touched, v
        # the local re-solve must stay feasible and serve the same demand
        feas = check_feasibility(degraded.problem, local.solution)
        assert feas.feasible, feas
        global_result = recover(degraded, placement, repair=False, context=ctx)
        assert local.unserved_fraction == pytest.approx(
            global_result.unserved_fraction, abs=1e-9
        )

    def test_replay_with_partition_under_strict_invariants(self):
        problem = midsize_problem(tinet, seed=11)
        rng = np.random.default_rng(12)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem,
            TimelineConfig(horizon=20.0, link_mtbf=30.0, link_mttr=2.0),
            seed=13,
        )
        policy = RecoveryPolicy(detection_delay=0.2, min_dwell=2.0, repair=False)
        ctx = SolverContext.from_problem(problem, backend="lazy")
        partition = partition_graph(problem.network, seed=0)
        checker = InvariantChecker(strict=True)
        report = replay_timeline(
            problem,
            placement,
            timeline,
            policy,
            context=ctx,
            observer=checker,
            partition=partition,
        )
        assert report.events == len(timeline)
        assert checker.violations == []


class TestScaleChaosSmoke:
    def test_reduced_hierarchy_campaign(self):
        report = run_chaos(
            ChaosConfig(
                campaigns=1,
                seed=0,
                n_total=200,
                n_items=6,
                horizon=15.0,
                min_events=8,
            ),
            raise_on_violation=True,
        )
        assert report.ok
        assert all(r.static_parity_ok and not r.primed for r in report.results)
        summary = dict(report.summary())
        assert summary["total_violations"] == 0
        assert summary["total_events"] >= 8

    def test_hierarchy_problem_shape(self):
        problem = hierarchy_problem(300, n_items=5, n_caches=20, n_requesters=30)
        assert problem.network.num_nodes == 300
        assert len(problem.catalog) == 5
        holders = {v for (v, _item) in problem.pinned}
        assert len(holders) == 1
        # the origin pins the full catalog
        assert len(problem.pinned) == 5
