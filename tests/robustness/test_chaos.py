"""Chaos harness: the acceptance budgets plus checker self-tests."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import InvalidProblemError
from repro.robustness import (
    ChaosConfig,
    InvariantChecker,
    RepairEvent,
    LinkFailure,
    run_chaos,
)
from repro.robustness.chaos import random_placement, random_problem


class TestAcceptanceBudget:
    def test_default_budget_is_clean(self):
        # Acceptance budget: >= 200 seeded events across >= 5 campaigns with
        # zero invariant violations (static parity included).
        report = run_chaos(ChaosConfig())
        assert len(report.results) >= 5
        assert report.total_events >= 200
        assert report.total_violations == 0
        assert report.ok
        assert all(r.static_parity_ok for r in report.results)
        summary = report.summary()
        assert summary["total_events"] == report.total_events
        assert 0.0 <= summary["mean_availability"] <= 1.0
        assert "0 violations" in report.format()

    def test_same_seed_reproduces_exactly(self):
        config = ChaosConfig(campaigns=2, min_nodes=6, max_nodes=8, horizon=30.0,
                             min_events=20)
        a = run_chaos(config)
        b = run_chaos(config)
        assert a.results == b.results
        assert a.total_events > 0


class TestRandomInstances:
    def test_random_problem_deterministic_and_connected(self):
        a = random_problem(np.random.default_rng(7))
        b = random_problem(np.random.default_rng(7))
        assert sorted(a.network.graph.edges(data=True)) == sorted(
            b.network.graph.edges(data=True)
        )
        assert a.demand == b.demand
        assert nx.is_strongly_connected(a.network.graph)
        # The origin pins the full catalog.
        assert {(v, i) for (v, i) in a.pinned} == {("n0", i) for i in a.catalog}

    def test_random_placement_respects_capacity(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng)
        placement = random_placement(rng, problem)
        for v in problem.network.cache_nodes():
            used = sum(
                problem.size_of(i) for (node, i) in placement if node == v
            )
            assert used <= problem.network.cache_capacity(v) + 1e-9


class _StubController:
    """Just enough surface for the event-phase invariant checks."""

    def __init__(self, problem, served):
        self.problem = problem
        self._served = served

    def served_rate(self):
        return self._served


class TestCheckerDetectsViolations:
    @pytest.fixture
    def problem(self):
        return random_problem(np.random.default_rng(0))

    def test_monotone_repair_violation_is_caught(self, problem):
        checker = InvariantChecker()
        repair = RepairEvent(5.0, LinkFailure("n0", "n1"))
        checker("event", 4.0, _StubController(problem, served=2.0), None)
        checker("event", 5.0, _StubController(problem, served=1.0), repair)
        assert len(checker.violations) == 1
        assert "monotone" in checker.violations[0]

    def test_conservation_violation_is_caught(self, problem):
        checker = InvariantChecker()
        over = problem.total_demand * 2.0
        checker("event", 1.0, _StubController(problem, served=over), None)
        assert len(checker.violations) == 1
        assert "conservation" in checker.violations[0]

    def test_strict_mode_raises_immediately(self, problem):
        checker = InvariantChecker(strict=True)
        over = problem.total_demand * 2.0
        with pytest.raises(AssertionError, match="conservation"):
            checker("event", 1.0, _StubController(problem, served=over), None)

    def test_clean_observation_records_nothing(self, problem):
        checker = InvariantChecker()
        checker("event", 1.0, _StubController(problem, served=0.0), None)
        checker("end", 2.0, _StubController(problem, served=0.0), None)
        assert checker.violations == []


class TestStreamingAcceptanceBudget:
    def test_default_budget_is_clean(self):
        # Streamed campaigns fuzz timeline x workload regime x reactive
        # riders with zero violations, static parity included.
        config = ChaosConfig(
            campaigns=4, max_nodes=10, horizon=30.0, min_events=20,
            requests=8_000,
        )
        report = run_chaos(config, raise_on_violation=True)
        assert report.ok
        assert report.total_violations == 0
        assert len(report.results) >= 4
        assert all(r.static_parity_ok for r in report.results)
        summary = report.summary()
        assert summary["total_events"] >= 4 * 20
        assert summary["total_generated"] > 0
        assert summary["total_served"] <= summary["total_generated"]
        assert summary["total_segments"] >= len(report.results)
        regimes = {r.regime for r in report.results}
        assert None not in regimes  # every campaign labels its regime
        assert "0 violations" in report.format()

    def test_same_seed_reproduces_exactly(self):
        config = ChaosConfig(
            campaigns=2, requests=4_000, min_nodes=6, max_nodes=7, seed=5,
            horizon=30.0, min_events=20,
        )
        a = run_chaos(config)
        b = run_chaos(config)
        assert a.ok and b.ok
        assert a.results == b.results

    def test_streamed_scale_campaigns_rejected(self):
        with pytest.raises(InvalidProblemError, match="not both"):
            run_chaos(ChaosConfig(n_total=200, requests=1_000))


class TestStreamingInvariantChecker:
    """check_streaming_invariants flags doctored reports."""

    @pytest.fixture
    def clean_report(self):
        from repro.robustness import (
            TimelineConfig,
            generate_timeline,
            replay_timeline_streaming,
        )
        from repro.serving import ServingConfig

        rng = np.random.default_rng(1)
        problem = random_problem(rng, n_nodes=7, n_items=3)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem,
            TimelineConfig(horizon=20.0, link_mtbf=10.0, link_mttr=3.0),
            seed=2,
        )
        rate_scale = 5_000 / (problem.total_demand * timeline.horizon)
        return replay_timeline_streaming(
            problem, placement, timeline,
            config=ServingConfig(horizon=timeline.horizon),
            rate_scale=rate_scale,
        )

    def test_clean_report_passes(self, clean_report):
        from repro.robustness import check_streaming_invariants

        assert check_streaming_invariants(clean_report) == []

    def test_overserving_type_is_caught(self, clean_report):
        from repro.robustness import check_streaming_invariants

        acc = clean_report.segments[0].accumulator
        acc.served = acc.generated + 1
        assert any(
            "served more" in v or "conservation" in v
            for v in check_streaming_invariants(clean_report)
        )

    def test_global_overserving_is_caught(self, clean_report):
        from repro.robustness import check_streaming_invariants

        clean_report.per_type_served = clean_report.per_type_generated + 1
        assert any(
            "served more" in v for v in check_streaming_invariants(clean_report)
        )

    def test_six_sigma_outlier_is_caught(self, clean_report):
        from repro.robustness import check_streaming_invariants

        clean_report.delivered_cost += 100.0 * (
            1.0 + np.sqrt(clean_report.cost_variance)
        )
        assert any(
            "6 sigma" in v for v in check_streaming_invariants(clean_report)
        )
