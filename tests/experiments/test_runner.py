"""Tests for the Monte Carlo runner and reporting."""

import pytest

from repro.core import Placement, Solution, route_to_nearest_replica
from repro.exceptions import InfeasibleError
from repro.experiments import (
    MonteCarloConfig,
    ScenarioConfig,
    aggregate,
    evaluate_algorithm,
    format_aggregates,
    format_sweep,
    monte_carlo_seeds,
    run_monte_carlo,
    write_records_csv,
    write_sweep_csv,
)
from repro.experiments.algorithms import greedy, sp
from repro.experiments.runner import RunRecord
from repro.experiments.scenarios import build_scenario


def origin_only(scenario):
    problem = scenario.problem
    return Solution(Placement(), route_to_nearest_replica(problem, Placement()))


def failing(scenario):
    raise InfeasibleError("nope")


SMALL = ScenarioConfig(seed=0, link_capacity_fraction=None)


class TestEvaluateAlgorithm:
    def test_measures_cost_and_time(self):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm("origin", origin_only, scenario)
        assert record.cost > 0
        assert record.seconds >= 0
        assert not record.failed
        assert record.congestion == 0.0  # uncapacitated

    def test_failure_is_recorded(self):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm("bad", failing, scenario)
        assert record.failed
        assert record.cost == float("inf")
        assert "nope" in record.extra["error"]

    def test_scores_against_true_demand(self):
        scenario = build_scenario(
            SMALL,
            predicted_rates={k: v * 2 for k, v in build_scenario(SMALL).video_rates.items()},
        )
        record = evaluate_algorithm("origin", origin_only, scenario)
        baseline = evaluate_algorithm(
            "origin", origin_only, build_scenario(SMALL)
        )
        # Same routing structure, same true demand -> same measured cost.
        assert record.cost == pytest.approx(baseline.cost)


class TestServingReplay:
    HORIZON = 1e-3  # hours; paper-scale rates make this a few thousand requests

    def serving_config(self):
        from repro.serving import ServingConfig

        return ServingConfig(horizon=self.HORIZON, seed=0)

    def test_replay_summary_attached(self):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm(
            "origin", origin_only, scenario, self.serving_config()
        )
        serving = record.extra["serving"]
        assert serving["generated"] > 0
        assert serving["served_fraction"] == pytest.approx(1.0)
        assert serving["delivered_cost"] / self.HORIZON == pytest.approx(
            record.cost, rel=0.2
        )
        assert serving["requests_per_sec"] > 0

    def test_no_summary_without_config(self):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm("origin", origin_only, scenario)
        assert "serving" not in record.extra

    def test_algorithm_failure_skips_replay(self):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm(
            "bad", failing, scenario, self.serving_config()
        )
        assert record.failed
        assert "serving" not in record.extra

    def test_replay_failure_marks_summary_not_run(self):
        from repro.serving import ServingConfig

        scenario = build_scenario(SMALL)
        record = evaluate_algorithm(
            "origin",
            origin_only,
            scenario,
            ServingConfig(horizon=1e6, max_requests=1_000),
        )
        assert not record.failed
        assert record.cost > 0
        assert "error" in record.extra["serving"]

    def test_monte_carlo_threads_the_config(self):
        records = run_monte_carlo(
            SMALL,
            {"origin": origin_only},
            MonteCarloConfig(n_runs=2),
            serving_replay=self.serving_config(),
        )
        assert len(records) == 2
        for record in records:
            assert record.extra["serving"]["generated"] > 0


class TestRunMonteCarlo:
    def test_runs_all_seeds_and_algorithms(self):
        records = run_monte_carlo(
            SMALL,
            {"origin": origin_only, "bad": failing},
            MonteCarloConfig(n_runs=3, base_seed=10),
        )
        assert len(records) == 6
        assert {r.seed for r in records} == {10, 11, 12}

    def test_aggregate_excludes_failures(self):
        records = run_monte_carlo(
            SMALL,
            {"origin": origin_only, "bad": failing},
            MonteCarloConfig(n_runs=2),
        )
        aggs = {a.algorithm: a for a in aggregate(records)}
        assert aggs["origin"].failures == 0
        assert aggs["origin"].mean_cost < float("inf")
        assert aggs["bad"].failures == 2
        assert aggs["bad"].mean_cost == float("inf")

    def test_aggregate_std(self):
        records = [
            RunRecord("x", 0, 10.0, 0, 0, 0.1),
            RunRecord("x", 1, 14.0, 0, 0, 0.1),
        ]
        agg = aggregate(records)[0]
        assert agg.mean_cost == pytest.approx(12.0)
        assert agg.std_cost == pytest.approx(2.0)


class TestSeeds:
    def test_legacy_seeds_are_offsets(self):
        mc = MonteCarloConfig(n_runs=4, base_seed=7)
        assert monte_carlo_seeds(mc) == [7, 8, 9, 10]

    def test_spawn_seeds_deterministic_and_distinct(self):
        mc = MonteCarloConfig(n_runs=5, base_seed=3, spawn_seeds=True)
        first = monte_carlo_seeds(mc)
        assert first == monte_carlo_seeds(mc)
        assert len(set(first)) == 5
        assert first != [3, 4, 5, 6, 7]

    def test_spawn_seeds_depend_on_base_seed(self):
        a = monte_carlo_seeds(MonteCarloConfig(n_runs=3, base_seed=0, spawn_seeds=True))
        b = monte_carlo_seeds(MonteCarloConfig(n_runs=3, base_seed=1, spawn_seeds=True))
        assert a != b

    def test_runner_uses_spawned_seeds(self):
        mc = MonteCarloConfig(n_runs=2, base_seed=5, spawn_seeds=True)
        records = run_monte_carlo(SMALL, {"origin": origin_only}, mc)
        assert [r.seed for r in records] == monte_carlo_seeds(mc)


class TestParallelRunner:
    MC = MonteCarloConfig(n_runs=3, base_seed=1)

    def test_parallel_matches_serial_bit_for_bit(self):
        algorithms = {"greedy": greedy, "sp": sp}
        serial = run_monte_carlo(SMALL, algorithms, self.MC)
        parallel = run_monte_carlo(
            SMALL, algorithms, self.MC, parallel=True, max_workers=2
        )
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            # Identical in everything except wall-clock timing.
            assert (a.algorithm, a.seed) == (b.algorithm, b.seed)
            assert a.cost == b.cost
            assert a.congestion == b.congestion
            assert a.occupancy == b.occupancy
            assert a.failed == b.failed
            assert a.extra == b.extra

    def test_parallel_single_run_stays_serial(self):
        records = run_monte_carlo(
            SMALL,
            {"origin": origin_only},
            MonteCarloConfig(n_runs=1),
            parallel=True,
        )
        assert len(records) == 1

    def test_unpicklable_algorithm_falls_back_to_serial(self, caplog):
        local = lambda scenario: origin_only(scenario)  # noqa: E731
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            records = run_monte_carlo(
                SMALL,
                {"origin": local},
                MonteCarloConfig(n_runs=2),
                parallel=True,
            )
        assert len(records) == 2
        assert not any(r.failed for r in records)
        assert any("falling back to serial" in m for m in caplog.messages)

    def test_parallel_records_failures_like_serial(self):
        serial = run_monte_carlo(SMALL, {"origin": origin_only, "bad": failing}, self.MC)
        parallel = run_monte_carlo(
            SMALL,
            {"origin": origin_only, "bad": failing},
            self.MC,
            parallel=True,
            max_workers=2,
        )
        assert [(r.algorithm, r.seed, r.failed) for r in serial] == [
            (r.algorithm, r.seed, r.failed) for r in parallel
        ]


class TestReporting:
    def test_format_aggregates_contains_rows(self):
        records = [RunRecord("algo-a", 0, 123456.0, 1.5, 0.9, 0.01)]
        text = format_aggregates(aggregate(records), title="T")
        assert "algo-a" in text
        assert "T" in text
        assert "123,456" in text

    def test_format_aggregates_inf(self):
        records = [RunRecord("bad", 0, float("inf"), float("inf"), 0, 0.0, failed=True)]
        text = format_aggregates(aggregate(records))
        assert "inf" in text

    def test_format_sweep_alignment(self):
        text = format_sweep(
            [
                {"k": 1, "cost": 5.0},
                {"k": 2, "cost": 7.0},
                {"k": "deltacom / greedy@t=2.42705", "cost": 1.25},
            ],
            ["k", "cost"],
            title="sweep",
        )
        lines = text.splitlines()
        assert lines[0] == "sweep"
        assert len(lines) == 7
        header, *body = lines[2:]
        assert all(len(line) == len(header) for line in body)
        # A cell wider than the default width keeps a gap to its neighbour.
        assert "  deltacom / greedy@t=2.42705" in lines[-1]

    def test_write_records_csv(self, tmp_path):
        records = [RunRecord("a", 0, 1.0, 0.5, 0.9, 0.01)]
        path = tmp_path / "out" / "records.csv"
        write_records_csv(records, path)
        content = path.read_text().splitlines()
        assert content[0].startswith("algorithm,seed,cost")
        assert content[1].startswith("a,0,1.0")

    def test_write_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([{"k": 1, "cost": 2.0, "junk": 3}], ["k", "cost"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,cost"
        assert lines[1] == "1,2.0"
