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
