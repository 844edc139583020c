"""Hardened Monte Carlo runner: numerical failures and checkpoints."""

import json

import numpy as np
import pytest

from repro.core import Placement, Solution, route_to_nearest_replica
from repro.experiments import (
    MonteCarloConfig,
    ScenarioConfig,
    evaluate_algorithm,
    load_checkpoint,
    run_monte_carlo,
)
from repro.experiments.algorithms import greedy, sp
from repro.experiments.scenarios import build_scenario

SMALL = ScenarioConfig(seed=0, link_capacity_fraction=None)


def origin_only(scenario):
    problem = scenario.problem
    return Solution(Placement(), route_to_nearest_replica(problem, Placement()))


def raises_linalg(scenario):
    raise np.linalg.LinAlgError("singular projection matrix")


def raises_value(scenario):
    raise ValueError("scipy rejected the input")


def raises_zero_division(scenario):
    return 1 / 0


CALLS: list[int] = []


def recording(scenario):
    CALLS.append(scenario.config.seed)
    return origin_only(scenario)


def _strip_seconds(record):
    return (
        record.algorithm,
        record.seed,
        record.cost,
        record.congestion,
        record.occupancy,
        record.failed,
        record.extra,
    )


class TestNumericalFailures:
    @pytest.mark.parametrize(
        "algorithm, error_type",
        [
            (raises_linalg, "LinAlgError"),
            (raises_value, "ValueError"),
            (raises_zero_division, "ZeroDivisionError"),
        ],
    )
    def test_recorded_as_failed_with_traceback(self, algorithm, error_type):
        scenario = build_scenario(SMALL)
        record = evaluate_algorithm("numerics", algorithm, scenario)
        assert record.failed
        assert record.cost == float("inf")
        assert record.extra["error_type"] == error_type
        assert error_type in record.extra["traceback"]
        assert algorithm.__name__ in record.extra["traceback"]

    def test_campaign_survives_numerical_failures(self):
        records = run_monte_carlo(
            SMALL,
            {"bad": raises_linalg, "origin": origin_only},
            MonteCarloConfig(n_runs=2),
        )
        assert [r.failed for r in records] == [True, False, True, False]


class TestCheckpoint:
    MC = MonteCarloConfig(n_runs=4, base_seed=3)
    ALGORITHMS = {"greedy": greedy, "sp": sp}

    def test_resume_reproduces_uninterrupted_campaign(self, tmp_path, caplog):
        uninterrupted = run_monte_carlo(SMALL, self.ALGORITHMS, self.MC)
        path = tmp_path / "campaign.jsonl"
        run_monte_carlo(SMALL, self.ALGORITHMS, self.MC, checkpoint=path)
        # Simulate a kill -9 after two runs: drop the last two completed
        # lines and leave a half-written third.
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        path.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            resumed = run_monte_carlo(
                SMALL, self.ALGORITHMS, self.MC, checkpoint=path
            )
        assert any("corrupt checkpoint line" in m for m in caplog.messages)
        # Bit-for-bit identical to the uninterrupted campaign, except the
        # measured wall-clock seconds (per the runner's documented guarantee).
        expected = [_strip_seconds(r) for r in uninterrupted]
        assert [_strip_seconds(r) for r in resumed] == expected
        # The re-executed run starts on a line of its own, not on the
        # half-written fragment, so the checkpoint is now complete.
        assert sorted(load_checkpoint(path)) == [0, 1, 2, 3]
        # A further resume re-runs nothing and returns the same records.
        CALLS.clear()
        again = run_monte_carlo(
            SMALL, {"greedy": recording, "sp": recording}, self.MC, checkpoint=path
        )
        assert CALLS == []
        assert [_strip_seconds(r) for r in again] == expected

    def test_completed_runs_are_not_reexecuted(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        mc = MonteCarloConfig(n_runs=3, base_seed=20)
        run_monte_carlo(SMALL, {"rec": recording}, mc, checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1]) + "\n")  # only run 0 survived
        CALLS.clear()
        run_monte_carlo(SMALL, {"rec": recording}, mc, checkpoint=path)
        assert CALLS == [21, 22]  # seeds of runs 1 and 2 only

    def test_seed_mismatch_invalidates_checkpoint_entry(self, tmp_path, caplog):
        path = tmp_path / "campaign.jsonl"
        mc = MonteCarloConfig(n_runs=2, base_seed=0)
        run_monte_carlo(SMALL, {"rec": recording}, mc, checkpoint=path)
        CALLS.clear()
        other = MonteCarloConfig(n_runs=2, base_seed=100)
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            records = run_monte_carlo(SMALL, {"rec": recording}, other, checkpoint=path)
        assert any("does not match" in m for m in caplog.messages)
        assert CALLS == [100, 101]  # both runs re-executed
        assert [r.seed for r in records] == [100, 101]

    @pytest.mark.parametrize(
        "first, resumed",
        [
            (["greedy"], ["greedy", "sp"]),
            (["greedy", "sp"], ["greedy"]),
            (["greedy", "sp"], ["sp", "greedy"]),
        ],
    )
    def test_algorithm_mismatch_invalidates_checkpoint_entry(
        self, tmp_path, caplog, first, resumed
    ):
        path = tmp_path / "campaign.jsonl"
        mc = MonteCarloConfig(n_runs=2, base_seed=0)
        run_monte_carlo(SMALL, dict.fromkeys(first, recording), mc, checkpoint=path)
        CALLS.clear()
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            records = run_monte_carlo(
                SMALL, dict.fromkeys(resumed, recording), mc, checkpoint=path
            )
        assert any("does not match" in m for m in caplog.messages)
        # Both runs re-executed, every algorithm of the resumed set scored.
        assert CALLS == [seed for seed in (0, 1) for _ in resumed]
        assert [(r.algorithm, r.seed) for r in records] == [
            (name, seed) for seed in (0, 1) for name in resumed
        ]

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"records": [], "seed": 21}',
            '{"records": [], "run": "x", "seed": 21}',
            '{"records": [], "run": null, "seed": 21}',
            '{"records": [], "run": 1.0, "seed": 21}',
        ],
    )
    def test_line_without_integer_run_is_corrupt(self, tmp_path, caplog, bad_line):
        path = tmp_path / "campaign.jsonl"
        mc = MonteCarloConfig(n_runs=3, base_seed=20)
        run_monte_carlo(SMALL, {"rec": recording}, mc, checkpoint=path)
        lines = path.read_text().splitlines()
        # Run 1's line loses its integer index; runs 0 and 2 stay intact.
        path.write_text("\n".join([lines[0], bad_line, lines[2]]) + "\n")
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            assert sorted(load_checkpoint(path)) == [0, 2]
        assert any("corrupt checkpoint line 2" in m for m in caplog.messages)
        CALLS.clear()
        records = run_monte_carlo(SMALL, {"rec": recording}, mc, checkpoint=path)
        assert CALLS == [21]  # only the affected run re-executes
        assert [r.seed for r in records] == [20, 21, 22]

    def test_load_checkpoint_missing_file(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.jsonl") == {}

    def test_checkpoint_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_monte_carlo(
            SMALL, {"origin": origin_only}, MonteCarloConfig(n_runs=1), checkpoint=path
        )
        [line] = path.read_text().splitlines()
        payload = json.loads(line)
        assert list(payload) == sorted(payload)
        assert payload["run"] == 0
        assert payload["records"][0]["algorithm"] == "origin"
