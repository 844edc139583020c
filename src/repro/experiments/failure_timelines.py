"""Timeline campaigns: score placements under failure *dynamics* at scale.

The Monte Carlo runner scores algorithms on healthy instances; the
robustness layer replays one placement through one failure timeline.  This
module composes the two: :class:`TimelineAlgorithm` wraps any registered
algorithm so that each Monte Carlo run additionally replays the computed
placement through a seeded :class:`~repro.robustness.timeline.FailureTimeline`
over the run's own topology, and ships the resulting
:class:`~repro.robustness.controller.TimelineReport` summary through the
runner's ``RunRecord.extra`` side-channel (the wrapper attaches it to the
solution as ``extra_metrics``, which :func:`~repro.experiments.runner.
evaluate_algorithm` picks up).

Everything stays picklable — the wrapper is a frozen dataclass over
module-level callables — so timeline campaigns parallelize across processes
exactly like plain campaigns, and the timeline seed is derived from the
run's scenario seed, keeping serial and parallel execution bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.solution import Solution
from repro.experiments.config import MonteCarloConfig, ScenarioConfig
from repro.experiments.runner import Algorithm, RunRecord, run_monte_carlo
from repro.robustness.controller import RecoveryPolicy, replay_timeline
from repro.robustness.timeline import TimelineConfig, generate_timeline

if TYPE_CHECKING:
    from collections.abc import Iterable, Mapping

    from repro.experiments.scenarios import EdgeCachingScenario


@dataclass(frozen=True)
class TimelineAlgorithm:
    """An algorithm that is additionally scored under failure dynamics.

    Calls the wrapped ``algorithm`` on the scenario, then replays its
    placement through a timeline generated over the scenario's (true)
    problem with seed ``scenario.config.seed + timeline_seed_offset``.  The
    healthy solution is returned unchanged — cost/congestion/occupancy keep
    their usual healthy-instance meaning — with the replay summary attached
    as ``solution.extra_metrics["timeline"]``.
    """

    algorithm: Algorithm
    timeline_config: TimelineConfig = TimelineConfig()
    policy: RecoveryPolicy = RecoveryPolicy()
    #: Added to the scenario seed so timeline randomness is decoupled from
    #: the workload randomness of the run itself.
    timeline_seed_offset: int = 0
    #: Spare the origin from node failures (it pins the whole catalog, so
    #: killing it measures origin loss rather than placement quality).
    exclude_origin: bool = True

    def __call__(self, scenario: "EdgeCachingScenario") -> Solution:
        solution = self.algorithm(scenario)
        problem = scenario.problem
        tcfg = self.timeline_config
        if self.exclude_origin and scenario.origin not in tcfg.exclude_nodes:
            tcfg = replace(
                tcfg, exclude_nodes=(*tcfg.exclude_nodes, scenario.origin)
            )
        timeline = generate_timeline(
            problem,
            tcfg,
            seed=scenario.config.seed + self.timeline_seed_offset,
            name=f"{scenario.config.topology}:seed={scenario.config.seed}",
        )
        report = replay_timeline(
            problem,
            solution.placement,
            timeline,
            self.policy,
            healthy_routing=solution.routing,
        )
        solution.extra_metrics = {"timeline": report.to_json_dict()}
        return solution


def run_timeline_campaign(
    config: ScenarioConfig,
    algorithms: "Mapping[str, Algorithm]",
    monte_carlo: MonteCarloConfig,
    *,
    timeline_config: TimelineConfig = TimelineConfig(),
    policy: RecoveryPolicy | None = None,
    timeline_seed_offset: int = 0,
    **runner_kwargs,
) -> list[RunRecord]:
    """Monte Carlo campaign where every run also replays a failure timeline.

    A thin wrapper over :func:`~repro.experiments.runner.run_monte_carlo`
    (all its keyword arguments — ``parallel``, ``checkpoint``,
    ``run_timeout``, ... — pass through) with each algorithm wrapped in
    :class:`TimelineAlgorithm`.  Each record's ``extra["timeline"]`` holds
    the replay summary; feed the records to :func:`timeline_rows` for a
    ``format_sweep``-ready table.
    """
    wrapped = {
        name: TimelineAlgorithm(
            algorithm,
            timeline_config=timeline_config,
            policy=policy or RecoveryPolicy(),
            timeline_seed_offset=timeline_seed_offset,
        )
        for name, algorithm in algorithms.items()
    }
    return run_monte_carlo(config, wrapped, monte_carlo, **runner_kwargs)


def timeline_rows(records: "Iterable[RunRecord]") -> list[dict]:
    """Flatten timeline campaign records into ``format_sweep`` rows."""
    rows: list[dict] = []
    for record in records:
        summary = record.extra.get("timeline")
        if not summary:
            continue
        rows.append(
            {
                "algorithm": record.algorithm,
                "seed": record.seed,
                "availability": summary["availability"],
                "inflation": summary["cost_inflation_integral"],
                "reopts": summary["reoptimizations"],
                "absorbed": summary["reroutes_avoided"],
                "latency": summary["mean_recovery_latency"],
            }
        )
    return rows
