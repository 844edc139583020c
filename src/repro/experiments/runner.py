"""Monte Carlo experiment runner and per-algorithm evaluation records.

Each algorithm is a callable ``scenario -> Solution`` that plans on the
scenario's *planning* problem (predicted demand when available) and is
always evaluated against the *true* demand — the paper's light/dark bar
protocol.  The runner repeats scenarios over seeds and aggregates the
metrics the paper plots: routing cost, congestion, max cache occupancy,
and execution time (Tables 3-4).

The paper's protocol averages 100 independent runs.  :func:`run_monte_carlo`
runs them in order over the seeds ``base_seed + run``, materialized up front;
every run is fully determined by its seed, so a campaign resumed from its
checkpoint returns the records of an uninterrupted one in everything except
wall-clock timings.  Runs share no solver state: each draws its own link
costs, so each builds its own distance rows.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import statistics
import time
import traceback
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.evaluation import (
    congestion,
    max_cache_occupancy,
    routing_cost,
)
from repro.core.solution import Solution
from repro.exceptions import ReproError
from repro.experiments.config import MonteCarloConfig, ScenarioConfig
from repro.experiments.scenarios import EdgeCachingScenario, build_scenario

Algorithm = Callable[[EdgeCachingScenario], Solution]

logger = logging.getLogger(__name__)

#: Exceptions an algorithm may raise that mark *its* run as failed instead of
#: aborting the whole campaign: the package's own errors plus the numerical
#: exceptions that escape numpy/scipy code paths (``LinAlgError`` is listed
#: explicitly because it does not derive from ``ValueError`` on all numpy
#: versions).
RECOVERABLE_ALGORITHM_ERRORS: tuple[type[BaseException], ...] = (
    ReproError,
    ValueError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


@dataclass
class RunRecord:
    """Metrics of one algorithm on one Monte Carlo instance."""

    algorithm: str
    seed: int
    cost: float
    congestion: float
    occupancy: float
    seconds: float
    failed: bool = False
    extra: dict = field(default_factory=dict)


def evaluate_algorithm(
    name: str,
    algorithm: Algorithm,
    scenario: EdgeCachingScenario,
) -> RunRecord:
    """Run one algorithm and measure it against the true demand."""
    start = time.perf_counter()
    try:
        solution = algorithm(scenario)
    except RECOVERABLE_ALGORITHM_ERRORS as exc:
        return RunRecord(
            algorithm=name,
            seed=scenario.config.seed,
            cost=float("inf"),
            congestion=float("inf"),
            occupancy=float("inf"),
            seconds=time.perf_counter() - start,
            failed=True,
            extra={
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            },
        )
    elapsed = time.perf_counter() - start
    problem = scenario.problem  # true demand
    # Algorithms may attach a JSON-serializable ``extra_metrics`` dict to the
    # returned solution (e.g. the timeline replay summary of
    # :mod:`repro.experiments.failure_timelines`); it rides along in the
    # record's ``extra`` so checkpoints and aggregation side-channels see it.
    extra = getattr(solution, "extra_metrics", None)
    extra = dict(extra) if extra else {}
    return RunRecord(
        algorithm=name,
        seed=scenario.config.seed,
        cost=routing_cost(problem, solution.routing, demand=problem.demand),
        congestion=congestion(problem, solution.routing, demand=problem.demand),
        occupancy=max_cache_occupancy(problem, solution.placement),
        seconds=elapsed,
        extra=extra,
    )


def monte_carlo_seeds(monte_carlo: MonteCarloConfig) -> list[int]:
    """Materialize the per-run scenario seeds of a Monte Carlo protocol.

    The seeds are the ``base_seed + run`` offsets.  The full list is derived
    up front, so a resumed campaign sees exactly the seeds of the one it
    resumes, in the same order.
    """
    return [monte_carlo.base_seed + run for run in range(monte_carlo.n_runs)]


def _checkpoint_line(run_index: int, seed: int, records: list[RunRecord]) -> str:
    return json.dumps(
        {
            "run": run_index,
            "seed": seed,
            "records": [dataclasses.asdict(r) for r in records],
        },
        sort_keys=True,
    )


def load_checkpoint(path: str | Path) -> dict[int, list[RunRecord]]:
    """Completed runs of an interrupted campaign: run index -> records.

    The checkpoint is JSONL — one object per completed run with keys
    ``run`` (index into the campaign's seed list), ``seed``, and
    ``records`` (the serialized :class:`RunRecord` list).  Truncated last
    lines (a run killed mid-write) are skipped with a warning, so resuming
    after ``kill -9`` just re-executes that run; so is any line without an
    integer ``run`` or a valid ``records`` list.
    """
    completed: dict[int, list[RunRecord]] = {}
    path = Path(path)
    if not path.exists():
        return completed
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            run = payload["run"]
            if type(run) is not int:
                raise TypeError(f"run index {run!r} is not an integer")
            records = [RunRecord(**r) for r in payload["records"]]
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "skipping corrupt checkpoint line %d of %s (%s)", lineno, path, exc
            )
            continue
        completed[run] = records
    return completed


def run_monte_carlo(
    config: ScenarioConfig,
    algorithms: Mapping[str, Algorithm],
    monte_carlo: MonteCarloConfig,
    *,
    checkpoint: str | Path | None = None,
) -> list[RunRecord]:
    """Repeat every algorithm over seeded scenario instances.

    Runs execute in order over the seeds :func:`monte_carlo_seeds` fixes
    before the first run starts.  Each run builds its scenario from its seed
    alone and scores every algorithm in insertion order, so records come
    back in run-major, algorithm-insertion order.

    ``checkpoint`` names a JSONL file (see :func:`load_checkpoint`) that
    receives every completed run as soon as it finishes.  Re-running the
    same campaign with the same checkpoint path skips completed runs and
    returns records identical (except measured ``seconds``) to an
    uninterrupted campaign.  An entry counts as completed only when its
    records carry this campaign's seed for that run and its algorithm
    names in order; any other entry is logged and its run re-executed.
    """
    seeds = monte_carlo_seeds(monte_carlo)
    names = list(algorithms)
    completed: dict[int, list[RunRecord]] = {}
    checkpoint_file = None
    if checkpoint is not None:
        checkpoint = Path(checkpoint)
        completed = load_checkpoint(checkpoint)
        for i in list(completed):
            expected = [(name, seeds[i]) for name in names] if i < len(seeds) else None
            if [(r.algorithm, r.seed) for r in completed[i]] != expected:
                logger.warning(
                    "checkpoint run %d does not match this campaign's seeds "
                    "and algorithms; re-running it", i,
                )
                del completed[i]
        if completed:
            logger.info(
                "resuming campaign from checkpoint %s (%d/%d runs done)",
                checkpoint, len(completed), len(seeds),
            )
        # A run killed mid-write leaves an unterminated fragment; the next
        # line must not be glued onto it, or it parses as corrupt too.
        last_byte = checkpoint.read_bytes()[-1:] if checkpoint.exists() else b""
        checkpoint_file = checkpoint.open("a", encoding="utf-8")
        if last_byte not in (b"", b"\n"):
            checkpoint_file.write("\n")

    try:
        for index, seed in enumerate(seeds):
            if index in completed:
                continue
            scenario = build_scenario(replace(config, seed=seed))
            records = [
                evaluate_algorithm(name, algorithm, scenario)
                for name, algorithm in algorithms.items()
            ]
            completed[index] = records
            if checkpoint_file is not None:
                checkpoint_file.write(_checkpoint_line(index, seed, records) + "\n")
                checkpoint_file.flush()
    finally:
        if checkpoint_file is not None:
            checkpoint_file.close()
    return [record for index in range(len(seeds)) for record in completed[index]]


@dataclass
class Aggregate:
    """Mean/stdev summary of one algorithm over Monte Carlo runs."""

    algorithm: str
    runs: int
    failures: int
    mean_cost: float
    mean_congestion: float
    mean_occupancy: float
    mean_seconds: float
    std_cost: float = 0.0


def aggregate(records: Iterable[RunRecord]) -> list[Aggregate]:
    """Per-algorithm aggregation (failed runs excluded from the means)."""
    by_name: dict[str, list[RunRecord]] = {}
    for record in records:
        by_name.setdefault(record.algorithm, []).append(record)
    out: list[Aggregate] = []
    for name, recs in by_name.items():
        ok = [r for r in recs if not r.failed]
        failures = len(recs) - len(ok)
        if not ok:
            out.append(
                Aggregate(
                    algorithm=name,
                    runs=len(recs),
                    failures=failures,
                    mean_cost=float("inf"),
                    mean_congestion=float("inf"),
                    mean_occupancy=float("inf"),
                    mean_seconds=statistics.mean(r.seconds for r in recs),
                )
            )
            continue
        costs = [r.cost for r in ok]
        out.append(
            Aggregate(
                algorithm=name,
                runs=len(recs),
                failures=failures,
                mean_cost=statistics.mean(costs),
                mean_congestion=statistics.mean(r.congestion for r in ok),
                mean_occupancy=statistics.mean(r.occupancy for r in ok),
                mean_seconds=statistics.mean(r.seconds for r in ok),
                std_cost=statistics.pstdev(costs) if len(costs) > 1 else 0.0,
            )
        )
    return out
