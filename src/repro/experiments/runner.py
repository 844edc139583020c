"""Monte Carlo experiment runner and per-algorithm evaluation records.

Each algorithm is a callable ``scenario -> Solution`` that plans on the
scenario's *planning* problem (predicted demand when available) and is
always evaluated against the *true* demand — the paper's light/dark bar
protocol.  The runner repeats scenarios over seeds and aggregates the
metrics the paper plots: routing cost, congestion, max cache occupancy,
and execution time (Tables 3-4).

The paper's protocol averages 100 independent runs; :func:`run_monte_carlo`
can execute them across processes (``parallel=True``).  Per-run seeds are
materialized up front (optionally via ``numpy.random.SeedSequence.spawn``,
see :class:`MonteCarloConfig`), every run is fully determined by its seed,
and records are collected in run-major order — so the parallel mode is
bit-identical to serial execution in everything except wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pickle
import statistics
import time
import traceback
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

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
from repro.graph.shm import (
    RowsBroadcast,
    SharedRowsHandle,
    attach_and_register_rows,
    graph_signature,
    register_rows,
    unregister_rows,
)
from repro.serving import ServingConfig, compile_tables, replay

if TYPE_CHECKING:
    from repro.core.context import SolverContext

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


def _serving_metrics(
    scenario: EdgeCachingScenario,
    solution: Solution,
    serving_replay: ServingConfig,
) -> dict:
    """Streaming replay of the solved routing against the true demand.

    Returns a JSON-serializable summary for ``RunRecord.extra["serving"]``.
    Replay problems (e.g. a horizon that would exceed ``max_requests``)
    mark the summary as failed instead of failing the run — the planning
    metrics above it are already computed and stay valid.
    """
    try:
        tables = compile_tables(
            scenario.problem, solution.routing, allow_unrouted=True
        )
        report = replay(tables, serving_replay)
    except RECOVERABLE_ALGORITHM_ERRORS as exc:
        return {"error": str(exc), "error_type": type(exc).__name__}
    return {
        "generated": report.generated,
        "served": report.served,
        "served_fraction": report.served_fraction,
        "delivered_cost": report.delivered_cost,
        "requests_per_sec": report.requests_per_sec,
        "unrouted_types": report.unrouted_types,
        "horizon": report.horizon,
        "n_shards": report.n_shards,
    }


def evaluate_algorithm(
    name: str,
    algorithm: Algorithm,
    scenario: EdgeCachingScenario,
    serving_replay: ServingConfig | None = None,
) -> RunRecord:
    """Run one algorithm and measure it against the true demand.

    ``serving_replay`` additionally replays the solved routing through the
    streaming engine (:mod:`repro.serving`) and attaches the summary as
    ``extra["serving"]``.
    """
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
    if serving_replay is not None:
        extra["serving"] = _serving_metrics(scenario, solution, serving_replay)
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

    With ``spawn_seeds`` the seeds come from
    ``numpy.random.SeedSequence(base_seed).spawn(n_runs)`` (independent
    streams); otherwise they are the legacy ``base_seed + run`` offsets.
    Either way the full list is derived up front, so serial and parallel
    execution see exactly the same seeds in the same order.
    """
    if monte_carlo.spawn_seeds:
        root = np.random.SeedSequence(monte_carlo.base_seed)
        return [
            int(child.generate_state(1, dtype=np.uint32)[0])
            for child in root.spawn(monte_carlo.n_runs)
        ]
    return [monte_carlo.base_seed + run for run in range(monte_carlo.n_runs)]


def _evaluate_run(
    task: tuple[
        ScenarioConfig,
        Sequence[tuple[str, Algorithm]],
        Callable[[ScenarioConfig], EdgeCachingScenario],
        ServingConfig | None,
    ],
) -> list[RunRecord]:
    """One Monte Carlo run: build the scenario, score every algorithm.

    Module-level so :class:`ProcessPoolExecutor` can pickle it; the scenario
    is built inside the worker so only the (small) config crosses the
    process boundary.
    """
    run_config, named_algorithms, builder, serving_replay = task
    scenario = builder(run_config)
    return [
        evaluate_algorithm(name, algorithm, scenario, serving_replay)
        for name, algorithm in named_algorithms
    ]


def _timeout_records(
    task, reason: str, *, seconds: float
) -> list[RunRecord]:
    """Failure records for every algorithm of a run that could not complete."""
    run_config, named_algorithms, _builder, _serving = task
    return [
        RunRecord(
            algorithm=name,
            seed=run_config.seed,
            cost=float("inf"),
            congestion=float("inf"),
            occupancy=float("inf"),
            seconds=seconds,
            failed=True,
            extra={"error": reason, "error_type": "Timeout"},
        )
        for name, _algorithm in named_algorithms
    ]


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
    after ``kill -9`` just re-executes that run.
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
            records = [RunRecord(**r) for r in payload["records"]]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            logger.warning(
                "skipping corrupt checkpoint line %d of %s (%s)", lineno, path, exc
            )
            continue
        completed[int(payload["run"])] = records
    return completed


def run_monte_carlo(
    config: ScenarioConfig,
    algorithms: Mapping[str, Algorithm],
    monte_carlo: MonteCarloConfig,
    *,
    scenario_builder: Callable[[ScenarioConfig], EdgeCachingScenario] | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    run_timeout: float | None = None,
    checkpoint: str | Path | None = None,
    broadcast_context: "SolverContext | None" = None,
    serving_replay: ServingConfig | None = None,
) -> list[RunRecord]:
    """Repeat every algorithm over seeded scenario instances.

    ``parallel=True`` distributes runs over a ``ProcessPoolExecutor``
    (``max_workers`` processes; default: one per CPU).  Runs are
    independent — each is rebuilt in its worker from its materialized seed —
    and records come back in run-major, algorithm-insertion order, so
    results match serial execution bit-for-bit except for the measured
    ``seconds``.

    Hardening:

    - Algorithms and the scenario builder must be picklable (module-level
      callables); if submitting them fails, or a run's *result* cannot be
      pickled back, the affected runs degrade to serial execution with a
      logged warning instead of raising.
    - A crashed worker (``BrokenProcessPool``) likewise only degrades the
      runs that were still in flight: they are re-executed serially, in
      order, so the campaign still completes with the same records.
    - ``run_timeout`` (seconds, parallel mode only) bounds how long the
      runner waits for each run's result; a run that exceeds it is recorded
      as ``failed=True`` for every algorithm instead of hanging the
      campaign.  The timed-out worker is abandoned, not killed.
    - ``checkpoint`` names a JSONL file (see :func:`load_checkpoint`) that
      receives every completed run as soon as it finishes.  Re-running the
      same campaign with the same checkpoint path skips completed runs and
      returns records identical (except measured ``seconds``) to an
      uninterrupted campaign.
    - ``broadcast_context`` shares a healthy-instance
      :class:`~repro.core.context.SolverContext`'s distance rows with
      every run: the context's materialized rows — every row of a primed
      context, the solver row scope of a lazy one (O(scope · |V|), never
      O(|V|²)) — are exported once into shared memory
      (:class:`~repro.graph.shm.RowsBroadcast`).  Each pool worker
      maps the segment in its initializer, and
      ``SolverContext.from_problem`` reuses it for any scenario whose
      topology fingerprint matches (see :mod:`repro.graph.shm`).  The
      per-task pickle payload stays O(1) in the payload size.  Serial
      execution (and the serial-retry fallbacks) register the state
      in-process, so serial and parallel runs stay bit-identical.  The
      segment is always unlinked before returning, including the
      broken-pool and timeout paths.
    - ``serving_replay`` replays every solved routing through the streaming
      serving engine (:mod:`repro.serving`) against the true demand and
      attaches the summary to each record's ``extra["serving"]``.  Replay
      failures mark only that summary, never the run.
    """
    builder = scenario_builder or build_scenario
    tasks = [
        (
            replace(config, seed=seed),
            tuple(algorithms.items()),
            builder,
            serving_replay,
        )
        for seed in monte_carlo_seeds(monte_carlo)
    ]
    completed: dict[int, list[RunRecord]] = {}
    checkpoint_file = None
    if checkpoint is not None:
        completed = load_checkpoint(checkpoint)
        stale = [i for i in completed if i >= len(tasks)
                 or completed[i] and completed[i][0].seed != tasks[i][0].seed]
        for i in stale:
            logger.warning(
                "checkpoint run %d does not match this campaign's seeds; ignoring", i
            )
            completed.pop(i)
        if completed:
            logger.info(
                "resuming campaign from checkpoint %s (%d/%d runs done)",
                checkpoint, len(completed), len(tasks),
            )
        checkpoint_file = open(checkpoint, "a", encoding="utf-8")

    def finish_run(index: int, records: list[RunRecord]) -> None:
        completed[index] = records
        if checkpoint_file is not None:
            checkpoint_file.write(
                _checkpoint_line(index, tasks[index][0].seed, records) + "\n"
            )
            checkpoint_file.flush()

    broadcast: RowsBroadcast | None = None
    signature: str | None = None
    if broadcast_context is not None:
        signature = graph_signature(broadcast_context.problem.network.graph)
        # Priming fills the solver scope (cache + pinned + requester rows)
        # so every run finds the rows it reads; a primed context already
        # holds them all.
        broadcast_context.prime_rows()
        store = broadcast_context.backend.row_store()
        broadcast = RowsBroadcast(store, broadcast_context.backend.nodes, signature)
        # In-process registration covers serial mode and serial retries.
        register_rows(signature, store)

    pending = [i for i in range(len(tasks)) if i not in completed]
    try:
        serial_retry: list[int] = []
        if parallel and len(pending) > 1:
            serial_retry = _run_parallel(
                tasks, pending, finish_run,
                max_workers=max_workers, run_timeout=run_timeout,
                broadcast_handle=None if broadcast is None else broadcast.handle,
            )
        else:
            serial_retry = pending
        for index in serial_retry:
            finish_run(index, _evaluate_run(tasks[index]))
    finally:
        if checkpoint_file is not None:
            checkpoint_file.close()
        if broadcast is not None:
            unregister_rows(signature)
            broadcast.close()
    return [record for index in range(len(tasks)) for record in completed[index]]


def _run_parallel(
    tasks,
    pending: list[int],
    finish_run: Callable[[int, list[RunRecord]], None],
    *,
    max_workers: int | None,
    run_timeout: float | None,
    broadcast_handle: SharedRowsHandle | None = None,
) -> list[int]:
    """Run ``pending`` task indices in a process pool; return indices that
    must be retried serially (worker crash / unpicklable payloads)."""
    serial_retry: list[int] = []
    if broadcast_handle is not None:
        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=attach_and_register_rows,
            initargs=(broadcast_handle,),
        )
    else:
        pool = ProcessPoolExecutor(max_workers=max_workers)
    abandoned = False
    try:
        futures = {i: pool.submit(_evaluate_run, tasks[i]) for i in pending}
        for i in pending:
            try:
                finish_run(i, futures[i].result(timeout=run_timeout))
            except FutureTimeoutError:
                abandoned = True
                futures[i].cancel()
                logger.warning(
                    "run %d (seed %d) exceeded run_timeout=%.3gs; recording "
                    "it as failed", i, tasks[i][0].seed, run_timeout,
                )
                finish_run(
                    i,
                    _timeout_records(
                        tasks[i],
                        f"run exceeded run_timeout={run_timeout:.6g}s",
                        seconds=float(run_timeout),
                    ),
                )
            except BrokenExecutor:
                # Harvest whatever finished before the crash; everything else
                # (including the run that broke the pool) retries serially.
                remaining = pending[pending.index(i):]
                for j in remaining:
                    try:
                        finish_run(j, futures[j].result(timeout=0))
                    except Exception:
                        serial_retry.append(j)
                logger.warning(
                    "process pool broke at run %d (worker crash); re-running "
                    "%d affected runs serially", i, len(serial_retry),
                )
                break
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                logger.warning(
                    "run %d (seed %d) could not cross the process boundary "
                    "(%s); falling back to serial execution for it",
                    i, tasks[i][0].seed, exc,
                )
                serial_retry.append(i)
    finally:
        # wait=False so an abandoned (timed-out) worker cannot hang shutdown.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
    return serial_retry


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
