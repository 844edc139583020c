"""Parallel Monte Carlo runner: process-pool records equal serial records.

Runs one abovenet campaign serially and on a 4-worker
``ProcessPoolExecutor`` and checks every record matches except for the
wall-clock field.  Writes ``parallel_runner.txt`` and
``BENCH_parallel_runner.json``.
"""

import time

from repro.experiments import (
    MonteCarloConfig,
    ScenarioConfig,
    format_sweep,
    run_monte_carlo,
)
from repro.experiments.algorithms import greedy, ksp, sp


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_parallel_runner_bit_identical(benchmark, report, bench_json):
    config = ScenarioConfig(link_capacity_fraction=None, seed=0)
    mc = MonteCarloConfig(n_runs=4, base_seed=3, spawn_seeds=True)
    algorithms = {"greedy": greedy, "sp": sp, "ksp_5": ksp(5)}

    def run():
        serial, serial_seconds = _timed(
            lambda: run_monte_carlo(config, algorithms, mc)
        )
        parallel, parallel_seconds = _timed(
            lambda: run_monte_carlo(
                config, algorithms, mc, parallel=True, max_workers=4
            )
        )
        return serial, serial_seconds, parallel, parallel_seconds

    serial, serial_seconds, parallel, parallel_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        {"mode": "serial", "records": len(serial), "seconds": serial_seconds},
        {"mode": "parallel(4)", "records": len(parallel), "seconds": parallel_seconds},
    ]
    report(
        "parallel_runner",
        format_sweep(
            rows,
            ["mode", "records", "seconds"],
            title="Monte Carlo runner: serial vs ProcessPoolExecutor (4 workers)",
        ),
    )
    bench_json(
        "parallel_runner",
        {
            "n_runs": mc.n_runs,
            "algorithms": sorted(algorithms),
            "rows": rows,
        },
    )
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        # Everything except wall-clock timing must match exactly.
        assert (a.algorithm, a.seed) == (b.algorithm, b.seed)
        assert a.cost == b.cost
        assert a.congestion == b.congestion
        assert a.occupancy == b.occupancy
        assert a.extra == b.extra
        assert a.failed == b.failed
