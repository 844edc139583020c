"""Ablation: dict-based shortest-path cache vs the dense SolverContext.

The greedy submodular placement evaluates F_RNR marginal gains millions of
times on a 100-item catalog; with the dict-based ``ShortestPathCache`` every
gain walks per-requester hash lookups, while ``SolverContext`` reads one
row of its fully primed distance rows and reduces with BLAS.
This bench measures both paths on Deltacom (113 nodes, the paper's largest
topology) and checks they return the same placement cost, then verifies
the parallel Monte Carlo runner reproduces serial records bit-identically.
"""

import time

from repro.core import route_to_nearest_replica, routing_cost
from repro.core.context import SolverContext
from repro.core.submodular import greedy_rnr_placement
from repro.experiments import (
    MonteCarloConfig,
    ScenarioConfig,
    build_zipf_scenario,
    format_sweep,
    run_monte_carlo,
)
from repro.experiments.algorithms import greedy, ksp, sp

NUM_ITEMS = 100


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_ablation_context_speedup(benchmark, report, bench_json):
    scenario = build_zipf_scenario(
        topology="deltacom",
        num_items=NUM_ITEMS,
        cache_capacity=10.0,
        link_capacity_fraction=None,
        seed=0,
    )
    problem = scenario.planning_problem()

    def run():
        placement_dict, dict_seconds = _timed(
            lambda: greedy_rnr_placement(problem)
        )
        context, build_seconds = _timed(
            lambda: SolverContext.from_problem(problem)
        )
        placement_ctx, ctx_seconds = _timed(
            lambda: greedy_rnr_placement(problem, context=context)
        )
        cost_dict = routing_cost(
            problem, route_to_nearest_replica(problem, placement_dict)
        )
        cost_ctx = routing_cost(
            problem,
            route_to_nearest_replica(problem, placement_ctx, context=context),
        )
        return [
            {"variant": "dict ShortestPathCache", "cost": cost_dict, "seconds": dict_seconds},
            {
                "variant": "dense SolverContext (incl. build)",
                "cost": cost_ctx,
                "seconds": ctx_seconds + build_seconds,
            },
            {"variant": "dense SolverContext (greedy only)", "cost": cost_ctx, "seconds": ctx_seconds},
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_context",
        format_sweep(
            rows,
            ["variant", "cost", "seconds"],
            title=(
                "Ablation: greedy F_RNR placement, dict cache vs dense context "
                f"(Deltacom, {NUM_ITEMS}-item Zipf catalog)"
            ),
        ),
    )
    by_name = {r["variant"]: r for r in rows}
    dict_row = by_name["dict ShortestPathCache"]
    ctx_row = by_name["dense SolverContext (incl. build)"]
    bench_json(
        "ablation_context",
        {
            "topology": "deltacom",
            "num_items": NUM_ITEMS,
            "rows": rows,
            "speedup_incl_build": dict_row["seconds"] / ctx_row["seconds"],
            "costs_identical": ctx_row["cost"] == dict_row["cost"],
        },
    )
    # Same optimization, same answer.
    assert ctx_row["cost"] == dict_row["cost"]
    # Acceptance bar: >= 3x even when charging the context for matrix build.
    assert dict_row["seconds"] >= 3.0 * ctx_row["seconds"], (
        f"dense context only {dict_row['seconds'] / ctx_row['seconds']:.2f}x faster"
    )


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
