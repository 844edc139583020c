"""Solver-state reuse layer: contexts derived from one healthy parent.

Not a figure of the paper — the acceptance bench for the reuse layer built
on top of its solvers.  A Deltacom single-link failure sweep is recovered
on contexts derived from one parent
:class:`~repro.core.context.SolverContext` (rows computed on demand, as
``survivability_report`` threads them) against a fresh
``SolverContext.from_problem`` per scenario.  Both sweeps and
``survivability_report`` itself must produce identical records, and the
derived contexts must compute fewer distance rows than the rebuilt ones.
The wall-clock ratio is reported, not asserted.

The measurement lands in ``BENCH_reuse_layer.json`` for CI artifact
comparison; parity failures fail the bench, not just the numbers.
"""

import time

from repro.core.context import SolverContext
from repro.core.submodular import greedy_rnr_placement
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.robustness import (
    apply_failure,
    degraded_context,
    recover,
    single_link_failures,
    survivability_record,
    survivability_report,
)
from repro.serving.tables import compile_tables

SWEEP_SCENARIOS = 40


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_degraded_context_sweep(benchmark, report, bench_json):
    scenario = build_scenario(
        ScenarioConfig(
            seed=0, topology="deltacom", num_videos=5, link_capacity_fraction=None
        )
    )
    problem = scenario.problem
    context = SolverContext.from_problem(problem)
    placement = greedy_rnr_placement(problem, context=context)
    scenarios = single_link_failures(problem)[:SWEEP_SCENARIOS]
    shipped = survivability_report(
        problem, placement, scenarios, repair=True, context=context
    )

    def sweep(derive):
        """Recover every scenario on ``derive(degraded)``; count its rows."""
        records, rows = [], 0
        for failure in scenarios:
            degraded = apply_failure(problem, failure)
            ctx = derive(degraded)
            result = recover(degraded, placement, repair=True, context=ctx)
            tables = compile_tables(problem, result.routing, allow_unrouted=True)
            records.append(
                survivability_record(
                    result, tables, healthy_cost=shipped.healthy_cost
                )
            )
            rows += ctx.backend.materialized
        return records, rows

    def run():
        (rebuilt, rebuild_rows), rebuild_seconds = _timed(
            lambda: sweep(lambda degraded: SolverContext.from_problem(degraded.problem))
        )
        (derived, derived_rows), reuse_seconds = _timed(
            lambda: sweep(lambda degraded: degraded_context(context, degraded))
        )
        return rebuilt, rebuild_rows, rebuild_seconds, derived, derived_rows, reuse_seconds

    (
        rebuilt, rebuild_rows, rebuild_seconds, derived, derived_rows, reuse_seconds
    ) = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = rebuild_seconds / reuse_seconds
    identical = rebuilt == derived == shipped.records
    rows = [
        {
            "variant": "fresh context per scenario",
            "seconds": rebuild_seconds,
            "rows": rebuild_rows,
        },
        {
            "variant": "derived contexts (reuse)",
            "seconds": reuse_seconds,
            "rows": derived_rows,
        },
    ]
    report(
        "reuse_degraded_sweep",
        format_sweep(
            rows,
            ["variant", "seconds", "rows"],
            title=(
                f"Deltacom single-link sweep, {len(scenarios)} scenarios, "
                f"repair on — wall-clock ratio {speedup:.2f}x (not gated)"
            ),
        ),
    )
    bench_json(
        "reuse_layer",
        {
            "degraded_sweep": {
                "topology": "deltacom",
                "scenarios": len(scenarios),
                "rebuild_seconds": rebuild_seconds,
                "reuse_seconds": reuse_seconds,
                "speedup": speedup,
                "rebuild_rows": rebuild_rows,
                "derived_rows": derived_rows,
                "reports_identical": identical,
            }
        },
    )
    assert identical, "derived contexts changed the survivability records"
    assert derived_rows < rebuild_rows, (
        f"derived contexts computed {derived_rows} distance rows, "
        f"rebuilt ones {rebuild_rows}"
    )
