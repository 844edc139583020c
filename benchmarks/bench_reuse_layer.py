"""Solver-state reuse layer: derived contexts, LP templates, shm broadcast.

Not a figure of the paper — the acceptance bench for the reuse layer built
on top of its solvers.  Three independent measurements:

1. **Degraded-context sweep** — a Deltacom single-link failure sweep
   recovered on contexts derived from one parent
   :class:`~repro.core.context.SolverContext` (rows computed on demand, as
   ``survivability_report`` threads them) against a fresh
   ``rebuild_context`` per scenario.  Both sweeps and
   ``survivability_report`` itself must produce identical records, and the
   derived contexts must compute fewer distance rows than the rebuilt
   ones.  The wall-clock ratio is reported, not asserted.
2. **FC-FR template sweep** — capacity scenarios solved by patching one
   frozen LP (:class:`~repro.core.fcfr.FCFRTemplate`) against re-assembling
   and re-solving from scratch; costs must be bit-identical.
3. **Broadcast payload** — the per-pool pickle payload of a shared-memory
   row-store handle must stay an order of magnitude below the O(|V|^2)
   primed row block it replaces.

Every measurement lands in ``BENCH_reuse_layer.json`` for CI artifact
comparison; parity failures fail the bench, not just the numbers.
"""

import pickle
import time

from repro.core import FCFRTemplate, solve_fcfr
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.core.submodular import greedy_rnr_placement
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.graph import LazyRowBackend, deltacom
from repro.graph.shm import RowsBroadcast, graph_signature
from repro.robustness import (
    apply_failure,
    degraded_context,
    rebuild_context,
    recover,
    single_link_failures,
    survivability_record,
    survivability_report,
)

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
            records.append(
                survivability_record(result, healthy_cost=shipped.healthy_cost)
            )
            rows += ctx.backend.materialized
        return records, rows

    def run():
        (rebuilt, rebuild_rows), rebuild_seconds = _timed(
            lambda: sweep(rebuild_context)
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
            "variant": "rebuild_context per scenario",
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


def _rescaled(problem: ProblemInstance, factor: float) -> ProblemInstance:
    network = problem.network.copy()
    for (u, v), cap in problem.network.capacities().items():
        if cap != float("inf"):
            network.set_link_capacity(u, v, cap * factor)
    return ProblemInstance(
        network=network,
        catalog=problem.catalog,
        demand=dict(problem.demand),
        item_sizes=dict(problem.item_sizes) if problem.item_sizes else None,
        pinned=frozenset(problem.pinned),
    )


def test_fcfr_template_capacity_sweep(benchmark, report, bench_json):
    scenario = build_scenario(ScenarioConfig(seed=0, num_videos=4))
    problem = scenario.problem
    finite = {
        e: c
        for e, c in problem.network.capacities().items()
        if c != float("inf")
    }
    factors = [1.0, 0.9, 0.8, 0.7]

    def run():
        def fresh_sweep():
            return [solve_fcfr(_rescaled(problem, f)).cost for f in factors]

        def template_sweep():
            template = FCFRTemplate(problem)
            return [
                template.solve(
                    link_capacities={e: c * f for e, c in finite.items()}
                ).cost
                for f in factors
            ]

        fresh, fresh_seconds = _timed(fresh_sweep)
        patched, template_seconds = _timed(template_sweep)
        return fresh, fresh_seconds, patched, template_seconds

    fresh, fresh_seconds, patched, template_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = fresh_seconds / template_seconds
    rows = [
        {"variant": "fresh assembly per scenario", "seconds": fresh_seconds},
        {"variant": "frozen template, patched rhs", "seconds": template_seconds},
    ]
    report(
        "reuse_fcfr_template",
        format_sweep(
            rows,
            ["variant", "seconds"],
            title=(
                f"FC-FR capacity sweep, {len(factors)} scenarios — "
                f"speedup {speedup:.2f}x, costs identical: {fresh == patched}"
            ),
        ),
    )
    bench_json(
        "reuse_fcfr_template",
        {
            "scenarios": len(factors),
            "fresh_seconds": fresh_seconds,
            "template_seconds": template_seconds,
            "speedup": speedup,
            "costs_identical": fresh == patched,
            "costs": patched,
        },
    )
    # Patching may only change speed, never the answer.
    assert fresh == patched


def test_broadcast_payload(report, bench_json):
    graph = deltacom().graph
    backend = LazyRowBackend(graph).prime()
    store = backend.row_store()
    with RowsBroadcast(store, backend.nodes, graph_signature(graph)) as broadcast:
        handle_bytes = len(pickle.dumps(broadcast.handle))
        matrix_bytes = len(pickle.dumps(store))
    report(
        "reuse_broadcast_payload",
        format_sweep(
            [
                {"payload": "pickled primed RowStore", "bytes": matrix_bytes},
                {"payload": "pickled shm handle", "bytes": handle_bytes},
            ],
            ["payload", "bytes"],
            title=f"Deltacom (|V|={len(backend)}) per-pool broadcast payload",
        ),
    )
    bench_json(
        "broadcast_payload",
        {
            "topology": "deltacom",
            "nodes": len(backend),
            "matrix_nbytes": int(store.block.nbytes),
            "pickled_matrix_bytes": matrix_bytes,
            "pickled_handle_bytes": handle_bytes,
        },
    )
    # The O(|V|^2) payload never crosses a pool boundary — only the handle.
    assert handle_bytes < store.block.nbytes / 10
