"""Failure survivability: Algorithm 1 / alternating placements vs baselines.

Not a figure of the paper — the operational follow-up to its congestion
constraints: inject every single-link failure into the default Abovenet
scenario, re-route each placement's stranded requests to the next-nearest
surviving replica (the graceful-degradation policy of ``repro.robustness``),
and compare how much cost inflation and unserved demand each algorithm's
placement absorbs.  Placements that spread replicas (Alg 1, greedy) should
both serve everything and inflate less than the single-path shortest-path
baseline's cache allocation.
"""

import networkx as nx

from repro.core.context import SolverContext
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.experiments.algorithms import alg1, greedy, sp
from repro.robustness import apply_failure, single_link_failures, survivability_report

ALGORITHMS = {"alg1": alg1, "greedy": greedy, "sp": sp}


def test_failure_survivability(benchmark, report, bench_json):
    config = ScenarioConfig(
        seed=0, num_videos=5, link_capacity_fraction=None, num_edge_nodes=5
    )
    scenario = build_scenario(config)
    problem = scenario.problem
    scenarios = single_link_failures(problem)

    # Scenarios where the pinned origin still reaches every requester —
    # those must end up fully served regardless of the placement.  (Abovenet
    # has one bridge, so a couple of link failures genuinely strand demand.)
    requesters = {s for (_i, s) in problem.demand}
    survivable = set()
    for fail in scenarios:
        degraded = apply_failure(problem, fail)
        reach = nx.descendants(degraded.problem.network.graph, scenario.origin)
        reach.add(scenario.origin)
        if requesters <= reach:
            survivable.add(fail.name)

    # One parent context serves the whole sweep: every failure scenario
    # derives its degraded context incrementally instead of rebuilding the
    # distance rows and path caches from scratch (see repro.robustness.degraded).
    context = SolverContext.from_problem(problem)

    def run():
        rows = []
        for name, algorithm in ALGORITHMS.items():
            placement = algorithm(scenario).placement
            surv = survivability_report(
                problem, placement, scenarios, repair=True, context=context
            )
            rows.append(
                {
                    "algorithm": name,
                    "healthy_cost": surv.healthy_cost,
                    "worst_inflation": surv.worst_cost_inflation,
                    "worst_unserved": surv.worst_unserved_fraction,
                    "served": surv.fully_served_scenarios,
                    "survivable": sum(
                        1
                        for r in surv.records
                        if r.scenario in survivable and r.fully_served
                    ),
                    "scenarios": len(surv.records),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "failure_survivability",
        format_sweep(
            rows,
            [
                "algorithm",
                "healthy_cost",
                "worst_inflation",
                "worst_unserved",
                "served",
                "survivable",
                "scenarios",
            ],
            title="single-link failure survivability (Abovenet, 5 videos, repair on)",
        ),
    )
    bench_json(
        "failure_survivability",
        {
            "topology": config.topology,
            "num_videos": config.num_videos,
            "scenarios": len(scenarios),
            "rows": rows,
        },
    )
    for row in rows:
        # All servable demand is served...
        assert row["survivable"] == len(survivable)
        # ...and detours around a failure never beat the healthy routing.
        assert row["worst_inflation"] >= 1.0
