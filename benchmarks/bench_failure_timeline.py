"""Failure timeline replay: incremental degraded contexts vs full rebuilds.

Not a figure of the paper — the dynamic counterpart of the survivability
bench: generate a ~250-event failure timeline over Deltacom (link flaps,
node outages, repairs), replay the greedy placement through the online
recovery controller twice — once deriving each re-optimization's context
incrementally from the healthy parent (a fresh row backend on the degraded
graph that computes only the rows recovery actually reads), once
rebuilding a fresh fully primed context per re-optimization — and check
the two produce the *identical* report at lower wall-clock for the
incremental path.

Wall-clock is reported two ways: end-to-end replay time (dominated by RNR
routing, so the gap is modest) and context-derivation time over every
composed fault set the controller saw.  A derived context computes no row
until one is read, so both sides of the derivation timing are "derive,
then read the recovery row scope (cache and pinned rows)" — like for like.
"""

import time

from repro.core.context import SolverContext
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.experiments.algorithms import greedy
from repro.robustness import (
    CapacityDegradation,
    FailureEvent,
    FailureScenario,
    LinkFailure,
    RecoveryPolicy,
    TimelineConfig,
    apply_failure,
    degraded_context,
    generate_timeline,
    rebuild_context,
    replay_timeline,
)

ROUNDS = 3


def composed_scenarios(timeline):
    """The composed active-fault set after every failure event.

    Each is what the controller would hand to ``apply_failure`` if it reacted
    right then: currently-active faults deduplicated (an SRLG and a link
    process can cover the same link) and ordered caps -> links -> nodes so
    no fault references an element an earlier one already removed.
    """
    active = []
    out = []
    for event in timeline.events:
        if isinstance(event, FailureEvent):
            active.append(event.fault)
            faults = list(dict.fromkeys(active))
            rank = {CapacityDegradation: 0, LinkFailure: 1}
            faults.sort(key=lambda f: (rank.get(type(f), 2), repr(f)))
            out.append(
                FailureScenario(name=f"t={event.time:g}", faults=tuple(faults))
            )
        else:
            active.remove(event.fault)
    return out


def _replay(problem, placement, timeline, policy, context, incremental):
    best = None
    wall = float("inf")
    for _ in range(ROUNDS):
        report = replay_timeline(
            problem,
            placement,
            timeline,
            policy,
            context=context,
            incremental=incremental,
        )
        if report.wall_seconds < wall:
            wall = report.wall_seconds
            best = report
    return best, wall


def _derivation_times(problem, context, scenarios, sources):
    """Best-of-rounds time to derive a context and read ``sources`` rows,
    over all composed fault sets."""
    inc = reb = float("inf")
    degraded = [apply_failure(problem, s) for s in scenarios]
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for dp in degraded:
            degraded_context(context, dp).prime_rows(sources)
        inc = min(inc, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for dp in degraded:
            rebuild_context(dp).prime_rows(sources)
        reb = min(reb, time.perf_counter() - t0)
    return inc, reb


def test_failure_timeline(benchmark, report, bench_json):
    config = ScenarioConfig(
        topology="deltacom",
        num_videos=5,
        cache_capacity=4,
        link_capacity_fraction=None,
        num_edge_nodes=5,
        seed=0,
    )
    scenario = build_scenario(config)
    problem = scenario.problem
    placement = greedy(scenario).placement
    context = SolverContext.from_problem(problem)

    timeline = generate_timeline(
        problem,
        TimelineConfig(
            horizon=50.0,
            link_mtbf=80.0,
            link_mttr=3.0,
            node_mtbf=400.0,
            node_mttr=6.0,
            flap_probability=0.2,
            flap_mttr=0.05,
            exclude_nodes=(scenario.origin,),
        ),
        seed=7,
        name="deltacom-timeline",
    )
    assert len(timeline.events) >= 100
    policy = RecoveryPolicy(detection_delay=0.5, flap_backoff=0.25, max_retries=2)

    def run():
        incremental, inc_wall = _replay(
            problem, placement, timeline, policy, context, True
        )
        rebuilt, reb_wall = _replay(
            problem, placement, timeline, policy, context, False
        )
        # Re-derive every composed fault set standalone to isolate the
        # distance-row cost from the RNR routing that dominates a replay.
        scenarios = composed_scenarios(timeline)
        sources = sorted(
            set(problem.network.cache_nodes()) | {v for (v, _i) in problem.pinned},
            key=repr,
        )
        inc_derive, reb_derive = _derivation_times(
            problem, context, scenarios, sources
        )
        return incremental, rebuilt, {
            "events": len(timeline.events),
            "reoptimizations": incremental.reoptimizations,
            "fault_sets": len(scenarios),
            "availability": incremental.availability,
            "incremental_wall_s": inc_wall,
            "rebuild_wall_s": reb_wall,
            "incremental_derive_s": inc_derive,
            "rebuild_derive_s": reb_derive,
        }

    incremental, rebuilt, stats = benchmark.pedantic(run, rounds=1, iterations=1)

    # Bit-identical replay: incremental derivation must not change a single
    # number (wall_seconds/incremental are compare=False fields).
    assert incremental == rebuilt

    # Computing only the rows recovery reads is where the speedup lives;
    # end-to-end replay (dominated by RNR routing) must at least not regress.
    assert stats["incremental_derive_s"] < stats["rebuild_derive_s"]
    assert stats["incremental_wall_s"] < stats["rebuild_wall_s"] * 1.05

    rows = [
        {
            "mode": "incremental",
            "wall_s": stats["incremental_wall_s"],
            "derive_s": stats["incremental_derive_s"],
            "reopts": incremental.reoptimizations,
            "availability": incremental.availability,
        },
        {
            "mode": "rebuild",
            "wall_s": stats["rebuild_wall_s"],
            "derive_s": stats["rebuild_derive_s"],
            "reopts": rebuilt.reoptimizations,
            "availability": rebuilt.availability,
        },
    ]
    report(
        "failure_timeline",
        format_sweep(
            rows,
            ["mode", "wall_s", "derive_s", "reopts", "availability"],
            title=(
                f"deltacom failure timeline ({stats['events']} events, "
                f"horizon 50, best of {ROUNDS})"
            ),
        ),
    )
    bench_json(
        "failure_timeline",
        {
            "topology": config.topology,
            "seed": 7,
            "horizon": 50.0,
            **stats,
            "reports_identical": incremental == rebuilt,
        },
    )
