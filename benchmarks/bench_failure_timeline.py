"""Failure timeline replay: invariant-checked, primed vs lazy, derivation cost.

Not a figure of the paper — the dynamic counterpart of the survivability
bench: generate a ~250-event failure timeline over Deltacom (link flaps,
node outages, repairs) and replay the greedy placement through the online
recovery controller, which derives every re-optimization's context from
the healthy one.  The replay runs under the chaos harness's
:class:`~repro.robustness.chaos.InvariantChecker` (gate: zero violations)
and must equal, number for number, the replay from a lazy healthy context
(gate: identical reports).

Context derivation is timed on its own over every composed fault set the
timeline produces: :func:`~repro.robustness.degraded.degraded_context`
against a fresh ``SolverContext.from_problem`` of the degraded instance.
A derived context computes no row until one is read, so both sides are
timed as "derive, then read the recovery row scope (cache and pinned
rows)" — like for like (gate: derived < rebuilt).
"""

import time

from repro.core.context import SolverContext
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.experiments.algorithms import greedy
from repro.robustness import (
    CapacityDegradation,
    FailureEvent,
    FailureScenario,
    InvariantChecker,
    LinkFailure,
    RecoveryPolicy,
    TimelineConfig,
    apply_failure,
    degraded_context,
    generate_timeline,
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


def _derivation_times(problem, context, scenarios, sources):
    """Best-of-rounds time to derive a context and read ``sources`` rows,
    over all composed fault sets: (derived, rebuilt)."""
    derived = rebuilt = float("inf")
    degraded = [apply_failure(problem, s) for s in scenarios]
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for dp in degraded:
            degraded_context(context, dp).prime_rows(sources)
        derived = min(derived, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for dp in degraded:
            SolverContext.from_problem(dp.problem).prime_rows(sources)
        rebuilt = min(rebuilt, time.perf_counter() - t0)
    return derived, rebuilt


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
        checker = InvariantChecker()
        checked = replay_timeline(
            problem, placement, timeline, policy, context=context, observer=checker
        )
        lazy = replay_timeline(
            problem,
            placement,
            timeline,
            policy,
            context=SolverContext.from_problem(problem, backend="lazy"),
        )
        # Re-derive every composed fault set standalone to isolate the
        # distance-row cost from the RNR routing that dominates a replay.
        scenarios = composed_scenarios(timeline)
        sources = sorted(
            set(problem.network.cache_nodes()) | {v for (v, _i) in problem.pinned},
            key=repr,
        )
        derive_s, rebuild_s = _derivation_times(problem, context, scenarios, sources)
        return checked, lazy, checker.violations, {
            "events": len(timeline.events),
            "reoptimizations": checked.reoptimizations,
            "fault_sets": len(scenarios),
            "availability": checked.availability,
            "replay_wall_s": checked.wall_seconds,
            "lazy_replay_wall_s": lazy.wall_seconds,
            "derive_s": derive_s,
            "rebuild_derive_s": rebuild_s,
        }

    checked, lazy, violations, stats = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "context": "primed, checked",
            "wall_s": stats["replay_wall_s"],
            "reopts": checked.reoptimizations,
            "availability": checked.availability,
            "violations": len(violations),
        },
        {
            "context": "lazy",
            "wall_s": stats["lazy_replay_wall_s"],
            "reopts": lazy.reoptimizations,
            "availability": lazy.availability,
            "violations": "-",
        },
    ]
    derivation = [
        {"derivation": "degraded_context", "seconds": stats["derive_s"]},
        {"derivation": "fresh from_problem", "seconds": stats["rebuild_derive_s"]},
    ]
    report(
        "failure_timeline",
        format_sweep(
            rows,
            ["context", "wall_s", "reopts", "availability", "violations"],
            title=(
                f"deltacom failure timeline ({stats['events']} events, horizon 50)"
            ),
        )
        + "\n\n"
        + format_sweep(
            derivation,
            ["derivation", "seconds"],
            title=(
                f"context derivation + recovery row reads over "
                f"{stats['fault_sets']} fault sets (best of {ROUNDS})"
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
            "violations": len(violations),
            "reports_identical": checked == lazy,
        },
    )

    # The controller's invariants hold after every event and action, and
    # the healthy context's priming policy changes no number (wall_seconds
    # is a compare=False field).
    assert violations == [], violations[:5]
    assert checked == lazy
    # Computing only the rows recovery reads beats a fresh build per set.
    assert stats["derive_s"] < stats["rebuild_derive_s"]
