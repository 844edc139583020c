"""Failure-aware streaming replay: request throughput through a long
Deltacom fault timeline, and its overhead over a static (single-segment)
replay of the same request volume.

Not a figure of the paper — the serving-layer counterpart of the failure
timeline bench: generate a 200+ event Deltacom timeline (link flaps, node
outages, repairs), stream a few million Poisson arrivals through the
segmented engine (tables degraded in place at every boundary), and gate

- **exact parity**: the analytic side of the streaming replay must equal
  the plain ``replay_timeline`` report, and the segments' piecewise rates
  must integrate back to its cost/unserved integrals within 1e-9;
- **statistical parity**: generated / served counts and delivered cost
  within 6 sigma of their compound-Poisson expectations, so the streamed
  cost integral is a certified estimator of the analytic one;
- **rider footprint**: a second pass replays the same volume on 2 shards
  under ``tracemalloc`` (cyclic collector paused), without and then with
  an LRU leave-copy-everywhere reactive rider.  The rider steps each
  segment as it is drawn, so its peak may exceed the rider-free peak by
  less than a quarter of the stream's type-id bytes (8 B per request);
  holding every id until the draw ends reads about one.

``SERVING_DEGRADED_BENCH_REQUESTS`` scales the request budget (CI uses a
reduced budget; the default streams ~2M arrivals).
"""

import gc
import math
import os
import time
import tracemalloc

import numpy as np

from repro.adaptive import ReactiveStrategyEngine, build_reactive_tables
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.experiments.algorithms import greedy
from repro.robustness import (
    RecoveryPolicy,
    TimelineConfig,
    generate_timeline,
    replay_timeline,
    replay_timeline_streaming,
)
from repro.serving import ServingConfig
from repro.serving.engine import generate_requests, serve_batch

REQUESTS = int(os.environ.get("SERVING_DEGRADED_BENCH_REQUESTS", 2_000_000))
_TOL = 1e-9


def _static_baseline(tables, horizon, rate_scale, seed):
    """Single-segment replay of the same volume: the overhead yardstick."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    t0 = time.perf_counter()
    batch = generate_requests(tables, horizon, rng, rate_scale=rate_scale)
    acc = serve_batch(tables, batch, rng)
    elapsed = time.perf_counter() - t0
    return int(acc.generated.sum()), elapsed


def test_serving_degraded(benchmark, report, bench_json):
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

    timeline = generate_timeline(
        problem,
        TimelineConfig(
            horizon=50.0,
            link_mtbf=60.0,
            link_mttr=3.0,
            node_mtbf=300.0,
            node_mttr=6.0,
            flap_probability=0.2,
            flap_mttr=0.05,
            exclude_nodes=(scenario.origin,),
        ),
        seed=7,
        name="deltacom-serving-timeline",
    )
    assert len(timeline.events) >= 200
    policy = RecoveryPolicy(detection_delay=0.5, flap_backoff=0.25, max_retries=2)

    rate_scale = REQUESTS / (problem.total_demand * timeline.horizon)
    serving = ServingConfig(horizon=timeline.horizon, seed=11, n_shards=1)

    def run():
        streamed = replay_timeline_streaming(
            problem, placement, timeline, policy,
            config=serving, rate_scale=rate_scale,
        )
        static_generated, static_elapsed = _static_baseline(
            streamed.segments[0].tables, timeline.horizon, rate_scale, 11
        )
        plain = replay_timeline(problem, placement, timeline, policy)
        return streamed, plain, static_generated, static_elapsed

    streamed, plain, static_generated, static_elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    analytic = streamed.analytic

    # --- Exact parity: the analytic side IS the plain replay, and the
    # segments' piecewise-constant rates integrate back to its integrals.
    assert analytic == plain
    seg_cost = sum(s.cost_rate * s.duration for s in streamed.segments)
    seg_served = sum(s.served_rate * s.duration for s in streamed.segments)
    assert math.isclose(seg_cost, analytic.cost_integral, rel_tol=_TOL)
    assert math.isclose(
        seg_served,
        analytic.total_demand * analytic.horizon - analytic.unserved_integral,
        rel_tol=_TOL,
    )

    # --- Statistical parity: 6 sigma on every sampled aggregate.
    assert abs(streamed.generated - streamed.expected_generated) <= 6 * math.sqrt(
        streamed.expected_generated
    )
    assert abs(streamed.served - streamed.expected_served) <= 6 * math.sqrt(
        streamed.expected_served
    )
    cost_sigma = math.sqrt(streamed.cost_variance)
    assert abs(streamed.delivered_cost - streamed.expected_cost) <= 6 * cost_sigma
    estimator_sigma = cost_sigma / streamed.rate_scale
    assert (
        abs(streamed.streamed_cost_integral - analytic.cost_integral)
        <= 6 * estimator_sigma
    )

    # --- Rider footprint: one LCE rider on 2 shards holds one segment's
    # arrivals at a time, not the whole stream's type ids.  The cyclic
    # collector is paused: the controller leaves megabytes of cyclic
    # garbage, and when the collector happens to run would move either
    # peak by more than the gate's margin.
    def traced(reactive):
        """The replay on 2 shards, and its ``tracemalloc`` peak in bytes."""
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            replayed = replay_timeline_streaming(
                problem, placement, timeline, policy,
                config=ServingConfig(horizon=timeline.horizon, seed=11, n_shards=2),
                rate_scale=rate_scale, reactive=reactive,
            )
            return replayed, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    bare, bare_peak = traced(None)
    rt = build_reactive_tables(problem)
    ridden, ridden_peak = traced({"lce": ReactiveStrategyEngine(rt)})
    assert ridden.generated == bare.generated > 0
    rider_extra_frac = (ridden_peak - bare_peak) / (8 * ridden.generated)
    assert rider_extra_frac < 0.25, rider_extra_frac

    overhead = (
        streamed.elapsed_seconds / static_elapsed
        if static_elapsed > 0
        else float("nan")
    )
    rows = [
        {
            "mode": "timeline-streamed",
            "requests": streamed.generated,
            "wall_s": streamed.elapsed_seconds,
            "req_per_s": streamed.requests_per_sec,
            "segments": len(streamed.segments),
        },
        {
            "mode": "static",
            "requests": static_generated,
            "wall_s": static_elapsed,
            "req_per_s": (
                static_generated / static_elapsed
                if static_elapsed > 0
                else float("nan")
            ),
            "segments": 1,
        },
    ]
    report(
        "serving_degraded",
        format_sweep(
            rows,
            ["mode", "requests", "wall_s", "req_per_s", "segments"],
            title=(
                f"deltacom degraded serving ({len(timeline.events)} events, "
                f"{len(streamed.segments)} segments, "
                f"overhead {overhead:.2f}x)"
            ),
        )
        + f"\nrider footprint (2 shards, tracemalloc): peak "
        f"{bare_peak / 2**20:.1f} MiB rider-free, {ridden_peak / 2**20:.1f} MiB "
        f"with an LCE rider; extra {rider_extra_frac:.3f} of the "
        f"{8 * ridden.generated / 2**20:.1f} MiB of type ids (gate < 0.25)",
    )
    bench_json(
        "serving_degraded",
        {
            "topology": config.topology,
            "seed": 7,
            "horizon": timeline.horizon,
            "events": len(timeline.events),
            "segments": len(streamed.segments),
            "requests_generated": streamed.generated,
            "requests_served": streamed.served,
            "requests_dropped": streamed.dropped,
            "requests_per_sec": streamed.requests_per_sec,
            "streamed_wall_s": streamed.elapsed_seconds,
            "static_wall_s": static_elapsed,
            "overhead_vs_static": overhead,
            "rate_scale": streamed.rate_scale,
            "availability": analytic.availability,
            "analytic_cost_integral": analytic.cost_integral,
            "streamed_cost_integral": streamed.streamed_cost_integral,
            "estimator_sigma": estimator_sigma,
            "reports_identical": analytic == plain,
            "memory_shards": 2,
            "memory_requests_generated": ridden.generated,
            "memory_peak_bare_mib": bare_peak / 2**20,
            "memory_peak_lce_mib": ridden_peak / 2**20,
            "memory_lce_extra_frac": rider_extra_frac,
        },
    )
