"""Scale gate: failure resilience on the lazy tier at 1k–10k nodes.

Backs the last open bullet of ROADMAP item 3 ("robustness at 10k nodes"):
the whole failure stack — degraded-context derivation, recovery, timeline
replay, chaos — must run on :class:`~repro.graph.backends.LazyRowBackend`
contexts without ever materializing the dense O(|V|²) matrix, and must
stay bit-identical to the dense tier where both exist.  Four measurements
land in one ``BENCH_scale_resilience.json``:

1. **Scaled timeline replay** — a 100+-event seeded failure timeline on a
   PoP/core/edge hierarchy replays through the controller on a lazy
   context with cluster-local re-optimization.  Gate: at sizes ≥ 5000 the
   tracemalloc peak of (context build + full replay) stays below 10% of
   :func:`~repro.graph.distance_matrix.estimate_dense_bytes` for the same
   node count, and below 10% of the rows-only estimate ``16·n²`` too
   (``peak_ratio_rows_only``): the dense estimate also counts the
   ``4·n²`` predecessor matrix, and that larger denominator must not loosen
   the gate.  ``tracemalloc`` slows the replay severalfold, so the
   wall-clock is taken from a separate untraced pass; both are recorded.
2. **Dense/lazy replay parity** — on embedded mid-size ISP topologies the
   same timeline replayed on a fully primed context and on a lazy context
   yields equal :class:`~repro.robustness.controller.TimelineReport`'s
   (dataclass equality already excludes wall-clock).  Gate: parity on
   every topology.
3. **Chaos at scale** — seeded :func:`~repro.robustness.chaos.run_chaos`
   campaigns on ≥1k-node hierarchies (``ChaosConfig.n_total``) with the
   full invariant checker and static parity.  Gate: zero violations.
4. **Cluster-local vs global recovery** — one sampled failure re-optimized
   both ways; the cluster-local path must serve the same demand (the
   decomposed model replaces placements only inside source-reachable parts
   of touched clusters) and its wall-clock is recorded next to the global
   re-solve's.

``SCALE_RESILIENCE_SIZES`` (comma-separated node counts, default
``1000,10000``) reduces the sweep for CI smoke runs; the memory gate then
applies to the largest size actually measured.
"""

import os
import time
import tracemalloc

import numpy as np

from repro.core import (
    ProblemInstance,
    partition_graph,
    pin_full_catalog,
    touched_clusters,
)
from repro.core.context import SolverContext
from repro.graph import CacheNetwork, abovenet, tinet
from repro.graph.distance_matrix import estimate_dense_bytes
from repro.experiments import format_sweep
from repro.robustness import (
    ChaosConfig,
    FailureScenario,
    RecoveryPolicy,
    TimelineConfig,
    apply_failure,
    canonical_links,
    cluster_local_recover,
    degraded_context,
    generate_timeline,
    hierarchy_problem,
    recover,
    replay_timeline,
    run_chaos,
)
from repro.robustness.chaos import random_placement

#: Acceptance: lazy replay peaks below this fraction of the dense estimate.
LAZY_PEAK_FRACTION = 0.10


def rows_only_dense_bytes(num_nodes: int) -> int:
    """The dense estimate without the predecessor matrix: two float64 n x n arrays."""
    return 2 * 8 * num_nodes * num_nodes
#: The largest hierarchy's timeline must carry at least this many events.
MIN_EVENTS = 100

DEFAULT_SIZES = (1000, 10000)


def bench_sizes() -> tuple[int, ...]:
    raw = os.environ.get("SCALE_RESILIENCE_SIZES", "")
    if not raw.strip():
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _traced(fn, *args):
    """(value, seconds, tracemalloc peak bytes) of ``fn(*args)``."""
    tracemalloc.start()
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return value, seconds, peak


def _event_timeline(problem, *, horizon: float, target_events: int, seed: int):
    """A seeded timeline regenerated (halving MTBF) until dense enough."""
    links = canonical_links(problem)
    link_mtbf = max(1.0, len(links) * horizon / max(1, target_events))
    for _ in range(8):
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=horizon,
                link_mtbf=link_mtbf,
                link_mttr=horizon / 12.0,
                node_mtbf=4.0 * link_mtbf,
                node_mttr=horizon / 8.0,
                flap_probability=0.2,
                flap_mttr=0.05,
            ),
            seed=seed,
            name=f"scale:{seed}",
        )
        if len(timeline) >= target_events:
            return timeline
        link_mtbf /= 2.0
    return timeline


def _midsize_problem(factory, seed: int) -> ProblemInstance:
    net = factory()
    nodes = list(net.nodes)
    rng = np.random.default_rng(seed)
    items = [f"it{k}" for k in range(5)]
    demand = {}
    for it in items:
        for s in rng.choice(len(nodes), size=min(8, len(nodes)), replace=False):
            demand[(it, nodes[int(s)])] = round(float(rng.uniform(0.5, 2.0)), 3)
    return ProblemInstance(
        network=CacheNetwork(net.graph, {v: 2.0 for v in nodes}),
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [nodes[0]]),
    )


def test_scale_resilience(benchmark, report, bench_json):
    sizes = bench_sizes()
    largest = max(sizes)

    def run():
        # -- 1. scaled timeline replay on the lazy tier ----------------
        replay_rows = []
        for n_total in sizes:
            problem = hierarchy_problem(
                n_total, n_items=20, n_caches=150, n_requesters=250, seed=0
            )
            rng = np.random.default_rng(1)
            placement = random_placement(rng, problem)
            target = MIN_EVENTS if n_total == largest else 40
            timeline = _event_timeline(
                problem, horizon=60.0, target_events=target, seed=n_total
            )
            policy = RecoveryPolicy(detection_delay=0.25, min_dwell=6.0, repair=False)

            def lazy_replay():
                ctx = SolverContext.from_problem(problem, backend="lazy")
                partition = partition_graph(problem.network, seed=0)
                return replay_timeline(
                    problem,
                    placement.copy(),
                    timeline,
                    policy,
                    context=ctx,
                    partition=partition,
                )

            t0 = time.perf_counter()
            rep = lazy_replay()
            seconds = time.perf_counter() - t0
            traced_rep, traced_seconds, peak = _traced(lazy_replay)
            assert traced_rep == rep
            dense_bytes = estimate_dense_bytes(problem.network.num_nodes)
            replay_rows.append(
                {
                    "nodes": problem.network.num_nodes,
                    "events": rep.events,
                    "reopts": rep.reoptimizations,
                    "availability": round(rep.availability, 4),
                    "replay_seconds": round(seconds, 2),
                    "traced_replay_seconds": round(traced_seconds, 2),
                    "lazy_peak_mb": round(peak / 2**20, 1),
                    "dense_estimate_mb": round(dense_bytes / 2**20, 1),
                    "peak_ratio": round(peak / dense_bytes, 4),
                    "peak_ratio_rows_only": round(
                        peak / rows_only_dense_bytes(problem.network.num_nodes), 4
                    ),
                }
            )

        # -- 2. dense/lazy replay parity on embedded topologies --------
        parity_rows = []
        for name, factory in [("abovenet", abovenet), ("tinet", tinet)]:
            prob = _midsize_problem(factory, seed=3)
            rng = np.random.default_rng(4)
            placement = random_placement(rng, prob)
            timeline = _event_timeline(
                prob, horizon=30.0, target_events=25, seed=11
            )
            policy = RecoveryPolicy(detection_delay=0.2)
            reports = {}
            for tier in ("dense", "lazy"):
                ctx = SolverContext.from_problem(prob, backend=tier)
                reports[tier] = replay_timeline(
                    prob, placement.copy(), timeline, policy, context=ctx
                )
            parity_rows.append(
                {
                    "topology": name,
                    "nodes": prob.network.num_nodes,
                    "events": reports["dense"].events,
                    "reports_equal": reports["dense"] == reports["lazy"],
                }
            )

        # -- 3. chaos campaigns at >= 1k nodes -------------------------
        chaos = run_chaos(
            ChaosConfig(
                campaigns=2,
                n_total=min(1000, largest),
                n_items=12,
                horizon=30.0,
                min_events=30,
            )
        )
        chaos_row = dict(chaos.summary())
        chaos_row["ok"] = chaos.ok

        # -- 4. cluster-local vs global re-optimization ----------------
        problem = hierarchy_problem(
            min(1000, largest), n_items=20, n_caches=150, n_requesters=250, seed=0
        )
        ctx = SolverContext.from_problem(problem, backend="lazy")
        partition = partition_graph(problem.network, seed=0)
        rng = np.random.default_rng(5)
        placement = random_placement(rng, problem)
        timeline = _event_timeline(
            problem, horizon=60.0, target_events=40, seed=min(1000, largest)
        )
        scenario = FailureScenario(
            "bench-sample", (timeline.failures[0].fault,)
        )
        degraded = apply_failure(problem, scenario)
        dctx = degraded_context(ctx, degraded)
        touched = touched_clusters(
            partition,
            failed_nodes=degraded.failed_nodes,
            failed_links=degraded.failed_links,
        )
        t0 = time.perf_counter()
        local = cluster_local_recover(degraded, placement, partition, context=dctx)
        local_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        global_result = recover(degraded, placement, repair=False, context=dctx)
        global_seconds = time.perf_counter() - t0
        recovery_row = {
            "nodes": problem.network.num_nodes,
            "touched_clusters": len(touched),
            "total_clusters": partition.n_clusters,
            "local_seconds": round(local_seconds, 3),
            "global_seconds": round(global_seconds, 3),
            "local_unserved": round(local.unserved_fraction, 6),
            "global_unserved": round(global_result.unserved_fraction, 6),
        }
        return replay_rows, parity_rows, chaos_row, recovery_row

    replay_rows, parity_rows, chaos_row, recovery_row = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    report(
        "scale_resilience",
        format_sweep(
            replay_rows,
            list(replay_rows[0]),
            title="Lazy-tier timeline replay on PoP/core/edge hierarchies",
        )
        + "\n\n"
        + format_sweep(
            parity_rows,
            list(parity_rows[0]),
            title="Dense vs lazy TimelineReport parity (mid-size topologies)",
        )
        + "\n\n"
        + format_sweep(
            [chaos_row],
            list(chaos_row),
            title="Scale chaos campaigns (lazy tier, cluster recovery)",
        )
        + "\n\n"
        + format_sweep(
            [recovery_row],
            list(recovery_row),
            title="Cluster-local vs global re-optimization (one failure)",
        ),
    )
    bench_json(
        "scale_resilience",
        {
            "sizes": list(sizes),
            "replay": replay_rows,
            "parity": parity_rows,
            "chaos": chaos_row,
            "recovery": recovery_row,
            "lazy_peak_fraction_bound": LAZY_PEAK_FRACTION,
            "min_events_largest": MIN_EVENTS,
        },
    )

    # --- gates -------------------------------------------------------
    largest_row = max(replay_rows, key=lambda r: r["nodes"])
    if largest_row["nodes"] >= 5000:
        assert largest_row["events"] >= MIN_EVENTS, largest_row
        assert largest_row["peak_ratio"] < LAZY_PEAK_FRACTION, largest_row
        assert largest_row["peak_ratio_rows_only"] < LAZY_PEAK_FRACTION, largest_row
    else:
        # The 10% ratio is a scale property: the replay peak is dominated
        # by O(events + demand) controller state, which dwarfs a small
        # topology's dense estimate but is noise against a 10k-node one.
        # Reduced CI sweeps only sanity-check the replay itself.
        assert largest_row["events"] > 0 and largest_row["reopts"] > 0
    for row in parity_rows:
        assert row["reports_equal"], row
    assert chaos_row["ok"], chaos_row
    assert chaos_row["total_violations"] == 0, chaos_row
    assert abs(
        recovery_row["local_unserved"] - recovery_row["global_unserved"]
    ) < 1e-6, recovery_row
