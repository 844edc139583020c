"""Shared-memory context broadcast through the Monte Carlo runner.

Covers the reuse-layer guarantees for parallel campaigns: records stay
bit-identical to serial execution with and without a broadcast, the
per-pool pickle payload is the O(|V|) handle rather than the O(|V|²)
primed row block, and the shared-memory segment never outlives the
campaign — not even when a worker hard-crashes the pool
(``BrokenProcessPool``).
"""

import pickle
from dataclasses import replace
from pathlib import Path

from repro.core.context import SolverContext
from repro.experiments import MonteCarloConfig, ScenarioConfig, run_monte_carlo
from repro.experiments.algorithms import greedy, sp
from repro.experiments.scenarios import build_scenario
from repro.graph.shm import RowsBroadcast, graph_signature, lookup_rows
from tests.experiments.test_runner_hardening import crash_worker

SMALL = ScenarioConfig(seed=0, link_capacity_fraction=None)
MC = MonteCarloConfig(n_runs=3, base_seed=1)


def fixed_topology_builder(config: ScenarioConfig):
    """Deterministic topology and costs regardless of the run seed.

    A broadcast only matches runs whose graph fingerprint equals the healthy
    context's; the default builder re-draws link costs per seed, so the
    fleet-wide reuse scenario is a fixed topology evaluated many times.
    """
    scenario = build_scenario(replace(config, seed=0))
    return replace(scenario, config=config)


def shm_segments() -> set[str]:
    shm = Path("/dev/shm")
    if not shm.exists():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in shm.iterdir()}


def broadcast_context() -> SolverContext:
    return SolverContext.from_problem(fixed_topology_builder(SMALL).problem)


def strip_seconds(records):
    return [
        (r.algorithm, r.seed, r.cost, r.congestion, r.occupancy, r.failed)
        for r in records
    ]


class TestBitIdentity:
    def test_broadcast_parallel_matches_plain_serial(self):
        algorithms = {"greedy": greedy, "sp": sp}
        serial = run_monte_carlo(
            SMALL, algorithms, MC, scenario_builder=fixed_topology_builder
        )
        broadcast = run_monte_carlo(
            SMALL,
            algorithms,
            MC,
            scenario_builder=fixed_topology_builder,
            parallel=True,
            max_workers=2,
            broadcast_context=broadcast_context(),
        )
        assert strip_seconds(serial) == strip_seconds(broadcast)

    def test_broadcast_serial_matches_plain_serial(self):
        plain = run_monte_carlo(
            SMALL, {"greedy": greedy}, MC, scenario_builder=fixed_topology_builder
        )
        shared = run_monte_carlo(
            SMALL,
            {"greedy": greedy},
            MC,
            scenario_builder=fixed_topology_builder,
            broadcast_context=broadcast_context(),
        )
        assert strip_seconds(plain) == strip_seconds(shared)

    def test_mismatched_signature_is_harmless(self):
        # Default builder re-draws costs per seed: the broadcast never
        # matches, every run builds fresh, results are unchanged.
        plain = run_monte_carlo(SMALL, {"sp": sp}, MC)
        stale = run_monte_carlo(
            SMALL, {"sp": sp}, MC, broadcast_context=broadcast_context()
        )
        assert strip_seconds(plain) == strip_seconds(stale)


class TestLifecycle:
    def test_no_segment_leak_after_parallel_campaign(self):
        before = shm_segments()
        run_monte_carlo(
            SMALL,
            {"sp": sp},
            MC,
            scenario_builder=fixed_topology_builder,
            parallel=True,
            max_workers=2,
            broadcast_context=broadcast_context(),
        )
        assert shm_segments() - before == set()

    def test_no_segment_leak_after_broken_pool(self):
        # crash_worker hard-kills its pool worker; the runner harvests the
        # affected runs serially and must still unlink the segment.
        before = shm_segments()
        records = run_monte_carlo(
            SMALL,
            {"crash": crash_worker},
            MC,
            scenario_builder=fixed_topology_builder,
            parallel=True,
            max_workers=2,
            broadcast_context=broadcast_context(),
        )
        assert shm_segments() - before == set()
        assert len(records) == MC.n_runs
        assert not any(r.failed for r in records)  # serial retries succeeded

    def test_registry_left_clean(self):
        ctx = broadcast_context()
        run_monte_carlo(
            SMALL,
            {"sp": sp},
            MC,
            scenario_builder=fixed_topology_builder,
            broadcast_context=ctx,
        )
        assert lookup_rows(ctx.problem.network.graph) is None


class TestPayload:
    def test_handle_payload_independent_of_matrix_size(self):
        from repro.graph import LazyRowBackend, deltacom

        graph = deltacom().graph
        backend = LazyRowBackend(graph).prime()
        store = backend.row_store()
        with RowsBroadcast(store, backend.nodes, graph_signature(graph)) as broadcast:
            handle_bytes = len(pickle.dumps(broadcast.handle))
        # The O(|V|²) payload never crosses the boundary per task — only the
        # O(|V|) handle does, once per pool.
        assert handle_bytes < store.block.nbytes / 10
