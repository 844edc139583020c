"""Online adaptive serving: every policy replayed against one seeded stream.

The driver draws a single request stream from the serving engine
(:func:`repro.adaptive.strategies.stream_type_ids`) and feeds identical
chunks to every competing policy:

- the engine-backed reactive strategies (LCE / LCD / ProbCache / CL4M /
  hash routing) pay their *realized* on-path costs and mutate cache state;
- placement-based policies (static Algorithm 1, adaptive projected
  gradient, periodic Algorithm 1 + GPR) pay, per request, the RNR serving
  cost of the placement in force when the chunk starts — adaptive policies
  update their state from the chunk's observed counts *after* being scored
  on it, so no policy sees the future.

The result is a per-chunk cost series per policy, from which cost-over-time
and regret-vs-static curves are derived (``bench_online_adaptive.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adaptive.gradient import AdaptiveGradientPlacement, GradientConfig
from repro.adaptive.periodic import PlannerConfig, PredictivePlanner
from repro.adaptive.strategies import (
    STRATEGIES,
    ReactiveTables,
    build_reactive_tables,
    replay_reactive,
    stream_type_ids,
)
from repro.core.algorithm1 import algorithm1
from repro.core.problem import ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement
from repro.exceptions import InvalidProblemError
from repro.serving.tables import compile_tables

#: All policies the driver knows, in reporting order.
ALL_POLICIES = (
    "lce",
    "lcd",
    "probcache",
    "cl4m",
    "hashrouting",
    "static_alg1",
    "adaptive_gradient",
    "periodic_alg1_gpr",
)


def placement_type_costs(reactive: ReactiveTables, placement: Placement) -> np.ndarray:
    """Per-type RNR serving cost under ``placement`` (tables' type order)."""
    problem = reactive.problem
    routing = route_to_nearest_replica(problem, placement, context=reactive.context)
    tables = compile_tables(problem, routing)
    weights = tables.path_amount * tables.path_cost
    return np.bincount(tables.path_type, weights=weights, minlength=reactive.num_types)


@dataclass
class PolicyTrace:
    """One policy's cost series over the shared stream."""

    name: str
    #: Total cost per chunk (sum of per-request serving costs).
    chunk_costs: np.ndarray
    #: Post-warmup average cost per request scaled to the total demand
    #: rate — comparable with ``routing_cost`` / ``ReactiveResult.cost_rate``.
    cost_rate: float
    #: Post-warmup requests served before reaching the origin (reactive
    #: strategies only; NaN for placement-based policies).
    edge_hit_ratio: float = float("nan")
    #: Number of placement updates taken (adaptive policies).
    updates: int = 0

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.chunk_costs)


@dataclass
class OnlineAdaptiveReport:
    """All policies' traces over one seeded stream."""

    n_requests: int
    chunk_size: int
    seed: int
    total_rate: float
    chunk_requests: np.ndarray
    traces: dict[str, PolicyTrace] = field(default_factory=dict)
    #: LP bound data of the static Algorithm-1 run (when it participated).
    static_lp_objective: float = float("nan")
    static_constant: float = float("nan")

    def regret(self, name: str, *, base: str = "static_alg1") -> np.ndarray:
        """Cumulative cost of ``name`` minus cumulative cost of ``base``."""
        return self.traces[name].cumulative() - self.traces[base].cumulative()


def run_online_adaptive(
    problem: ProblemInstance,
    *,
    n_requests: int = 100_000,
    chunk_size: int = 8192,
    warmup_fraction: float = 0.25,
    seed: int = 0,
    policies: tuple[str, ...] = ALL_POLICIES,
    eviction_policy: str = "lru",
    gradient_config: GradientConfig | None = None,
    planner_config: PlannerConfig | None = None,
    replan_every: int = 8,
    reactive: ReactiveTables | None = None,
) -> OnlineAdaptiveReport:
    """Replay one seeded stream through every requested policy.

    ``replan_every`` is the periodic planner's epoch length in chunks; the
    gradient policy updates every chunk and re-rounds per its own config.
    """
    unknown = set(policies) - set(ALL_POLICIES)
    if unknown:
        raise InvalidProblemError(f"unknown policies: {sorted(unknown)}")
    if chunk_size <= 0 or n_requests <= 0:
        raise InvalidProblemError("n_requests and chunk_size must be positive")
    if replan_every <= 0:
        raise InvalidProblemError("replan_every must be positive")

    rt = reactive or build_reactive_tables(problem)
    rng = np.random.default_rng(seed)
    type_ids = stream_type_ids(rt.tables, n_requests, rng)
    n = len(type_ids)
    warmup = int(n * warmup_fraction)
    total_rate = rt.tables.total_rate
    starts = list(range(0, n, chunk_size))
    chunk_requests = np.array(
        [min(chunk_size, n - s) for s in starts], dtype=np.int64
    )
    report = OnlineAdaptiveReport(
        n_requests=n,
        chunk_size=chunk_size,
        seed=seed,
        total_rate=total_rate,
        chunk_requests=chunk_requests,
    )

    # -- reactive strategies -------------------------------------------
    for strategy in (p for p in policies if p in STRATEGIES):
        replay = replay_reactive(
            problem,
            strategy=strategy,
            policy=eviction_policy,
            chunk_size=chunk_size,
            warmup_fraction=warmup_fraction,
            seed=seed,
            type_ids=type_ids,
            reactive=rt,
        )
        report.traces[strategy] = PolicyTrace(
            name=strategy,
            chunk_costs=replay.chunk_costs,
            cost_rate=replay.cost_rate,
            edge_hit_ratio=replay.edge_hit_ratio if replay.requests else float("nan"),
        )

    # -- placement-based policies --------------------------------------
    def score_placement_series(cost_fn, observe_fn=None) -> tuple[np.ndarray, float, int]:
        """Walk the stream scoring each chunk with ``cost_fn()`` (the
        per-type cost vector in force at chunk start), then letting
        ``observe_fn(counts, elapsed, chunk_index)`` update state."""
        chunk_costs = np.zeros(len(starts))
        measured_cost = 0.0
        measured = 0
        updates = 0
        for k, s in enumerate(starts):
            chunk = type_ids[s : s + chunk_size]
            type_costs = cost_fn()
            req_costs = type_costs[chunk]
            chunk_costs[k] = float(req_costs.sum())
            cut = max(0, warmup - s)
            if cut < len(chunk):
                measured += len(chunk) - cut
                measured_cost += float(req_costs[cut:].sum())
            if observe_fn is not None:
                counts = np.bincount(chunk, minlength=rt.num_types)
                elapsed = len(chunk) / total_rate
                updates += int(bool(observe_fn(counts, elapsed, k)))
        rate = measured_cost / measured * total_rate if measured else 0.0
        return chunk_costs, rate, updates

    static_costs: np.ndarray | None = None
    if "static_alg1" in policies or "periodic_alg1_gpr" in policies:
        static_result = algorithm1(problem)
        static_costs = placement_type_costs(rt, static_result.solution.placement)
        report.static_lp_objective = static_result.lp_objective
        report.static_constant = static_result.constant

    if "static_alg1" in policies:
        chunk_costs, rate, _ = score_placement_series(lambda: static_costs)
        report.traces["static_alg1"] = PolicyTrace(
            name="static_alg1", chunk_costs=chunk_costs, cost_rate=rate
        )

    if "adaptive_gradient" in policies:
        grad = AdaptiveGradientPlacement(rt, gradient_config)
        cache = {"placement": None, "costs": None}

        def grad_costs() -> np.ndarray:
            placement = grad.placement()
            if placement is not cache["placement"]:
                cache["placement"] = placement
                cache["costs"] = placement_type_costs(rt, placement)
            return cache["costs"]

        def grad_observe(counts, elapsed, _k) -> bool:
            grad.observe(counts, elapsed)
            return True

        chunk_costs, rate, updates = score_placement_series(
            grad_costs, grad_observe
        )
        report.traces["adaptive_gradient"] = PolicyTrace(
            name="adaptive_gradient",
            chunk_costs=chunk_costs,
            cost_rate=rate,
            updates=updates,
        )

    if "periodic_alg1_gpr" in policies:
        planner = PredictivePlanner(rt, planner_config)
        cache = {"costs": static_costs}

        def planner_costs() -> np.ndarray:
            return cache["costs"]

        def planner_observe(counts, elapsed, k) -> bool:
            planner.observe(counts, elapsed)
            if (k + 1) % replan_every == 0:
                result = planner.replan()
                cache["costs"] = placement_type_costs(rt, result.solution.placement)
                return True
            return False

        chunk_costs, rate, updates = score_placement_series(
            planner_costs, planner_observe
        )
        report.traces["periodic_alg1_gpr"] = PolicyTrace(
            name="periodic_alg1_gpr",
            chunk_costs=chunk_costs,
            cost_rate=rate,
            updates=updates,
        )

    return report
