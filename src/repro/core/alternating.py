"""Alternating optimization for the general case (Section 4.3.3).

Starting from the feasible solution that serves everything from the pinned
origin copies, alternate

1. content placement given the current routing (LP + pipage for homogeneous
   catalogs, greedy for heterogeneous sizes — Sections 4.3.1 / 5.2.3), and
2. source selection + routing given the placement (MMSFP for fractional
   routing, MMUFP heuristics for integral routing — Section 4.3.2; both
   solve the MMSFP LP that :func:`~repro.core.routing.mmsfp_routing`
   assembles afresh for each new placement),

retaining a new iterate only when it lowers the routing cost, and stopping
at convergence.  Proposition 4.8 shows the worst case is unbounded (a bad
Nash equilibrium exists), but convergence is typically within a handful of
iterations and empirical quality is strong — both facts are reproduced in
the evaluation benches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.evaluation import congestion, routing_cost
from repro.core.placement import optimize_placement
from repro.core.problem import ProblemInstance
from repro.core.routing import mmsfp_routing, mmufp_routing
from repro.core.solution import Placement, Routing, Solution
from repro.core.submodular import greedy_rnr_placement
from repro.exceptions import InfeasibleError

logger = logging.getLogger(__name__)


@dataclass
class AlternatingResult:
    """Final solution plus the per-iteration convergence trace."""

    solution: Solution
    iterations: int
    converged: bool
    #: One entry per accepted-or-rejected iteration:
    #: {"iteration", "cost", "congestion", "accepted"}.
    history: list[dict] = field(default_factory=list)


def _route(
    problem: ProblemInstance,
    placement: Placement,
    *,
    integral_routing: bool,
    mmufp_method: str,
    rng: np.random.Generator | None,
    n_samples: int,
) -> Routing:
    if integral_routing:
        return mmufp_routing(
            problem, placement, method=mmufp_method, rng=rng, n_samples=n_samples
        )
    return mmsfp_routing(problem, placement).routing


def _initial_solution(
    problem: ProblemInstance,
    *,
    integral_routing: bool,
    mmufp_method: str,
    rng: np.random.Generator | None,
    n_samples: int,
) -> Solution:
    """Feasible starting point: origin-only routing, else greedy RNR placement.

    Serving everything from the pinned copies is the paper's starting point
    (always routable after the scenario's capacity augmentation); when the
    instance lacks that augmentation, fall back to a cache-aware start.
    """
    try:
        placement = Placement()
        routing = _route(
            problem,
            placement,
            integral_routing=integral_routing,
            mmufp_method=mmufp_method,
            rng=rng,
            n_samples=n_samples,
        )
    except InfeasibleError:
        placement = greedy_rnr_placement(problem)
        routing = _route(
            problem,
            placement,
            integral_routing=integral_routing,
            mmufp_method=mmufp_method,
            rng=rng,
            n_samples=n_samples,
        )
    return Solution(placement, routing)


def alternating_optimization(
    problem: ProblemInstance,
    *,
    integral_routing: bool = True,
    placement_method: str = "auto",
    mmufp_method: str = "randomized",
    max_iterations: int = 20,
    n_samples: int = 16,
    rng: np.random.Generator | None = None,
    tolerance: float = 1e-9,
) -> AlternatingResult:
    """Run the alternating caching / routing optimization.

    Parameters
    ----------
    integral_routing:
        ``True`` for IC-IR (MMUFP heuristics), ``False`` for IC-FR (MMSFP LP).
    placement_method:
        ``"auto"`` (pipage for homogeneous catalogs, greedy otherwise),
        ``"pipage"`` or ``"greedy"``.
    mmufp_method:
        ``"randomized"`` (LP relaxation + randomized rounding) or ``"greedy"``.
    max_iterations:
        Hard cap; the paper observes convergence within ~10 iterations.
    """
    rng = rng or np.random.default_rng()
    best = _initial_solution(
        problem,
        integral_routing=integral_routing,
        mmufp_method=mmufp_method,
        rng=rng,
        n_samples=n_samples,
    )
    best_cost = routing_cost(problem, best.routing)
    best_congestion = congestion(problem, best.routing)
    history = [
        {
            "iteration": 0,
            "cost": best_cost,
            "congestion": best_congestion,
            "accepted": True,
        }
    ]

    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        placement = optimize_placement(
            problem, best.routing, method=placement_method
        )
        try:
            routing = _route(
                problem,
                placement,
                integral_routing=integral_routing,
                mmufp_method=mmufp_method,
                rng=rng,
                n_samples=n_samples,
            )
        except InfeasibleError:
            # The new placement admits no capacity-feasible routing (possible
            # only without the paper's origin-path capacity augmentation);
            # reject it and stop at the incumbent.
            history.append(
                {
                    "iteration": iteration,
                    "cost": float("inf"),
                    "congestion": float("inf"),
                    "accepted": False,
                }
            )
            converged = True
            break
        cost = routing_cost(problem, routing)
        cong = congestion(problem, routing)
        accepted = cost < best_cost - tolerance or (
            cost <= best_cost + tolerance and cong < best_congestion - tolerance
        )
        history.append(
            {
                "iteration": iteration,
                "cost": cost,
                "congestion": cong,
                "accepted": accepted,
            }
        )
        logger.debug(
            "alternating iteration %d: cost=%.6g congestion=%.4g accepted=%s",
            iteration, cost, cong, accepted,
        )
        if accepted:
            best = Solution(placement, routing)
            best_cost, best_congestion = cost, cong
        else:
            converged = True
            break
    return AlternatingResult(
        solution=best,
        iterations=iteration,
        converged=converged,
        history=history,
    )
