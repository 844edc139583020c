"""Unified front door: solve (1) in any of the paper's variable regimes.

``solve()`` dispatches on the caching/routing regime of Section 2.4:

- **FC-FR** — exact LP (Section 3);
- **IC-FR** — NP-hard; alternating optimization with fractional routing;
- **IC-IR** — NP-hard; Algorithm 1 (+ RNR) when every link is
  uncapacitated, otherwise the alternating optimization with MMUFP
  heuristics;
- **FC-IR** — equivalent to IC-IR (integral routing forces integral source
  selection, Section 2.4), so it dispatches identically.

The returned :class:`SolveResult` bundles the solution with the metrics the
paper reports, so a downstream user can go from a problem instance to an
evaluated deployment decision in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.algorithm1 import algorithm1
from repro.core.alternating import alternating_optimization
from repro.core.context import SolverContext
from repro.core.evaluation import (
    check_feasibility,
    congestion,
    max_cache_occupancy,
    routing_cost,
)
from repro.core.fcfr import solve_fcfr
from repro.core.problem import ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Solution
from repro.core.submodular import greedy_rnr_placement
from repro.exceptions import InvalidProblemError

CACHING_MODES = ("integral", "fractional")
ROUTING_MODES = ("integral", "fractional")
#: Cap on the alternating optimization's rounds (Section 4.3.3).
_MAX_ITERATIONS = 12


@dataclass
class SolveResult:
    """A solution plus its headline metrics."""

    solution: Solution
    regime: str
    method: str
    cost: float
    congestion: float
    max_cache_occupancy: float
    feasible: bool


def _is_uncapacitated(problem: ProblemInstance) -> bool:
    return all(math.isinf(c) for c in problem.network.capacities().values())


def solve(
    problem: ProblemInstance,
    *,
    caching: str = "integral",
    routing: str = "integral",
    rng: np.random.Generator | None = None,
) -> SolveResult:
    """Solve the joint caching-and-routing problem in the requested regime.

    Parameters
    ----------
    caching, routing:
        ``"integral"`` or ``"fractional"`` — selecting FC-FR / IC-FR / IC-IR
        (FC-IR collapses to IC-IR, Section 2.4).
    rng:
        Drives the randomized MMUFP rounding; defaults to a fixed seed so
        repeated calls are reproducible.
    """
    if caching not in CACHING_MODES:
        raise InvalidProblemError(f"caching must be one of {CACHING_MODES}")
    if routing not in ROUTING_MODES:
        raise InvalidProblemError(f"routing must be one of {ROUTING_MODES}")
    rng = rng or np.random.default_rng(0)

    if caching == "fractional" and routing == "fractional":
        regime, method = "FC-FR", "exact LP"
        solution = solve_fcfr(problem).solution
    elif routing == "fractional":
        regime, method = "IC-FR", "alternating (MMSFP routing)"
        solution = alternating_optimization(
            problem,
            integral_routing=False,
            max_iterations=_MAX_ITERATIONS,
            rng=rng,
        ).solution
    else:
        regime = "IC-IR" if caching == "integral" else "FC-IR (= IC-IR)"
        if _is_uncapacitated(problem):
            if problem.is_homogeneous():
                method = "Algorithm 1 + RNR"
                solution = algorithm1(problem).solution
            else:
                method = "greedy placement (Thm 5.2) + RNR"
                context = SolverContext.from_problem(problem, backend="lazy")
                placement = greedy_rnr_placement(problem, context=context)
                solution = Solution(
                    placement,
                    route_to_nearest_replica(problem, placement, context=context),
                )
        else:
            method = "alternating (MMUFP best)"
            solution = alternating_optimization(
                problem,
                integral_routing=True,
                mmufp_method="best",
                max_iterations=_MAX_ITERATIONS,
                rng=rng,
            ).solution

    return SolveResult(
        solution=solution,
        regime=regime,
        method=method,
        cost=routing_cost(problem, solution.routing),
        congestion=congestion(problem, solution.routing),
        max_cache_occupancy=max_cache_occupancy(problem, solution.placement),
        feasible=check_feasibility(problem, solution).feasible,
    )
