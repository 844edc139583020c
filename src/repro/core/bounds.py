"""Lower bounds on the optimal routing cost, in one place.

The paper compares its heuristics against several lower bounds; this module
collects them behind one API so experiments and users can report optimality
gaps:

- ``fcfr``: the exact FC-FR LP optimum — a valid lower bound for *every*
  regime (Section 2.4's ordering);
- ``rnr_relaxation``: ignore link capacities and serve every request from
  its nearest *possible* replica assuming every cache-capable node holds
  everything — a very fast bound, loose when caches are scarce;
- ``algorithm1_lp``: ``constant - LP(7) optimum``, the bound behind
  Theorem 4.4 (valid when links are uncapacitated);
- ``splittable``: for the binary-cache case, the splittable-flow optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.algorithm1 import algorithm1
from repro.core.context import SolverContext
from repro.core.fcfr import solve_fcfr
from repro.core.problem import ProblemInstance
from repro.exceptions import ReproError


@dataclass(frozen=True)
class LowerBounds:
    """Available lower bounds; ``best`` is the largest (tightest)."""

    fcfr: float | None
    rnr_relaxation: float
    algorithm1_lp: float | None

    @property
    def best(self) -> float:
        candidates = [self.rnr_relaxation]
        if self.fcfr is not None:
            candidates.append(self.fcfr)
        if self.algorithm1_lp is not None:
            candidates.append(self.algorithm1_lp)
        return max(candidates)


def rnr_relaxation_bound(problem: ProblemInstance) -> float:
    """Serve each request from the nearest node that could possibly hold it.

    Relaxes cache capacities (every cache node holds everything) and link
    capacities (shortest paths) — sound for every regime, computable in
    milliseconds.
    """
    context = SolverContext.from_problem(problem, backend="lazy")
    total = 0.0
    for (item, s), rate in problem.demand.items():
        candidates = set(problem.network.cache_nodes()) | problem.pinned_holders(item)
        best = min(
            (context.distance(v, s) for v in candidates),
            default=math.inf,
        )
        if math.isinf(best):
            return math.inf
        total += rate * best
    return total


def lower_bounds(
    problem: ProblemInstance,
    *,
    include_fcfr: bool = True,
    include_algorithm1: bool | None = None,
) -> LowerBounds:
    """Compute the applicable lower bounds for an instance.

    ``include_algorithm1`` defaults to True exactly when every link is
    uncapacitated (the bound is only valid there); ``include_fcfr`` may be
    disabled for very large instances (it solves the full LP (1)).
    """
    uncapacitated = all(
        math.isinf(c) for c in problem.network.capacities().values()
    )
    if include_algorithm1 is None:
        include_algorithm1 = uncapacitated

    fcfr_value: float | None = None
    if include_fcfr:
        try:
            fcfr_value = solve_fcfr(problem).cost
        except ReproError:
            fcfr_value = None

    alg1_value: float | None = None
    if include_algorithm1 and uncapacitated:
        try:
            result = algorithm1(problem, polish=False)
            alg1_value = result.constant - result.lp_objective
        except ReproError:
            alg1_value = None

    return LowerBounds(
        fcfr=fcfr_value,
        rnr_relaxation=rnr_relaxation_bound(problem),
        algorithm1_lp=alg1_value,
    )
