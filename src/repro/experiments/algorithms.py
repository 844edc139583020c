"""Named algorithm wrappers used across the benchmark harness.

Every wrapper is ``scenario -> Solution`` and plans on the scenario's
planning problem (the GPR-predicted demand when present, else the truth);
the runner then scores the resulting decisions against the true demand.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.baselines import candidate_path_baseline, shortest_path_baseline
from repro.core.algorithm1 import algorithm1
from repro.core.alternating import alternating_optimization
from repro.core.context import SolverContext
from repro.core.fcfr import solve_fcfr
from repro.core.msufp import solve_binary_cache_case, splittable_binary_cache
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement, Solution
from repro.core.submodular import greedy_rnr_placement
from repro.experiments.scenarios import EdgeCachingScenario, pin_servers

Algorithm = Callable[[EdgeCachingScenario], Solution]


def alg1(scenario: EdgeCachingScenario) -> Solution:
    """Algorithm 1 (chunk level, unlimited link capacities)."""
    problem = scenario.planning_problem()
    return algorithm1(problem, context=SolverContext.from_problem(problem)).solution


def greedy(scenario: EdgeCachingScenario) -> Solution:
    """Greedy submodular placement + RNR (the paper's file-level proposal)."""
    problem = scenario.planning_problem()
    context = SolverContext.from_problem(problem)
    placement = greedy_rnr_placement(problem, context=context)
    return Solution(
        placement, route_to_nearest_replica(problem, placement, context=context)
    )


def sp(scenario: EdgeCachingScenario) -> Solution:
    """[38]'s 'shortest path' benchmark."""
    return shortest_path_baseline(scenario.planning_problem())


class ksp:
    """[3]'s benchmark with k candidate paths ('SP + RNR' at k = 1)."""

    def __init__(self, k: int = 10) -> None:
        self.k = k
        self.__name__ = f"ksp_{k}"

    def __call__(self, scenario: EdgeCachingScenario) -> Solution:
        return candidate_path_baseline(scenario.planning_problem(), k=self.k)


class alternating:
    """The general-case alternating optimization (Section 4.3.3)."""

    def __init__(
        self,
        *,
        integral_routing: bool = True,
        mmufp_method: str = "randomized",
        n_samples: int = 16,
        max_iterations: int = 12,
    ) -> None:
        self.integral_routing = integral_routing
        self.mmufp_method = mmufp_method
        self.n_samples = n_samples
        self.max_iterations = max_iterations
        self.__name__ = "alternating" if integral_routing else "alternating_fr"

    def __call__(self, scenario: EdgeCachingScenario) -> Solution:
        rng = np.random.default_rng(scenario.config.seed + 104729)
        return alternating_optimization(
            scenario.planning_problem(),
            integral_routing=self.integral_routing,
            mmufp_method=self.mmufp_method,
            n_samples=self.n_samples,
            max_iterations=self.max_iterations,
            rng=rng,
        ).solution


def fcfr(scenario: EdgeCachingScenario) -> Solution:
    """Exact FC-FR LP — the universal lower-bound reference."""
    return solve_fcfr(scenario.planning_problem()).solution


# ----------------------------------------------------------------------
# Binary-cache-capacity case (Fig. 6): the catalog is replicated on fixed
# servers; only source selection + routing are optimized.
# ----------------------------------------------------------------------


class alg2_binary:
    """Algorithm 2 on the virtual-source reduction (K = 2 is [33])."""

    def __init__(self, servers: list, K: int) -> None:
        self.servers = servers
        self.K = K
        self.__name__ = f"alg2_K{K}"

    def __call__(self, scenario: EdgeCachingScenario) -> Solution:
        problem = pin_servers(scenario, self.servers)
        if scenario.predicted_problem is not None:
            problem = problem.with_demand(scenario.predicted_problem.demand)
        solution, _result = solve_binary_cache_case(problem, self.servers, K=self.K)
        return solution


class splittable_binary:
    """The splittable-flow LP lower bound of Fig. 6."""

    def __init__(self, servers: list) -> None:
        self.servers = servers
        self.__name__ = "splittable"

    def __call__(self, scenario: EdgeCachingScenario) -> Solution:
        problem = pin_servers(scenario, self.servers)
        if scenario.predicted_problem is not None:
            problem = problem.with_demand(scenario.predicted_problem.demand)
        solution, _cost = splittable_binary_cache(problem, self.servers)
        return solution


class rnr_binary:
    """[3]'s capacity-oblivious RNR in the binary-cache case."""

    def __init__(self, servers: list) -> None:
        self.servers = servers
        self.__name__ = "rnr"

    def __call__(self, scenario: EdgeCachingScenario) -> Solution:
        problem = pin_servers(scenario, self.servers)
        if scenario.predicted_problem is not None:
            problem = problem.with_demand(scenario.predicted_problem.demand)
        routing = route_to_nearest_replica(problem, Placement())
        return Solution(Placement(), routing)
