"""Core algorithms of the paper: problem model, Algorithms 1-2, alternating opt."""

from repro.core.algorithm1 import Algorithm1Result, algorithm1
from repro.core.api import SolveResult, solve
from repro.core.bounds import LowerBounds, lower_bounds, rnr_relaxation_bound
from repro.core.complexity import RegimeComplexity, all_regimes, regime_complexity
from repro.core.exact import ExactResult, exact_icir
from repro.core.femtocaching import (
    bipartite_network,
    femtocaching_instance,
    femtocaching_problem,
)
from repro.core.alternating import AlternatingResult, alternating_optimization
from repro.core.context import RequesterBlock, SolverContext, relevant_sources
from repro.core.decomposed import (
    ClusterIndex,
    ClusterPartition,
    ClusterReport,
    DecomposedResult,
    DecompositionGap,
    cluster_subproblem,
    decomposed_solve,
    decomposition_gap,
    default_cluster_count,
    partition_graph,
    resolve_clusters,
    restrict_partition,
    touched_clusters,
)
from repro.core.evaluation import (
    FeasibilityReport,
    cache_hit_rate,
    check_feasibility,
    congestion,
    link_loads,
    max_cache_occupancy,
    path_stretch,
    routing_cost,
    summarize,
    utilization_profile,
)
from repro.core.fcfr import FCFRResult, solve_fcfr
from repro.core.msufp import (
    MSUFPCommodity,
    MSUFPResult,
    solve_binary_cache_case,
    solve_msufp,
    splittable_binary_cache,
    theorem_4_7_load_bound,
)
from repro.core.pipage import pipage_round
from repro.core.placement import (
    ServingPath,
    extract_serving_paths,
    optimize_placement,
    optimize_placement_greedy,
    optimize_placement_lp,
    placement_cost,
    placement_saving,
)
from repro.core.problem import ProblemInstance, Request, pin_full_catalog
from repro.core.rnr import route_to_nearest_replica
from repro.core.routing import (
    greedy_unsplittable_routing,
    mmsfp_routing,
    mmufp_routing,
    randomized_rounding_routing,
)
from repro.core.solution import Placement, Routing, Solution
from repro.core.submodular import RNRCostSaving, greedy_rnr_placement

__all__ = [
    "solve",
    "SolveResult",
    "regime_complexity",
    "all_regimes",
    "RegimeComplexity",
    "exact_icir",
    "ExactResult",
    "lower_bounds",
    "LowerBounds",
    "rnr_relaxation_bound",
    "bipartite_network",
    "femtocaching_instance",
    "femtocaching_problem",
    "ProblemInstance",
    "Request",
    "pin_full_catalog",
    "Placement",
    "Routing",
    "Solution",
    "FeasibilityReport",
    "check_feasibility",
    "routing_cost",
    "congestion",
    "link_loads",
    "max_cache_occupancy",
    "cache_hit_rate",
    "path_stretch",
    "utilization_profile",
    "summarize",
    "route_to_nearest_replica",
    "SolverContext",
    "RequesterBlock",
    "relevant_sources",
    "ClusterIndex",
    "ClusterPartition",
    "ClusterReport",
    "DecomposedResult",
    "DecompositionGap",
    "cluster_subproblem",
    "decomposed_solve",
    "decomposition_gap",
    "default_cluster_count",
    "partition_graph",
    "resolve_clusters",
    "restrict_partition",
    "touched_clusters",
    "RNRCostSaving",
    "greedy_rnr_placement",
    "pipage_round",
    "algorithm1",
    "Algorithm1Result",
    "solve_msufp",
    "MSUFPCommodity",
    "MSUFPResult",
    "solve_binary_cache_case",
    "splittable_binary_cache",
    "theorem_4_7_load_bound",
    "extract_serving_paths",
    "ServingPath",
    "placement_cost",
    "placement_saving",
    "optimize_placement",
    "optimize_placement_lp",
    "optimize_placement_greedy",
    "mmsfp_routing",
    "mmufp_routing",
    "randomized_rounding_routing",
    "greedy_unsplittable_routing",
    "alternating_optimization",
    "AlternatingResult",
    "solve_fcfr",
    "FCFRResult",
]
