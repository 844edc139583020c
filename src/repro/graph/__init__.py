"""Graph substrate: cache-network model, shortest paths, and topologies."""

from repro.graph.backends import LazyRowBackend
from repro.graph.distance_matrix import dense_bytes_ceiling, estimate_dense_bytes
from repro.graph.network import CacheNetwork
from repro.graph.shortest_paths import (
    all_pairs_least_costs,
    k_shortest_paths,
    path_cost,
    reconstruct_path,
    single_source_dijkstra,
)
from repro.graph.topologies import (
    abilene_like,
    abovenet,
    abvt,
    deltacom,
    edge_caching_roles,
    line_topology,
    pop_core_edge_hierarchy,
    random_topology,
    tinet,
    tree_topology,
)

__all__ = [
    "CacheNetwork",
    "LazyRowBackend",
    "dense_bytes_ceiling",
    "estimate_dense_bytes",
    "single_source_dijkstra",
    "all_pairs_least_costs",
    "reconstruct_path",
    "k_shortest_paths",
    "path_cost",
    "abovenet",
    "abvt",
    "tinet",
    "deltacom",
    "abilene_like",
    "edge_caching_roles",
    "line_topology",
    "tree_topology",
    "random_topology",
    "pop_core_edge_hierarchy",
]
