"""Shared fixtures and brute-force reference solvers for core tests."""

import itertools

import numpy as np
import pytest

from repro.core import ProblemInstance, pin_full_catalog
from repro.graph import CacheNetwork, all_pairs_least_costs, line_topology


def make_line_problem(
    *,
    num_nodes: int = 5,
    catalog_size: int = 2,
    cache_nodes: dict | None = None,
    demand: dict | None = None,
    link_capacity: float | None = None,
) -> ProblemInstance:
    """Line 0-1-...-n-1 with the origin pinned at node 0."""
    net = line_topology(num_nodes)
    if link_capacity is not None:
        net.set_uniform_link_capacity(link_capacity)
    for v, c in (cache_nodes or {}).items():
        net.set_cache_capacity(v, c)
    catalog = tuple(f"item{k}" for k in range(catalog_size))
    if demand is None:
        demand = {(catalog[0], num_nodes - 1): 5.0, (catalog[-1], num_nodes - 1): 1.0}
    return ProblemInstance(
        network=net,
        catalog=catalog,
        demand=demand,
        pinned=pin_full_catalog(catalog, [0]),
    )


def random_uncapacitated_problem(seed: int) -> ProblemInstance:
    """Small random instance with unlimited link capacities (for Alg 1 tests)."""
    rng = np.random.default_rng(seed)
    import networkx as nx

    while True:
        g = nx.gnp_random_graph(6, 0.5, seed=seed, directed=True)
        seed += 10_000
        if g.number_of_edges() and nx.is_strongly_connected(g):
            break
    for u, v in g.edges:
        g.edges[u, v]["cost"] = float(rng.integers(1, 10))
        g.edges[u, v]["capacity"] = float("inf")
    net = CacheNetwork(g)
    catalog = ("A", "B", "C")
    caches = {1: 1, 2: 1}
    for v, c in caches.items():
        net.set_cache_capacity(v, c)
    demand = {}
    for item in catalog:
        for s in (3, 4, 5):
            if rng.random() < 0.7:
                demand[(item, s)] = float(rng.integers(1, 8))
    if not demand:
        demand[("A", 3)] = 2.0
    return ProblemInstance(
        network=net, catalog=catalog, demand=demand,
        pinned=pin_full_catalog(catalog, [0]),
    )


def brute_force_rnr_optimum(problem: ProblemInstance) -> float:
    """Exact optimal IC-IR cost under unlimited link capacities.

    Enumerates every integral placement within cache capacities and serves
    each request from its nearest replica (optimal routing in this regime).
    Distances come from pure-python Dijkstra, independent of the solvers'
    distance rows.
    """
    costs, _w_max = all_pairs_least_costs(problem.network.graph)
    cache_nodes = [
        v
        for v in problem.network.cache_nodes()
        if problem.network.cache_capacity(v) > 0
    ]
    per_node_options = []
    for v in cache_nodes:
        cap = int(problem.network.cache_capacity(v))
        options = []
        items = [i for i in problem.catalog if (v, i) not in problem.pinned]
        for k in range(0, min(cap, len(items)) + 1):
            options.extend(itertools.combinations(items, k))
        per_node_options.append(options)

    best = float("inf")
    for combo in itertools.product(*per_node_options):
        holders: dict = {}
        for v, chosen in zip(cache_nodes, combo):
            for i in chosen:
                holders.setdefault(i, set()).add(v)
        cost = 0.0
        for (item, s), rate in problem.demand.items():
            candidates = set(holders.get(item, set())) | problem.pinned_holders(item)
            d = min(costs[v].get(s, float("inf")) for v in candidates)
            cost += rate * d
        best = min(best, cost)
    return best


@pytest.fixture
def line_problem():
    return make_line_problem(cache_nodes={3: 1})
