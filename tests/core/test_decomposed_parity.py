"""Cluster decomposition against the per-cluster scans it replaced.

:func:`~repro.core.decomposed.cluster_subproblem` reads a cluster's links,
boundary and demand from a :class:`~repro.core.decomposed.ClusterIndex`
built in one pass, and :func:`~repro.core.decomposed.partition_graph` picks
its farthest-first seeds with one ``argmax`` per seed.  The references kept
here are the code they replaced:

- :func:`reference_subproblem` filters every link and every request per
  cluster and finds the boundary with a whole-graph scan per cluster
  (``_boundary_nodes``);
- :func:`reference_partition` picks each seed with ``max(key=(hop, repr))``
  over every node.

Sub-instances must match in node order, edge order and attributes
(virtual-origin links included), pinned set, demand order, catalog, sizes
and cache capacities, on healthy instances and on degraded ones (a link
failure, a node failure, a capacity degradation).  Partitions must match in
seeds and labels, on disconnected graphs and at k = n too.
"""

import math
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterIndex,
    ProblemInstance,
    SolverContext,
    cluster_subproblem,
    partition_graph,
    pin_full_catalog,
    restrict_partition,
)
from repro.core.decomposed import _origin_node, _undirected_neighbors
from repro.graph import CacheNetwork, deltacom, random_topology, tinet
from repro.graph.network import CAPACITY, COST
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
)

# ----------------------------------------------------------------------
# References: the replaced code
# ----------------------------------------------------------------------


def reference_partition(network, k, seed):
    """Seeds and labels of the ``max(key=(hop, repr))`` seed loop."""
    graph = network.graph
    nodes = list(graph.nodes)
    n = len(nodes)
    nbrs = _undirected_neighbors(graph)
    rng = np.random.default_rng(seed)
    ordered = sorted(nodes, key=repr)
    seeds = [ordered[int(rng.integers(n))]]
    hop = {seeds[0]: 0}
    frontier = deque([seeds[0]])
    while frontier:
        u = frontier.popleft()
        for w in nbrs[u]:
            if w not in hop:
                hop[w] = hop[u] + 1
                frontier.append(w)
    while len(seeds) < k:
        best = max(
            (v for v in ordered if v not in seeds),
            key=lambda v: (hop.get(v, math.inf), repr(v)),
        )
        seeds.append(best)
        frontier = deque([best])
        hop[best] = 0
        while frontier:
            u = frontier.popleft()
            for w in nbrs[u]:
                if hop.get(w, math.inf) > hop[u] + 1:
                    hop[w] = hop[u] + 1
                    frontier.append(w)

    labels = {}
    frontiers = []
    for cid, s in enumerate(seeds):
        labels[s] = cid
        frontiers.append(deque(w for w in nbrs[s] if w not in labels))
    claimed = len(seeds)
    while claimed < n and any(frontiers):
        for cid, fr in enumerate(frontiers):
            while fr:
                w = fr.popleft()
                if w in labels:
                    continue
                labels[w] = cid
                claimed += 1
                fr.extend(x for x in nbrs[w] if x not in labels)
                break
    for v in [v for v in ordered if v not in labels]:
        smallest = min(
            range(len(seeds)), key=lambda c: sum(1 for x in labels.values() if x == c)
        )
        labels[v] = smallest
    return tuple(seeds), labels


def reference_boundary(graph, partition, cid):
    """``_boundary_nodes``: a whole-graph scan per cluster."""
    out = set()
    for u, v in graph.edges:
        cu, cv = partition.labels[u], partition.labels[v]
        if cu == cid and cv != cid:
            out.add(u)
        elif cv == cid and cu != cid:
            out.add(v)
    return sorted(out, key=repr)


def reference_subproblem(problem, partition, cid, holder_rows, node_index):
    """The per-cluster edge, demand and boundary scans."""
    members = partition.clusters[cid]
    member_set = set(members)
    demand = {(i, s): r for (i, s), r in problem.demand.items() if s in member_set}
    if not demand:
        return None
    items = sorted({i for (i, _s) in demand}, key=repr)
    item_set = set(items)
    graph = problem.network.graph
    sub = nx.DiGraph()
    sub.add_nodes_from(members)
    for u, v, data in graph.edges(data=True):
        if u in member_set and v in member_set:
            sub.add_edge(
                u,
                v,
                **{
                    COST: float(data.get(COST, 1.0)),
                    CAPACITY: float(data.get(CAPACITY, math.inf)),
                },
            )
    pinned = {(v, i) for (v, i) in problem.pinned if v in member_set and i in item_set}
    boundary = reference_boundary(graph, partition, cid)
    for item in items:
        external = sorted(
            (
                h
                for h in problem.pinned_holders(item)
                if h not in member_set and h in holder_rows
            ),
            key=repr,
        )
        if not external:
            continue
        rows = [holder_rows[h] for h in external]
        origin = _origin_node(item)
        attached = False
        for b in boundary:
            j = node_index[b]
            cost = min(float(row[j]) for row in rows)
            if math.isfinite(cost):
                sub.add_edge(origin, b, **{COST: cost, CAPACITY: math.inf})
                attached = True
        if attached:
            pinned.add((origin, item))
    caps = {v: problem.network.cache_capacity(v) for v in members}
    sizes = (
        None
        if problem.item_sizes is None
        else {i: problem.item_sizes[i] for i in items}
    )
    return ProblemInstance(
        network=CacheNetwork(sub, caps),
        catalog=tuple(items),
        demand=demand,
        item_sizes=sizes,
        pinned=frozenset(pinned),
    )


# ----------------------------------------------------------------------
# Sub-instance parity
# ----------------------------------------------------------------------


def assert_same_instance(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    g, w = got.network.graph, want.network.graph
    assert list(g.nodes) == list(w.nodes)
    assert list(g.edges(data=True)) == list(w.edges(data=True))
    assert list(got.pinned) == list(want.pinned)
    assert list(got.demand.items()) == list(want.demand.items())
    assert got.catalog == want.catalog
    assert got.item_sizes == want.item_sizes
    assert list(got.network.cache_capacities.items()) == list(
        want.network.cache_capacities.items()
    )


def assert_subproblems_match(problem, partition):
    context = SolverContext.from_problem(problem, backend="lazy")
    graph = problem.network.graph
    holders = sorted({v for (v, _i) in problem.pinned if v in graph}, key=repr)
    holder_rows = dict(zip(holders, context.rows_of(holders)))
    index = ClusterIndex.build(problem, partition)
    for cid in range(partition.n_clusters):
        got = cluster_subproblem(
            problem, partition, cid, holder_rows, context.node_index, index
        )
        want = reference_subproblem(
            problem, partition, cid, holder_rows, context.node_index
        )
        assert_same_instance(got, want)


def random_problem(net, rng, *, n_items, n_requesters, n_origins, sized, oneway=False):
    if oneway:  # drop one direction of some links: boundaries become asymmetric
        for u, v in list(net.graph.edges):
            if net.graph.has_edge(v, u) and rng.random() < 0.3:
                net.graph.remove_edge(u, v)
    nodes = list(net.nodes)
    items = [f"it{k}" for k in range(n_items)]
    demand = {}
    for it in items:
        picks = rng.choice(len(nodes), size=min(n_requesters, len(nodes)), replace=False)
        for s in picks:
            demand[(it, nodes[int(s)])] = float(rng.uniform(0.5, 2.0))
    origins = [nodes[int(k)] for k in rng.choice(len(nodes), size=n_origins, replace=False)]
    caps = {v: float(rng.integers(0, 3)) for v in nodes}
    for (u, v) in net.graph.edges:
        net.graph.edges[u, v][CAPACITY] = float(rng.uniform(1.0, 5.0))
    return ProblemInstance(
        network=CacheNetwork(net.graph, caps),
        catalog=tuple(items),
        demand=demand,
        item_sizes={it: float(rng.uniform(0.5, 2.0)) for it in items} if sized else None,
        pinned=pin_full_catalog(items, origins),
    )


FACTORIES = {
    "tinet": tinet,
    "deltacom": deltacom,
    "random": lambda: random_topology(30, seed=5),
}


class TestSubproblemParity:
    @settings(max_examples=30, deadline=None)
    @given(
        topology=st.sampled_from(sorted(FACTORIES)),
        k=st.integers(1, 9),
        seed=st.integers(0, 10_000),
        fault=st.sampled_from(["none", "link", "node", "capacity"]),
        sized=st.booleans(),
        oneway=st.booleans(),
    )
    def test_matches_per_cluster_scans(self, topology, k, seed, fault, sized, oneway):
        rng = np.random.default_rng(seed)
        problem = random_problem(
            FACTORIES[topology](),
            rng,
            n_items=int(rng.integers(1, 5)),
            n_requesters=int(rng.integers(1, 12)),
            n_origins=int(rng.integers(1, 3)),
            sized=sized,
            oneway=oneway,
        )
        partition = partition_graph(problem.network, k, seed=seed)
        if fault == "none":
            assert_subproblems_match(problem, partition)
            return
        links = canonical_links(problem)
        if fault == "link":
            u, v = links[int(rng.integers(len(links)))]
            faults = (LinkFailure(u, v),)
        elif fault == "node":
            nodes = list(problem.network.nodes)
            faults = (NodeFailure(nodes[int(rng.integers(len(nodes)))]),)
        else:
            edges = list(problem.network.graph.edges)
            picked = rng.choice(len(edges), size=min(5, len(edges)), replace=False)
            faults = (
                CapacityDegradation(0.5, tuple(edges[int(e)] for e in picked)),
            )
        degraded = apply_failure(problem, FailureScenario("parity", faults)).problem
        part = restrict_partition(partition, degraded.network.graph.nodes)
        assert_subproblems_match(degraded, part)

    def test_index_reads_degraded_capacities(self):
        rng = np.random.default_rng(3)
        problem = random_problem(
            tinet(), rng, n_items=2, n_requesters=20, n_origins=1, sized=False
        )
        partition = partition_graph(problem.network, 3, seed=0)
        scenario = FailureScenario("halve", (CapacityDegradation(0.5),))
        degraded = apply_failure(problem, scenario).problem
        healthy = ClusterIndex.build(problem, partition)
        index = ClusterIndex.build(degraded, partition)
        for cid in range(partition.n_clusters):
            for (_u, _v, _c, cap), (_hu, _hv, _hc, old) in zip(
                index.edges[cid], healthy.edges[cid]
            ):
                assert cap == old * 0.5


# ----------------------------------------------------------------------
# Partition parity
# ----------------------------------------------------------------------


@st.composite
def maybe_disconnected_networks(draw):
    n = draw(st.integers(1, 25))
    labels = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=2 * n))
    graph = nx.DiGraph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(edges)
    return CacheNetwork(graph)


class TestPartitionParity:
    @settings(max_examples=80, deadline=None)
    @given(maybe_disconnected_networks(), st.data(), st.integers(0, 10_000))
    def test_matches_max_key_seed_loop(self, net, data, seed):
        n = net.num_nodes
        k = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        part = partition_graph(net, k, seed=seed)
        seeds, labels = reference_partition(net, k, seed)
        assert part.seeds == seeds
        assert part.labels == labels

    @pytest.mark.parametrize("factory", [tinet, deltacom])
    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_named_topologies(self, factory, k):
        net = factory()
        for seed in (0, 1):
            part = partition_graph(net, k, seed=seed)
            seeds, labels = reference_partition(net, k, seed)
            assert part.seeds == seeds
            assert part.labels == labels
