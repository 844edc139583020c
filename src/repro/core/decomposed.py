"""Cluster-decomposed solving: Algorithm 1 at 10k-node scale (ROADMAP item 3).

The exact solvers carry an O(|V|²) distance structure and an LP whose row
count grows with (requests × eligible sources); neither survives the
10k-node ISP/CDN topologies the production north-star demands.  This module
trades a measured optimality gap for locality, following the cluster
pattern of Icarus's ``HashroutingClustered`` and the decomposition folklore
of the caching literature:

1. **Partition** the graph into connected clusters by seeded BFS *balloon
   growth*: greedy farthest-first seed selection, then round-robin
   frontier expansion, one hop per cluster per round, claiming unassigned
   nodes deterministically (:func:`partition_graph`).
2. **Stitch** each cluster to the rest of the world through its boundary
   nodes: for every item requested inside the cluster whose pinned holders
   (origins) live outside, a *virtual origin* node is attached with
   directed links onto each boundary node, priced at the **true**
   full-graph least cost from the external holder to that boundary
   (computed from O(#origins) lazy distance rows, never the full matrix).
   A cluster-level super-topology is also exposed for diagnostics
   (:func:`super_topology`).
3. **Solve** each cluster's sub-instance with the exact Algorithm 1 —
   small dense contexts, the LP (7) machinery unchanged — in parallel
   across a process pool (:func:`decomposed_solve`), then **compose**: the
   per-cluster placements union into a feasible global placement (clusters
   own disjoint cache nodes), and the global routing is plain RNR over the
   full topology (holder rows only, above the dense threshold).
4. **Measure** the price: :func:`decomposition_gap` runs the exact solve
   next to the decomposed one on mid-size instances (exact is still
   feasible ≤ ~500 nodes) and reports the relative cost gap — the bench
   gates it (see ``benchmarks/bench_scale_decomposition.py``).

The approximation is one-sided by construction: every serving path the
decomposed solution uses exists in the real graph with at most the modeled
cost (the virtual-origin price ``d(h, b) + d_sub(b, s)`` upper-bounds the
true ``d(h, s)``), and the final reported cost is evaluated *exactly* on
the full topology, so the gap is a true measurement, not a model artifact.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.algorithm1 import Algorithm1Result, algorithm1
from repro.core.context import SolverContext
from repro.core.evaluation import routing_cost
from repro.core.problem import Item, Node, ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement, Solution
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.graph.network import CAPACITY, COST, CacheNetwork

__all__ = [
    "ClusterPartition",
    "ClusterReport",
    "DecomposedResult",
    "DecompositionGap",
    "partition_graph",
    "super_topology",
    "cluster_subproblem",
    "decomposed_solve",
    "decomposition_gap",
    "default_cluster_count",
    "touched_clusters",
    "restrict_partition",
    "resolve_clusters",
]

#: Virtual origin nodes are tagged so composition can filter them out.
_ORIGIN_TAG = "__ext_origin__"


def _origin_node(item: Item) -> tuple[str, Item]:
    return (_ORIGIN_TAG, item)


def _undirected_neighbors(graph: nx.DiGraph) -> dict[Node, list[Node]]:
    """Per-node neighbor lists (both directions), repr-sorted for determinism."""
    nbrs: dict[Node, set[Node]] = {v: set() for v in graph.nodes}
    for u, v in graph.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return {v: sorted(ns, key=repr) for v, ns in nbrs.items()}


@dataclass(frozen=True)
class ClusterPartition:
    """A node partition into connected clusters plus its bookkeeping."""

    #: Cluster id of every node.
    labels: dict[Node, int]
    #: Nodes of each cluster, in the owning graph's insertion order.
    clusters: tuple[tuple[Node, ...], ...]
    #: The BFS growth seeds, one per cluster.
    seeds: tuple[Node, ...]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]


def default_cluster_count(num_nodes: int) -> int:
    """Heuristic cluster count: ~sqrt(|V|)/2, at least 2.

    Balances sub-LP size (shrinks with more clusters) against stitching
    error (grows with more boundary crossings); the bench sweeps around it.
    """
    return max(2, int(round(math.sqrt(num_nodes) / 2)))


def partition_graph(
    network: CacheNetwork, n_clusters: int | None = None, *, seed: int = 0
) -> ClusterPartition:
    """Partition the topology into connected clusters by BFS balloon growth.

    Seeds are chosen farthest-first on hop distance (the first uniformly at
    random under ``seed``), then clusters claim nodes by expanding their
    BFS frontier one hop per round in cluster order — deterministic: node
    iteration is repr-sorted everywhere and ties go to the lower cluster
    id.  Every cluster is connected by construction; nodes unreachable from
    any seed (disconnected topologies) are appended to the smallest
    cluster.
    """
    graph = network.graph
    nodes = list(graph.nodes)
    n = len(nodes)
    if n == 0:
        raise InvalidProblemError("cannot partition an empty network")
    k = default_cluster_count(n) if n_clusters is None else int(n_clusters)
    if not 1 <= k <= n:
        raise InvalidProblemError(f"n_clusters must be in [1, {n}]")
    nbrs = _undirected_neighbors(graph)
    rng = np.random.default_rng(seed)

    ordered = sorted(nodes, key=repr)
    seeds: list[Node] = [ordered[int(rng.integers(n))]]
    hop = {seeds[0]: 0}
    frontier = deque([seeds[0]])
    while frontier:  # BFS hop distances from the current seed set
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

    labels: dict[Node, int] = {}
    frontiers: list[deque[Node]] = []
    for cid, s in enumerate(seeds):
        labels[s] = cid
        frontiers.append(deque(w for w in nbrs[s] if w not in labels))
    claimed = len(seeds)
    # Round-robin, one node per cluster per round: cluster sizes stay
    # balanced (within one node) until a cluster's frontier runs dry.
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
    leftovers = [v for v in ordered if v not in labels]
    for v in leftovers:  # disconnected from every seed
        smallest = min(
            range(len(seeds)), key=lambda c: sum(1 for x in labels.values() if x == c)
        )
        labels[v] = smallest

    clusters: list[list[Node]] = [[] for _ in seeds]
    for v in nodes:  # graph insertion order within each cluster
        clusters[labels[v]].append(v)
    return ClusterPartition(
        labels=labels,
        clusters=tuple(tuple(c) for c in clusters),
        seeds=tuple(seeds),
    )


def super_topology(network: CacheNetwork, partition: ClusterPartition) -> CacheNetwork:
    """Cluster-level quotient topology (diagnostics and coarse solves).

    One node per cluster; a directed super-link per ordered cluster pair
    with at least one crossing link, priced at the cheapest crossing link
    and sized at the summed crossing capacity.  Cluster cache capacity is
    the sum over member nodes.
    """
    graph = network.graph
    quotient = nx.DiGraph()
    quotient.add_nodes_from(range(partition.n_clusters))
    best_cost: dict[tuple[int, int], float] = {}
    total_cap: dict[tuple[int, int], float] = {}
    for u, v, data in graph.edges(data=True):
        cu, cv = partition.labels[u], partition.labels[v]
        if cu == cv:
            continue
        key = (cu, cv)
        cost = float(data.get(COST, 1.0))
        cap = float(data.get(CAPACITY, math.inf))
        if key not in best_cost or cost < best_cost[key]:
            best_cost[key] = cost
        total_cap[key] = total_cap.get(key, 0.0) + cap
    for (cu, cv), cost in best_cost.items():
        quotient.add_edge(cu, cv, **{COST: cost, CAPACITY: total_cap[(cu, cv)]})
    caps = {cid: 0.0 for cid in range(partition.n_clusters)}
    for v in network.nodes:
        caps[partition.labels[v]] += network.cache_capacity(v)
    return CacheNetwork(quotient, caps)


def _boundary_nodes(
    graph: nx.DiGraph, partition: ClusterPartition, cid: int
) -> list[Node]:
    """Cluster members with at least one link crossing the cluster edge."""
    out = set()
    for u, v in graph.edges:
        cu, cv = partition.labels[u], partition.labels[v]
        if cu == cid and cv != cid:
            out.add(u)
        elif cv == cid and cu != cid:
            out.add(v)
    return sorted(out, key=repr)


def cluster_subproblem(
    problem: ProblemInstance,
    partition: ClusterPartition,
    cid: int,
    holder_rows: dict[Node, np.ndarray],
    node_index: dict[Node, int],
) -> ProblemInstance | None:
    """The sub-instance of one cluster, stitched at its boundary.

    ``holder_rows`` maps each pinned holder of the full problem to its
    full-graph distance row (``holder_rows[h][node_index[b]]`` is the true
    least cost ``h -> b``); external holders of an item become one virtual
    origin node pinned with the item and wired onto every boundary node at
    that true cost.  Returns ``None`` when the cluster hosts no demand.
    """
    members = partition.clusters[cid]
    member_set = set(members)
    demand = {
        (i, s): r for (i, s), r in problem.demand.items() if s in member_set
    }
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

    pinned = {
        (v, i) for (v, i) in problem.pinned if v in member_set and i in item_set
    }
    boundary = _boundary_nodes(graph, partition, cid)
    for item in items:
        external = sorted(
            # ``h in holder_rows`` guards against holders that are not on
            # the current graph at all (a dead pinned origin of a degraded
            # instance) — on healthy instances every holder has a row.
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


@dataclass(frozen=True)
class ClusterReport:
    """Per-cluster solve summary (picklable, crosses the pool boundary)."""

    cluster: int
    n_nodes: int
    n_requests: int
    n_cache_nodes: int
    lp_objective: float
    solve_seconds: float


@dataclass(frozen=True)
class DecomposedResult:
    """Composed global solution of a cluster-decomposed solve."""

    solution: Solution
    #: Exact RNR routing cost of the composed solution on the full topology.
    cost: float
    partition: ClusterPartition
    reports: tuple[ClusterReport, ...]
    total_seconds: float
    #: True when the per-cluster solves ran in a process pool.
    ran_parallel: bool


def _solve_cluster(
    payload: tuple[int, ProblemInstance, bool],
) -> tuple[int, dict, ClusterReport]:
    """Pool worker: exact Algorithm 1 on one cluster sub-instance."""
    cid, sub, polish = payload
    t0 = time.perf_counter()
    result: Algorithm1Result = algorithm1(
        sub, polish=polish, context=SolverContext.from_problem(sub)
    )
    elapsed = time.perf_counter() - t0
    entries = {
        key: val
        for key, val in result.solution.placement.items()
        if not (isinstance(key[0], tuple) and key[0][:1] == (_ORIGIN_TAG,))
    }
    report = ClusterReport(
        cluster=cid,
        n_nodes=sub.network.num_nodes,
        n_requests=len(sub.demand),
        n_cache_nodes=len(sub.network.cache_nodes()),
        lp_objective=result.lp_objective,
        solve_seconds=elapsed,
    )
    return cid, entries, report


def decomposed_solve(
    problem: ProblemInstance,
    *,
    n_clusters: int | None = None,
    seed: int = 0,
    parallel: bool = True,
    max_workers: int | None = None,
    polish: bool = True,
    context: SolverContext | None = None,
) -> DecomposedResult:
    """Cluster-decomposed Algorithm 1 over an arbitrarily large topology.

    Partition, stitch, solve the clusters (in a process pool when
    ``parallel`` — serial fallback on any pool failure, composition is
    bit-identical either way because results are consumed in cluster
    order), union the placements, and route the *full* problem with RNR.
    The returned :attr:`DecomposedResult.cost` is evaluated exactly on the
    real topology under the composed placement.

    ``context`` carries the global distance rows (holder rows for the
    stitching, then the global routing); by default one is built with
    :meth:`SolverContext.from_problem` (rows on demand above the dense
    threshold, where only holder rows are ever materialized).
    """
    t_start = time.perf_counter()
    partition = partition_graph(problem.network, n_clusters, seed=seed)

    context = context or SolverContext.from_problem(problem)
    holders = sorted({v for (v, _i) in problem.pinned}, key=repr)
    holder_rows = dict(zip(holders, context.rows_of(holders)))
    node_index = context.node_index

    payloads = []
    for cid in range(partition.n_clusters):
        sub = cluster_subproblem(problem, partition, cid, holder_rows, node_index)
        if sub is not None:
            payloads.append((cid, sub, polish))

    results: dict[int, tuple[dict, ClusterReport]] = {}
    ran_parallel = False
    if parallel and len(payloads) > 1:
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                for cid, entries, report in pool.map(_solve_cluster, payloads):
                    results[cid] = (entries, report)
            ran_parallel = True
        except (BrokenProcessPool, OSError, RuntimeError):
            results.clear()
    if not results:
        for payload in payloads:
            cid, entries, report = _solve_cluster(payload)
            results[cid] = (entries, report)

    entries: dict[tuple[Node, Item], float] = {}
    reports: list[ClusterReport] = []
    for cid in sorted(results):
        cluster_entries, report = results[cid]
        entries.update(cluster_entries)
        reports.append(report)
    placement = Placement(entries)

    routing = route_to_nearest_replica(problem, placement, context=context)
    cost = routing_cost(problem, routing)
    return DecomposedResult(
        solution=Solution(placement, routing),
        cost=cost,
        partition=partition,
        reports=tuple(reports),
        total_seconds=time.perf_counter() - t_start,
        ran_parallel=ran_parallel,
    )


# ----------------------------------------------------------------------
# Cluster-local re-optimization (failure recovery at scale)
# ----------------------------------------------------------------------


def touched_clusters(
    partition: ClusterPartition,
    *,
    failed_nodes=(),
    failed_links=(),
) -> frozenset[int]:
    """Cluster ids a failure touches (either endpoint of any failed element).

    A failed node touches its own cluster; a failed directed link touches
    both endpoint clusters (a crossing link touches two).  Elements outside
    the partition's label map (already-removed nodes of a chained
    derivation) are ignored.  When the result is a strict subset of all
    clusters, re-solving only those clusters is exact with respect to the
    decomposed model: every other cluster's sub-instance — members, local
    links, boundary set, and virtual-origin prices, which are least costs
    out of *pinned holders* and therefore unchanged while the holders'
    clusters are untouched — is byte-identical to its healthy twin.
    """
    labels = partition.labels
    touched: set[int] = set()
    for v in failed_nodes:
        cid = labels.get(v)
        if cid is not None:
            touched.add(cid)
    for u, v in failed_links:
        for end in (u, v):
            cid = labels.get(end)
            if cid is not None:
                touched.add(cid)
    return frozenset(touched)


def restrict_partition(
    partition: ClusterPartition, surviving
) -> ClusterPartition:
    """``partition`` with dead nodes dropped; cluster ids are preserved.

    ``surviving`` is the surviving node set.  Cluster ids keep their
    original numbering (a cluster may come back empty), so touched-cluster
    ids computed against the healthy partition stay valid against the
    restricted one.
    """
    alive = set(surviving)
    return ClusterPartition(
        labels={v: c for v, c in partition.labels.items() if v in alive},
        clusters=tuple(
            tuple(v for v in cluster if v in alive)
            for cluster in partition.clusters
        ),
        seeds=partition.seeds,
    )


def _is_origin(v) -> bool:
    return isinstance(v, tuple) and v[:1] == (_ORIGIN_TAG,)


def _reachable_reduction(
    sub: ProblemInstance,
) -> tuple[ProblemInstance | None, frozenset]:
    """Reduce a (possibly degraded) cluster sub-instance to its servable part.

    On a healthy topology every requester can reach a pinned source
    (in-cluster holder or attached virtual origin), and the sub-instance is
    returned unchanged.  A degraded cluster may contain components cut off
    from every source; the exact Algorithm 1 cannot serve those, so this
    strips them: demand is kept iff its requester is reachable *from* some
    pinned source of its item (routing runs source → requester), and the
    instance is induced on the union of source-reachable nodes — exact,
    since any optimal source→requester path only visits source-reachable
    nodes.  Returns ``(reduced_instance_or_None, preserved_nodes)`` where
    ``preserved_nodes`` are the real (non-virtual) cluster members outside
    the servable part: their surviving placement entries must be carried
    over verbatim, because on the symmetric topologies this package builds
    they are exactly the replicas that may still serve an isolated
    component, and the re-solve never places onto them.
    """
    graph = sub.network.graph
    sources_by_item: dict[Item, frozenset] = {}
    for v, i in sub.pinned:
        sources_by_item[i] = sources_by_item.get(i, frozenset()) | {v}

    reach_cache: dict[frozenset, set] = {}

    def reach(sources: frozenset) -> set:
        got = reach_cache.get(sources)
        if got is None:
            got = set(sources)
            for s in sources:
                got |= nx.descendants(graph, s)
            reach_cache[sources] = got
        return got

    keep = {
        (i, s): r
        for (i, s), r in sub.demand.items()
        if i in sources_by_item and s in reach(sources_by_item[i])
    }
    if len(keep) == len(sub.demand):
        return sub, frozenset()
    members = [v for v in graph if not _is_origin(v)]
    if not keep:
        return None, frozenset(members)
    live: set = set()
    for sources in sources_by_item.values():
        live |= reach(sources)
    reduced_graph = graph.subgraph(live).copy()
    caps = {v: sub.network.cache_capacity(v) for v in members if v in live}
    reduced = ProblemInstance(
        network=CacheNetwork(reduced_graph, caps),
        catalog=sub.catalog,
        demand=keep,
        item_sizes=sub.item_sizes,
        pinned=frozenset((v, i) for (v, i) in sub.pinned if v in live),
    )
    return reduced, frozenset(v for v in members if v not in live)


def resolve_clusters(
    problem: ProblemInstance,
    partition: ClusterPartition,
    placement: Placement,
    cluster_ids,
    *,
    context: SolverContext | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
    polish: bool = True,
) -> tuple[Placement, tuple[ClusterReport, ...]]:
    """Re-solve the named clusters of ``problem`` and stitch into ``placement``.

    ``problem`` is typically a *degraded* instance and ``partition`` the
    healthy topology's partition — it is restricted to the surviving nodes
    first (ids preserved).  Each named cluster's sub-instance is rebuilt on
    the current graph (fresh boundary stitching, virtual-origin prices from
    the current holder rows), reduced to its source-reachable part
    (:func:`_reachable_reduction` — a degraded cluster may hold components
    no re-solve can serve), and solved with the exact Algorithm 1.  The
    returned placement keeps every entry of ``placement`` whose cache node
    lives in an *untouched* cluster, replaces the re-solved, source-
    reachable caches' entries wholesale (per-cluster capacity holds by
    construction — clusters own disjoint cache nodes), and preserves the
    surviving entries on nodes the re-solve could not reach (isolated
    components keep serving from whatever replicas they still hold; also
    the fallback when a cluster solve turns out infeasible).

    ``context`` supplies the holder distance rows (``rows_of`` over the
    pinned holders); without one, :meth:`SolverContext.from_problem`
    builds it.  ``parallel`` solves the named clusters in a process pool
    with the same serial fallback as :func:`decomposed_solve`.
    """
    graph = problem.network.graph
    part = restrict_partition(partition, graph.nodes)
    wanted = sorted(int(c) for c in cluster_ids)
    for cid in wanted:
        if not 0 <= cid < part.n_clusters:
            raise InvalidProblemError(f"unknown cluster id {cid}")

    context = context or SolverContext.from_problem(problem)
    holders = sorted(
        {v for (v, _i) in problem.pinned if v in graph}, key=repr
    )
    holder_rows = dict(zip(holders, context.rows_of(holders)))
    node_index = context.node_index

    preserved: set = set()
    payloads = []
    for cid in wanted:
        sub = cluster_subproblem(problem, part, cid, holder_rows, node_index)
        if sub is None:
            # No local demand — but the cluster's replicas may still serve
            # other clusters through the global routing pass, so keep them.
            preserved.update(part.clusters[cid])
            continue
        reduced, cut_off = _reachable_reduction(sub)
        preserved.update(cut_off)
        if reduced is not None:
            payloads.append((cid, reduced, polish))

    results: dict[int, tuple[dict, ClusterReport]] = {}
    ran = False
    if parallel and len(payloads) > 1:
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                for cid, entries, rep in pool.map(_solve_cluster, payloads):
                    results[cid] = (entries, rep)
            ran = True
        except (BrokenProcessPool, OSError, RuntimeError, InfeasibleError):
            results.clear()
    if not ran and not results:
        for payload in payloads:
            try:
                cid, entries, rep = _solve_cluster(payload)
            except InfeasibleError:
                # Defense in depth: an unservable corner the reduction did
                # not anticipate — keep the cluster's surviving entries.
                preserved.update(part.clusters[payload[0]])
                continue
            results[cid] = (entries, rep)

    touched = set(wanted)
    merged: dict[tuple[Node, Item], float] = {
        key: val
        for key, val in placement.items()
        if part.labels.get(key[0]) not in touched or key[0] in preserved
    }
    reports: list[ClusterReport] = []
    for cid in sorted(results):
        cluster_entries, rep = results[cid]
        merged.update(cluster_entries)
        reports.append(rep)
    return Placement(merged), tuple(reports)


@dataclass(frozen=True)
class DecompositionGap:
    """Measured optimality gap of the decomposed solve vs. the exact one."""

    exact_cost: float
    decomposed_cost: float
    #: ``(decomposed - exact) / exact`` (0.0 when both costs are 0).
    relative_gap: float
    n_clusters: int
    cluster_sizes: tuple[int, ...] = field(default_factory=tuple)


def decomposition_gap(
    problem: ProblemInstance,
    *,
    n_clusters: int | None = None,
    seed: int = 0,
    parallel: bool = False,
    polish: bool = True,
) -> DecompositionGap:
    """Run the exact and the decomposed solve side by side and report the gap.

    Only sensible on mid-size instances where the exact Algorithm 1 is
    still feasible (≤ ~500 nodes); this is the cross-check the scale bench
    gates.  Both costs are exact RNR routing costs on the full topology.
    """
    exact = algorithm1(
        problem, polish=polish, context=SolverContext.from_problem(problem)
    )
    exact_cost = routing_cost(problem, exact.solution.routing)
    dec = decomposed_solve(
        problem, n_clusters=n_clusters, seed=seed, parallel=parallel, polish=polish
    )
    if exact_cost > 0:
        gap = (dec.cost - exact_cost) / exact_cost
    else:
        gap = 0.0 if dec.cost <= 0 else math.inf
    return DecompositionGap(
        exact_cost=exact_cost,
        decomposed_cost=dec.cost,
        relative_gap=gap,
        n_clusters=dec.partition.n_clusters,
        cluster_sizes=tuple(dec.partition.sizes()),
    )
