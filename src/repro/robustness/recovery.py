"""Graceful-degradation recovery after a failure scenario.

Given a placement computed on the *healthy* instance and the
:class:`~repro.robustness.faults.DegradedProblem` that survives a failure,
the recovery policy

1. drops placement entries stranded on failed nodes (their cached copies
   are gone),
2. re-routes every surviving request to its nearest surviving replica via
   the existing RNR machinery (``on_unservable="partial"`` — requests with
   no reachable replica stay unserved instead of aborting), and
3. optionally performs **incremental placement repair**: greedily refill
   residual cache space with the items whose re-routed serving cost (or
   strandedness) hurts most, then re-route once more.

The repair greedy is the failure-time analogue of the paper's
``F_RNR``-greedy: the marginal gain of caching item ``i`` at surviving node
``v`` is the demand-weighted serving-cost reduction over ``i``'s requesters,
with unservable requests charged a penalty above every finite distance so
restoring service always dominates shaving cost.

Every entry point accepts an optional ``context`` — a
:class:`~repro.core.context.SolverContext` built *for the degraded
instance* (usually derived from the healthy parent via
:func:`repro.robustness.degraded.degraded_context`).  With a context, holder
distances and repair gains are vectorized reductions over the context's
distance rows; without one the dict-based shortest-path cache is used, as
before.  Both paths compute the same quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import Item, Node, ProblemInstance, Request
from repro.core.rnr import ShortestPathCache, route_to_nearest_replica
from repro.core.solution import Placement, Routing, Solution
from repro.robustness.faults import DegradedProblem

if TYPE_CHECKING:
    from repro.core.context import SolverContext

_EPS = 1e-9
_SERVED_TOL = 1e-6


@dataclass
class RecoveryResult:
    """Outcome of recovering one failure scenario."""

    degraded: DegradedProblem
    #: Surviving placement, including any repaired (re-inserted) entries.
    placement: Placement
    #: Recovered routing (partial: stranded requests are simply absent/short).
    routing: Routing
    #: Placement entries dropped because their node failed.
    dropped: list[tuple[Node, Item]] = field(default_factory=list)
    #: Placement entries added by incremental repair.
    repaired: list[tuple[Node, Item]] = field(default_factory=list)
    #: Surviving requests left (partially) unserved: request -> unserved fraction.
    stranded: dict[Request, float] = field(default_factory=dict)

    @property
    def solution(self) -> Solution:
        return Solution(self.placement, self.routing)

    @property
    def unserved_fraction(self) -> float:
        """Unserved demand over the *healthy* instance's total demand.

        Counts both surviving-but-unservable requests and demand lost with
        failed requester nodes.
        """
        total = self.degraded.total_original_demand
        if total <= 0:
            return 0.0
        problem = self.degraded.problem
        unserved = sum(
            problem.demand[r] * frac for r, frac in self.stranded.items()
        )
        unserved += sum(self.degraded.lost_demand.values())
        return min(1.0, unserved / total)


def surviving_placement(
    placement: Placement, degraded: DegradedProblem
) -> tuple[Placement, list[tuple[Node, Item]]]:
    """Drop placement entries whose node failed; return (survivor, dropped)."""
    survivor = Placement()
    dropped: list[tuple[Node, Item]] = []
    for (v, i), x in placement.items():
        if v in degraded.failed_nodes:
            dropped.append((v, i))
        else:
            survivor[(v, i)] = x
    return survivor, dropped


def _stranded(problem: ProblemInstance, routing: Routing) -> dict[Request, float]:
    out: dict[Request, float] = {}
    for request in problem.demand:
        gap = 1.0 - routing.served_fraction(request)
        if gap > _SERVED_TOL:
            out[request] = gap
    return out


def recover(
    degraded: DegradedProblem,
    placement: Placement,
    *,
    repair: bool = False,
    max_repairs: int | None = None,
    context: "SolverContext | None" = None,
) -> RecoveryResult:
    """Re-route (and optionally repair) a healthy placement after failures.

    ``context``, when given, must be a solver context *of the degraded
    instance* (see :func:`repro.robustness.degraded.degraded_context`); it
    accelerates both the re-routing and the repair greedy without changing
    their decisions.
    """
    survivor, dropped = surviving_placement(placement, degraded)
    problem = degraded.problem
    routing = route_to_nearest_replica(
        problem, survivor, on_unservable="partial", context=context
    )
    repaired: list[tuple[Node, Item]] = []
    if repair:
        repaired = repair_placement(
            problem, survivor, max_repairs=max_repairs, context=context
        )
        if repaired:
            routing = route_to_nearest_replica(
                problem, survivor, on_unservable="partial", context=context
            )
    return RecoveryResult(
        degraded=degraded,
        placement=survivor,
        routing=routing,
        dropped=dropped,
        repaired=repaired,
        stranded=_stranded(problem, routing),
    )


def repair_placement(
    problem: ProblemInstance,
    placement: Placement,
    *,
    max_repairs: int | None = None,
    context: "SolverContext | None" = None,
) -> list[tuple[Node, Item]]:
    """Greedy incremental repair: refill residual cache space in place.

    Mutates ``placement`` by inserting whole copies (fraction 1.0) into
    surviving caches with enough residual space, ordered by marginal
    serving-cost saving; returns the inserted ``(node, item)`` entries.
    Deterministic: ties break on ``repr`` of the candidate.  With a
    ``context`` the per-requester serving costs and marginal gains are
    vectorized over the context's distance rows (same values, same choices).
    """
    if context is not None:
        return _repair_placement_ctx(
            problem, placement, context, max_repairs=max_repairs
        )
    sp = ShortestPathCache(problem)
    cache_nodes = sorted(problem.network.cache_nodes(), key=repr)
    residual = {
        v: problem.network.cache_capacity(v) - placement.used_capacity(v, problem)
        for v in cache_nodes
    }

    # Requesters per item with rates, plus each request's current best cost.
    requesters: dict[Item, list[tuple[Node, float]]] = {}
    for (item, s), rate in problem.demand.items():
        requesters.setdefault(item, []).append((s, rate))
    for lst in requesters.values():
        lst.sort(key=lambda pair: repr(pair[0]))

    # Penalty for an unserved request: strictly above every finite distance,
    # so restoring service dominates re-shuffling already-served items.
    pinned_nodes = sorted({v for v, _i in problem.pinned}, key=repr)
    finite = [
        d
        for v in (*cache_nodes, *pinned_nodes)
        for d in (sp.from_node(v)[0].values())
    ]
    penalty = 2.0 * (max(finite) if finite else 1.0) + 1.0

    def holders(item: Item) -> set[Node]:
        full = {
            v for v in placement.holders(item) if placement[(v, item)] >= 1 - _SERVED_TOL
        }
        return full | problem.pinned_holders(item)

    def current_cost(item: Item, s: Node) -> float:
        best = penalty
        for h in holders(item):
            d = sp.distance(h, s)
            if d < best:
                best = d
        return best

    cost: dict[Request, float] = {
        (item, s): current_cost(item, s)
        for item, lst in requesters.items()
        for s, _rate in lst
    }

    def gain(v: Node, item: Item) -> float:
        total = 0.0
        for s, rate in requesters.get(item, []):
            d = sp.distance(v, s)
            saved = cost[(item, s)] - d
            if saved > _EPS:
                total += rate * saved
        return total

    repaired: list[tuple[Node, Item]] = []
    budget = max_repairs if max_repairs is not None else len(cache_nodes) * len(
        problem.catalog
    )
    while len(repaired) < budget:
        best: tuple[float, str, Node, Item] | None = None
        for v in cache_nodes:
            for item in problem.catalog:
                if (v, item) in problem.pinned:
                    continue
                if placement[(v, item)] >= 1 - _SERVED_TOL:
                    continue
                if problem.size_of(item) > residual[v] + _EPS:
                    continue
                g = gain(v, item)
                if g <= _EPS:
                    continue
                key = (-g, repr((v, item)), v, item)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, _, v, item = best
        placement[(v, item)] = 1.0
        residual[v] -= problem.size_of(item)
        repaired.append((v, item))
        for s, _rate in requesters.get(item, []):
            d = sp.distance(v, s)
            if d < cost[(item, s)]:
                cost[(item, s)] = d
    return repaired


def _repair_placement_ctx(
    problem: ProblemInstance,
    placement: Placement,
    ctx: "SolverContext",
    *,
    max_repairs: int | None = None,
) -> list[tuple[Node, Item]]:
    """Dense-matrix implementation of :func:`repair_placement`.

    Same move structure and tie-breaking as the dict path; per-requester
    current costs live in one array per item (aligned with the context's
    requester blocks, which follow the same repr-sorted order as the dict
    path), and marginal gains are clipped dot products over matrix rows.
    """
    nidx = ctx.node_index
    cache_nodes = sorted(problem.network.cache_nodes(), key=repr)
    residual = {
        v: problem.network.cache_capacity(v) - placement.used_capacity(v, problem)
        for v in cache_nodes
    }

    # Penalty: strictly above every finite distance out of cache/pinned
    # nodes.  ``finite_max_from`` floors the max at 1.0 exactly like the
    # historical inline reduction did, and runs as a row-oriented backend
    # reduction, so the value does not depend on which rows are primed.
    pinned_nodes = sorted({v for v, _i in problem.pinned}, key=repr)
    probe = [v for v in (*cache_nodes, *pinned_nodes) if v in nidx]
    penalty = 2.0 * ctx.finite_max_from(probe) + 1.0

    items = sorted({i for (i, _s) in problem.demand}, key=repr)
    cost: dict[Item, np.ndarray] = {}
    for item in items:
        block = ctx.requesters(item)
        best = np.full(block.size, penalty, dtype=np.float64)
        holders = {
            v
            for v in placement.holders(item)
            if placement[(v, item)] >= 1 - _SERVED_TOL
        } | problem.pinned_holders(item)
        for h in holders:
            np.minimum(best, ctx.row_of(h)[block.idx], out=best)
        cost[item] = best

    def gain(v: Node, item: Item) -> float:
        best = cost.get(item)
        if best is None or best.size == 0:
            return 0.0
        block = ctx.requesters(item)
        diff = best - ctx.row_of(v)[block.idx]
        mask = diff > _EPS
        if not mask.any():
            return 0.0
        return float(diff[mask] @ block.rates[mask])

    repaired: list[tuple[Node, Item]] = []
    budget = max_repairs if max_repairs is not None else len(cache_nodes) * len(
        problem.catalog
    )
    while len(repaired) < budget:
        best_key: tuple[float, str, Node, Item] | None = None
        for v in cache_nodes:
            for item in problem.catalog:
                if (v, item) in problem.pinned:
                    continue
                if placement[(v, item)] >= 1 - _SERVED_TOL:
                    continue
                if problem.size_of(item) > residual[v] + _EPS:
                    continue
                g = gain(v, item)
                if g <= _EPS:
                    continue
                key = (-g, repr((v, item)), v, item)
                if best_key is None or key < best_key:
                    best_key = key
        if best_key is None:
            break
        _, _, v, item = best_key
        placement[(v, item)] = 1.0
        residual[v] -= problem.size_of(item)
        repaired.append((v, item))
        best = cost.get(item)
        if best is not None and best.size:
            np.minimum(best, ctx.row_of(v)[ctx.requesters(item).idx], out=best)
    return repaired


def cluster_local_recover(
    degraded: DegradedProblem,
    placement: Placement,
    partition,
    *,
    context: "SolverContext | None" = None,
    parallel: bool = False,
    max_workers: int | None = None,
    polish: bool = True,
) -> RecoveryResult:
    """Recover by re-solving only the clusters a failure touched.

    The scale-tier alternative to :func:`recover`'s greedy repair: given
    the healthy topology's :class:`~repro.core.decomposed.ClusterPartition`,
    the failed nodes/links name a set of *touched* clusters
    (:func:`~repro.core.decomposed.touched_clusters`); those clusters'
    sub-instances are rebuilt on the degraded graph and re-solved with the
    exact Algorithm 1 (:func:`~repro.core.decomposed.resolve_clusters`),
    while every untouched cluster keeps its surviving placement entries
    verbatim.  When a failure is confined to a strict subset of the
    clusters this replaces a global re-optimization with a handful of small
    cluster solves — the re-routing itself is still global RNR over the
    full surviving topology, so feasibility and served demand are evaluated
    exactly, not per cluster.

    ``repaired`` lists the placement entries the cluster re-solve installed
    that the surviving placement did not hold.  A capacity-only scenario
    touches no cluster and reduces to a plain partial re-route.  ``context``
    must be a context *of the degraded instance* (primed or lazy), as for
    :func:`recover`.
    """
    from repro.core.decomposed import resolve_clusters, touched_clusters

    survivor, dropped = surviving_placement(placement, degraded)
    problem = degraded.problem
    touched = touched_clusters(
        partition,
        failed_nodes=degraded.failed_nodes,
        failed_links=degraded.failed_links,
    )
    if touched:
        new_placement, _reports = resolve_clusters(
            problem,
            partition,
            survivor,
            sorted(touched),
            context=context,
            parallel=parallel,
            max_workers=max_workers,
            polish=polish,
        )
        repaired = sorted(
            (key for key in new_placement if key not in survivor),
            key=repr,
        )
    else:
        new_placement, repaired = survivor, []
    routing = route_to_nearest_replica(
        problem, new_placement, on_unservable="partial", context=context
    )
    return RecoveryResult(
        degraded=degraded,
        placement=new_placement,
        routing=routing,
        dropped=dropped,
        repaired=repaired,
        stranded=_stranded(problem, routing),
    )
