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
:func:`repro.robustness.degraded.degraded_context`); without one, a lazy
context of the degraded instance is built.  Holder distances and repair
gains are vectorized reductions over the context's distance rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.context import SolverContext
from repro.core.problem import Item, Node, ProblemInstance, Request
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement, Routing, Solution
from repro.robustness.faults import DegradedProblem

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
    context: SolverContext | None = None,
) -> RecoveryResult:
    """Re-route (and optionally repair) a healthy placement after failures.

    ``context``, when given, must be a solver context *of the degraded
    instance* (see :func:`repro.robustness.degraded.degraded_context`); the
    re-routing and the repair greedy share it.
    """
    survivor, dropped = surviving_placement(placement, degraded)
    problem = degraded.problem
    context = context or SolverContext.from_problem(problem, backend="lazy")
    routing = route_to_nearest_replica(
        problem, survivor, on_unservable="partial", context=context
    )
    repaired: list[tuple[Node, Item]] = []
    if repair:
        repaired = repair_placement(problem, survivor, context=context)
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
    context: SolverContext | None = None,
) -> list[tuple[Node, Item]]:
    """Greedy incremental repair: refill residual cache space in place.

    Mutates ``placement`` by inserting whole copies (fraction 1.0) into
    surviving caches with enough residual space, ordered by marginal
    serving-cost saving; returns the inserted ``(node, item)`` entries.
    Deterministic: ties break on ``repr`` of the candidate.  Per-requester
    current costs live in one array per item (aligned with the context's
    requester blocks), and marginal gains are clipped dot products over the
    context's distance rows.
    """
    ctx = context or SolverContext.from_problem(problem, backend="lazy")
    nidx = ctx.node_index
    cache_nodes = sorted(problem.network.cache_nodes(), key=repr)
    usage = placement.used_capacities(problem)
    residual = {
        v: problem.network.cache_capacity(v) - usage.get(v, 0)
        for v in cache_nodes
    }

    # Penalty for an unserved request: strictly above every finite distance
    # out of cache/pinned nodes, so restoring service dominates re-shuffling
    # already-served items.  ``finite_max_from`` is a row-oriented backend
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
    while True:
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
    context: SolverContext | None = None,
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
    context = context or SolverContext.from_problem(problem, backend="lazy")
    touched = touched_clusters(
        partition,
        failed_nodes=degraded.failed_nodes,
        failed_links=degraded.failed_links,
    )
    if touched:
        new_placement, _reports = resolve_clusters(
            problem, partition, survivor, sorted(touched), context=context
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
