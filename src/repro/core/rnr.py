"""Route-to-nearest-replica (RNR) routing, Section 4.1.

Given a content placement, serve every request from the least-cost node
storing the requested item over a least-cost path.  Under fractional
placement the generalization of the paper applies: retrieve from the
nearest holder up to its stored fraction, then the second nearest, and so
on, until the request is fully covered (the origin's pinned copy guarantees
termination).

RNR is optimal under unlimited link capacities, and is also the routing
policy of the benchmark in [3] once restricted to candidate paths.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, Routing
from repro.exceptions import InfeasibleError
from repro.flow.decomposition import PathFlow
from repro.graph.shortest_paths import reconstruct_path, single_source_dijkstra

if TYPE_CHECKING:  # avoid a module cycle; context imports ShortestPathCache
    from repro.core.context import SolverContext

Node = Hashable

_EPS = 1e-9


class ShortestPathCache:
    """Memoized single-source Dijkstra runs over one network graph."""

    def __init__(self, problem: ProblemInstance) -> None:
        self._graph = problem.network.graph
        self._runs: dict[Node, tuple[dict, dict]] = {}

    def from_node(self, source: Node) -> tuple[dict, dict]:
        if source not in self._runs:
            self._runs[source] = single_source_dijkstra(self._graph, source)
        return self._runs[source]

    def distance(self, source: Node, target: Node) -> float:
        dist, _ = self.from_node(source)
        return dist.get(target, float("inf"))

    def path(self, source: Node, target: Node) -> tuple[Node, ...]:
        dist, pred = self.from_node(source)
        if target not in dist:
            raise InfeasibleError(f"{target!r} unreachable from {source!r}")
        return tuple(reconstruct_path(pred, source, target))


class PredecessorPathCache:
    """Path reconstruction from per-source scipy predecessor trees.

    Context RNR only needs actual node paths for holders that serve flow,
    and a failure sweep asks for paths out of many sources on many degraded
    graphs.  This oracle runs one
    ``scipy.sparse.csgraph.dijkstra(..., return_predecessors=True)`` per
    serving source (memoized) and backtracks the predecessor array, which is
    far cheaper than a pure-python Dijkstra per source.
    """

    def __init__(self, csgraph, nodes: tuple[Node, ...]) -> None:
        self._nodes = nodes
        # The distance rows' own CSR adjacency (shared, not rebuilt), so
        # paths follow the same shortest-path trees the rows measure.
        self._csgraph = csgraph
        self._pred: dict[int, np.ndarray] = {}
        self._paths: dict[tuple[int, int], tuple[Node, ...]] = {}

    def path_by_index(self, source: int, target: int) -> tuple[Node, ...]:
        """Shortest ``nodes[source] -> nodes[target]`` path as node labels."""
        cached = self._paths.get((source, target))
        if cached is not None:
            return cached
        pred = self._pred.get(source)
        if pred is None:
            from scipy.sparse.csgraph import dijkstra

            _, pred = dijkstra(
                self._csgraph,
                directed=True,
                indices=source,
                return_predecessors=True,
            )
            self._pred[source] = pred
        hops = [target]
        j = target
        while j != source:
            j = int(pred[j])
            if j < 0:
                nodes = self._nodes
                raise InfeasibleError(
                    f"{nodes[target]!r} unreachable from {nodes[source]!r}"
                )
            hops.append(j)
        nodes = self._nodes
        path = tuple(nodes[k] for k in reversed(hops))
        self._paths[(source, target)] = path
        return path


def route_to_nearest_replica(
    problem: ProblemInstance,
    placement: Placement,
    *,
    sp_cache: ShortestPathCache | None = None,
    context: "SolverContext | None" = None,
    on_unservable: str = "raise",
) -> Routing:
    """RNR routing for every request under the given placement.

    With a :class:`~repro.core.context.SolverContext`, holder distances come
    from the context's distance rows (no pure-python Dijkstra per holder)
    and paths are reconstructed from memoized scipy predecessor trees
    (:class:`PredecessorPathCache`), so serving costs are unchanged while a
    failure sweep stops paying a pure-python Dijkstra per serving holder.

    ``on_unservable`` controls what happens when a request cannot be fully
    covered by reachable holders (including pinned contents):

    - ``"raise"`` (default): raise :class:`InfeasibleError` — a healthy
      instance with a pinned origin should always be fully servable;
    - ``"partial"``: keep whatever fraction the reachable replicas cover and
      leave the rest unserved (the failure-recovery mode of
      :mod:`repro.robustness`; use
      :func:`repro.core.evaluation.unserved_fraction` to quantify the gap).
    """
    if on_unservable not in ("raise", "partial"):
        raise ValueError("on_unservable must be 'raise' or 'partial'")
    if context is not None:
        return _route_with_context(problem, placement, context, on_unservable)
    sp = sp_cache or ShortestPathCache(problem)
    dist_fn = sp.distance
    routing = Routing()
    item_fractions: dict[Node, dict[Node, float]] = {}
    for (item, requester), _rate in problem.demand.items():
        fractions = item_fractions.get(item)
        if fractions is None:
            fractions = _holder_fractions(problem, placement, item)
            item_fractions[item] = fractions
        candidates = sorted(
            (
                (dist_fn(holder, requester), repr(holder), holder)
                for holder in fractions
            ),
        )
        paths: list[PathFlow] = []
        remaining = 1.0
        for distance, _, holder in candidates:
            if remaining <= _EPS:
                break
            if distance == float("inf"):
                continue
            take = min(fractions[holder], remaining)
            if take <= _EPS:
                continue
            paths.append(PathFlow(path=sp.path(holder, requester), amount=take))
            remaining -= take
        if remaining > 1e-6 and on_unservable == "raise":
            raise InfeasibleError(
                f"request {(item, requester)!r} cannot be fully served by RNR "
                f"(uncovered fraction {remaining:.4g})"
            )
        routing.paths[(item, requester)] = paths
    return routing


def _holder_fractions(
    problem: ProblemInstance, placement: Placement, item
) -> dict[Node, float]:
    """Available fraction per holder of ``item`` (pinned copies count 1.0)."""
    fractions: dict[Node, float] = {}
    for holder in placement.holders(item):
        fractions[holder] = max(fractions.get(holder, 0.0), placement[(holder, item)])
    for holder in problem.pinned_holders(item):
        fractions[holder] = 1.0
    return fractions


def _route_with_context(
    problem: ProblemInstance,
    placement: Placement,
    context: "SolverContext",
    on_unservable: str,
) -> Routing:
    """Context RNR: vectorized candidate ordering, predecessor paths.

    Semantics match the dict-based branch: candidates are served in
    ``(distance, repr(holder))`` order (holders pre-sorted by ``repr`` plus a
    stable argsort on row distances), unreachable holders are skipped, and
    the take/remaining arithmetic runs on the same python floats.  Only the
    path *reconstruction* backend differs — scipy predecessor trees instead
    of per-source pure-python Dijkstra — which can pick a different (equal
    cost) shortest path under ties.
    """
    nidx = context.node_index
    oracle = context.path_oracle
    routing = Routing()
    # Group requesters per item so the cached per-item state holds only the
    # distance columns demand actually reads — O(holders × requesters), not
    # O(holders × |V|).  On a 10k-node hierarchy the full-width variant
    # transiently held ~100 MB of per-item blocks; the serve order is
    # unchanged (argsort is independent per column).
    item_requesters: dict = {}
    for item, requester in problem.demand:
        item_requesters.setdefault(item, []).append(requester)
    per_item: dict = {}
    for (item, requester), _rate in problem.demand.items():
        entry = per_item.get(item)
        if entry is None:
            fractions = _holder_fractions(problem, placement, item)
            holders = sorted(fractions, key=repr)
            hidx = np.fromiter(
                (nidx[h] for h in holders), dtype=np.intp, count=len(holders)
            )
            col_of: dict[Node, int] = {}
            cols: list[int] = []
            for s in item_requesters[item]:
                if s not in col_of:
                    col_of[s] = len(cols)
                    cols.append(nidx[s])
            # Distances and serve order for every requester of the item at
            # once: one stable argsort per item instead of one per request.
            dists = (
                context.rows_of(holders)[:, np.asarray(cols, dtype=np.intp)]
                if holders
                else np.empty((0, len(cols)))
            )
            order = np.argsort(dists, axis=0, kind="stable")
            entry = (
                holders,
                hidx,
                [fractions[h] for h in holders],
                dists,
                order,
                col_of,
            )
            per_item[item] = entry
        holders, hidx, fracs, dists, order, col_of = entry
        paths: list[PathFlow] = []
        remaining = 1.0
        if holders:
            r = nidx[requester]
            c = col_of[requester]
            dcol = dists[:, c]
            for k in order[:, c]:
                if remaining <= _EPS:
                    break
                if not math.isfinite(dcol[k]):
                    continue
                take = min(fracs[k], remaining)
                if take <= _EPS:
                    continue
                path = oracle.path_by_index(int(hidx[k]), r)
                paths.append(PathFlow(path=path, amount=take))
                remaining -= take
        if remaining > 1e-6 and on_unservable == "raise":
            raise InfeasibleError(
                f"request {(item, requester)!r} cannot be fully served by RNR "
                f"(uncovered fraction {remaining:.4g})"
            )
        routing.paths[(item, requester)] = paths
    return routing
