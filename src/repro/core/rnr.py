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

import numpy as np

from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, Routing
from repro.exceptions import InfeasibleError
from repro.flow.decomposition import PathFlow

Node = Hashable

_EPS = 1e-9


def route_to_nearest_replica(
    problem: ProblemInstance,
    placement: Placement,
    *,
    context: SolverContext | None = None,
    on_unservable: str = "raise",
) -> Routing:
    """RNR routing for every request under the given placement.

    Holder distances come from the :class:`~repro.core.context.SolverContext`
    distance rows (one is built on the lazy tier when none is passed) and
    paths are reconstructed from its memoized scipy predecessor trees.
    Candidates are served in ``(distance, repr(holder))`` order (holders
    pre-sorted by ``repr`` plus a stable argsort on row distances), and
    unreachable holders are skipped.  Under equal-cost ties the serving
    *path* is whichever shortest path the predecessor tree records.

    ``on_unservable`` controls what happens when a request cannot be fully
    covered by reachable holders (including pinned contents):

    - ``"raise"`` (default): raise :class:`InfeasibleError` — a healthy
      instance with a pinned origin should always be fully servable;
    - ``"partial"``: keep whatever fraction the reachable replicas cover and
      leave the rest unserved (the failure-recovery mode of :mod:`repro.robustness`;
      :attr:`repro.robustness.recovery.RecoveryResult.unserved_fraction` is the gap).
    """
    if on_unservable not in ("raise", "partial"):
        raise ValueError("on_unservable must be 'raise' or 'partial'")
    if context is None:
        context = SolverContext.from_problem(problem, backend="lazy")
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
    holder_index = _holder_index(problem, placement)
    per_item: dict = {}
    for (item, requester), _rate in problem.demand.items():
        entry = per_item.get(item)
        if entry is None:
            fractions = holder_index.get(item, {})
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


def _holder_index(
    problem: ProblemInstance, placement: Placement
) -> dict[object, dict[Node, float]]:
    """``{item: {holder: available fraction}}`` in one pass over the
    placement and the pinned set (pinned copies count 1.0)."""
    index: dict[object, dict[Node, float]] = {}
    for (holder, item), fraction in placement.items():
        index.setdefault(item, {})[holder] = fraction
    for holder, item in problem.pinned:
        index.setdefault(item, {})[holder] = 1.0
    return index
