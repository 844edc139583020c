"""The RNR cost-saving set function (Lemma 4.1) and greedy maximization.

``F_RNR`` measures how much routing cost a content placement saves under
route-to-nearest-replica service relative to serving every request from its
baseline holders (the pinned origin copies; ``w_max`` when an item is pinned
nowhere).  The paper proves it monotone and submodular, so

- plain greedy gives a 1/2-approximation under the cache-capacity matroid
  (homogeneous item sizes), and
- greedy gives a 1/(1+p)-approximation under the p-independence system
  induced by heterogeneous item sizes (Theorem 5.2).

The implementation keeps, per request, the current least cost over holders,
which makes marginal gains O(#requests-for-item) and enables lazy greedy.
The per-request state lives in numpy arrays aligned with the
:class:`~repro.core.context.SolverContext`'s per-item requester axis, so
marginal gains and updates are single vectorized reductions over the
context's distance rows.  Tests check them against a brute-force F_RNR
built on pure-python all-pairs least costs.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable

import numpy as np

from repro.core.context import SolverContext
from repro.core.problem import Item, ProblemInstance
from repro.core.solution import Placement

Node = Hashable


class RNRCostSaving:
    """Incremental evaluator of the set function F_RNR (equation (4)).

    The function value is reported relative to the pinned-only placement:
    ``value() == F_RNR(X) - F_RNR(empty)``, which shifts by a constant and
    therefore changes nothing for maximization.

    Distances come from ``context`` (one is built on the lazy tier when
    none is passed); costs are capped at the context's ``w_max``.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        *,
        context: SolverContext | None = None,
    ) -> None:
        context = context or SolverContext.from_problem(problem, backend="lazy")
        self._ctx = context
        self._value = 0.0
        self._selected: set[tuple[Node, Item]] = set()
        #: Current best (least) serving cost per requester, per item.
        #: Catalog (item_index) order — no per-construction repr sort.
        demand_items = {i for (i, _s) in problem.demand}
        self._best_arr: dict[Item, np.ndarray] = {
            item: context.baseline_costs(item)
            for item in context.items
            if item in demand_items
        }
        self._baseline_arr = {i: b.copy() for i, b in self._best_arr.items()}

    # ------------------------------------------------------------------

    @property
    def selected(self) -> frozenset[tuple[Node, Item]]:
        return frozenset(self._selected)

    def value(self) -> float:
        """Cost saving of the current selection relative to pinned-only."""
        return self._value

    def serving_cost(self) -> float:
        """Expected RNR routing cost of the current selection."""
        return float(
            sum(
                self._ctx.requesters(item).rates @ best
                for item, best in self._best_arr.items()
            )
        )

    def marginal_gain(self, node: Node, item: Item) -> float:
        """Gain of adding ``(node, item)`` on top of the current selection."""
        if (node, item) in self._selected:
            return 0.0
        best = self._best_arr.get(item)
        if best is None or best.size == 0:
            return 0.0
        block = self._ctx.requesters(item)
        d = self._ctx.row_of(node)[block.idx]
        diff = best - d
        np.clip(diff, 0.0, None, out=diff)
        return float(diff @ block.rates)

    def add(self, node: Node, item: Item) -> float:
        """Add ``(node, item)`` to the selection; returns the realized gain."""
        gain = 0.0
        best = self._best_arr.get(item)
        if best is not None and best.size:
            block = self._ctx.requesters(item)
            d = self._ctx.row_of(node)[block.idx]
            diff = best - d
            np.clip(diff, 0.0, None, out=diff)
            gain = float(diff @ block.rates)
            np.minimum(best, d, out=best)
        self._selected.add((node, item))
        self._value += gain
        return gain

    def evaluate(self, entries: frozenset[tuple[Node, Item]]) -> float:
        """Value of an arbitrary selection (non-incremental, for tests)."""
        total = 0.0
        for item, baseline in self._baseline_arr.items():
            block = self._ctx.requesters(item)
            best = baseline.copy()
            for (v, i) in entries:
                if i == item:
                    np.minimum(best, self._ctx.row_of(v)[block.idx], out=best)
            total += float(block.rates @ (baseline - best))
        return total


def local_search_swap(
    problem: ProblemInstance,
    placement: Placement,
    *,
    max_sweeps: int = 4,
    context: SolverContext | None = None,
) -> Placement:
    """1-swap local search on F_RNR: replace a cached item when profitable.

    Starting from an integral placement, repeatedly evaluate, per cache node,
    the loss of evicting each stored item (requests fall back to their next
    best holder) against the gain of inserting each absent item, and apply
    the best strictly-improving swap (or pure insertion into spare capacity).
    F_RNR never decreases, so polishing the output of Algorithm 1 preserves
    its (1 - 1/e) guarantee while recovering the cross-node coordination
    that per-node pipage rounding cannot express.

    The per-requester best/second serving costs per item come from one
    ``(#holders, #requesters)`` slice of the context's distance rows and a
    partial sort; eviction losses and insertion gains are masked dot
    products.  On exact distance ties any best holder is valid, which can
    only change which of two equal-loss moves is taken.  Each sweep reads
    every cache's items and used space from one pass over the placement.
    """
    ctx = context or SolverContext.from_problem(problem, backend="lazy")
    placement = placement.copy()
    items = sorted({i for (i, _s) in problem.demand}, key=repr)
    cache_nodes = [
        v
        for v in problem.network.cache_nodes()
        if problem.network.cache_capacity(v) > 0
    ]
    w_max = ctx.w_max

    def holder_stats(item: Item) -> dict:
        holders = sorted(
            {v for v in placement.holders(item) if placement[(v, item)] >= 0.5}
            | problem.pinned_holders(item),
            key=repr,
        )
        block = ctx.requesters(item)
        n = block.size
        if n == 0:
            empty = np.zeros(0, dtype=np.float64)
            return {
                "holders": holders,
                "block": block,
                "best": empty,
                "second": empty,
                "best_pos": np.zeros(0, dtype=np.intp),
            }
        rows = [ctx.row_of(h)[block.idx] for h in holders]
        rows.append(np.full(n, w_max, dtype=np.float64))  # sentinel: w_max cap
        stack = np.vstack(rows)
        best_pos = np.argmin(stack, axis=0)
        if stack.shape[0] >= 2:
            part = np.partition(stack, 1, axis=0)
            best, second = part[0].copy(), part[1].copy()
        else:
            best = stack[0].copy()
            second = best.copy()
        np.minimum(best, w_max, out=best)
        np.minimum(second, w_max, out=second)
        return {
            "holders": holders,
            "block": block,
            "best": best,
            "second": second,
            "best_pos": best_pos,
        }

    for _ in range(max_sweeps):
        improved = False
        stats_cache: dict[Item, dict] = {}

        def stats_of(item: Item) -> dict:
            if item not in stats_cache:
                stats_cache[item] = holder_stats(item)
            return stats_cache[item]

        # One pass per sweep: a sweep visits each cache once and a move
        # changes only that cache's entries, so these stay exact.
        usage = placement.used_capacities(problem)
        held: dict[Node, list[Item]] = {}
        for u, i in placement:
            if (u, i) not in problem.pinned:
                held.setdefault(u, []).append(i)
        for v in cache_nodes:
            capacity = problem.network.cache_capacity(v)
            cached = sorted(held.get(v, ()), key=repr)
            spare = capacity - usage.get(v, 0)
            removal_loss: dict[Item, float] = {}
            for i in cached:
                st = stats_of(i)
                loss = 0.0
                if st["block"].size and v in st["holders"]:
                    vpos = st["holders"].index(v)
                    mask = st["best_pos"] == vpos
                    if mask.any():
                        loss = float(
                            st["block"].rates[mask]
                            @ (st["second"][mask] - st["best"][mask])
                        )
                removal_loss[i] = loss
            addition_gain: dict[Item, float] = {}
            for j in items:
                if (v, j) in placement or (v, j) in problem.pinned:
                    continue
                st = stats_of(j)
                gain = 0.0
                if st["block"].size:
                    diff = st["best"] - ctx.row_of(v)[st["block"].idx]
                    np.clip(diff, 0.0, None, out=diff)
                    gain = float(diff @ st["block"].rates)
                addition_gain[j] = gain
            best_move, best_delta = None, 1e-9
            for j, gain in addition_gain.items():
                if gain <= 0:
                    continue
                if problem.size_of(j) <= spare + 1e-12:
                    if gain > best_delta:
                        best_move, best_delta = (None, j), gain
                for i in cached:
                    if problem.size_of(j) <= spare + problem.size_of(i) + 1e-12:
                        delta = gain - removal_loss[i]
                        if delta > best_delta:
                            best_move, best_delta = (i, j), delta
            if best_move is not None:
                evict, insert = best_move
                if evict is not None:
                    placement[(v, evict)] = 0.0
                    stats_cache.pop(evict, None)
                placement[(v, insert)] = 1.0
                stats_cache.pop(insert, None)
                improved = True
        if not improved:
            break
    return placement


def greedy_rnr_placement(
    problem: ProblemInstance,
    *,
    context: SolverContext | None = None,
) -> Placement:
    """Lazy-greedy maximization of F_RNR under cache capacities.

    Handles both the homogeneous model (matroid constraint; 1/2-approx) and
    heterogeneous item sizes (p-independence; 1/(1+p)-approx, Theorem 5.2).
    Pinned contents are part of the baseline and never selected.  Every
    marginal gain is evaluated against ``context``'s distance rows (one is
    built on the lazy tier when none is passed).
    """
    saving = RNRCostSaving(problem, context=context)
    remaining = {
        v: problem.network.cache_capacity(v) for v in problem.network.cache_nodes()
    }
    counter = itertools.count()
    heap: list[tuple[float, int, Node, Item]] = []
    for v in remaining:
        for i in problem.catalog:
            if (v, i) in problem.pinned:
                continue
            gain = saving.marginal_gain(v, i)
            if gain > 0:
                heapq.heappush(heap, (-gain, next(counter), v, i))
    placement = Placement()
    while heap:
        neg_gain, _, v, i = heapq.heappop(heap)
        if (v, i) in saving.selected:
            continue
        if problem.size_of(i) > remaining[v] + 1e-12:
            continue
        gain = saving.marginal_gain(v, i)
        if gain <= 0:
            continue
        if gain < -neg_gain - 1e-12:
            # Lazy evaluation: the cached bound was stale; requeue.
            heapq.heappush(heap, (-gain, next(counter), v, i))
            continue
        saving.add(v, i)
        placement[(v, i)] = 1.0
        remaining[v] -= problem.size_of(i)
    return placement
