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
With a :class:`~repro.core.context.SolverContext` the per-request state
lives in numpy arrays aligned with the context's per-item requester axis,
so marginal gains and updates are single vectorized reductions over the
context's distance rows instead of per-pair dict lookups.  Both paths compute
the same function; tests cross-check them on random instances.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import Item, ProblemInstance
from repro.core.rnr import ShortestPathCache
from repro.core.solution import Placement

if TYPE_CHECKING:  # context imports ShortestPathCache; avoid the cycle
    from repro.core.context import SolverContext

Node = Hashable


class RNRCostSaving:
    """Incremental evaluator of the set function F_RNR (equation (4)).

    The function value is reported relative to the pinned-only placement:
    ``value() == F_RNR(X) - F_RNR(empty)``, which shifts by a constant and
    therefore changes nothing for maximization.

    Pass ``context`` to evaluate against the context's distance rows (the
    fast path); without it the dict-based :class:`ShortestPathCache` is
    used, as in the seed implementation.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        *,
        sp_cache: ShortestPathCache | None = None,
        w_max: float | None = None,
        context: "SolverContext | None" = None,
    ) -> None:
        self._problem = problem
        self._ctx = context
        self._value = 0.0
        self._selected: set[tuple[Node, Item]] = set()
        if context is not None:
            self._sp = None
            self.w_max = context.w_max if w_max is None else w_max
            #: Current best (least) serving cost per requester, per item.
            #: Catalog (item_index) order — no per-construction repr sort.
            demand_items = {i for (i, _s) in problem.demand}
            self._best_arr: dict[Item, np.ndarray] = {
                item: context.baseline_costs(item, cap=self.w_max)
                for item in context.items
                if item in demand_items
            }
            self._baseline_arr = {i: b.copy() for i, b in self._best_arr.items()}
            return
        self._sp = sp_cache or ShortestPathCache(problem)
        if w_max is None:
            w_max = 0.0
            graph = problem.network.graph
            for v in graph.nodes:
                dist, _ = self._sp.from_node(v)
                if dist:
                    w_max = max(w_max, max(dist.values()))
            w_max = w_max if w_max > 0 else 1.0
        self.w_max = w_max
        #: Current best (least) serving cost per request.
        self._best: dict[tuple[Item, Node], float] = {}
        for (item, s), _ in problem.demand.items():
            best = w_max
            for holder in problem.pinned_holders(item):
                best = min(best, self._sp.distance(holder, s))
            self._best[(item, s)] = best
        self._baseline = dict(self._best)

    # ------------------------------------------------------------------

    @property
    def selected(self) -> frozenset[tuple[Node, Item]]:
        return frozenset(self._selected)

    def value(self) -> float:
        """Cost saving of the current selection relative to pinned-only."""
        return self._value

    def serving_cost(self) -> float:
        """Expected RNR routing cost of the current selection."""
        if self._ctx is not None:
            return float(
                sum(
                    self._ctx.requesters(item).rates @ best
                    for item, best in self._best_arr.items()
                )
            )
        return sum(
            rate * self._best[req] for req, rate in self._problem.demand.items()
        )

    def marginal_gain(self, node: Node, item: Item) -> float:
        """Gain of adding ``(node, item)`` on top of the current selection."""
        if (node, item) in self._selected:
            return 0.0
        if self._ctx is not None:
            best = self._best_arr.get(item)
            if best is None or best.size == 0:
                return 0.0
            block = self._ctx.requesters(item)
            d = self._ctx.row_of(node)[block.idx]
            diff = best - d
            np.clip(diff, 0.0, None, out=diff)
            return float(diff @ block.rates)
        gain = 0.0
        for s in self._problem.requesters_of(item):
            rate = self._problem.demand[(item, s)]
            d = self._sp.distance(node, s)
            current = self._best[(item, s)]
            if d < current:
                gain += rate * (current - d)
        return gain

    def add(self, node: Node, item: Item) -> float:
        """Add ``(node, item)`` to the selection; returns the realized gain."""
        if self._ctx is not None:
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
        gain = 0.0
        for s in self._problem.requesters_of(item):
            d = self._sp.distance(node, s)
            current = self._best[(item, s)]
            if d < current:
                gain += self._problem.demand[(item, s)] * (current - d)
                self._best[(item, s)] = d
        self._selected.add((node, item))
        self._value += gain
        return gain

    def evaluate(self, entries: frozenset[tuple[Node, Item]]) -> float:
        """Value of an arbitrary selection (non-incremental, for tests)."""
        if self._ctx is not None:
            total = 0.0
            for item, baseline in self._baseline_arr.items():
                block = self._ctx.requesters(item)
                best = baseline.copy()
                for (v, i) in entries:
                    if i == item:
                        np.minimum(
                            best, self._ctx.row_of(v)[block.idx], out=best
                        )
                total += float(block.rates @ (baseline - best))
            return total
        total = 0.0
        for (item, s), rate in self._problem.demand.items():
            best = self._baseline[(item, s)]
            for (v, i) in entries:
                if i == item:
                    best = min(best, self._sp.distance(v, s))
            total += rate * (self._baseline[(item, s)] - best)
        return total


def local_search_swap(
    problem: ProblemInstance,
    placement: Placement,
    *,
    sp_cache: ShortestPathCache | None = None,
    max_sweeps: int = 4,
    context: "SolverContext | None" = None,
) -> Placement:
    """1-swap local search on F_RNR: replace a cached item when profitable.

    Starting from an integral placement, repeatedly evaluate, per cache node,
    the loss of evicting each stored item (requests fall back to their next
    best holder) against the gain of inserting each absent item, and apply
    the best strictly-improving swap (or pure insertion into spare capacity).
    F_RNR never decreases, so polishing the output of Algorithm 1 preserves
    its (1 - 1/e) guarantee while recovering the cross-node coordination
    that per-node pipage rounding cannot express.

    With ``context`` the per-requester best/second-best serving costs are
    computed as vectorized reductions over the context's distance rows.
    """
    if context is not None:
        return _local_search_swap_ctx(problem, placement, context, max_sweeps)
    sp = sp_cache or ShortestPathCache(problem)
    placement = placement.copy()
    items = sorted({i for (i, _s) in problem.demand}, key=repr)
    cache_nodes = [
        v
        for v in problem.network.cache_nodes()
        if problem.network.cache_capacity(v) > 0
    ]

    saving = RNRCostSaving(problem, sp_cache=sp)
    w_max = saving.w_max

    def holder_costs(item: Item) -> dict[Node, dict]:
        """Per requester of ``item``: best/second-best serving costs."""
        holders = {
            v for v in placement.holders(item) if placement[(v, item)] >= 0.5
        } | problem.pinned_holders(item)
        stats: dict[Node, dict] = {}
        for s in problem.requesters_of(item):
            best_v, best, second = None, w_max, w_max
            for v in holders:
                d = sp.distance(v, s)
                if d < best:
                    best_v, second, best = v, best, d
                elif d < second:
                    second = d
            stats[s] = {"best_v": best_v, "best": best, "second": second}
        return stats

    for _ in range(max_sweeps):
        improved = False
        stats_cache: dict[Item, dict] = {}

        def stats_of(item: Item) -> dict:
            if item not in stats_cache:
                stats_cache[item] = holder_costs(item)
            return stats_cache[item]

        for v in cache_nodes:
            capacity = problem.network.cache_capacity(v)
            cached = sorted(
                (i for i in placement.items_at(v) if (v, i) not in problem.pinned),
                key=repr,
            )
            spare = capacity - placement.used_capacity(v, problem)
            removal_loss: dict[Item, float] = {}
            for i in cached:
                loss = 0.0
                for s, st in stats_of(i).items():
                    if st["best_v"] == v:
                        loss += problem.demand[(i, s)] * (st["second"] - st["best"])
                removal_loss[i] = loss
            addition_gain: dict[Item, float] = {}
            for j in items:
                if (v, j) in placement or (v, j) in problem.pinned:
                    continue
                gain = 0.0
                for s, st in stats_of(j).items():
                    d = sp.distance(v, s)
                    if d < st["best"]:
                        gain += problem.demand[(j, s)] * (st["best"] - d)
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


def _local_search_swap_ctx(
    problem: ProblemInstance,
    placement: Placement,
    ctx: "SolverContext",
    max_sweeps: int,
) -> Placement:
    """Dense-matrix implementation of :func:`local_search_swap`.

    Same move structure as the dict path; the per-requester best/second
    serving costs per item come from one ``(#holders, #requesters)`` matrix
    slice and a partial sort, and eviction losses / insertion gains are
    masked dot products.  On exact distance ties the chosen best holder may
    differ from the dict path (both are valid), which can only change which
    of two equal-loss moves is taken.
    """
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

        for v in cache_nodes:
            capacity = problem.network.cache_capacity(v)
            cached = sorted(
                (i for i in placement.items_at(v) if (v, i) not in problem.pinned),
                key=repr,
            )
            spare = capacity - placement.used_capacity(v, problem)
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
    sp_cache: ShortestPathCache | None = None,
    context: "SolverContext | None" = None,
) -> Placement:
    """Lazy-greedy maximization of F_RNR under cache capacities.

    Handles both the homogeneous model (matroid constraint; 1/2-approx) and
    heterogeneous item sizes (p-independence; 1/(1+p)-approx, Theorem 5.2).
    Pinned contents are part of the baseline and never selected.  Pass
    ``context`` to run every marginal-gain evaluation against the context's
    distance rows.
    """
    saving = RNRCostSaving(problem, sp_cache=sp_cache, context=context)
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
