"""Reactive on-path caching (LRU / LFU), the ICN-style strawman.

The paper's premise is that *optimized* joint caching and routing beats the
reactive schemes deployed in information-centric networks, where requests
travel a fixed shortest path toward the origin, are answered by the first
on-path cache hit, and the response populates every cache it passes (leave
copy everywhere).  This module implements that dynamic — LRU or LFU
eviction — as an extension baseline so the gap can be measured directly
(`benchmarks/bench_ext_reactive.py`).

Items of heterogeneous size are supported: insertion evicts until the item
fits (skipping items larger than the whole cache).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.core.context import SolverContext
from repro.core.problem import Item, ProblemInstance
from repro.exceptions import InvalidProblemError

Node = Hashable


class EvictingCache:
    """A single node's cache with LRU or LFU eviction."""

    def __init__(self, capacity: float, policy: str = "lru") -> None:
        if capacity < 0:
            raise InvalidProblemError("capacity must be nonnegative")
        if policy not in ("lru", "lfu"):
            raise InvalidProblemError("policy must be 'lru' or 'lfu'")
        self.capacity = float(capacity)
        self.policy = policy
        self._items: OrderedDict[Item, float] = OrderedDict()  # item -> size
        self._hits: dict[Item, int] = {}
        self._used = 0.0

    def __contains__(self, item: Item) -> bool:
        return item in self._items

    @property
    def used(self) -> float:
        return self._used

    def items(self) -> set[Item]:
        return set(self._items)

    def touch(self, item: Item) -> None:
        """Record a hit (moves to MRU position / bumps frequency)."""
        if item in self._items:
            self._items.move_to_end(item)
            self._hits[item] = self._hits.get(item, 0) + 1

    def insert(self, item: Item, size: float) -> bool:
        """Insert ``item``, evicting as needed.  False if it can never fit.

        Re-inserting a resident item with a different size updates the
        accounting (and evicts other items if the new size no longer fits)
        instead of silently keeping the stale size.
        """
        if size > self.capacity:
            if item in self._items:
                # The item can no longer fit at its new size: drop it.
                self._used -= self._items.pop(item)
                self._hits.pop(item, None)
            return False
        if item in self._items:
            self.touch(item)
            old_size = self._items[item]
            if size != old_size:
                self._items[item] = size
                self._used += size - old_size
                while self._used > self.capacity and len(self._items) > 1:
                    self._evict_one(exclude=item)
            return True
        while self._used + size > self.capacity and self._items:
            self._evict_one()
        self._items[item] = size
        self._hits.setdefault(item, 1)
        self._used += size
        return True

    def _evict_one(self, exclude: Item | None = None) -> None:
        if self.policy == "lru":
            victim = next(i for i in self._items if i != exclude)
        else:  # lfu: least frequently used, ties by LRU order
            victim = min(
                (i for i in self._items if i != exclude),
                key=lambda i: (self._hits.get(i, 0),),
            )
        size = self._items.pop(victim)
        self._hits.pop(victim, None)
        self._used -= size


@dataclass
class ReactiveResult:
    """Steady-state metrics of the reactive caching simulation."""

    policy: str
    requests: int
    #: Average routing cost per request, weighted into a cost *rate*
    #: comparable with repro.core.routing_cost (same demand volume).
    cost_rate: float
    #: Fraction of requests answered before reaching the origin.
    edge_hit_ratio: float


def simulate_reactive_caching(
    problem: ProblemInstance,
    *,
    policy: str = "lru",
    n_requests: int = 20_000,
    warmup_fraction: float = 0.25,
    rng: np.random.Generator | None = None,
) -> ReactiveResult:
    """Replay Poisson-sampled requests through on-path reactive caches.

    Requests are drawn proportionally to the instance's rates; each travels
    the cost-shortest path from its requester toward the origin (the pinned
    holder), is served at the first hit, and the returning response is
    inserted into every on-path cache (LCE).  The cost of the measurement
    phase is scaled to the instance's total demand so ``cost_rate``
    compares directly with optimized solutions' routing cost.
    """
    if n_requests <= 0:
        raise InvalidProblemError("n_requests must be positive")
    rng = rng or np.random.default_rng(0)
    context = SolverContext.from_problem(problem, backend="lazy")

    from repro.baselines.candidate_paths import origin_server

    origin = origin_server(problem)
    caches = {
        v: EvictingCache(problem.network.cache_capacity(v), policy)
        for v in problem.network.cache_nodes()
    }

    requests = problem.requests
    rates = np.array([problem.demand[r] for r in requests])
    probs = rates / rates.sum()
    # The request travels the cost-shortest s -> origin path and is charged
    # request-direction edge costs; on asymmetric-cost networks this differs
    # from reversing the origin -> s response path (which is a different
    # path) or charging response-direction costs.
    nidx = context.node_index
    paths_to_origin = {
        s: context.path_oracle.path_by_index(nidx[s], nidx[origin])
        for s in {s for (_i, s) in requests}
    }

    warmup = int(n_requests * warmup_fraction)
    measured_cost = 0.0
    measured = 0
    hits = 0
    draws = rng.choice(len(requests), size=n_requests, p=probs)
    for k, idx in enumerate(draws):
        item, s = requests[idx]
        path = paths_to_origin[s]  # s ... origin
        hit_position = len(path) - 1  # origin worst case
        for position, node in enumerate(path):
            cache = caches.get(node)
            if (node, item) in problem.pinned or (cache and item in cache):
                hit_position = position
                if cache and item in cache:
                    cache.touch(item)
                break
        cost = sum(
            problem.network.cost(path[p], path[p + 1])
            for p in range(hit_position)
        )
        # Leave copy everywhere on the way back (excluding the hit node).
        for node in path[:hit_position]:
            cache = caches.get(node)
            if cache is not None:
                cache.insert(item, problem.size_of(item))
        if k >= warmup:
            measured += 1
            measured_cost += cost
            if hit_position < len(path) - 1:
                hits += 1
    total_rate = float(rates.sum())
    return ReactiveResult(
        policy=policy,
        requests=measured,
        cost_rate=measured_cost / measured * total_rate if measured else 0.0,
        edge_hit_ratio=hits / measured if measured else 0.0,
    )
