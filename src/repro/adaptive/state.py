"""Array-backed per-node LRU/LFU cache state for chunked streaming replay.

The legacy reactive baseline (:mod:`repro.baselines.reactive`) keeps one
``OrderedDict`` per cache and dispatches every request through Python; this
module stores the same dynamics as dense numpy arrays over ``(node, item)``
so the engine-backed strategies (:mod:`repro.adaptive.strategies`) can apply
a whole chunk of requests with a handful of scatter ops:

- ``resident``: bool occupancy matrix ``(V, C)``;
- ``last_used``: a global event clock per ``(node, item)`` — the LRU order;
- ``freq``: hit counts per ``(node, item)`` — the LFU order (reset on
  eviction, exactly like the legacy ``_hits`` dict);
- ``used``: per-node occupied capacity under heterogeneous item sizes.

State is *frozen within a chunk*: lookups during a chunk see the state left
by the previous chunk, and all touches/insertions of the chunk are applied
at once by :meth:`CacheArrayState.apply_chunk` (recency = within-chunk
order, evictions afterwards).  An event may carry a multiplicity: per
``(node, item)`` pair only the event count and the latest position matter,
so ``k`` events of one pair at positions up to ``p`` are one event of
multiplicity ``k`` at ``p``.  With ``chunk_size == 1`` this reproduces the
legacy per-request dynamics exactly; larger chunks trade a bounded state
lag for vectorized throughput.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidProblemError

_EPS = 1e-9


class CacheArrayState:
    """Vectorized LRU/LFU cache state over ``V`` nodes and ``C`` items.

    Parameters
    ----------
    capacities:
        Per-node cache capacities ``c_v`` (0 = no cache), shape ``(V,)``.
    item_sizes:
        Per-item sizes ``b_i``, shape ``(C,)``.
    policy:
        ``"lru"`` or ``"lfu"`` (least frequently used, ties by LRU order).
    """

    def __init__(
        self,
        capacities: np.ndarray,
        item_sizes: np.ndarray,
        policy: str = "lru",
    ) -> None:
        if policy not in ("lru", "lfu"):
            raise InvalidProblemError("policy must be 'lru' or 'lfu'")
        self.capacities = np.asarray(capacities, dtype=float)
        self.item_sizes = np.asarray(item_sizes, dtype=float)
        if (self.capacities < 0).any():
            raise InvalidProblemError("capacities must be nonnegative")
        if (self.item_sizes <= 0).any():
            raise InvalidProblemError("item sizes must be positive")
        self.policy = policy
        v, c = len(self.capacities), len(self.item_sizes)
        self.resident = np.zeros((v, c), dtype=bool)
        self.last_used = np.zeros((v, c), dtype=np.int64)
        self.freq = np.zeros((v, c), dtype=np.int64)
        self.used = np.zeros(v)
        self.clock = 0
        #: Nodes currently failed: they hold nothing and accept nothing.
        self.down = np.zeros(v, dtype=bool)

    @property
    def num_nodes(self) -> int:
        return len(self.capacities)

    @property
    def num_items(self) -> int:
        return len(self.item_sizes)

    def items_at(self, node: int) -> np.ndarray:
        """Indices of the items resident at ``node`` (ascending)."""
        return np.flatnonzero(self.resident[node])

    # ------------------------------------------------------------------
    # Failure hooks (degraded streaming replay)
    # ------------------------------------------------------------------

    def wipe_nodes(self, node_ids) -> None:
        """Erase the cached contents of ``node_ids`` (a cache wipe/flap).

        Residency, recency, and frequency state vanish as if the caches
        were fresh; capacities and the global clock are untouched.
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.size == 0:
            return
        self.resident[ids] = False
        self.last_used[ids] = 0
        self.freq[ids] = 0
        self.used[ids] = 0.0

    def set_down(self, node_ids) -> None:
        """Mark exactly ``node_ids`` as failed (the rest come back up).

        Nodes *entering* the down set lose their contents immediately
        (a dead cache holds nothing); nodes leaving it come back empty —
        the wipe happened at failure time.  While down, a node ignores
        every touch/insert routed at it (dead-node skipping).
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        down = np.zeros(self.num_nodes, dtype=bool)
        down[ids] = True
        entering = down & ~self.down
        if entering.any():
            self.wipe_nodes(np.flatnonzero(entering))
        self.down = down

    # ------------------------------------------------------------------

    def apply_chunk(
        self,
        touch_nodes: np.ndarray,
        touch_items: np.ndarray,
        touch_seq: np.ndarray,
        insert_nodes: np.ndarray,
        insert_items: np.ndarray,
        insert_seq: np.ndarray,
        chunk_len: int,
        touch_mult: np.ndarray | None = None,
        insert_mult: np.ndarray | None = None,
    ) -> None:
        """Apply one chunk's touches and insertions, then evict overflows.

        ``*_seq`` are within-chunk request indices (``0 .. chunk_len-1``)
        establishing recency order; events later in the chunk win.
        ``*_mult`` give each event a multiplicity (default 1): an event of
        multiplicity ``k`` stands for ``k`` events on one pair whose latest
        index is its ``seq``.  Per ``(node, item)`` pair the update is:

        - recency ``last_used = clock + 1 + max(seq)`` over its events;
        - frequency ``+= #events`` for pairs already resident (a re-insert
          counts as a touch, like the legacy baseline), ``= #events`` for
          newly inserted pairs (the legacy ``_hits`` entry was popped on
          eviction, so a fresh insert restarts at its chunk count);
        - items larger than the whole cache are rejected (never inserted).

        Eviction runs per over-capacity node in policy order (LRU:
        ascending ``last_used``; LFU: ascending ``(freq, last_used)``),
        preferring items *not* inserted in this chunk — the legacy loop
        picks victims before inserting the new item, so a fresh insert is
        never its own victim unless the stale items alone cannot make room.
        """
        touch_nodes = np.asarray(touch_nodes, dtype=np.int64)
        touch_items = np.asarray(touch_items, dtype=np.int64)
        touch_seq = np.asarray(touch_seq, dtype=np.int64)
        insert_nodes = np.asarray(insert_nodes, dtype=np.int64)
        insert_items = np.asarray(insert_items, dtype=np.int64)
        insert_seq = np.asarray(insert_seq, dtype=np.int64)
        touch_mult = np.ones_like(touch_seq) if touch_mult is None else touch_mult
        insert_mult = np.ones_like(insert_seq) if insert_mult is None else insert_mult

        if self.down.any():
            # Dead-node skipping: failed caches neither record touches
            # nor accept copies.  (No-op on the healthy fast path above.)
            alive = ~self.down[touch_nodes]
            touch_nodes = touch_nodes[alive]
            touch_items = touch_items[alive]
            touch_seq = touch_seq[alive]
            touch_mult = touch_mult[alive]
            alive = ~self.down[insert_nodes]
            insert_nodes = insert_nodes[alive]
            insert_items = insert_items[alive]
            insert_seq = insert_seq[alive]
            insert_mult = insert_mult[alive]

        # Reject inserts that can never fit (size > whole cache).
        fits = self.item_sizes[insert_items] <= (
            self.capacities[insert_nodes] + _EPS
        )
        if not fits.all():
            insert_nodes = insert_nodes[fits]
            insert_items = insert_items[fits]
            insert_seq = insert_seq[fits]
            insert_mult = insert_mult[fits]

        nodes = np.concatenate([touch_nodes, insert_nodes])
        items = np.concatenate([touch_items, insert_items])
        seq = np.concatenate([touch_seq, insert_seq])
        if len(nodes):
            # Collapse events per (node, item): count and latest seq.
            flat = nodes * np.int64(self.num_items) + items
            uniq, inverse = np.unique(flat, return_inverse=True)
            counts = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(counts, inverse, np.concatenate([touch_mult, insert_mult]))
            latest = np.zeros(len(uniq), dtype=np.int64)
            np.maximum.at(latest, inverse, seq)
            u_nodes = uniq // self.num_items
            u_items = uniq % self.num_items
            was_resident = self.resident[u_nodes, u_items]
            # Pairs receiving at least one insert event become resident.
            if len(insert_nodes):
                ins_flat = insert_nodes * np.int64(self.num_items) + insert_items
                inserted = np.isin(uniq, ins_flat)
            else:
                inserted = np.zeros(len(uniq), dtype=bool)
            fresh = inserted & ~was_resident

            self.last_used[u_nodes, u_items] = self.clock + 1 + latest
            self.freq[u_nodes, u_items] = np.where(
                was_resident, self.freq[u_nodes, u_items] + counts, counts
            )
            self.resident[u_nodes[fresh], u_items[fresh]] = True
            if fresh.any():
                np.add.at(
                    self.used, u_nodes[fresh], self.item_sizes[u_items[fresh]]
                )
                self._evict_overflows(
                    np.unique(u_nodes[fresh]),
                    fresh_nodes=u_nodes[fresh],
                    fresh_items=u_items[fresh],
                )
        self.clock += int(chunk_len)

    # ------------------------------------------------------------------

    def _evict_overflows(
        self,
        candidate_nodes: np.ndarray,
        *,
        fresh_nodes: np.ndarray,
        fresh_items: np.ndarray,
    ) -> None:
        over = candidate_nodes[
            self.used[candidate_nodes] > self.capacities[candidate_nodes] + _EPS
        ]
        if not len(over):
            return
        fresh_mask = np.zeros_like(self.resident)
        fresh_mask[fresh_nodes, fresh_items] = True
        for v in over:
            idx = np.flatnonzero(self.resident[v])
            fresh = fresh_mask[v, idx]
            # Policy order, stale items first (fresh inserts evict last).
            if self.policy == "lru":
                order = np.lexsort((self.last_used[v, idx], fresh))
            else:
                order = np.lexsort(
                    (self.last_used[v, idx], self.freq[v, idx], fresh)
                )
            sizes = self.item_sizes[idx[order]]
            need = self.used[v] - self.capacities[v]
            cum = np.cumsum(sizes)
            k = int(np.searchsorted(cum, need - _EPS, side="left")) + 1
            victims = idx[order[:k]]
            self.resident[v, victims] = False
            self.last_used[v, victims] = 0
            self.freq[v, victims] = 0
            # Recompute from the occupancy row: no float drift across evictions.
            self.used[v] = float(
                self.item_sizes[self.resident[v]].sum()
            )
