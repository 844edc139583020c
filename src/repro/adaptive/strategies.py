"""Engine-backed reactive caching strategies (ICN strawmen, vectorized).

The legacy baseline (:func:`repro.baselines.reactive.simulate_reactive_caching`)
dispatches every request through Python; here the classic strategies run
against the streaming serving engine of PR 6: requests arrive as numpy
batches from :func:`repro.serving.engine.generate_requests` over compiled
:class:`~repro.serving.tables.RoutingTables`, and cache state advances in
*chunked* steps against the array-backed
:class:`~repro.adaptive.state.CacheArrayState`.

Strategies (shapes follow Icarus):

- ``lce`` — leave copy everywhere: the response populates every on-path
  cache between the serving node and the requester;
- ``lcd`` — leave copy down: only the cache one hop downstream of the
  serving node stores a copy;
- ``probcache`` — ProbCache [Psaras et al.]: each on-path cache stores the
  response with probability ``N / (t_tw * c_v) * (x / c)^c`` where ``c``
  counts caches on the traveled path, ``x`` the caches between the node and
  the serving node, and ``N`` the remaining cache budget toward the
  requester;
- ``cl4m`` — cache less for more [Chai et al.]: only the traveled node with
  maximum betweenness centrality stores a copy;
- ``hashrouting`` — symmetric hash routing [Ross / Saino et al.]: each item
  has one authoritative cache (by content hash); requests detour through
  it, and only it stores the item on a miss.

Within a chunk the cache state is frozen (all lookups see chunk-start
state) and the chunk's touches/insertions apply at the boundary, so
``chunk_size=1`` reproduces the per-request dynamics of the legacy loop
exactly while large chunks amortize everything into O(types) work.  Under
frozen state every request of one type has the same hit, touch and
insertion nodes, so LCE, LCD, CL4M and hash routing apply one event per
(type, node), weighted by the type's request count and stamped with its
last position in the chunk — the same update as one event per request.
ProbCache flips one coin per (request, candidate), so its events stay per
request.

All on-path strategies travel the cost-shortest request path ``s ->
origin`` and charge request-direction edge costs up to the first hit,
matching the (fixed) legacy accounting.  Hash routing charges the request
path ``s -> authoritative cache`` plus, on a miss, the fetch path
``authoritative cache -> origin``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.adaptive.state import CacheArrayState
from repro.baselines.candidate_paths import origin_server
from repro.core.context import SolverContext
from repro.core.problem import Item, Node, ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement
from repro.exceptions import InvalidProblemError
from repro.serving.engine import generate_requests, horizon_for_requests
from repro.serving.tables import RoutingTables, compile_tables

STRATEGIES = ("lce", "lcd", "probcache", "cl4m", "hashrouting")

#: ProbCache target time window (Icarus default).
_T_TW = 10.0


@dataclass
class ReactiveTables:
    """Request-path geometry and arrival tables for the reactive strategies.

    ``tables`` carries the arrival process (rates in the deterministic
    ``ProblemInstance.requests`` type order); the padded rectangles below
    carry, per request type, the node sequence of its cost-shortest request
    path ``s -> origin`` and everything the strategies derive from it.
    Rectangles are ``(R, L)`` with ``L`` the longest path; positions past a
    type's path length are masked out.  ``context`` is the lazy solver
    context the tables were built from; placement scoring reuses its
    distance rows and path trees.
    """

    problem: ProblemInstance
    context: SolverContext
    tables: RoutingTables
    nodes: tuple[Node, ...]
    items: tuple[Item, ...]
    origin: Node

    # -- per node id -----------------------------------------------------
    capacities: np.ndarray  # float64, 0 for cache-less nodes
    centrality: np.ndarray  # float64 betweenness (for cl4m)

    # -- per item id -----------------------------------------------------
    item_size: np.ndarray

    # -- per type --------------------------------------------------------
    type_item: np.ndarray  # int64 item id
    path_len: np.ndarray  # int64 number of nodes on the request path

    # -- padded (R, L) rectangles ---------------------------------------
    pad_nodes: np.ndarray  # int64 node ids, -1 past the path
    pad_valid: np.ndarray  # bool
    pad_prefix_cost: np.ndarray  # float64 cost s -> position k
    pad_pinned: np.ndarray  # bool: type's item pinned at that node
    pad_cache: np.ndarray  # bool: node has positive cache capacity
    pad_cache_count: np.ndarray  # int64 inclusive prefix count of caches
    pad_cap_sum: np.ndarray  # float64 inclusive prefix sum of capacities
    pad_best_prefix: np.ndarray  # int64 argmax-centrality cache pos < k, -1

    # -- hash routing ----------------------------------------------------
    hash_node: np.ndarray = field(default=None)  # int64 per type, -1 if none
    hash_request_cost: np.ndarray = field(default=None)  # cost s -> a
    hash_fetch_cost: np.ndarray = field(default=None)  # cost a -> origin
    hash_pinned: np.ndarray = field(default=None)  # item pinned at a

    @property
    def num_types(self) -> int:
        return self.tables.num_types


def _betweenness(problem: ProblemInstance, nodes: tuple[Node, ...]) -> np.ndarray:
    import networkx as nx

    scores = nx.betweenness_centrality(problem.network.graph, normalized=True)
    return np.array([scores.get(v, 0.0) for v in nodes])


def build_reactive_tables(problem: ProblemInstance) -> ReactiveTables:
    """Compile the reactive substrate: serving tables + request-path arrays.

    The :class:`RoutingTables` are compiled from the serve-from-origin RNR
    routing (empty placement), which fixes the arrival process and the type
    order; request-path geometry is derived independently along the
    cost-shortest ``s -> origin`` direction.
    """
    context = SolverContext.from_problem(problem, backend="lazy")
    origin = origin_server(problem)
    routing = route_to_nearest_replica(problem, Placement(), context=context)
    tables = compile_tables(problem, routing)

    nodes = context.nodes
    node_id = context.node_index
    items = tuple(problem.catalog)
    item_id = {i: k for k, i in enumerate(items)}

    capacities = np.array(
        [problem.network.cache_capacity(v) for v in nodes], dtype=float
    )
    item_size = np.array([problem.size_of(i) for i in items], dtype=float)
    centrality = _betweenness(problem, nodes)

    paths = []
    type_item = np.empty(tables.num_types, dtype=np.int64)
    to_origin = node_id[origin]
    for t, (item, s) in enumerate(tables.types):
        type_item[t] = item_id[item]
        paths.append(context.path_oracle.path_by_index(node_id[s], to_origin))
    path_len = np.array([len(p) for p in paths], dtype=np.int64)
    R, L = tables.num_types, int(path_len.max())

    pad_nodes = np.full((R, L), -1, dtype=np.int64)
    pad_valid = np.zeros((R, L), dtype=bool)
    pad_prefix_cost = np.zeros((R, L))
    pad_pinned = np.zeros((R, L), dtype=bool)
    network = problem.network
    pinned = problem.pinned
    for t, path in enumerate(paths):
        item = tables.types[t][0]
        acc = 0.0
        for k, v in enumerate(path):
            pad_nodes[t, k] = node_id[v]
            pad_valid[t, k] = True
            if k > 0:
                acc += network.cost(path[k - 1], path[k])
            pad_prefix_cost[t, k] = acc
            pad_pinned[t, k] = (v, item) in pinned
    if not pad_pinned[np.arange(R), path_len - 1].all():
        raise InvalidProblemError(
            "request paths must terminate at a pinned holder"
        )

    pad_cache = np.where(pad_valid, capacities[np.maximum(pad_nodes, 0)] > 0, False)
    pad_cache_count = np.cumsum(pad_cache, axis=1, dtype=np.int64)
    pad_cap_sum = np.cumsum(
        np.where(pad_cache, capacities[np.maximum(pad_nodes, 0)], 0.0), axis=1
    )

    pad_best_prefix = _best_prefix_positions(pad_nodes, pad_cache, centrality, R, L)

    rt = ReactiveTables(
        problem=problem,
        context=context,
        tables=tables,
        nodes=nodes,
        items=items,
        origin=origin,
        capacities=capacities,
        centrality=centrality,
        item_size=item_size,
        type_item=type_item,
        path_len=path_len,
        pad_nodes=pad_nodes,
        pad_valid=pad_valid,
        pad_prefix_cost=pad_prefix_cost,
        pad_pinned=pad_pinned,
        pad_cache=pad_cache,
        pad_cache_count=pad_cache_count,
        pad_cap_sum=pad_cap_sum,
        pad_best_prefix=pad_best_prefix,
    )
    _attach_hash_routing(rt, origin)
    return rt


def _best_prefix_positions(
    pad_nodes: np.ndarray,
    pad_cache: np.ndarray,
    centrality: np.ndarray,
    R: int,
    L: int,
) -> np.ndarray:
    """``best[t, k]`` = position of the max-centrality cache in ``[0, k)``.

    Ties resolve to the *earliest* position (closest to the requester),
    matching a strict ``>`` running maximum.
    """
    best = np.full((R, L), -1, dtype=np.int64)
    best_pos = np.full(R, -1, dtype=np.int64)
    best_val = np.full(R, -np.inf)
    for k in range(L):
        if k > 0:
            best[:, k] = best_pos
        val = np.where(
            pad_cache[:, k], centrality[np.maximum(pad_nodes[:, k], 0)], -np.inf
        )
        better = val > best_val
        best_pos = np.where(better, k, best_pos)
        best_val = np.maximum(best_val, val)
    return best


def _attach_hash_routing(rt: ReactiveTables, origin: Node) -> None:
    problem, context = rt.problem, rt.context
    cache_nodes = sorted(
        (v for v in problem.network.cache_nodes() if problem.network.cache_capacity(v) > 0),
        key=repr,
    )
    R = rt.num_types
    rt.hash_node = np.full(R, -1, dtype=np.int64)
    rt.hash_request_cost = np.zeros(R)
    rt.hash_fetch_cost = np.zeros(R)
    rt.hash_pinned = np.zeros(R, dtype=bool)
    if not cache_nodes:
        return
    auth_of: dict[Item, Node] = {}
    for t, (item, s) in enumerate(rt.tables.types):
        a = auth_of.get(item)
        if a is None:
            # Deterministic item -> cache assignment (salted ``hash`` would
            # change across interpreter runs; crc32 of the repr does not).
            digest = zlib.crc32(repr(item).encode())
            a = cache_nodes[digest % len(cache_nodes)]
            auth_of[item] = a
        rt.hash_node[t] = context.node_index[a]
        rt.hash_request_cost[t] = context.distance(s, a)
        rt.hash_fetch_cost[t] = context.distance(a, origin)
        rt.hash_pinned[t] = (a, item) in problem.pinned


# ----------------------------------------------------------------------


@dataclass
class ChunkMetrics:
    """Per-request outcome arrays of one engine step."""

    costs: np.ndarray  # float64 per request of the chunk
    edge_hits: np.ndarray  # bool per request: served before the origin


class ReactiveStrategyEngine:
    """Stateful chunked executor for one reactive strategy.

    ``step`` consumes one chunk of request type ids (from
    :func:`repro.serving.engine.generate_requests` batches or an explicit
    replayed stream), scores every request against the frozen chunk-start
    cache state, and advances the state at the chunk boundary.
    """

    def __init__(
        self,
        reactive: ReactiveTables,
        *,
        strategy: str = "lce",
        policy: str = "lru",
        seed: int = 0,
    ) -> None:
        if strategy not in STRATEGIES:
            raise InvalidProblemError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "hashrouting" and (reactive.hash_node < 0).any():
            raise InvalidProblemError(
                "hash routing needs at least one positive-capacity cache node"
            )
        self.rt = reactive
        self.strategy = strategy
        self.state = CacheArrayState(
            reactive.capacities, reactive.item_size, policy
        )
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def step(self, type_ids: np.ndarray) -> ChunkMetrics:
        """Score one chunk against frozen state, then apply its events.

        A chunk that is not a 1-d array of integer type ids in ``[0, num_types)``
        raises :class:`InvalidProblemError` before any state changes.
        """
        ids = np.asarray(type_ids)
        n_types = self.rt.num_types
        if ids.ndim != 1 or ids.size and not (
            np.issubdtype(ids.dtype, np.integer) and ids.min() >= 0 and ids.max() < n_types
        ):
            raise InvalidProblemError(f"type ids must be a 1-d integer array in [0, {n_types})")
        type_ids = ids.astype(np.int64, copy=False)
        if self.strategy == "hashrouting":
            return self._step_hashrouting(type_ids)
        return self._step_on_path(type_ids)

    def _apply_per_type(
        self,
        type_ids: np.ndarray,
        touch_mask: np.ndarray,
        touch_node: np.ndarray,
        insert_mask: np.ndarray,
        insert_nodes: np.ndarray,
    ) -> None:
        """Apply a chunk in which all requests of one type share their events.

        Type ``t`` touches its item at ``touch_node[t]`` where ``touch_mask[t]``
        and inserts it at ``insert_nodes[t, k]`` where ``insert_mask[t, k]``.
        Its request count and last position in the chunk carry the update.
        """
        n = len(type_ids)
        count = np.bincount(type_ids, minlength=self.rt.num_types)
        last = np.full(self.rt.num_types, -1, dtype=np.int64)
        np.maximum.at(last, type_ids, np.arange(n, dtype=np.int64))
        present = count > 0
        touch_t = np.flatnonzero(touch_mask & present)
        insert_t, pos = np.nonzero(insert_mask & present[:, None])
        item = self.rt.type_item
        self.state.apply_chunk(
            touch_node[touch_t], item[touch_t], last[touch_t],
            insert_nodes[insert_t, pos], item[insert_t], last[insert_t],
            n, touch_mult=count[touch_t], insert_mult=count[insert_t],
        )

    # -- on-path strategies ---------------------------------------------

    def _hit_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """First hit position per type under frozen state, and whether the
        hit is a cache residency (vs a pinned copy)."""
        rt = self.rt
        item_col = rt.type_item[:, None]
        occ = self.state.resident[np.maximum(rt.pad_nodes, 0), item_col]
        occ &= rt.pad_cache  # non-cache nodes can never hold a copy
        hit_mask = (occ | rt.pad_pinned) & rt.pad_valid
        hit_pos = hit_mask.argmax(axis=1)  # first True (origin guarantees one)
        rows = np.arange(rt.num_types)
        hit_is_cache = occ[rows, hit_pos]
        return hit_pos, hit_is_cache

    def _candidate_csr(
        self, cand_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flatten a per-type candidate-position mask into CSR arrays."""
        rt = self.rt
        cand_len = cand_mask.sum(axis=1).astype(np.int64)
        cand_ptr = np.zeros(rt.num_types + 1, dtype=np.int64)
        np.cumsum(cand_len, out=cand_ptr[1:])
        cand_nodes = rt.pad_nodes[cand_mask]
        cand_items = np.repeat(rt.type_item, cand_len)
        return cand_len, cand_ptr, cand_nodes, cand_items

    def _expand(
        self,
        type_ids: np.ndarray,
        cand_len: np.ndarray,
        cand_ptr: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-request expansion of per-type candidate lists.

        Returns ``(event_seq, flat_idx)``: for every (request, candidate)
        pair, the request's within-chunk index and the candidate's index
        into the CSR value arrays.
        """
        m = cand_len[type_ids]
        total = int(m.sum())
        seq = np.arange(len(type_ids), dtype=np.int64)
        event_seq = np.repeat(seq, m)
        offsets = np.zeros(len(type_ids) + 1, dtype=np.int64)
        np.cumsum(m, out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], m)
        flat_idx = cand_ptr[type_ids[event_seq]] + within
        return event_seq, flat_idx

    def _step_on_path(self, type_ids: np.ndarray) -> ChunkMetrics:
        rt = self.rt
        hit_pos, hit_is_cache = self._hit_positions()
        rows = np.arange(rt.num_types)
        type_cost = rt.pad_prefix_cost[rows, hit_pos]
        type_edge_hit = hit_pos < rt.path_len - 1

        costs = type_cost[type_ids]
        edge_hits = type_edge_hit[type_ids]

        # Insert candidates per type (cache positions strictly before hit).
        col = np.arange(rt.pad_nodes.shape[1])[None, :]
        before_hit = rt.pad_cache & (col < hit_pos[:, None])
        if self.strategy == "lcd":
            # First cache-capable node downstream of the serving node (the
            # highest cache position below the hit).  Unlike Icarus we let
            # the requester itself qualify: in the edge-caching scenarios
            # the requesters are exactly the cache-capable nodes.
            lcd_pos = np.where(before_hit, col, -1).max(axis=1)
            cand_mask = before_hit & (col == lcd_pos[:, None])
        elif self.strategy == "cl4m":
            best = rt.pad_best_prefix[rows, hit_pos]
            cand_mask = before_hit & (col == best[:, None])
        else:  # lce; probcache thins the same mask per request below
            cand_mask = before_hit

        # Every request of a type touches the same cached copy (if its hit
        # was one) and inserts at the same candidates: apply once per type.
        hit_node = rt.pad_nodes[rows, hit_pos]
        if self.strategy != "probcache":
            self._apply_per_type(type_ids, hit_is_cache, hit_node, cand_mask, rt.pad_nodes)
            return ChunkMetrics(costs=costs, edge_hits=edge_hits)

        # ProbCache flips one coin per (request, candidate), so its events
        # stay per request.
        seq = np.arange(len(type_ids), dtype=np.int64)
        touch_seq = seq[hit_is_cache[type_ids]]
        touch_t = type_ids[touch_seq]
        cand_len, cand_ptr, cand_nodes, cand_items = self._candidate_csr(cand_mask)
        event_seq, flat_idx = self._expand(type_ids, cand_len, cand_ptr)
        cand_prob = self._probcache_probs(cand_mask, hit_pos)
        keep = self._rng.random(len(flat_idx)) < cand_prob[flat_idx]
        self.state.apply_chunk(
            hit_node[touch_t],
            rt.type_item[touch_t],
            touch_seq,
            cand_nodes[flat_idx[keep]],
            cand_items[flat_idx[keep]],
            event_seq[keep],
            len(type_ids),
        )
        return ChunkMetrics(costs=costs, edge_hits=edge_hits)

    def _probcache_probs(
        self, cand_mask: np.ndarray, hit_pos: np.ndarray
    ) -> np.ndarray:
        """ProbCache acceptance probability per CSR candidate.

        With position 0 the requester and ``h`` the serving position:
        ``c``   = caches on the traveled path ``[0, h]``;
        ``x_k`` = caches in ``[k, h-1]`` (seen since the serving node);
        ``N_k`` = cache budget in ``[0, k+1]`` (remaining toward requester);
        ``p_k  = N_k / (t_tw * c_v) * (x_k / c)^c``, clipped to 1.
        """
        rt = self.rt
        rows = np.arange(rt.num_types)
        L = rt.pad_nodes.shape[1]
        c = rt.pad_cache_count[rows, hit_pos].astype(float)  # >= 1 if any cand
        caches_below_hit = np.where(
            hit_pos > 0,
            rt.pad_cache_count[rows, np.maximum(hit_pos - 1, 0)],
            0,
        ).astype(float)
        col = np.arange(L)[None, :]
        count_before = np.where(
            col > 0, rt.pad_cache_count[:, np.maximum(col - 1, 0)[0]], 0
        )
        # x at position k: caches in [k, h-1] = count(<=h-1) - count(<=k-1).
        x = caches_below_hit[:, None] - np.asarray(count_before, dtype=float)
        nxt = np.minimum(col + 1, L - 1)
        n_budget = rt.pad_cap_sum[:, nxt[0]]
        cap_v = np.where(rt.pad_cache, rt.capacities[np.maximum(rt.pad_nodes, 0)], 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(c[:, None] > 0, x / np.maximum(c[:, None], 1.0), 0.0)
            p = (
                n_budget
                / (_T_TW * cap_v)
                * np.power(np.clip(ratio, 0.0, 1.0), c[:, None])
            )
        p = np.clip(np.nan_to_num(p, nan=0.0, posinf=1.0), 0.0, 1.0)
        return p[cand_mask]

    # -- hash routing ----------------------------------------------------

    def _step_hashrouting(self, type_ids: np.ndarray) -> ChunkMetrics:
        rt = self.rt
        auth = rt.hash_node
        resident = self.state.resident[auth, rt.type_item]
        type_hit = resident | rt.hash_pinned
        type_cost = rt.hash_request_cost + np.where(type_hit, 0.0, rt.hash_fetch_cost)

        costs = type_cost[type_ids]
        edge_hits = type_hit[type_ids]

        self._apply_per_type(type_ids, resident, auth, ~type_hit[:, None], auth[:, None])
        return ChunkMetrics(costs=costs, edge_hits=edge_hits)


# ----------------------------------------------------------------------


@dataclass
class EngineReplayResult:
    """Steady-state metrics of one engine-backed reactive replay."""

    strategy: str
    policy: str
    requests: int
    #: Average measured cost per request scaled by the total demand rate —
    #: directly comparable with ``ReactiveResult.cost_rate`` and with
    #: optimized solutions' routing cost.
    cost_rate: float
    edge_hit_ratio: float
    chunk_size: int
    #: Per-chunk total cost / request count over the *whole* stream
    #: (including warmup), for cost-over-time plots.
    chunk_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    chunk_requests: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )


def stream_type_ids(
    tables: RoutingTables, n_requests: int, rng: np.random.Generator
) -> np.ndarray:
    """At least ``n_requests`` arrivals via the engine's batch generator.

    Batches are drawn through :func:`generate_requests` (Poisson counts,
    time-ordered) and concatenated until the target count is reached, then
    truncated to exactly ``n_requests`` — one deterministic seeded stream
    every policy of a comparison can replay.
    """
    if n_requests <= 0:
        raise InvalidProblemError("n_requests must be positive")
    horizon = horizon_for_requests(tables, n_requests)
    chunks = []
    total = 0
    while total < n_requests:
        batch = generate_requests(tables, horizon, rng)
        chunks.append(batch.type_ids)
        total += len(batch.type_ids)
        horizon = max(horizon * 0.1, horizon_for_requests(tables, 1024))
    return np.concatenate(chunks)[:n_requests]


def replay_reactive(
    problem: ProblemInstance,
    *,
    strategy: str = "lce",
    policy: str = "lru",
    n_requests: int = 100_000,
    chunk_size: int = 8192,
    warmup_fraction: float = 0.25,
    seed: int = 0,
    type_ids: np.ndarray | None = None,
    reactive: ReactiveTables | None = None,
) -> EngineReplayResult:
    """Replay a seeded request stream through one engine-backed strategy.

    ``type_ids`` may carry an explicit pre-drawn stream (indices into
    ``reactive.tables.types``) — the parity tests feed the legacy
    simulator's exact draw; otherwise the stream comes from
    :func:`stream_type_ids` under ``seed``.
    """
    if chunk_size <= 0:
        raise InvalidProblemError("chunk_size must be positive")
    rt = reactive or build_reactive_tables(problem)
    rng = np.random.default_rng(seed)
    if type_ids is None:
        type_ids = stream_type_ids(rt.tables, n_requests, rng)
    else:
        type_ids = np.asarray(type_ids)
    n = len(type_ids)
    engine = ReactiveStrategyEngine(
        rt, strategy=strategy, policy=policy, seed=seed + 1
    )
    warmup = int(n * warmup_fraction)
    measured_cost = 0.0
    measured = 0
    hits = 0
    chunk_costs: list[float] = []
    chunk_requests: list[int] = []
    for start in range(0, n, chunk_size):
        chunk = type_ids[start : start + chunk_size]
        metrics = engine.step(chunk)
        chunk_costs.append(float(metrics.costs.sum()))
        chunk_requests.append(len(chunk))
        cut = max(0, warmup - start)
        if cut < len(chunk):
            measured += len(chunk) - cut
            measured_cost += float(metrics.costs[cut:].sum())
            hits += int(metrics.edge_hits[cut:].sum())
    total_rate = rt.tables.total_rate
    return EngineReplayResult(
        strategy=strategy,
        policy=policy,
        requests=measured,
        cost_rate=measured_cost / measured * total_rate if measured else 0.0,
        edge_hit_ratio=hits / measured if measured else 0.0,
        chunk_size=chunk_size,
        chunk_costs=np.asarray(chunk_costs),
        chunk_requests=np.asarray(chunk_requests, dtype=np.int64),
    )
