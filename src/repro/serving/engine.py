"""Vectorized streaming replay of a routing at the request level.

Where :func:`repro.simulation.simulate` dispatches every request through a
Python event loop, this engine processes the whole stream as numpy arrays:

1. arrivals are drawn in bulk — one Poisson count per request type, uniform
   order statistics for timestamps (the same marginal process as the event
   simulator's exponential inter-arrival draws) — and put in time order by
   an unstable sort that falls back to a stable one only on a tie, so the
   order is exactly the stable argsort's;
2. each request picks a serving path with one vectorized alias-table lookup
   against the precompiled :class:`~repro.serving.tables.RoutingTables`;
3. per-link volumes, served counts, and delivered cost accumulate with
   weighted ``bincount`` scatter ops.

The engine is *fluid*: it validates generated counts, per-link empirical
loads, served fractions, and delivered cost against the event simulator
(the parity suite pins this), but it does not model queueing latency —
that remains the event simulator's job on small instances.

Sharding (``ServingConfig.n_shards > 1``) thins each type's Poisson process
into ``n`` independent processes of rate ``lambda / n`` with per-shard
``SeedSequence.spawn`` streams.  Shards run in-process in shard order and
their accumulators merge in that order, so a replay is fixed by its seed and
shard count; the segmented timeline replay in
:mod:`repro.robustness.streaming` consumes the same streams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InvalidProblemError
from repro.serving.tables import Edge, RoutingTables

__all__ = [
    "ServingConfig",
    "ServingReport",
    "RequestBatch",
    "generate_requests",
    "serve_batch",
    "replay",
]


@dataclass(frozen=True)
class ServingConfig:
    """Replay horizon, seeding, and sharding of the request stream."""

    horizon: float = 1.0
    seed: int = 0
    #: Number of stream shards.  Each shard has its own spawned stream, so
    #: results depend on the shard count.
    n_shards: int = 1
    #: Guard against runaway instances: expected arrivals above this raise.
    max_requests: int = 50_000_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidProblemError(
                f"horizon must be finite and positive, got {self.horizon!r}"
            )
        if not isinstance(self.n_shards, (int, np.integer)) or self.n_shards < 1:
            raise InvalidProblemError(
                f"n_shards must be an integer >= 1, got {self.n_shards!r}"
            )


@dataclass
class RequestBatch:
    """One shard's arrivals as a struct-of-arrays, time-ordered."""

    #: Arrival times, sorted ascending, in ``[0, horizon)``.
    timestamps: np.ndarray
    #: Request-type index per arrival (row into the tables' type arrays).
    type_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.type_ids)

    def item_ids(self, tables: RoutingTables) -> list:
        """Requested item per arrival (label lookup, O(n) Python)."""
        return [tables.types[t][0] for t in self.type_ids]

    def requester_ids(self, tables: RoutingTables) -> list:
        """Requesting node per arrival (label lookup, O(n) Python)."""
        return [tables.types[t][1] for t in self.type_ids]


@dataclass
class ShardAccumulator:
    """Raw per-shard aggregates; merged in shard order by :func:`replay`."""

    generated: np.ndarray  # int64 per type
    served: np.ndarray  # int64 per type
    path_counts: np.ndarray  # int64 per path
    edge_volume: np.ndarray  # float64 per edge (size-weighted)
    delivered_cost: float

    def merge(self, other: "ShardAccumulator") -> None:
        self.generated += other.generated
        self.served += other.served
        self.path_counts += other.path_counts
        self.edge_volume += other.edge_volume
        self.delivered_cost += other.delivered_cost


@dataclass
class ServingReport:
    """Aggregated outcome of one streaming replay."""

    generated: int
    served: int
    unserved: int
    #: Sum of path costs over served requests (cf. objective (1a) scaled by
    #: the horizon: ``delivered_cost / horizon`` estimates the routing cost).
    delivered_cost: float
    #: Empirical traffic (size per unit time) per link.
    empirical_loads: dict[Edge, float] = field(default_factory=dict)
    #: The analytic loads of constraint (1b), for comparison.
    analytic_loads: dict[Edge, float] = field(default_factory=dict)
    #: Demand types with no (or zero-fraction) routing in the tables.
    unrouted_types: int = 0
    horizon: float = 1.0
    n_shards: int = 1
    #: Wall-clock time of the replay (generation + matching + accumulation).
    elapsed_seconds: float = 0.0
    #: Per-type generated/served counts (tables' type order).
    per_type_generated: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    per_type_served: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def served_fraction(self) -> float:
        """Served share of generated requests; NaN when nothing arrived."""
        if self.generated == 0:
            return float("nan")
        return self.served / self.generated

    @property
    def requests_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.generated / self.elapsed_seconds


def generate_requests(
    tables: RoutingTables,
    horizon: float,
    rng: np.random.Generator,
    *,
    rate_scale: float = 1.0,
) -> RequestBatch:
    """Draw one shard's arrivals in bulk.

    Counts per type are Poisson(rate * horizon * rate_scale); timestamps are
    uniform order statistics over the horizon — together exactly a Poisson
    process per type, matching the event simulator's exponential
    inter-arrival construction in distribution.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise InvalidProblemError(f"horizon must be finite and positive, got {horizon!r}")
    if not math.isfinite(rate_scale) or rate_scale < 0:
        raise InvalidProblemError(f"rate_scale must be finite and >= 0, got {rate_scale!r}")
    total_rate = tables.total_rate
    if not math.isfinite(total_rate) or (tables.rates < 0).any():
        raise InvalidProblemError(
            f"tables carry a degenerate demand rate (total {total_rate!r})"
        )
    if total_rate * rate_scale <= 0.0:
        # All-replicas-dead / zero-demand segment: an empty, well-formed
        # batch instead of degenerate Poisson draws.  No randomness is
        # consumed, so downstream segments keep their streams aligned.
        return RequestBatch(
            timestamps=np.zeros(0), type_ids=np.zeros(0, dtype=np.int64)
        )
    counts = rng.poisson(tables.rates * (horizon * rate_scale))
    total = int(counts.sum())
    type_ids = np.repeat(
        np.arange(tables.num_types, dtype=np.int64), counts
    )
    timestamps = rng.random(total) * horizon
    order = _arrival_order(timestamps)
    return RequestBatch(timestamps=timestamps[order], type_ids=type_ids[order])


def _arrival_order(timestamps: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(timestamps, kind="stable")`` for NaN-free input.

    Without ties every correct sort returns the one ascending permutation, so
    numpy's faster default sort is exact; only on a tie is the stable sort redone.
    """
    order = np.argsort(timestamps)
    ordered = timestamps[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(timestamps, kind="stable")
    return order


def serve_batch(
    tables: RoutingTables,
    batch: RequestBatch,
    rng: np.random.Generator,
) -> ShardAccumulator:
    """Match one batch against the tables; no per-request Python dispatch."""
    type_ids = batch.type_ids
    generated = np.bincount(type_ids, minlength=tables.num_types)

    # Serve/drop draw: a type whose fractions sum to f < 1 serves each
    # arrival with probability f (types with no routing have f = 0).
    u = rng.random(len(type_ids))
    served_mask = u < tables.served_prob[type_ids]
    served_types = type_ids[served_mask]
    served = np.bincount(served_types, minlength=tables.num_types)

    # Alias-table path choice for the served requests: slot uniform within
    # the type's slot range, accept/reject against the precomputed
    # thresholds (one uniform for slot+acceptance via the floor/frac trick).
    lo = tables.slot_ptr[served_types]
    k = tables.slot_ptr[served_types + 1] - lo
    v = rng.random(len(served_types)) * k
    local = v.astype(np.int64)
    # Guard the measure-zero v == k edge produced by float rounding.
    np.minimum(local, k - 1, out=local)
    slot = lo + local
    frac = v - local
    paths = np.where(
        frac < tables.slot_prob[slot],
        tables.slot_path[slot],
        tables.slot_alias[slot],
    )

    path_counts = np.bincount(paths, minlength=tables.num_paths)
    volume = path_counts * tables.item_sizes[tables.path_type]
    edge_volume = np.bincount(
        tables.path_edges,
        weights=np.repeat(volume, np.diff(tables.path_edge_ptr)),
        minlength=len(tables.edges),
    )
    delivered_cost = float(path_counts @ tables.path_cost)
    return ShardAccumulator(
        generated=generated.astype(np.int64),
        served=served.astype(np.int64),
        path_counts=path_counts.astype(np.int64),
        edge_volume=edge_volume,
        delivered_cost=delivered_cost,
    )


def shard_seed_sequences(config: ServingConfig) -> list[np.random.SeedSequence]:
    """Per-shard independent streams, materialized up front.

    Mirrors the Monte Carlo runner's discipline: the full list is derived
    from the base seed before any work happens, so :func:`replay` and the
    segmented timeline replay consume exactly the same streams in the same
    order.
    """
    return np.random.SeedSequence(config.seed).spawn(config.n_shards)


def _empty_accumulator(tables: RoutingTables) -> ShardAccumulator:
    return ShardAccumulator(
        generated=np.zeros(tables.num_types, dtype=np.int64),
        served=np.zeros(tables.num_types, dtype=np.int64),
        path_counts=np.zeros(tables.num_paths, dtype=np.int64),
        edge_volume=np.zeros(len(tables.edges)),
        delivered_cost=0.0,
    )


def replay(
    tables: RoutingTables,
    config: ServingConfig | None = None,
) -> ServingReport:
    """Streaming replay; shards run in-process, in shard order.

    Each shard generates its arrivals at rate ``1 / n_shards`` of the
    tables' rates and serves them from its own spawned stream.  The
    expected request volume is validated against ``config.max_requests``
    once, over the whole stream, before any generation happens, mirroring
    the event simulator's guard.
    """
    config = config or ServingConfig()
    expected = tables.total_rate * config.horizon
    if expected > config.max_requests:
        raise InvalidProblemError(
            f"replay would generate ~{expected:.0f} arrivals"
            f" > max_requests={config.max_requests}"
        )
    start = time.perf_counter()
    total = _empty_accumulator(tables)
    for seed_seq in shard_seed_sequences(config):
        rng = np.random.default_rng(seed_seq)
        batch = generate_requests(
            tables, config.horizon, rng, rate_scale=1.0 / config.n_shards
        )
        total.merge(serve_batch(tables, batch, rng))
    elapsed = time.perf_counter() - start

    generated = int(total.generated.sum())
    served = int(total.served.sum())
    return ServingReport(
        generated=generated,
        served=served,
        unserved=generated - served,
        delivered_cost=total.delivered_cost,
        empirical_loads={
            edge: float(vol) / config.horizon
            for edge, vol in zip(tables.edges, total.edge_volume)
            if vol > 0.0
        },
        analytic_loads=tables.expected_loads(),
        unrouted_types=tables.unrouted_types,
        horizon=config.horizon,
        n_shards=config.n_shards,
        elapsed_seconds=elapsed,
        per_type_generated=total.generated,
        per_type_served=total.served,
    )


def horizon_for_requests(tables: RoutingTables, n_requests: float) -> float:
    """Horizon that yields ``n_requests`` expected arrivals.

    Raises :class:`InvalidProblemError` (never ``ZeroDivisionError``) when
    the tables carry no positive finite demand rate — e.g. a degraded
    segment in which every replica died and demand was dropped.
    """
    if n_requests <= 0 or not math.isfinite(float(n_requests)):
        raise InvalidProblemError("n_requests must be positive and finite")
    rate = tables.total_rate
    if rate <= 0 or not math.isfinite(rate):
        raise InvalidProblemError(
            "tables carry no positive demand rate (all-replicas-dead or "
            "zero-demand segment); cannot size a horizon"
        )
    return float(n_requests) / rate
