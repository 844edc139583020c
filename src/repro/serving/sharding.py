"""Process-pool execution of the streaming replay over shared tables.

The compiled :class:`~repro.serving.tables.RoutingTables` can be tens of
megabytes on production instances; shipping them per task would dominate
the replay.  Instead the owner exports the numeric payload once through
:class:`repro.graph.shm.BundleBroadcast` (the same segment-lifecycle
discipline as the distance-row broadcast), each pool worker
attaches it in its initializer and registers the reconstructed tables in a
process-local registry keyed by the segment name, and per-shard tasks carry
only ``(segment name, shard index)`` — O(1) in the table size.

Shard streams come from the same up-front ``SeedSequence.spawn`` list the
serial path consumes, and shard accumulators merge in shard-index order, so
``replay_parallel`` is bit-identical to :func:`repro.serving.engine.replay`
with the same ``n_shards`` — everything except wall-clock timing.  Worker
failures (broken pool, unpicklable payloads) degrade the affected shards to
serial execution with a logged warning instead of raising.
"""

from __future__ import annotations

import logging
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import numpy as np

from repro.graph.shm import BundleBroadcast, BundleHandle, attach_bundle
from repro.serving.engine import (
    ServingConfig,
    ServingReport,
    ShardAccumulator,
    _empty_accumulator,
    build_report,
    replay,
    run_shard,
    shard_seed_sequences,
)
from repro.serving.tables import RoutingTables

__all__ = ["replay_parallel", "register_tables", "unregister_tables"]

logger = logging.getLogger(__name__)

#: Process-local registry: shm segment name -> attached tables.
_TABLES: dict[str, RoutingTables] = {}


def register_tables(key: str, tables: RoutingTables) -> None:
    _TABLES[key] = tables


def unregister_tables(key: str) -> None:
    _TABLES.pop(key, None)


def _attach_and_register_tables(handle: BundleHandle, labels) -> None:
    """Pool-initializer entry point: map the bundle, rebuild the tables."""
    register_tables(
        handle.shm_name, RoutingTables.from_arrays(labels, attach_bundle(handle))
    )


def _run_shard_task(
    task: tuple[str, ServingConfig, int, np.random.SeedSequence],
) -> ShardAccumulator:
    """One shard inside a worker; tables come from the local registry."""
    key, config, _shard_index, seed_seq = task
    return run_shard(_TABLES[key], config, seed_seq)


def replay_parallel(
    tables: RoutingTables,
    config: ServingConfig | None = None,
    *,
    max_workers: int | None = None,
) -> ServingReport:
    """Pooled streaming replay, bit-identical to the serial :func:`replay`.

    With one shard there is nothing to distribute, so the call degrades to
    the serial path (same stream, same result).
    """
    config = config or ServingConfig()
    if config.n_shards == 1:
        return replay(tables, config)
    import time

    start = time.perf_counter()
    seed_seqs = shard_seed_sequences(config)
    results: dict[int, ShardAccumulator] = {}
    broadcast = BundleBroadcast(tables.as_arrays())
    key = broadcast.handle.shm_name
    # The owner can serve retries from its own tables object.
    register_tables(key, tables)
    try:
        tasks = [
            (key, config, shard, seed_seq)
            for shard, seed_seq in enumerate(seed_seqs)
        ]
        serial_retry: list[int] = []
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_attach_and_register_tables,
                initargs=(broadcast.handle, tables.labels()),
            ) as pool:
                futures = {
                    shard: pool.submit(_run_shard_task, task)
                    for shard, task in enumerate(tasks)
                }
                for shard in range(config.n_shards):
                    try:
                        results[shard] = futures[shard].result()
                    except BrokenExecutor:
                        serial_retry = [
                            s for s in range(shard, config.n_shards)
                            if s not in results
                        ]
                        logger.warning(
                            "serving pool broke at shard %d; re-running %d "
                            "shards serially", shard, len(serial_retry),
                        )
                        break
        except (OSError, BrokenExecutor) as exc:
            serial_retry = [s for s in range(config.n_shards) if s not in results]
            logger.warning(
                "serving pool unavailable (%s); running %d shards serially",
                exc, len(serial_retry),
            )
        for shard in serial_retry:
            results[shard] = run_shard(tables, config, seed_seqs[shard])
    finally:
        unregister_tables(key)
        broadcast.close()

    total = _empty_accumulator(tables)
    for shard in range(config.n_shards):
        total.merge(results[shard])
    elapsed = time.perf_counter() - start
    return build_report(tables, config, total, elapsed_seconds=elapsed)
