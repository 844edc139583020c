"""Process-pool execution of the streaming replay over shared tables.

The compiled :class:`~repro.serving.tables.RoutingTables` can be tens of
megabytes on production instances; shipping them per task would dominate
the replay.  Instead the owner exports the numeric payload once into one
``multiprocessing.shared_memory`` segment (:class:`BundleBroadcast`), each
pool worker attaches it in its initializer (:func:`attach_bundle`) and
registers the reconstructed tables in a process-local registry keyed by the
segment name, and per-shard tasks carry only ``(segment name, shard
index)`` — O(1) in the table size.

Segment lifecycle: the owner (the process that created the broadcast) is
the only one that unlinks, when its ``with`` block exits, so the segment
never outlives the replay, even when the pool breaks; POSIX keeps the
mapping alive for attached workers after the unlink.  Workers attach read-only and
never unlink.  Pool workers share the owner's ``resource_tracker``, which
holds one entry per segment name: the owner's unlink consumes it, and an
owner killed before unlinking leaves it for the tracker to remove at
shutdown.

Shard streams come from the same up-front ``SeedSequence.spawn`` list the
serial path consumes, and shard accumulators merge in shard-index order, so
``replay_parallel`` is bit-identical to :func:`repro.serving.engine.replay`
with the same ``n_shards`` — everything except wall-clock timing.  Worker
failures (broken pool, unpicklable payloads) degrade the affected shards to
serial execution with a logged warning instead of raising.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.serving.engine import (
    ServingConfig,
    ServingReport,
    ShardAccumulator,
    _check_request_budget,
    _empty_accumulator,
    build_report,
    replay,
    run_shard,
    shard_seed_sequences,
)
from repro.serving.tables import RoutingTables

__all__ = [
    "ArraySpec",
    "BundleBroadcast",
    "BundleHandle",
    "attach_bundle",
    "replay_parallel",
]

logger = logging.getLogger(__name__)

#: Segment layout alignment; keeps every array's view aligned for any dtype.
_ALIGN = 64

#: Keeps attached segments referenced so their buffers outlive the arrays.
_ATTACHED: list[shared_memory.SharedMemory] = []

#: Process-local registry: shm segment name -> attached tables.
_TABLES: dict[str, RoutingTables] = {}


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one array inside a bundle segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int


@dataclass(frozen=True)
class BundleHandle:
    """Picklable description of an exported array bundle.

    O(#arrays) to pickle, independent of the array payloads; crosses the
    process boundary once per pool via the initializer.
    """

    shm_name: str
    specs: tuple[ArraySpec, ...]


class BundleBroadcast:
    """Owner side of one exported array bundle.

    Copies every array of ``arrays`` into a fresh shared-memory segment
    (64-byte aligned so any dtype maps cleanly).  The owner must call
    :meth:`close` (idempotent) when done — it closes the local mapping and
    unlinks the segment.
    """

    def __init__(self, arrays: dict[str, np.ndarray]) -> None:
        specs: list[ArraySpec] = []
        offset = 0
        for name, arr in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            specs.append(
                ArraySpec(
                    name=name, shape=tuple(arr.shape), dtype=arr.dtype.str,
                    offset=offset,
                )
            )
            offset += int(arr.nbytes)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, size=max(1, offset)
        )
        for spec, arr in zip(specs, arrays.values()):
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf,
                offset=spec.offset,
            )
            view[...] = arr
        self.handle = BundleHandle(shm_name=self._shm.name, specs=tuple(specs))

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            shm.unlink()

    def __enter__(self) -> "BundleBroadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_bundle(handle: BundleHandle) -> dict[str, np.ndarray]:
    """Map an exported bundle into this process as read-only arrays.

    The mapping is kept alive for the process lifetime via the
    module-level reference list.  Attaching never unlinks, and leaves the
    segment's ``resource_tracker`` entry to the owner's unlink.
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    _ATTACHED.append(shm)
    out: dict[str, np.ndarray] = {}
    for spec in handle.specs:
        arr = np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=shm.buf,
            offset=spec.offset,
        )
        arr.setflags(write=False)
        out[spec.name] = arr
    return out


def _attach_tables(handle: BundleHandle, labels) -> None:
    """Pool-initializer entry point: map the bundle, rebuild the tables."""
    _TABLES[handle.shm_name] = RoutingTables.from_arrays(
        labels, attach_bundle(handle)
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
    the serial path (same stream, same result).  The request budget is
    checked up front, exactly as :func:`replay` checks it.
    """
    config = config or ServingConfig()
    if config.n_shards == 1:
        return replay(tables, config)
    _check_request_budget(tables, config)

    start = time.perf_counter()
    seed_seqs = shard_seed_sequences(config)
    results: dict[int, ShardAccumulator] = {}
    # The owner unlinks the segment on exit, even when the pool breaks.
    with BundleBroadcast(tables.as_arrays()) as broadcast:
        key = broadcast.handle.shm_name
        tasks = [
            (key, config, shard, seed_seq)
            for shard, seed_seq in enumerate(seed_seqs)
        ]
        serial_retry: list[int] = []
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_attach_tables,
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

    total = _empty_accumulator(tables)
    for shard in range(config.n_shards):
        total.merge(results[shard])
    elapsed = time.perf_counter() - start
    return build_report(tables, config, total, elapsed_seconds=elapsed)
