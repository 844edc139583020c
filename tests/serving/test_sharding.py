"""Serial-vs-pooled bit parity and shm transport for the serving engine."""

import os
import pickle
import select
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.serving.sharding as sharding
from repro.core import Placement, route_to_nearest_replica
from repro.exceptions import InvalidProblemError
from repro.serving import ServingConfig, compile_tables, replay, replay_parallel
from repro.serving.sharding import BundleBroadcast, _run_shard_task, attach_bundle
from repro.serving.tables import RoutingTables

from tests.core.conftest import make_line_problem

ROOT = Path(__file__).resolve().parents[2]
SHM = Path("/dev/shm")
needs_dev_shm = pytest.mark.skipif(
    not SHM.is_dir(), reason="POSIX shared memory is not mounted at /dev/shm"
)


@pytest.fixture
def tables():
    prob = make_line_problem(link_capacity=50.0)
    return compile_tables(prob, route_to_nearest_replica(prob, Placement()))


def assert_bit_identical(a, b):
    """Everything except wall-clock timing must match exactly."""
    assert a.generated == b.generated
    assert a.served == b.served
    assert a.unserved == b.unserved
    assert a.delivered_cost == b.delivered_cost
    assert a.empirical_loads == b.empirical_loads
    assert a.analytic_loads == b.analytic_loads
    assert np.array_equal(a.per_type_generated, b.per_type_generated)
    assert np.array_equal(a.per_type_served, b.per_type_served)


class TestBitParity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_pooled_matches_serial(self, tables, n_shards):
        config = ServingConfig(horizon=100.0, seed=7, n_shards=n_shards)
        serial = replay(tables, config)
        pooled = replay_parallel(tables, config, max_workers=2)
        assert serial.generated > 0
        assert_bit_identical(serial, pooled)

    def test_single_shard_degrades_to_serial(self, tables):
        config = ServingConfig(horizon=50.0, seed=1, n_shards=1)
        assert_bit_identical(
            replay(tables, config), replay_parallel(tables, config)
        )

    def test_seed_changes_stream(self, tables):
        a = replay(tables, ServingConfig(horizon=50.0, seed=0, n_shards=2))
        b = replay(tables, ServingConfig(horizon=50.0, seed=1, n_shards=2))
        assert a.generated != b.generated or a.delivered_cost != b.delivered_cost

    def test_sharded_totals_statistically_consistent(self, tables):
        """Thinned shards still realize the full demand rate overall."""
        horizon = 300.0
        expected = tables.total_rate * horizon
        for n_shards in (1, 4):
            report = replay(
                tables, ServingConfig(horizon=horizon, seed=2, n_shards=n_shards)
            )
            assert abs(report.generated - expected) < 6 * np.sqrt(expected)
            assert report.served == report.generated


class TestWorkerPlumbing:
    def test_run_shard_task_uses_registry(self, tables, monkeypatch):
        key = "test-serving-registry"
        monkeypatch.setitem(sharding._TABLES, key, tables)
        config = ServingConfig(horizon=20.0, seed=9, n_shards=2)
        seed_seq = np.random.SeedSequence(9).spawn(2)[0]
        acc = _run_shard_task((key, config, 0, seed_seq))
        assert int(acc.generated.sum()) > 0

    def test_tables_survive_bundle_round_trip(self, tables):
        broadcast = BundleBroadcast(tables.as_arrays())
        try:
            rebuilt = RoutingTables.from_arrays(
                tables.labels(), attach_bundle(broadcast.handle)
            )
            config = ServingConfig(horizon=30.0, seed=4, n_shards=2)
            assert_bit_identical(replay(tables, config), replay(rebuilt, config))
        finally:
            broadcast.close()


class _FakeFuture:
    def __init__(self, value=None, exc=None):
        self._value = value
        self._exc = exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value


class _CrashAfterFirstShardPool:
    """Fake pool: shard 0 completes, then the pool 'crashes'.

    Shard 0 runs in-process through the real initializer and
    ``_run_shard_task``.  The registry entry the initializer makes is
    dropped when the pool exits, as a worker's registry dies with it.
    """

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        self._initializer = initializer
        self._initargs = initargs
        self._owner_tables = dict(sharding._TABLES)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        sharding._TABLES.clear()
        sharding._TABLES.update(self._owner_tables)
        return False

    def submit(self, fn, task):
        shard = task[2]
        if shard == 0:
            self._initializer(*self._initargs)
            return _FakeFuture(value=fn(task))
        from concurrent.futures.process import BrokenProcessPool

        return _FakeFuture(exc=BrokenProcessPool("worker died"))


class _NeverStartsPool:
    def __init__(self, *a, **kw):
        raise OSError("no process pool on this host")


def _shm_segments():
    return {p.name for p in SHM.iterdir()} if SHM.is_dir() else set()


class TestWorkerCrashFallback:
    """Mid-campaign worker loss degrades to a bit-identical serial replay."""

    def test_broken_pool_mid_run_matches_serial(self, tables, monkeypatch):
        monkeypatch.setattr(
            sharding, "ProcessPoolExecutor", _CrashAfterFirstShardPool
        )
        config = ServingConfig(horizon=100.0, seed=7, n_shards=4)
        before = _shm_segments()
        pooled = replay_parallel(tables, config)
        assert _shm_segments() == before  # no leaked /dev/shm segments
        serial = replay(tables, config)
        assert serial.generated > 0
        assert_bit_identical(serial, pooled)

    def test_pool_unavailable_runs_all_serial(self, tables, monkeypatch):
        monkeypatch.setattr(sharding, "ProcessPoolExecutor", _NeverStartsPool)
        config = ServingConfig(horizon=80.0, seed=3, n_shards=3)
        before = _shm_segments()
        pooled = replay_parallel(tables, config)
        assert _shm_segments() == before
        assert_bit_identical(replay(tables, config), pooled)

    def test_registry_is_clean_after_fallback(self, tables, monkeypatch):
        monkeypatch.setattr(
            sharding, "ProcessPoolExecutor", _CrashAfterFirstShardPool
        )
        replay_parallel(tables, ServingConfig(horizon=20.0, seed=1, n_shards=2))
        assert sharding._TABLES == {}


class TestRequestBudget:
    def test_pooled_replay_enforces_the_request_budget(self, tables, monkeypatch):
        # ~2,000 expected arrivals against a budget of 1,000: each of the
        # four shards expects only ~500, so the guard must see the whole
        # stream, as the serial replay does.
        config = ServingConfig(
            horizon=2000.0 / tables.total_rate, seed=7, n_shards=4,
            max_requests=1000,
        )
        with pytest.raises(InvalidProblemError, match="max_requests"):
            replay(tables, config)
        monkeypatch.setattr(sharding, "ProcessPoolExecutor", _NeverStartsPool)
        with pytest.raises(InvalidProblemError, match="max_requests"):
            replay_parallel(tables, config)


class TestBundle:
    def sample_arrays(self) -> dict[str, np.ndarray]:
        return {
            "rates": np.array([1.0, 2.5, 4.0]),
            "ptr": np.array([0, 2, 5], dtype=np.int64),
            "flags": np.array([1, 0, 1], dtype=np.int8),
            "empty": np.zeros(0),
        }

    def test_attach_round_trip_read_only(self):
        arrays = self.sample_arrays()
        broadcast = BundleBroadcast(arrays)
        try:
            attached = attach_bundle(broadcast.handle)
            assert set(attached) == set(arrays)
            for name, arr in arrays.items():
                assert attached[name].dtype == arr.dtype
                assert np.array_equal(attached[name], arr)
                assert not attached[name].flags.writeable
        finally:
            broadcast.close()

    def test_close_unlinks_segment(self):
        before = _shm_segments()
        broadcast = BundleBroadcast(self.sample_arrays())
        assert _shm_segments() - before  # segment exists while open
        broadcast.close()
        assert _shm_segments() - before == set()
        broadcast.close()  # idempotent

    def test_handle_pickles_small(self):
        # The per-pool payload is the handle, not the arrays.
        arrays = {"big": np.zeros(200_000)}
        broadcast = BundleBroadcast(arrays)
        try:
            assert len(pickle.dumps(broadcast.handle)) < 1_000
        finally:
            broadcast.close()

    def test_heterogeneous_dtypes_keep_alignment(self):
        arrays = {
            "bytes1": np.arange(7, dtype=np.int8),
            "floats": np.arange(5, dtype=np.float64),
            "ints": np.arange(3, dtype=np.int64),
        }
        broadcast = BundleBroadcast(arrays)
        try:
            for spec in broadcast.handle.specs:
                assert spec.offset % 64 == 0
            attached = attach_bundle(broadcast.handle)
            for name, arr in arrays.items():
                assert np.array_equal(attached[name], arr)
        finally:
            broadcast.close()


def _python(script: str) -> dict:
    """Arguments that run ``script`` in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    return {"args": [sys.executable, "-c", script], "cwd": ROOT, "env": env,
            "text": True}


_POOLED_REPLAY = """
from repro.core import Placement, route_to_nearest_replica
from repro.serving import ServingConfig, compile_tables, replay_parallel
from tests.core.conftest import make_line_problem

problem = make_line_problem(link_capacity=50.0)
tables = compile_tables(problem, route_to_nearest_replica(problem, Placement()))
report = replay_parallel(
    tables, ServingConfig(horizon=100.0, seed=7, n_shards=2), max_workers=2
)
assert report.generated > 0
"""

_OWNER_ATTACHED_BY_A_WORKER = """
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.serving.sharding import BundleBroadcast, attach_bundle

broadcast = BundleBroadcast({"x": np.arange(8.0)})
with ProcessPoolExecutor(
    max_workers=1, initializer=attach_bundle, initargs=(broadcast.handle,)
) as pool:
    pool.submit(os.getpid).result()
print(broadcast.handle.shm_name, flush=True)
input()  # hold the segment until killed
"""


@needs_dev_shm
class TestResourceTracker:
    """Worker attachments leave the owner's resource-tracker entry alone."""

    def test_pooled_replay_leaves_the_tracker_quiet(self):
        done = subprocess.run(
            **_python(_POOLED_REPLAY), capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr

    def test_killed_owner_segment_is_removed(self):
        segment = None
        with subprocess.Popen(
            **_python(_OWNER_ATTACHED_BY_A_WORKER),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 60)
                assert ready, "the owner never reported its segment"
                segment = SHM / proc.stdout.readline().strip().lstrip("/")
                assert segment.name and segment.exists()
                proc.kill()
                proc.wait(timeout=30)
                deadline = time.monotonic() + 30
                while segment.exists() and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert not segment.exists(), f"{segment} outlived its killed owner"
            finally:
                if proc.poll() is None:
                    proc.kill()
                if segment is not None and segment.name and segment.exists():
                    segment.unlink()
