"""Tests for the array-backed chunked LRU/LFU cache state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.adaptive.state import CacheArrayState
from repro.baselines.reactive import EvictingCache
from repro.exceptions import InvalidProblemError


def _chunk(state, events, chunk_len=None):
    """Apply ``events`` = list of ("touch"|"insert", node, item) in order."""
    touches = [(n, i, k) for k, (kind, n, i) in enumerate(events) if kind == "touch"]
    inserts = [(n, i, k) for k, (kind, n, i) in enumerate(events) if kind == "insert"]
    tn, ti, ts = (np.array(x, dtype=np.int64) for x in zip(*touches)) if touches else (
        np.zeros(0, np.int64),
    ) * 3
    inn, ini, ins = (np.array(x, dtype=np.int64) for x in zip(*inserts)) if inserts else (
        np.zeros(0, np.int64),
    ) * 3
    state.apply_chunk(tn, ti, ts, inn, ini, ins, chunk_len or len(events))


class TestCacheArrayState:
    def test_insert_and_residency(self):
        st = CacheArrayState(np.array([2.0]), np.ones(4))
        _chunk(st, [("insert", 0, 1), ("insert", 0, 2)])
        assert set(st.items_at(0)) == {1, 2}
        assert st.used[0] == pytest.approx(2.0)

    def test_lru_eviction_order(self):
        st = CacheArrayState(np.array([2.0]), np.ones(4), "lru")
        _chunk(st, [("insert", 0, 0), ("insert", 0, 1)])
        _chunk(st, [("touch", 0, 0)])  # 0 becomes MRU
        _chunk(st, [("insert", 0, 2)])
        assert set(st.items_at(0)) == {0, 2}

    def test_lfu_eviction_prefers_low_frequency(self):
        st = CacheArrayState(np.array([2.0]), np.ones(4), "lfu")
        _chunk(st, [("insert", 0, 0), ("touch", 0, 0), ("touch", 0, 0)])
        _chunk(st, [("insert", 0, 1)])
        _chunk(st, [("insert", 0, 2)])
        assert 0 in st.items_at(0)  # 3 events survive
        assert 1 not in st.items_at(0)

    def test_fresh_insert_not_its_own_victim(self):
        st = CacheArrayState(np.array([2.0]), np.ones(4), "lru")
        _chunk(st, [("insert", 0, 0), ("insert", 0, 1)])
        _chunk(st, [("insert", 0, 3)])
        # The fresh item 3 must displace a stale item, not itself.
        assert 3 in st.items_at(0)
        assert len(st.items_at(0)) == 2

    def test_oversized_item_rejected(self):
        st = CacheArrayState(np.array([1.0]), np.array([1.0, 5.0]))
        _chunk(st, [("insert", 0, 1)])
        assert len(st.items_at(0)) == 0
        assert st.used[0] == 0.0

    def test_heterogeneous_sizes_evict_until_fit(self):
        st = CacheArrayState(np.array([4.0]), np.array([2.0, 2.0, 3.0]))
        _chunk(st, [("insert", 0, 0), ("insert", 0, 1)])
        _chunk(st, [("insert", 0, 2)])  # needs 3: evicts both stale items
        assert 2 in st.items_at(0)
        assert st.used[0] <= 4.0 + 1e-9

    def test_invalid_policy(self):
        with pytest.raises(InvalidProblemError):
            CacheArrayState(np.ones(1), np.ones(1), "fifo")

    def test_clock_advances_by_chunk_length(self):
        st = CacheArrayState(np.array([2.0]), np.ones(2))
        _chunk(st, [("insert", 0, 0)], chunk_len=10)
        assert st.clock == 10

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_chunk1_matches_evicting_cache(self, policy):
        """Random per-event chunks replicate the dict-based cache exactly."""
        rng = np.random.default_rng(42)
        sizes = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        st = CacheArrayState(np.array([3.0]), sizes, policy)
        ref = EvictingCache(3.0, policy)
        for _ in range(400):
            item = int(rng.integers(5))
            if item in {int(i) for i in st.items_at(0)}:
                _chunk(st, [("touch", 0, item)], chunk_len=1)
                ref.touch(item)
            else:
                _chunk(st, [("insert", 0, item)], chunk_len=1)
                ref.insert(item, float(sizes[item]))
            assert {int(i) for i in st.items_at(0)} == set(ref.items())
            assert st.used[0] == pytest.approx(ref.used)


class TestFailureHooks:
    """PR 8: cache wipes and dead-node skipping for degraded replays."""

    def test_wipe_nodes_clears_all_state(self):
        st = CacheArrayState(np.array([3.0, 3.0]), np.ones(4))
        _chunk(st, [("insert", 0, 1), ("insert", 1, 2), ("touch", 1, 2)])
        st.wipe_nodes([1])
        assert set(st.items_at(0)) == {1}
        assert len(st.items_at(1)) == 0
        assert st.used[1] == 0.0
        assert (st.freq[1] == 0).all()
        assert (st.last_used[1] == 0).all()

    def test_wipe_empty_is_noop(self):
        st = CacheArrayState(np.array([2.0]), np.ones(2))
        _chunk(st, [("insert", 0, 0)])
        st.wipe_nodes(np.zeros(0, dtype=np.int64))
        assert set(st.items_at(0)) == {0}

    def test_set_down_wipes_on_entry_and_skips_while_down(self):
        st = CacheArrayState(np.array([3.0, 3.0]), np.ones(4))
        _chunk(st, [("insert", 0, 1), ("insert", 1, 2)])
        st.set_down([1])
        assert len(st.items_at(1)) == 0
        # Dead node ignores inserts and touches; live node keeps working.
        _chunk(st, [("insert", 1, 3), ("touch", 1, 2), ("insert", 0, 2)])
        assert len(st.items_at(1)) == 0
        assert set(st.items_at(0)) == {1, 2}

    def test_repaired_node_comes_back_empty_and_working(self):
        st = CacheArrayState(np.array([2.0]), np.ones(3))
        _chunk(st, [("insert", 0, 0)])
        st.set_down([0])
        st.set_down([])  # repair
        assert len(st.items_at(0)) == 0
        _chunk(st, [("insert", 0, 1)])
        assert set(st.items_at(0)) == {1}

    def test_repeated_set_down_does_not_rewipe(self):
        st = CacheArrayState(np.array([2.0, 2.0]), np.ones(3))
        st.set_down([1])
        _chunk(st, [("insert", 0, 0)])
        st.set_down([1])  # same set again: node 0 state must survive
        assert set(st.items_at(0)) == {0}

    def test_healthy_path_is_bit_identical(self):
        """With no down nodes the failure hooks must not perturb replays."""
        rng = np.random.default_rng(0)
        events = [
            ("insert" if rng.random() < 0.5 else "touch",
             int(rng.integers(2)), int(rng.integers(4)))
            for _ in range(100)
        ]
        a = CacheArrayState(np.array([2.0, 3.0]), np.ones(4))
        b = CacheArrayState(np.array([2.0, 3.0]), np.ones(4))
        b.set_down([0]); b.set_down([])  # exercised hooks, then healthy
        _chunk(a, events)
        _chunk(b, events)
        assert np.array_equal(a.resident, b.resident)
        assert np.array_equal(a.last_used, b.last_used)
        assert np.array_equal(a.freq, b.freq)
        assert np.array_equal(a.used, b.used)


class TestMultiplicity:
    """An event of multiplicity k equals k events on its pair."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=hst.data(),
        policy=hst.sampled_from(("lru", "lfu")),
    )
    def test_multiplicity_equals_repeated_events(self, data, policy):
        caps = np.array([2.0, 3.0, 0.0, 4.0])
        sizes = np.array([1.0, 2.0, 1.0, 3.0, 5.0])  # item 4 fits no cache
        a = CacheArrayState(caps, sizes, policy)
        b = CacheArrayState(caps, sizes, policy)
        event = hst.tuples(
            hst.sampled_from(("touch", "insert")),
            hst.integers(0, 3),  # node
            hst.integers(0, 4),  # item
            hst.integers(0, 9),  # seq
            hst.integers(1, 4),  # multiplicity
        )
        for _ in range(data.draw(hst.integers(1, 6), label="chunks")):
            events = data.draw(hst.lists(event, max_size=12), label="events")
            down = data.draw(hst.lists(hst.integers(0, 3), max_size=2), label="down")
            a.set_down(down)
            b.set_down(down)
            cols = {}
            for kind in ("touch", "insert"):
                mine = [e[1:] for e in events if e[0] == kind]
                cols[kind] = [np.array(c, dtype=np.int64) for c in zip(*mine)] or [
                    np.zeros(0, dtype=np.int64)
                ] * 4
            (tn, ti, ts, tm), (inn, ini, ins, im) = cols["touch"], cols["insert"]
            a.apply_chunk(tn, ti, ts, inn, ini, ins, 10, touch_mult=tm, insert_mult=im)
            b.apply_chunk(
                np.repeat(tn, tm), np.repeat(ti, tm), np.repeat(ts, tm),
                np.repeat(inn, im), np.repeat(ini, im), np.repeat(ins, im),
                10,
            )
            assert np.array_equal(a.resident, b.resident)
            assert np.array_equal(a.last_used, b.last_used)
            assert np.array_equal(a.freq, b.freq)
            assert np.array_equal(a.used, b.used)
            assert a.clock == b.clock
