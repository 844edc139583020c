"""Engine-backed reactive strategies: parity with the legacy loop + shapes."""

import numpy as np
import pytest

from repro.adaptive import (
    STRATEGIES,
    ReactiveStrategyEngine,
    build_reactive_tables,
    replay_reactive,
    stream_type_ids,
)
from repro.baselines.reactive import simulate_reactive_caching
from repro.exceptions import InvalidProblemError

from tests.core.conftest import make_line_problem


@pytest.fixture(scope="module")
def line_problem():
    return make_line_problem(
        num_nodes=6,
        catalog_size=4,
        cache_nodes={2: 1, 3: 2},
        demand={
            ("item0", 5): 5.0,
            ("item1", 5): 2.0,
            ("item2", 5): 1.0,
            ("item3", 4): 1.0,
        },
    )


@pytest.fixture(scope="module")
def reactive_tables(line_problem):
    return build_reactive_tables(line_problem)


def legacy_stream(problem, n, seed):
    """The exact request-type draw of ``simulate_reactive_caching``."""
    requests = problem.requests
    rates = np.array([problem.demand[r] for r in requests])
    return np.random.default_rng(seed).choice(
        len(requests), size=n, p=rates / rates.sum()
    )


class TestReactiveTables:
    def test_types_follow_problem_order(self, line_problem, reactive_tables):
        assert list(reactive_tables.tables.types) == line_problem.requests

    def test_paths_end_at_pinned_origin(self, reactive_tables):
        rt = reactive_tables
        last = rt.pad_nodes[np.arange(rt.num_types), rt.path_len - 1]
        assert (last == rt.nodes.index(0)).all()
        assert rt.pad_pinned[np.arange(rt.num_types), rt.path_len - 1].all()

    def test_prefix_costs_monotone(self, reactive_tables):
        rt = reactive_tables
        diffs = np.diff(rt.pad_prefix_cost, axis=1)
        assert (diffs[rt.pad_valid[:, 1:]] > 0).all()

    def test_hash_assignment_deterministic(self, line_problem):
        a = build_reactive_tables(line_problem)
        b = build_reactive_tables(line_problem)
        assert (a.hash_node == b.hash_node).all()

    def test_unknown_strategy_rejected(self, reactive_tables):
        with pytest.raises(InvalidProblemError):
            ReactiveStrategyEngine(reactive_tables, strategy="nope")


class TestLegacyParity:
    """Engine at chunk_size=1 reproduces the fixed legacy loop exactly."""

    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_lce_chunk1_exact(self, line_problem, reactive_tables, policy):
        n, seed = 3000, 11
        legacy = simulate_reactive_caching(
            line_problem, policy=policy, n_requests=n,
            rng=np.random.default_rng(seed),
        )
        engine = replay_reactive(
            line_problem,
            strategy="lce",
            policy=policy,
            type_ids=legacy_stream(line_problem, n, seed),
            chunk_size=1,
            reactive=reactive_tables,
        )
        assert engine.cost_rate == pytest.approx(legacy.cost_rate, rel=1e-9)
        assert engine.edge_hit_ratio == pytest.approx(
            legacy.edge_hit_ratio, abs=1e-12
        )

    def test_chunked_close_to_serial(self, line_problem, reactive_tables):
        """Chunked execution lags state by at most a chunk; steady-state
        rates agree within a small tolerance."""
        stream = legacy_stream(line_problem, 6000, 5)
        serial = replay_reactive(
            line_problem, strategy="lce", type_ids=stream, chunk_size=1,
            reactive=reactive_tables,
        )
        chunked = replay_reactive(
            line_problem, strategy="lce", type_ids=stream, chunk_size=16,
            reactive=reactive_tables,
        )
        # Caches of size 1-2 make the chunk-start freeze maximally visible;
        # the lag costs a bounded fraction, not a different regime.
        assert chunked.cost_rate == pytest.approx(serial.cost_rate, rel=0.2)
        assert chunked.edge_hit_ratio == pytest.approx(
            serial.edge_hit_ratio, abs=0.2
        )

    def test_seeded_replay_deterministic(self, line_problem, reactive_tables):
        a = replay_reactive(
            line_problem, strategy="probcache", n_requests=2000,
            chunk_size=64, seed=9, reactive=reactive_tables,
        )
        b = replay_reactive(
            line_problem, strategy="probcache", n_requests=2000,
            chunk_size=64, seed=9, reactive=reactive_tables,
        )
        assert a.cost_rate == b.cost_rate
        assert (a.chunk_costs == b.chunk_costs).all()


class TestStrategyBehavior:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_strategies_run_and_hit(self, line_problem, reactive_tables, strategy):
        result = replay_reactive(
            line_problem, strategy=strategy, n_requests=3000,
            chunk_size=256, seed=2, reactive=reactive_tables,
        )
        assert result.requests > 0
        assert result.cost_rate > 0
        assert 0.0 <= result.edge_hit_ratio <= 1.0
        assert result.edge_hit_ratio > 0.0  # caches do something

    def test_lcd_inserts_only_downstream_cache(self, line_problem, reactive_tables):
        engine = ReactiveStrategyEngine(reactive_tables, strategy="lcd")
        t = list(reactive_tables.tables.types).index(("item0", 5))
        engine.step(np.array([t]))
        # First miss travels 5 -> 0; the highest on-path cache position
        # (closest to the origin) is node 2: only it stores the copy.
        state = engine.state
        item = reactive_tables.type_item[t]
        node2 = reactive_tables.nodes.index(2)
        node3 = reactive_tables.nodes.index(3)
        assert state.resident[node2, item]
        assert not state.resident[node3, item]

    def test_lce_inserts_every_on_path_cache(self, line_problem, reactive_tables):
        engine = ReactiveStrategyEngine(reactive_tables, strategy="lce")
        t = list(reactive_tables.tables.types).index(("item0", 5))
        engine.step(np.array([t]))
        item = reactive_tables.type_item[t]
        for node in (2, 3):
            assert engine.state.resident[reactive_tables.nodes.index(node), item]

    def test_cl4m_picks_max_betweenness(self, line_problem, reactive_tables):
        engine = ReactiveStrategyEngine(reactive_tables, strategy="cl4m")
        t = list(reactive_tables.tables.types).index(("item0", 5))
        engine.step(np.array([t]))
        rt = reactive_tables
        item = rt.type_item[t]
        stored = {int(v) for v in np.flatnonzero(engine.state.resident[:, item])}
        assert len(stored) == 1
        cache_ids = [rt.nodes.index(2), rt.nodes.index(3)]
        best_centrality = max(rt.centrality[v] for v in cache_ids)
        (designated,) = stored
        assert designated in cache_ids
        # The designated node carries maximal betweenness among on-path
        # caches (centrality ties resolve toward the requester).
        assert rt.centrality[designated] == pytest.approx(best_centrality)

    def test_hashrouting_stores_only_at_authoritative_cache(
        self, line_problem, reactive_tables
    ):
        engine = ReactiveStrategyEngine(reactive_tables, strategy="hashrouting")
        stream = legacy_stream(line_problem, 500, 3)
        for start in range(0, 500, 50):
            engine.step(stream[start : start + 50])
        rt = reactive_tables
        for item_idx in range(len(rt.items)):
            holders = set(np.flatnonzero(engine.state.resident[:, item_idx]))
            expected = {
                int(rt.hash_node[t])
                for t in range(rt.num_types)
                if rt.type_item[t] == item_idx
            }
            assert holders <= expected

    def test_stream_type_ids_length_and_determinism(self, reactive_tables):
        a = stream_type_ids(
            reactive_tables.tables, 5000, np.random.default_rng(4)
        )
        b = stream_type_ids(
            reactive_tables.tables, 5000, np.random.default_rng(4)
        )
        assert len(a) == 5000
        assert (a == b).all()
        assert a.max() < reactive_tables.num_types


class TestTypeIdValidation:
    """``step`` refuses ids it cannot index, before touching any state."""

    def _engine(self, reactive_tables, strategy):
        engine = ReactiveStrategyEngine(reactive_tables, strategy=strategy)
        engine.step(np.array([0, 1, 2, 0]))  # some state to protect
        return engine

    def _assert_refused(self, engine, chunk):
        before = (
            engine.state.resident.copy(),
            engine.state.last_used.copy(),
            engine.state.freq.copy(),
            engine.state.clock,
        )
        with pytest.raises(InvalidProblemError, match="type ids"):
            engine.step(chunk)
        assert np.array_equal(engine.state.resident, before[0])
        assert np.array_equal(engine.state.last_used, before[1])
        assert np.array_equal(engine.state.freq, before[2])
        assert engine.state.clock == before[3]

    def test_hashrouting_rejects_negative_ids(self, reactive_tables):
        engine = self._engine(reactive_tables, "hashrouting")
        self._assert_refused(engine, np.array([-1, -2, 0]))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float_chunk_rejected(self, reactive_tables, strategy):
        engine = self._engine(reactive_tables, strategy)
        self._assert_refused(engine, np.array([0.7, 1.9]))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_out_of_range_and_bool_rejected(self, reactive_tables, strategy):
        engine = self._engine(reactive_tables, strategy)
        for chunk in (
            np.array([-1]),
            np.array([0, reactive_tables.num_types]),
            np.array([True, False]),
            np.array([[0, 1]]),
        ):
            self._assert_refused(engine, chunk)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_empty_chunk_is_valid(self, reactive_tables, strategy):
        engine = self._engine(reactive_tables, strategy)
        for chunk in (np.zeros(0, dtype=np.int64), np.array([]), np.zeros(0, dtype=np.int32)):
            metrics = engine.step(chunk)
            assert len(metrics.costs) == len(metrics.edge_hits) == 0

    def test_replay_reactive_refuses_a_float_stream(self, line_problem, reactive_tables):
        with pytest.raises(InvalidProblemError, match="type ids"):
            replay_reactive(
                line_problem, reactive=reactive_tables, type_ids=np.array([0.0, 1.5])
            )
