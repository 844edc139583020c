"""Per-type reactive updates equal the per-request expansion they replaced.

``reference_step`` is the engine's former ``step`` for LCE, LCD, CL4M and
hash routing: it expands every request of a chunk into its own touch and
insert events and applies them with multiplicity 1.  The engine applies one
event per request type instead, carrying the type's request count and last
position in the chunk.  Costs, hits and every cache-state array must equal
the reference exactly after each step.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import ReactiveStrategyEngine, build_reactive_tables, stream_type_ids
from repro.adaptive.state import CacheArrayState
from repro.core import ProblemInstance, pin_full_catalog
from repro.experiments import ScenarioConfig, build_scenario
from repro.graph import CacheNetwork

PER_TYPE = ("lce", "lcd", "cl4m", "hashrouting")


def reference_step(rt, strategy, state, type_ids):
    """One chunk, one event per (request, node): the oracle."""
    type_ids = np.asarray(type_ids, dtype=np.int64)
    seq = np.arange(len(type_ids), dtype=np.int64)
    if strategy == "hashrouting":
        auth = rt.hash_node
        resident = state.resident[auth, rt.type_item]
        type_hit = resident | rt.hash_pinned
        type_cost = rt.hash_request_cost + np.where(type_hit, 0.0, rt.hash_fetch_cost)
        touch_seq = seq[resident[type_ids]]
        insert_seq = seq[~type_hit[type_ids]]
        touch_t, insert_t = type_ids[touch_seq], type_ids[insert_seq]
        state.apply_chunk(
            auth[touch_t], rt.type_item[touch_t], touch_seq,
            auth[insert_t], rt.type_item[insert_t], insert_seq,
            len(type_ids),
        )
        return type_cost[type_ids], type_hit[type_ids]

    rows = np.arange(rt.num_types)
    occ = state.resident[np.maximum(rt.pad_nodes, 0), rt.type_item[:, None]]
    occ &= rt.pad_cache
    hit_pos = ((occ | rt.pad_pinned) & rt.pad_valid).argmax(axis=1)
    hit_is_cache = occ[rows, hit_pos]
    type_cost = rt.pad_prefix_cost[rows, hit_pos]
    type_edge_hit = hit_pos < rt.path_len - 1

    touch_seq = seq[hit_is_cache[type_ids]]
    touch_t = type_ids[touch_seq]

    col = np.arange(rt.pad_nodes.shape[1])[None, :]
    before_hit = rt.pad_cache & (col < hit_pos[:, None])
    if strategy == "lce":
        cand_mask = before_hit
    elif strategy == "lcd":
        lcd_pos = np.where(before_hit, col, -1).max(axis=1)
        cand_mask = before_hit & (col == lcd_pos[:, None])
    else:
        best = rt.pad_best_prefix[rows, hit_pos]
        cand_mask = before_hit & (col == best[:, None])

    # Per-request expansion of the per-type candidate lists.
    cand_len = cand_mask.sum(axis=1).astype(np.int64)
    cand_ptr = np.zeros(rt.num_types + 1, dtype=np.int64)
    np.cumsum(cand_len, out=cand_ptr[1:])
    cand_nodes = rt.pad_nodes[cand_mask]
    m = cand_len[type_ids]
    event_seq = np.repeat(seq, m)
    offsets = np.zeros(len(type_ids) + 1, dtype=np.int64)
    np.cumsum(m, out=offsets[1:])
    within = np.arange(int(m.sum()), dtype=np.int64) - np.repeat(offsets[:-1], m)
    flat_idx = cand_ptr[type_ids[event_seq]] + within

    state.apply_chunk(
        rt.pad_nodes[touch_t, hit_pos[touch_t]], rt.type_item[touch_t], touch_seq,
        cand_nodes[flat_idx], rt.type_item[type_ids[event_seq]], event_seq,
        len(type_ids),
    )
    return type_cost[type_ids], type_edge_hit[type_ids]


def assert_same_state(a: CacheArrayState, b: CacheArrayState) -> None:
    assert np.array_equal(a.resident, b.resident)
    assert np.array_equal(a.last_used, b.last_used)
    assert np.array_equal(a.freq, b.freq)
    assert np.array_equal(a.used, b.used)
    assert a.clock == b.clock


def run_both(rt, strategy, policy, chunks, downs):
    """Feed ``chunks`` to the engine and the reference, comparing each step."""
    engine = ReactiveStrategyEngine(rt, strategy=strategy, policy=policy)
    ref = CacheArrayState(rt.capacities, rt.item_size, policy)
    for chunk, down in zip(chunks, downs):
        if down is not None:
            engine.state.set_down(down)
            ref.set_down(down)
        metrics = engine.step(np.asarray(chunk, dtype=np.int64))
        costs, hits = reference_step(rt, strategy, ref, chunk)
        assert np.array_equal(metrics.costs, costs)
        assert np.array_equal(metrics.edge_hits, hits)
        assert_same_state(engine.state, ref)
    return engine


def _branching_problem() -> ProblemInstance:
    """Two branches sharing a trunk; sizes 1-3 and one item no cache fits."""
    g = nx.DiGraph()
    for u, v, c in [
        (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5),
        (4, 5, 1.0), (2, 6, 1.0), (6, 7, 2.0),
    ]:
        g.add_edge(u, v, cost=c, capacity=float("inf"))
        g.add_edge(v, u, cost=c, capacity=float("inf"))
    net = CacheNetwork(g, {1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 2.0, 7: 4.0})
    catalog = ("A", "B", "C", "D", "E")
    sizes = {"A": 1.0, "B": 2.0, "C": 1.0, "D": 3.0, "E": 5.0}
    demand = {
        (item, s): 1.0 + k + 2 * j
        for k, item in enumerate(catalog)
        for j, s in enumerate((3, 5, 7))
    }
    return ProblemInstance(
        network=net,
        catalog=catalog,
        demand=demand,
        pinned=pin_full_catalog(catalog, [0]),
        item_sizes=sizes,
    )


@pytest.fixture(scope="module")
def branching():
    return build_reactive_tables(_branching_problem())


class TestPerTypeEqualsPerRequest:
    def test_fixture_covers_an_item_larger_than_every_cache(self, branching):
        assert branching.item_size.max() > branching.capacities.max()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        strategy=st.sampled_from(PER_TYPE),
        policy=st.sampled_from(("lru", "lfu")),
    )
    def test_random_chunk_streams(self, branching, data, strategy, policy):
        rt = branching
        n_chunks = data.draw(st.integers(1, 10), label="chunks")
        chunks, downs = [], []
        for _ in range(n_chunks):
            size = data.draw(st.one_of(st.just(1), st.integers(0, 40)), label="size")
            chunks.append(
                data.draw(
                    st.lists(st.integers(0, rt.num_types - 1), min_size=size, max_size=size),
                    label="chunk",
                )
            )
            downs.append(
                data.draw(
                    st.one_of(
                        st.none(),
                        st.lists(
                            st.integers(0, len(rt.nodes) - 1), max_size=3, unique=True
                        ),
                    ),
                    label="down",
                )
            )
        run_both(rt, strategy, policy, chunks, downs)

    @pytest.mark.parametrize("strategy", PER_TYPE)
    @pytest.mark.parametrize("policy", ["lru", "lfu"])
    def test_abovenet_stream_with_failures(self, strategy, policy):
        rt = build_reactive_tables(build_scenario(ScenarioConfig(topology="abovenet")).problem)
        rng = np.random.default_rng(7)
        ids = stream_type_ids(rt.tables, 6000, rng)
        chunks, downs = [], []
        for start, size in zip(range(0, 6000, 600), (1, 7, 600) * 4):
            chunks.append(ids[start : start + size])
            fail = start % 1800 == 0
            downs.append(rng.choice(len(rt.nodes), size=2, replace=False) if fail else None)
        engine = run_both(rt, strategy, policy, chunks, downs)
        assert engine.state.resident.any()
