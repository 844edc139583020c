"""Timeline-driven streaming replay: exact + statistical parity, riders."""

import gc
import json
import math
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import ReactiveStrategyEngine, build_reactive_tables
from repro.core import Routing, algorithm1, route_to_nearest_replica
from repro.exceptions import InvalidProblemError
from repro.experiments import ScenarioConfig, build_scenario
from repro.flow.decomposition import PathFlow
from repro.robustness import (
    FailureTimeline,
    TimelineConfig,
    generate_timeline,
    replay_timeline,
    replay_timeline_streaming,
)
from repro.robustness.chaos import pinned_origin, random_placement, random_problem
from repro.robustness.controller import TimelineController
from repro.robustness.demo import gadget_placement, gadget_problem
from repro.robustness.faults import NodeFailure
from repro.robustness.streaming import (
    StreamingTimelineReport,
    _build_segments,
    _capture_observer,
)
from repro.robustness.timeline import FailureEvent, RepairEvent, _event_sort_key
from repro.serving import ServingConfig, compile_tables, replay
from repro.serving.engine import (
    _empty_accumulator,
    generate_requests,
    serve_batch,
    shard_seed_sequences,
)
from repro.workload import FlashCrowd, PopularityChurn

_TOL = 1e-9


@pytest.fixture(scope="module")
def gadget():
    problem = gadget_problem()
    return problem, gadget_placement()


@pytest.fixture(scope="module")
def timeline(gadget):
    problem, _ = gadget
    tl = generate_timeline(
        problem,
        TimelineConfig(
            horizon=40.0,
            link_mtbf=20.0,
            link_mttr=3.0,
            node_mtbf=60.0,
            node_mttr=5.0,
            flap_probability=0.2,
            flap_mttr=0.05,
            exclude_nodes=("s",),
        ),
        seed=7,
    )
    assert len(tl.events) >= 10
    return tl


def _stream(gadget, timeline, *, requests=40_000, n_shards=1, seed=0, **kw):
    problem, placement = gadget
    rate_scale = requests / (problem.total_demand * timeline.horizon)
    config = ServingConfig(
        horizon=timeline.horizon, seed=seed, n_shards=n_shards
    )
    return replay_timeline_streaming(
        problem, placement, timeline,
        config=config, rate_scale=rate_scale, **kw,
    )


class TestExactParity:
    """The analytic side of the streaming replay IS the plain replay."""

    def test_analytic_report_equals_plain_replay(self, gadget, timeline):
        problem, placement = gadget
        report = _stream(gadget, timeline)
        plain = replay_timeline(problem, placement, timeline)
        assert report.analytic == plain

    def test_segment_rates_integrate_to_analytic(self, gadget, timeline):
        report = _stream(gadget, timeline)
        segs = report.segments
        assert segs[0].start == 0.0
        assert segs[-1].end == timeline.horizon
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start
        cost = sum(s.cost_rate * s.duration for s in segs)
        served = sum(s.served_rate * s.duration for s in segs)
        offered = sum(s.offered_rate * s.duration for s in segs)
        analytic = report.analytic
        assert cost == pytest.approx(analytic.cost_integral, rel=_TOL)
        assert served == pytest.approx(
            analytic.total_demand * analytic.horizon
            - analytic.unserved_integral,
            rel=_TOL,
        )
        assert offered == pytest.approx(
            analytic.total_demand * analytic.horizon, rel=_TOL
        )

    def test_segment_rates_are_controller_rates(self, gadget, timeline):
        """Each segment serves at the controller's rates of its boundary."""
        rates = {}

        def record(phase, t, ctl, _detail):
            if phase != "end":  # the last callback at an instant wins
                rates[t] = (ctl.served_rate(), ctl._cur_cost)

        report = _stream(gadget, timeline, observer=record)
        assert len(report.segments) > 10
        for seg in report.segments:
            assert (seg.served_rate, seg.cost_rate) == rates[seg.start]

    def test_offered_load_semantics_keep_rates(self, gadget, timeline):
        """Dead paths drop mass from served, never from arrivals."""
        report = _stream(gadget, timeline)
        base = report.segments[0].tables
        for seg in report.segments:
            assert seg.tables.total_rate == pytest.approx(
                base.total_rate, rel=_TOL
            )
            assert seg.served_rate <= seg.offered_rate + _TOL


def _chaos_instance(seed):
    """Each request split over its nearest replica and the origin, with a
    fifth left unserved, so the drop and alias draws enter the stream."""
    rng = np.random.default_rng(seed)
    problem = random_problem(rng)
    placement = random_placement(rng, problem)
    origin = pinned_origin(problem)
    paths = {}
    for (item, s), (nearest,) in route_to_nearest_replica(problem, placement).paths.items():
        from_origin = nx.shortest_path(problem.network.graph, origin, s, weight="cost")
        paths[(item, s)] = [
            PathFlow(nearest.path, 0.5), PathFlow(tuple(from_origin), 0.3)
        ]
    return problem, placement, Routing(paths)


def _abovenet_instance():
    problem = build_scenario(
        ScenarioConfig(
            topology="abovenet", level="chunk", num_videos=4,
            link_capacity_fraction=None,
        )
    ).problem
    solution = algorithm1(problem).solution
    return problem, solution.placement, solution.routing


class TestReplayParity:
    """With no failures the segmented replay is one segment that consumes
    the shard streams exactly as ``serving.replay`` does."""

    @pytest.fixture(
        scope="class",
        params=["chaos-0", "chaos-1", "chaos-2", "abovenet-alg1"],
    )
    def instance(self, request):
        if request.param == "abovenet-alg1":
            return _abovenet_instance()
        return _chaos_instance(int(request.param.split("-")[1]))

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_empty_timeline_matches_replay(self, instance, n_shards):
        problem, placement, routing = instance
        horizon = 20_000 / problem.total_demand
        config = ServingConfig(horizon=horizon, seed=11, n_shards=n_shards)
        streamed = replay_timeline_streaming(
            problem,
            placement,
            FailureTimeline(name="empty", horizon=horizon),
            config=config,
            healthy_routing=routing,
        )
        plain = replay(
            compile_tables(problem, routing, allow_unrouted=True), config
        )
        (segment,) = streamed.segments
        assert plain.generated > 0
        assert streamed.generated == plain.generated
        assert streamed.served == plain.served
        assert streamed.delivered_cost == plain.delivered_cost
        assert np.array_equal(streamed.per_type_generated, plain.per_type_generated)
        assert np.array_equal(streamed.per_type_served, plain.per_type_served)
        loads = {
            edge: float(volume) / horizon
            for edge, volume in zip(
                segment.tables.edges, segment.accumulator.edge_volume
            )
            if volume > 0.0
        }
        assert loads == plain.empirical_loads


class TestStatisticalParity:
    def test_six_sigma_gates(self, gadget, timeline):
        report = _stream(gadget, timeline, requests=60_000)
        assert abs(report.generated - report.expected_generated) <= 6 * math.sqrt(
            report.expected_generated
        )
        assert abs(report.served - report.expected_served) <= 6 * math.sqrt(
            report.expected_served
        )
        assert abs(report.delivered_cost - report.expected_cost) <= 6 * math.sqrt(
            report.cost_variance
        )
        # The estimator tracks the exact integral through the same gate.
        sigma = math.sqrt(report.cost_variance) / report.rate_scale
        assert abs(
            report.streamed_cost_integral - report.analytic.cost_integral
        ) <= 6 * sigma

    def test_counts_conserve(self, gadget, timeline):
        report = _stream(gadget, timeline)
        assert report.generated == int(report.per_type_generated.sum())
        assert report.served == int(report.per_type_served.sum())
        assert report.served + report.dropped == report.generated
        assert (report.per_type_served <= report.per_type_generated).all()
        assert report.generated == sum(s.generated for s in report.segments)
        assert report.served == sum(s.served for s in report.segments)

    def test_sharded_stream_passes_same_gates(self, gadget, timeline):
        report = _stream(gadget, timeline, n_shards=3)
        assert report.n_shards == 3
        assert abs(report.generated - report.expected_generated) <= 6 * math.sqrt(
            report.expected_generated
        )


class TestDeterminism:
    def test_same_seed_identical(self, gadget, timeline):
        a = _stream(gadget, timeline, seed=5)
        b = _stream(gadget, timeline, seed=5)
        assert a.generated == b.generated
        assert a.served == b.served
        assert a.delivered_cost == b.delivered_cost
        assert np.array_equal(a.per_type_generated, b.per_type_generated)

    def test_different_seed_differs(self, gadget, timeline):
        a = _stream(gadget, timeline, seed=5)
        b = _stream(gadget, timeline, seed=6)
        assert a.generated != b.generated or a.delivered_cost != b.delivered_cost


class TestWorkloadRegimes:
    def test_breakpoints_open_segments(self, gadget, timeline):
        plain = _stream(gadget, timeline)
        churn = PopularityChurn(interval=7.0, seed=1)
        report = _stream(gadget, timeline, workload=churn)
        kinds = [k for s in report.segments for k in s.kinds]
        assert "workload" in kinds
        assert len(report.segments) > len(plain.segments)
        # Churn conserves the offered rate exactly in every segment.
        base = plain.segments[0].tables.total_rate
        for seg in report.segments:
            assert seg.offered_rate == pytest.approx(base, rel=_TOL)

    def test_flash_crowd_raises_offered_mass(self, gadget, timeline):
        problem, _ = gadget
        item = problem.catalog[0]
        fc = FlashCrowd(
            start=10.0, duration=5.0, hot_items=(item,), multiplier=50.0
        )
        plain = _stream(gadget, timeline)
        report = _stream(gadget, timeline, workload=fc)
        extra = sum(
            (s.offered_rate - plain.segments[0].tables.total_rate) * s.duration
            for s in report.segments
        )
        assert extra > 0.0
        assert report.expected_generated > plain.expected_generated


class TestReactiveRiders:
    def test_strategies_survive_failures(self):
        from repro.robustness.chaos import random_placement, random_problem

        rng = np.random.default_rng(2)
        problem = random_problem(rng, n_nodes=8, n_items=3)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=30.0, link_mtbf=15.0, link_mttr=4.0,
                node_mtbf=40.0, node_mttr=6.0,
            ),
            seed=4,
        )
        rt = build_reactive_tables(problem)
        engines = {
            name: ReactiveStrategyEngine(rt, strategy=name, seed=3)
            for name in ("lce", "probcache")
        }
        report = _stream(
            (problem, placement), timeline, requests=20_000, reactive=engines
        )
        assert set(report.reactive_costs) == {"lce", "probcache"}
        for name, cost in report.reactive_costs.items():
            assert math.isfinite(cost) and cost > 0.0
            assert report.reactive_edge_hits[name] >= 0
        # After the run, caches at nodes still down hold nothing.
        last = report.segments[-1]
        for engine in engines.values():
            node_id = {v: k for k, v in enumerate(engine.rt.nodes)}
            for v in last.down_nodes:
                if v in node_id:
                    assert not engine.state.resident[node_id[v]].any()


def reference_streaming(
    problem,
    placement,
    timeline,
    policy=None,
    *,
    config,
    rate_scale,
    workload=None,
    reactive=None,
):
    """The retired shard-major replay, kept as the parity oracle.

    Each shard walks every segment and the segments' type ids are held
    until all shards finish; only then does each engine step through the
    segments.  The segment-major driver must reproduce it bit for bit.
    """
    entries: list = []
    analytic = TimelineController(
        problem, placement, timeline, policy,
        observer=_capture_observer(entries, None),
    ).run()
    segments = _build_segments(entries, timeline.horizon, workload)
    accs = [_empty_accumulator(s.tables) for s in segments]
    type_chunks = [[] for _ in segments] if reactive else None
    for seed_seq in shard_seed_sequences(config):
        rng = np.random.default_rng(seed_seq)
        for seg in segments:
            batch = generate_requests(
                seg.tables, seg.duration, rng,
                rate_scale=rate_scale / config.n_shards,
            )
            accs[seg.index].merge(serve_batch(seg.tables, batch, rng))
            if type_chunks is not None:
                type_chunks[seg.index].append(batch.type_ids)

    per_type_generated = np.zeros(len(problem.requests), dtype=np.int64)
    per_type_served = np.zeros(len(problem.requests), dtype=np.int64)
    delivered_cost = cost_variance = 0.0
    for seg, acc in zip(segments, accs):
        seg.accumulator = acc
        per_type_generated += acc.generated
        per_type_served += acc.served
        delivered_cost += acc.delivered_cost
        dt = seg.duration * rate_scale
        lam = seg.tables.rates[seg.tables.path_type] * seg.tables.path_amount
        cost_variance += float(
            (lam * dt) @ (seg.tables.path_cost * seg.tables.path_cost)
        )

    reactive_costs, reactive_edge_hits = {}, {}
    for name, engine in (reactive or {}).items():
        node_id = {v: k for k, v in enumerate(engine.rt.nodes)}
        total_cost, total_hits = 0.0, 0
        for seg in segments:
            engine.state.set_down(
                [node_id[v] for v in seg.down_nodes if v in node_id]
            )
            chunks = type_chunks[seg.index]
            ids = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            if len(ids) == 0:
                continue
            metrics = engine.step(ids)
            total_cost += float(metrics.costs.sum())
            total_hits += int(metrics.edge_hits.sum())
        reactive_costs[name] = total_cost
        reactive_edge_hits[name] = total_hits

    return StreamingTimelineReport(
        analytic=analytic,
        segments=segments,
        rate_scale=rate_scale,
        n_shards=config.n_shards,
        generated=int(per_type_generated.sum()),
        served=int(per_type_served.sum()),
        delivered_cost=delivered_cost,
        per_type_generated=per_type_generated,
        per_type_served=per_type_served,
        cost_variance=cost_variance,
        reactive_costs=reactive_costs,
        reactive_edge_hits=reactive_edge_hits,
    )


_RIDERS = [
    (strategy, policy)
    for strategy in ("lce", "lcd", "probcache", "cl4m", "hashrouting")
    for policy in ("lru", "lfu")
]


def _with_blackout(timeline, problem, start, end):
    """``timeline`` plus every node down over ``[start, end)``."""
    extra = []
    for v in problem.network.nodes:
        extra.append(FailureEvent(start, NodeFailure(v)))
        extra.append(RepairEvent(end, NodeFailure(v)))
    events = sorted(timeline.events + tuple(extra), key=_event_sort_key)
    return FailureTimeline(
        name=timeline.name, horizon=timeline.horizon, events=tuple(events)
    )


class TestSegmentMajorParity:
    """The segment-major driver equals the shard-major oracle bit for bit:
    every generator and every rider receives the same calls in the same
    order, whatever the shard count."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_shards=st.integers(1, 4),
        riders=st.lists(
            st.sampled_from(_RIDERS), min_size=1, max_size=3, unique=True
        ),
        regime=st.sampled_from([None, "flash", "churn"]),
        blackout=st.booleans(),
        requests=st.sampled_from([40, 3_000, 20_000]),
    )
    def test_equals_shard_major_oracle(
        self, seed, n_shards, riders, regime, blackout, requests
    ):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, n_nodes=7, n_items=3)
        placement = random_placement(rng, problem)
        horizon = 20.0
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=horizon, link_mtbf=15.0, link_mttr=2.0,
                node_mtbf=20.0, node_mttr=3.0,
            ),
            seed=seed,
        )
        if blackout:
            # Every path dead: the segment serves nothing but still draws.
            timeline = _with_blackout(timeline, problem, 5.0, 7.5)
        workload = {
            None: None,
            "flash": FlashCrowd(
                start=4.0, duration=6.0,
                hot_items=(problem.catalog[0],), multiplier=20.0,
            ),
            "churn": PopularityChurn(interval=3.0, seed=seed),
        }[regime]
        rt = build_reactive_tables(problem)
        if (rt.hash_node < 0).any():
            riders = [r for r in riders if r[0] != "hashrouting"]

        def engines():
            return {
                f"{strategy}/{policy}": ReactiveStrategyEngine(
                    rt, strategy=strategy, policy=policy, seed=k
                )
                for k, (strategy, policy) in enumerate(riders)
            }

        config = ServingConfig(horizon=horizon, seed=seed, n_shards=n_shards)
        rate_scale = requests / (problem.total_demand * horizon)
        new_engines, old_engines = engines(), engines()
        new = replay_timeline_streaming(
            problem, placement.copy(), timeline, config=config,
            rate_scale=rate_scale, workload=workload, reactive=new_engines,
        )
        old = reference_streaming(
            problem, placement.copy(), timeline, config=config,
            rate_scale=rate_scale, workload=workload, reactive=old_engines,
        )

        assert new.analytic == old.analytic
        assert len(new.segments) == len(old.segments)
        for a, b in zip(new.segments, old.segments):
            assert (a.start, a.end, a.down_nodes) == (b.start, b.end, b.down_nodes)
            x, y = a.accumulator, b.accumulator
            for attr in ("generated", "served", "path_counts", "edge_volume"):
                assert np.array_equal(getattr(x, attr), getattr(y, attr)), attr
            assert x.delivered_cost == y.delivered_cost
        assert (new.generated, new.served) == (old.generated, old.served)
        assert np.array_equal(new.per_type_generated, old.per_type_generated)
        assert np.array_equal(new.per_type_served, old.per_type_served)
        assert new.delivered_cost == old.delivered_cost
        assert new.cost_variance == old.cost_variance
        assert new.reactive_costs == old.reactive_costs
        assert new.reactive_edge_hits == old.reactive_edge_hits
        for name, engine in new_engines.items():
            a, b = engine.state, old_engines[name].state
            for attr in ("resident", "last_used", "freq", "used", "down"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
            assert a.clock == b.clock


def _memory_instance():
    """~250k requests over 45 segments on a small chaos instance."""
    rng = np.random.default_rng(1)
    problem = random_problem(rng, n_nodes=10, n_items=4)
    placement = random_placement(rng, problem)
    timeline = generate_timeline(
        problem,
        TimelineConfig(
            horizon=30.0, link_mtbf=20.0, link_mttr=2.0,
            node_mtbf=60.0, node_mttr=4.0,
        ),
        seed=1,
    )
    return problem, placement, timeline


class TestRiderFootprint:
    """Riders step each segment as it is drawn: they hold one segment's
    arrivals, never the whole stream's type ids."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_rider_peak_is_one_segment(self, n_shards):
        problem, placement, timeline = _memory_instance()
        rt = build_reactive_tables(problem)
        config = ServingConfig(horizon=timeline.horizon, seed=1, n_shards=n_shards)
        rate_scale = 250_000 / (problem.total_demand * timeline.horizon)

        def peak(reactive):
            # With the cyclic collector paused, both replays allocate the
            # same controller garbage, so the peaks differ by the rider.
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                report = replay_timeline_streaming(
                    problem, placement, timeline, config=config,
                    rate_scale=rate_scale, reactive=reactive,
                )
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()

        peak(None)  # warm every lazy cache outside the measurement
        bare, bare_peak = peak(None)
        ridden, ridden_peak = peak({"lce": ReactiveStrategyEngine(rt)})
        assert len(bare.segments) >= 30
        assert bare.generated == ridden.generated >= 200_000
        id_bytes = 8 * ridden.generated
        assert ridden_peak - bare_peak < id_bytes / 4, (
            (ridden_peak - bare_peak) / id_bytes
        )

    def test_elapsed_times_draw_and_serve_only(self, monkeypatch):
        """A rider whose step takes 1000 s must not show in elapsed_seconds."""
        rng = np.random.default_rng(2)
        problem = random_problem(rng, n_nodes=8, n_items=3)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem, TimelineConfig(horizon=30.0, link_mtbf=15.0), seed=4
        )
        offset = [0.0]
        real = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: real() + offset[0])
        engine = ReactiveStrategyEngine(build_reactive_tables(problem))
        step = engine.step

        def slow_step(type_ids):
            offset[0] += 1000.0
            return step(type_ids)

        engine.step = slow_step
        report = _stream(
            (problem, placement), timeline, requests=5_000,
            reactive={"lce": engine},
        )
        assert offset[0] >= 2000.0  # the rider stepped on several segments
        assert 0.0 < report.elapsed_seconds < 1000.0


class TestValidation:
    def test_horizon_mismatch_raises(self, gadget, timeline):
        problem, placement = gadget
        with pytest.raises(InvalidProblemError, match="horizon"):
            replay_timeline_streaming(
                problem, placement, timeline,
                config=ServingConfig(horizon=timeline.horizon + 1.0),
                rate_scale=0.1,
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_rate_scale_raises(self, gadget, timeline, bad):
        problem, placement = gadget
        with pytest.raises(InvalidProblemError, match="rate_scale"):
            replay_timeline_streaming(
                problem, placement, timeline, rate_scale=bad
            )

    def test_rider_of_other_request_types_raises(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, n_nodes=8, n_items=3)
        other = random_problem(rng, n_nodes=8, n_items=4)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem, TimelineConfig(horizon=10.0, link_mtbf=5.0), seed=1
        )
        phases = []
        with pytest.raises(InvalidProblemError, match="request types"):
            _stream(
                (problem, placement), timeline, requests=1_000,
                reactive={"lce": ReactiveStrategyEngine(build_reactive_tables(other))},
                observer=lambda phase, *_: phases.append(phase),
            )
        assert phases == []  # rejected before the controller ran

    def test_one_engine_under_two_names_raises(self):
        rng = np.random.default_rng(3)
        problem = random_problem(rng, n_nodes=8, n_items=3)
        placement = random_placement(rng, problem)
        timeline = generate_timeline(
            problem, TimelineConfig(horizon=10.0, link_mtbf=5.0), seed=1
        )
        rt = build_reactive_tables(problem)
        engine = ReactiveStrategyEngine(rt)
        phases = []
        with pytest.raises(InvalidProblemError, match="distinct"):
            _stream(
                (problem, placement), timeline, requests=1_000,
                reactive={"x": engine, "y": engine},
                observer=lambda phase, *_: phases.append(phase),
            )
        assert phases == []
        # Distinct engines over one shared ReactiveTables stay valid.
        report = _stream(
            (problem, placement), timeline, requests=1_000,
            reactive={"x": engine, "y": ReactiveStrategyEngine(rt)},
        )
        assert report.reactive_costs["x"] == report.reactive_costs["y"] > 0.0

    def test_max_requests_guard(self, gadget, timeline):
        problem, placement = gadget
        with pytest.raises(InvalidProblemError, match="max_requests"):
            replay_timeline_streaming(
                problem, placement, timeline,
                config=ServingConfig(horizon=timeline.horizon, max_requests=10),
                rate_scale=1.0,
            )


class TestReportPlumbing:
    def test_timeline_report_json_strict(self, gadget, timeline):
        report = _stream(gadget, timeline)
        payload = report.analytic.to_json_dict()
        text = json.dumps(payload, allow_nan=False)  # strict: no NaN leaks
        assert json.loads(text)["events"] == report.analytic.events

    def test_format_mentions_stream(self, gadget, timeline):
        report = _stream(gadget, timeline)
        text = report.format()
        assert "streamed" in text
        assert f"{report.generated} requests" in text

    def test_observer_chains(self, gadget, timeline):
        seen = []
        _stream(
            gadget, timeline,
            observer=lambda phase, t, ctl, detail: seen.append(phase),
        )
        assert seen[0] == "init"
        assert "event" in seen and seen[-1] == "end"
