"""Tests for the vectorized request generator and replay engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Placement, route_to_nearest_replica
from repro.exceptions import InvalidProblemError
from repro.experiments import ScenarioConfig, build_scenario
from repro.serving import (
    ServingConfig,
    compile_tables,
    generate_requests,
    horizon_for_requests,
    replay,
    replay_solution,
    serve_batch,
)
from repro.serving.engine import _arrival_order

from tests.core.conftest import make_line_problem


@pytest.fixture
def tables():
    prob = make_line_problem()
    return compile_tables(prob, route_to_nearest_replica(prob, Placement()))


class TestConfig:
    def test_invalid_horizon_rejected(self):
        for horizon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidProblemError, match="horizon"):
                ServingConfig(horizon=horizon)

    def test_invalid_shards_rejected(self):
        for n_shards in (0, -2, 2.5, 1.0):
            with pytest.raises(InvalidProblemError, match="n_shards"):
                ServingConfig(n_shards=n_shards)


class TestGenerate:
    def test_counts_match_rates(self, tables):
        rng = np.random.default_rng(0)
        horizon = 500.0
        batch = generate_requests(tables, horizon, rng)
        counts = np.bincount(batch.type_ids, minlength=tables.num_types)
        expected = tables.rates * horizon
        # Poisson: relative error ~ 1/sqrt(n); 5 sigma margin.
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected) + 5)

    def test_timestamps_sorted_within_horizon(self, tables):
        rng = np.random.default_rng(1)
        batch = generate_requests(tables, 10.0, rng)
        assert np.all(np.diff(batch.timestamps) >= 0)
        assert batch.timestamps[0] >= 0.0
        assert batch.timestamps[-1] < 10.0

    def test_label_lookups(self, tables):
        rng = np.random.default_rng(2)
        batch = generate_requests(tables, 2.0, rng)
        items = batch.item_ids(tables)
        nodes = batch.requester_ids(tables)
        assert len(items) == len(nodes) == len(batch)
        for t, item, node in zip(batch.type_ids, items, nodes):
            assert tables.types[t] == (item, node)

    def test_invalid_horizon_rejected(self, tables):
        for horizon in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidProblemError, match="horizon"):
                generate_requests(tables, horizon, np.random.default_rng(0))


def stable_recipe(tables, horizon, rng, rate_scale):
    """The draw ``generate_requests`` must reproduce: one stable argsort."""
    counts = rng.poisson(tables.rates * (horizon * rate_scale))
    type_ids = np.repeat(np.arange(tables.num_types, dtype=np.int64), counts)
    timestamps = rng.random(int(counts.sum())) * horizon
    order = np.argsort(timestamps, kind="stable")
    return timestamps[order], type_ids[order]


@pytest.fixture(scope="module")
def abovenet_tables():
    problem = build_scenario(ScenarioConfig(topology="abovenet")).problem
    return compile_tables(problem, route_to_nearest_replica(problem, Placement()))


class TestArrivalOrder:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, width=64), max_size=200),
    )
    def test_equals_stable_argsort(self, values):
        x = np.array(values, dtype=float)
        assert np.array_equal(_arrival_order(x), np.argsort(x, kind="stable"))

    @pytest.mark.parametrize("distinct", [1, 2, 5, 50])
    @pytest.mark.parametrize("n", [0, 1, 17, 300, 20_000])
    def test_ties_keep_stable_order(self, distinct, n):
        rng = np.random.default_rng(n + distinct)
        x = rng.integers(0, distinct, size=n) * 0.25
        assert np.array_equal(_arrival_order(x), np.argsort(x, kind="stable"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rate_scale", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize(
        "which, horizon",
        [("line", 3.0), ("line", 400.0), ("abovenet", 1e-3), ("abovenet", 2e-2)],
    )
    def test_generate_requests_matches_the_stable_recipe(
        self, tables, abovenet_tables, which, horizon, rate_scale, seed
    ):
        tabs = tables if which == "line" else abovenet_tables
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = generate_requests(tabs, horizon, rng, rate_scale=rate_scale)
        timestamps, type_ids = stable_recipe(tabs, horizon, ref_rng, rate_scale)
        assert len(batch) > 0
        assert np.array_equal(batch.timestamps, timestamps)
        assert np.array_equal(batch.type_ids, type_ids)
        assert rng.random() == ref_rng.random()  # same stream consumed


class TestReplay:
    def test_everything_served_on_full_routing(self, tables):
        report = replay(tables, ServingConfig(horizon=50.0, seed=0))
        assert report.generated > 0
        assert report.served == report.generated
        assert report.unserved == 0
        assert report.served_fraction == pytest.approx(1.0)
        assert report.unrouted_types == 0

    def test_empirical_loads_near_analytic(self, tables):
        report = replay(tables, ServingConfig(horizon=400.0, seed=1))
        for edge, load in report.analytic_loads.items():
            assert report.empirical_loads[edge] == pytest.approx(load, rel=0.1)

    def test_delivered_cost_estimates_routing_cost(self, tables):
        report = replay(tables, ServingConfig(horizon=400.0, seed=2))
        assert report.delivered_cost / report.horizon == pytest.approx(
            tables.expected_cost_rate(), rel=0.1
        )

    def test_zero_generation_reports_nan_fraction(self, tables):
        # Tiny horizon relative to rates can still generate arrivals;
        # scale the rates to zero via an empty-demand problem instead.
        prob = make_line_problem(demand={("item0", 4): 1e-12})
        t = compile_tables(
            prob, route_to_nearest_replica(prob, Placement())
        )
        report = replay(t, ServingConfig(horizon=1.0, seed=0))
        assert report.generated == 0
        assert math.isnan(report.served_fraction)
        assert report.delivered_cost == 0.0

    def test_max_requests_guard_before_generation(self, tables):
        with pytest.raises(InvalidProblemError, match="max_requests"):
            replay(tables, ServingConfig(horizon=1e12, max_requests=100))

    def test_partial_routing_drops_unserved_mass(self):
        from repro.flow.decomposition import PathFlow

        prob = make_line_problem()
        routing = route_to_nearest_replica(prob, Placement())
        item = prob.catalog[0]
        pf = routing.paths[(item, 4)][0]
        routing.paths[(item, 4)] = [PathFlow(path=pf.path, amount=0.5)]
        t = compile_tables(prob, routing)
        report = replay(t, ServingConfig(horizon=400.0, seed=3))
        idx = t.types.index((item, 4))
        frac = report.per_type_served[idx] / report.per_type_generated[idx]
        assert frac == pytest.approx(0.5, abs=0.05)
        assert report.unserved > 0

    def test_serve_batch_accumulators_sum_to_report(self, tables):
        config = ServingConfig(horizon=50.0, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence(4).spawn(1)[0])
        batch = generate_requests(tables, 50.0, rng)
        acc = serve_batch(tables, batch, rng)
        assert int(acc.generated.sum()) == len(batch)
        assert int(acc.path_counts.sum()) == int(acc.served.sum())
        report = replay(tables, config)
        assert report.generated == int(acc.generated.sum())
        assert report.delivered_cost == acc.delivered_cost

    def test_replay_solution_convenience(self):
        prob = make_line_problem()
        routing = route_to_nearest_replica(prob, Placement())
        report = replay_solution(
            prob, routing, ServingConfig(horizon=20.0, seed=5)
        )
        assert report.generated > 0
        assert report.served == report.generated


class TestShards:
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

    def test_request_budget_counts_the_whole_stream(self, tables):
        # ~2,000 expected arrivals against a budget of 1,000: each of the
        # four shards expects only ~500, so the guard must see the whole
        # stream.
        config = ServingConfig(
            horizon=2000.0 / tables.total_rate, seed=7, n_shards=4,
            max_requests=1000,
        )
        with pytest.raises(InvalidProblemError, match="max_requests"):
            replay(tables, config)


class TestHorizonForRequests:
    def test_scales_inverse_to_rate(self, tables):
        h = horizon_for_requests(tables, 1_000.0)
        assert h * tables.total_rate == pytest.approx(1_000.0)

    def test_rejects_zero_rate(self, tables):
        zeroed = dataclasses.replace(tables, rates=tables.rates.copy())
        zeroed.rates[:] = 0.0
        with pytest.raises(InvalidProblemError, match="rate"):
            horizon_for_requests(zeroed, 1_000.0)


class TestDegenerateRates:
    """PR 8 satellite: zero/degenerate total_rate never divides by zero."""

    def _zeroed(self, tables):
        z = dataclasses.replace(tables, rates=tables.rates.copy())
        z.rates[:] = 0.0
        return z

    def test_zero_rate_yields_empty_batch(self, tables):
        rng = np.random.default_rng(0)
        batch = generate_requests(self._zeroed(tables), 10.0, rng)
        assert len(batch) == 0
        assert batch.timestamps.shape == (0,)
        assert batch.type_ids.dtype == np.int64

    def test_zero_rate_consumes_no_randomness(self, tables):
        """Alignment guarantee for segmented replays with dead segments."""
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        generate_requests(self._zeroed(tables), 5.0, a)
        assert a.random() == b.random()

    def test_zero_rate_scale_yields_empty_batch(self, tables):
        batch = generate_requests(
            tables, 10.0, np.random.default_rng(0), rate_scale=0.0
        )
        assert len(batch) == 0

    def test_empty_batch_serves_cleanly(self, tables):
        rng = np.random.default_rng(1)
        batch = generate_requests(self._zeroed(tables), 10.0, rng)
        acc = serve_batch(tables, batch, rng)
        assert int(acc.generated.sum()) == 0
        assert acc.delivered_cost == 0.0

    def test_nonfinite_rate_raises(self, tables):
        bad = dataclasses.replace(tables, rates=tables.rates.copy())
        bad.rates[0] = float("inf")
        with pytest.raises(InvalidProblemError, match="degenerate"):
            generate_requests(bad, 1.0, np.random.default_rng(0))

    def test_negative_rate_raises(self, tables):
        bad = dataclasses.replace(tables, rates=tables.rates.copy())
        bad.rates[0] = -1.0
        with pytest.raises(InvalidProblemError, match="degenerate"):
            generate_requests(bad, 1.0, np.random.default_rng(0))

    def test_bad_rate_scale_raises(self, tables):
        for scale in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidProblemError, match="rate_scale"):
                generate_requests(
                    tables, 1.0, np.random.default_rng(0), rate_scale=scale
                )

    def test_horizon_for_requests_rejects_bad_targets(self, tables):
        for n in (0, -5, float("nan")):
            with pytest.raises(InvalidProblemError, match="n_requests"):
                horizon_for_requests(tables, n)
