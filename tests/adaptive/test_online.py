"""The single-stream online comparison driver."""

import numpy as np
import pytest

from repro.adaptive import (
    ALL_POLICIES,
    build_reactive_tables,
    placement_type_costs,
    replay_reactive,
    run_online_adaptive,
)
from repro.core import Placement, algorithm1, route_to_nearest_replica, routing_cost
from repro.exceptions import InvalidProblemError
from repro.experiments import ScenarioConfig, build_scenario

from tests.core.conftest import make_line_problem


@pytest.fixture(scope="module")
def problem():
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
def reactive_tables(problem):
    return build_reactive_tables(problem)


@pytest.fixture(scope="module")
def report(problem, reactive_tables):
    return run_online_adaptive(
        problem,
        n_requests=4000,
        chunk_size=256,
        seed=7,
        replan_every=4,
        reactive=reactive_tables,
    )


class TestReport:
    def test_all_policies_present(self, report):
        assert set(report.traces) == set(ALL_POLICIES)
        for trace in report.traces.values():
            assert len(trace.chunk_costs) == len(report.chunk_requests)
            assert np.isfinite(trace.chunk_costs).all()
            assert trace.cost_rate > 0

    def test_chunk_requests_cover_stream(self, report):
        assert int(report.chunk_requests.sum()) == report.n_requests
        assert report.n_requests == 4000

    def test_static_is_time_invariant(self, report):
        static = report.traces["static_alg1"]
        # Same placement all along: per-chunk cost varies only with the
        # request mix, and the per-request average stays in a narrow band.
        per_req = static.chunk_costs / report.chunk_requests
        assert per_req.std() / per_req.mean() < 0.5

    def test_regret_of_base_is_zero(self, report):
        assert np.allclose(report.regret("static_alg1"), 0.0)

    def test_regret_shape_and_cumulative(self, report):
        regret = report.regret("lce")
        assert regret.shape == report.traces["lce"].chunk_costs.shape
        expected = (
            report.traces["lce"].cumulative()
            - report.traces["static_alg1"].cumulative()
        )
        assert np.allclose(regret, expected)

    def test_adaptive_policies_update(self, report):
        assert report.traces["adaptive_gradient"].updates > 0
        assert report.traces["periodic_alg1_gpr"].updates > 0
        assert report.traces["static_alg1"].updates == 0

    def test_reactive_traces_match_standalone_replay(
        self, problem, reactive_tables, report
    ):
        standalone = replay_reactive(
            problem,
            strategy="lce",
            n_requests=4000,
            chunk_size=256,
            seed=7,
            reactive=reactive_tables,
        )
        trace = report.traces["lce"]
        assert trace.cost_rate == pytest.approx(standalone.cost_rate)
        assert np.allclose(trace.chunk_costs, standalone.chunk_costs)

    def test_static_cost_rate_matches_routing_cost(
        self, problem, reactive_tables, report
    ):
        # Scoring the static placement against the empirical stream must
        # approach the analytic routing cost of the same solution.
        result = algorithm1(problem)
        analytic = routing_cost(problem, result.solution.routing)
        assert report.traces["static_alg1"].cost_rate == pytest.approx(
            analytic, rel=0.1
        )

    def test_determinism(self, problem, reactive_tables, report):
        again = run_online_adaptive(
            problem,
            n_requests=4000,
            chunk_size=256,
            seed=7,
            replan_every=4,
            reactive=reactive_tables,
        )
        for name in ALL_POLICIES:
            assert np.allclose(
                again.traces[name].chunk_costs,
                report.traces[name].chunk_costs,
            )


class TestValidation:
    def test_unknown_policy_rejected(self, problem):
        with pytest.raises(InvalidProblemError):
            run_online_adaptive(problem, policies=("lce", "nope"))

    def test_bad_sizes_rejected(self, problem):
        with pytest.raises(InvalidProblemError):
            run_online_adaptive(problem, n_requests=0)
        with pytest.raises(InvalidProblemError):
            run_online_adaptive(problem, chunk_size=0)
        with pytest.raises(InvalidProblemError):
            run_online_adaptive(problem, replan_every=0)


class TestPlacementTypeCosts:
    def test_empty_placement_pays_origin_paths(self, problem, reactive_tables):
        rt = reactive_tables
        costs = placement_type_costs(rt, Placement())
        # Each type pays at least its shortest-path cost to the pinned
        # origin, scaled by its rate.
        assert (costs > 0).all()

    def test_full_local_replicas_cost_little(self, problem, reactive_tables):
        rt = reactive_tables
        empty = placement_type_costs(rt, Placement())
        # Cache item0 right next to the requester at node 3.
        cached = placement_type_costs(rt, Placement.from_set([(3, "item0")]))
        t = list(rt.tables.types).index(("item0", 5))
        assert cached[t] < empty[t]


def walked_type_costs(rt, placement):
    """Per-type RNR cost by walking every path's links, adding left to right
    as the walk ``placement_type_costs`` replaced did (the oracle)."""
    problem = rt.problem
    routing = route_to_nearest_replica(problem, placement, context=rt.context)
    costs = np.zeros(rt.num_types)
    for t, request in enumerate(rt.tables.types):
        total = 0.0
        for pf in routing.paths.get(request, []):
            cost = 0.0
            for u, v in pf.edges():
                cost += problem.network.cost(u, v)
            total += pf.amount * cost
        costs[t] = total
    return costs


class TestPlacementTypeCostParity:
    def test_bit_identical_to_path_walk(self):
        # Abovenet's link costs carry full mantissas, and the fractional
        # placement gives types several paths, so any change in the order
        # of the additions shows in the last bits.
        problem = build_scenario(ScenarioConfig(seed=3, topology="abovenet")).problem
        rt = build_reactive_tables(problem)
        rng = np.random.default_rng(0)
        fractional = Placement()
        for v in problem.cache_nodes():
            for k in rng.choice(len(problem.catalog), size=4, replace=False):
                fractional[(v, problem.catalog[int(k)])] = float(rng.uniform(0.05, 1.0))
        placements = (Placement(), algorithm1(problem).solution.placement, fractional)
        for placement in placements:
            got = placement_type_costs(rt, placement)
            assert got.tobytes() == walked_type_costs(rt, placement).tobytes()
