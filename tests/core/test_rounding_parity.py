"""Randomized rounding (MMUFP) against the per-draw loop it replaced.

:func:`~repro.core.routing.randomized_rounding_routing` draws and scores all
of its samples as arrays.  The reference kept here is the loop it replaced:
one ``rng.choice`` per request per sample, one :class:`Routing` per draw,
scored by :func:`congestion` and :func:`routing_cost`.  The random stream
and every floating-point addition are unchanged, so the chosen paths and the
generator state after the call must be identical, not close.

Instances come two ways:

- real MMSFP relaxations of small random capacitated instances (split
  fractional flows, uncapacitated links, a zero-capacity link, requesters
  holding their item), and of ``plan``'s Tinet instance;
- hand-made fractional routings on a complete digraph, swapped in for the
  LP: up to 10 paths per request (numpy's sum turns pairwise at 8),
  zero-probability paths, loaded zero-capacity links, and a demand order
  that differs from ``problem.requests``.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Placement,
    ProblemInstance,
    Routing,
    congestion,
    pin_full_catalog,
    routing_cost,
)
from repro.core import routing as routing_module
from repro.core.routing import (
    FractionalRoutingResult,
    _path_cdfs,
    _score_draws,
    randomized_rounding_routing,
)
from repro.core.submodular import greedy_rnr_placement
from repro.exceptions import InfeasibleError
from repro.flow.decomposition import PathFlow
from repro.graph import CacheNetwork
from tests.core.test_properties import random_capacitated_problem


def loop_rounding(problem, placement, *, rng, n_samples):
    """The per-draw loop: the reference the array rounding must equal."""
    fractional = routing_module.mmsfp_routing(problem, placement)
    requests = problem.requests
    options: dict = {}
    for request in requests:
        pfs = fractional.routing.paths[request]
        amounts = np.array([pf.amount for pf in pfs])
        total = amounts.sum()
        if total <= 1e-9:
            raise InfeasibleError(f"request {request!r} has no fractional flow")
        options[request] = (pfs, amounts / total)

    best = None
    best_score = None
    for _ in range(n_samples):
        candidate = Routing()
        for request in requests:
            pfs, probs = options[request]
            choice = int(rng.choice(len(pfs), p=probs))
            candidate.paths[request] = [PathFlow(path=pfs[choice].path, amount=1.0)]
        score = (
            max(1.0, congestion(problem, candidate)),
            routing_cost(problem, candidate),
        )
        if best_score is None or score < best_score:
            best, best_score = candidate, score
    return best


def assert_same_rounding(problem, placement, *, seed, n_samples):
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = loop_rounding(
        problem, placement, rng=expected_rng, n_samples=n_samples
    )
    actual = randomized_rounding_routing(
        problem, placement, rng=actual_rng, n_samples=n_samples
    )
    assert list(actual.paths) == list(expected.paths)
    for request, pfs in expected.paths.items():
        assert [(pf.path, pf.amount) for pf in actual.paths[request]] == [
            (pf.path, pf.amount) for pf in pfs
        ]
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state
    return actual


# ---------------------------------------------------------------------------
# Real MMSFP relaxations
# ---------------------------------------------------------------------------


def varied_capacitated_problem(seed: int, tightness: float) -> ProblemInstance:
    """A random capacitated instance with some links uncapacitated or closed."""
    problem = random_capacitated_problem(seed, tightness=tightness)
    rng = np.random.default_rng(seed + 1)
    graph = problem.network.graph
    edges = sorted(graph.edges)
    for k in rng.permutation(len(edges))[: len(edges) // 4]:
        graph.edges[edges[k]]["capacity"] = math.inf
    # Construction rejects a zero capacity; set one the way callers can.
    graph.edges[edges[int(rng.integers(len(edges)))]]["capacity"] = 0.0
    return problem


def placement_for(problem: ProblemInstance, kind: str) -> Placement:
    if kind == "origin":
        return Placement()
    if kind == "rnr":
        return greedy_rnr_placement(problem)
    # Every requester of its lexicographically first request holds the item,
    # so that request is served by a 1-node path of cost 0.
    item, requester = problem.requests[0]
    return Placement({(requester, item): 1.0})


class TestLPRelaxations:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=400),
        tightness=st.sampled_from([0.35, 0.5, 0.8, 1.2]),
        kind=st.sampled_from(["origin", "rnr", "self"]),
        n_samples=st.sampled_from([1, 2, 16]),
    )
    def test_matches_loop(self, seed, tightness, kind, n_samples):
        problem = varied_capacitated_problem(seed, tightness)
        placement = placement_for(problem, kind)
        try:
            routing_module.mmsfp_routing(problem, placement)
        except InfeasibleError:
            return
        assert_same_rounding(problem, placement, seed=seed, n_samples=n_samples)

    def test_cases_include_split_flows(self):
        """The seeds above do reach split fractional flows."""
        split = 0
        for seed in range(40):
            try:
                fractional = routing_module.mmsfp_routing(
                    varied_capacitated_problem(seed, 0.5), Placement()
                )
            except InfeasibleError:
                continue
            split += any(len(pfs) > 1 for pfs in fractional.routing.paths.values())
        assert split >= 3

    @pytest.mark.parametrize("n_samples", [1, 2, 16])
    def test_empty_demand(self, n_samples):
        problem = random_capacitated_problem(3)
        empty = ProblemInstance(
            network=problem.network,
            catalog=problem.catalog,
            demand={},
            pinned=problem.pinned,
        )
        routing = assert_same_rounding(
            empty, Placement(), seed=5, n_samples=n_samples
        )
        assert routing.paths == {}

    @pytest.mark.parametrize("seed", [1, 1009])
    def test_plan_instance(self, seed):
        from repro.experiments import ScenarioConfig
        from repro.experiments.scenarios import build_scenario

        problem = build_scenario(ScenarioConfig(topology="tinet", seed=0)).problem
        assert any(math.isfinite(c) for c in problem.network.capacities().values())
        assert_same_rounding(problem, Placement(), seed=seed, n_samples=16)


# ---------------------------------------------------------------------------
# Hand-made fractional routings
# ---------------------------------------------------------------------------

NODES = tuple(range(4))
ITEMS = ("A", "B", "C", "D")


@st.composite
def fractional_instances(draw):
    """A problem on a complete digraph and a fractional routing for it.

    The graph is small and the requests many, so drawn paths share links
    and a link's load is a sum of several rates.
    """
    graph = nx.DiGraph()
    for u in NODES:
        for v in NODES:
            if u != v:
                graph.add_edge(
                    u, v,
                    cost=draw(st.floats(0.1, 20.0)),
                    capacity=draw(
                        st.sampled_from([math.inf, 1.0, 2.5]) | st.floats(0.5, 40.0)
                    ),
                )
    network = CacheNetwork(graph)
    for u, v in draw(st.lists(st.sampled_from(sorted(graph.edges)), max_size=2)):
        graph.edges[u, v]["capacity"] = 0.0
    requests = draw(
        st.lists(
            st.tuples(st.sampled_from(ITEMS), st.sampled_from(NODES)),
            min_size=1, max_size=12, unique=True,
        )
    )
    demand = {r: draw(st.floats(0.01, 10.0)) for r in requests}
    routing = Routing()
    for request in requests:
        _item, requester = request
        relays = [v for v in NODES if v != requester]
        pfs = []
        for k in range(draw(st.integers(1, 10))):
            hops = draw(st.lists(st.sampled_from(relays), max_size=2, unique=True))
            amount = draw(st.floats(0.01, 1.0) if k == 0 else st.floats(0.0, 1.0))
            pfs.append(PathFlow(path=(*hops, requester), amount=amount))
        routing.paths[request] = pfs
    problem = ProblemInstance(
        network=network,
        catalog=ITEMS,
        demand=demand,
        pinned=pin_full_catalog(ITEMS, [0]),
    )
    return problem, FractionalRoutingResult(routing=routing, cost=0.0)


def use_fractional(monkeypatch, fractional):
    monkeypatch.setattr(
        routing_module, "mmsfp_routing", lambda _problem, _placement: fractional
    )


class TestHandMadeFractions:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        instance=fractional_instances(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_samples=st.sampled_from([1, 2, 16]),
    )
    def test_matches_loop(self, instance, seed, n_samples, monkeypatch):
        problem, fractional = instance
        use_fractional(monkeypatch, fractional)
        assert_same_rounding(problem, Placement(), seed=seed, n_samples=n_samples)

    # A draw flips only when a uniform double lands between two CDF values
    # that differ in the last bit, so the loop comparison above cannot see
    # such a difference.  The next three tests compare the floats directly.

    @settings(max_examples=150, deadline=None)
    @given(instance=fractional_instances())
    def test_cdfs_are_choice_cdfs(self, instance):
        problem, fractional = instance
        requests = problem.requests
        options = [fractional.routing.paths[r] for r in requests]
        cdf, first = _path_cdfs(requests, options)
        counts = [len(pfs) for pfs in options]
        assert first.tolist() == np.cumsum([0, *counts])[:-1].tolist()
        for row, pfs in zip(cdf, options):
            amounts = np.array([pf.amount for pf in pfs])
            expected = (amounts / amounts.sum()).cumsum()
            expected /= expected[-1]
            assert row[: len(pfs)].tolist() == expected.tolist()
            assert (row[len(pfs):] == 1.0).all()

    @settings(max_examples=150, deadline=None)
    @given(instance=fractional_instances(), data=st.data())
    def test_scores_equal_routing_metrics(self, instance, data):
        problem, fractional = instance
        requests = problem.requests
        options = [fractional.routing.paths[r] for r in requests]
        paths = [pf.path for pfs in options for pf in pfs]
        counts = [len(pfs) for pfs in options]
        first = np.cumsum([0, *counts])[:-1]
        n_samples = data.draw(st.integers(1, 4))
        drawn = np.array(
            [
                [a + data.draw(st.integers(0, k - 1)) for a, k in zip(first, counts)]
                for _ in range(n_samples)
            ],
            dtype=np.intp,
        )
        congestions, costs = _score_draws(problem, requests, paths, drawn)
        for sample, row in enumerate(drawn):
            draw = Routing()
            for request, j in zip(requests, row):
                draw.paths[request] = [PathFlow(path=paths[j], amount=1.0)]
            assert congestions[sample] == congestion(problem, draw)
            assert costs[sample] == routing_cost(problem, draw)

    def test_shared_link_load_adds_in_demand_order(self):
        """Twenty rates add up on one link, where their order shows in the float."""
        rng = np.random.default_rng(3)
        network = CacheNetwork.from_edges(
            [(0, 1, 1.0, 7.0)] + [(1, s, 1.0) for s in range(2, 7)]
        )
        requests = [(item, s) for item in ITEMS for s in range(2, 7)]
        demand = {requests[k]: rng.uniform(0.1, 3.0) for k in rng.permutation(20)}
        problem = ProblemInstance(
            network=network, catalog=ITEMS, demand=demand,
            pinned=pin_full_catalog(ITEMS, [0]),
        )
        requests = problem.requests
        draw = Routing()
        for request in requests:
            draw.paths[request] = [PathFlow(path=(0, 1, request[1]), amount=1.0)]
        paths = [draw.paths[r][0].path for r in requests]
        drawn = np.arange(len(requests))[None, :]
        congestions, costs = _score_draws(problem, requests, paths, drawn)
        assert congestions[0] == congestion(problem, draw)
        assert costs[0] == routing_cost(problem, draw)
        for order in (reversed(requests), requests):
            other = 0.0
            for request in order:
                other += demand[request]
            assert other / 7.0 != congestions[0]

    def test_first_of_tied_draws_wins(self, monkeypatch):
        """Both paths cost the same and cross a zero-capacity link: all draws tie."""
        graph = nx.DiGraph()
        for u, v in [(0, 1), (1, 3), (0, 2), (2, 3)]:
            graph.add_edge(u, v, cost=1.5, capacity=5.0)
        network = CacheNetwork(graph)
        graph.edges[1, 3]["capacity"] = 0.0
        graph.edges[2, 3]["capacity"] = 0.0
        problem = ProblemInstance(
            network=network, catalog=("A",), demand={("A", 3): 2.0},
            pinned=pin_full_catalog(("A",), [0]),
        )
        routing = Routing()
        routing.paths[("A", 3)] = [
            PathFlow(path=(0, 1, 3), amount=0.5),
            PathFlow(path=(0, 2, 3), amount=0.5),
        ]
        use_fractional(monkeypatch, FractionalRoutingResult(routing=routing, cost=0.0))
        for seed in range(20):
            chosen = assert_same_rounding(problem, Placement(), seed=seed, n_samples=4)
            assert math.isinf(congestion(problem, chosen))
            first_draw = np.random.default_rng(seed).random()
            first_path = ((0, 1, 3), (0, 2, 3))[first_draw >= 0.5]
            assert chosen.paths[("A", 3)][0].path == first_path

    @pytest.mark.parametrize(
        "amounts, error",
        [
            ([0.5, 0.0], None),
            ([0.0, 0.0], InfeasibleError),
            ([], InfeasibleError),
            ([math.nan, 0.5], ValueError),
            ([1.5, -0.5], ValueError),
        ],
    )
    def test_checks_on_fractions(self, amounts, error, monkeypatch):
        problem = ProblemInstance(
            network=CacheNetwork.from_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)]),
            catalog=("A",),
            demand={("A", 2): 1.0},
            pinned=pin_full_catalog(("A",), [0]),
        )
        routing = Routing()
        routing.paths[("A", 2)] = [
            PathFlow(path=path, amount=a)
            for path, a in zip([(0, 1, 2), (0, 2)], amounts)
        ]
        use_fractional(monkeypatch, FractionalRoutingResult(routing=routing, cost=0.0))
        if error is None:
            assert_same_rounding(problem, Placement(), seed=0, n_samples=2)
            return
        rng = np.random.default_rng(0)
        for rounding in (loop_rounding, randomized_rounding_routing):
            with pytest.raises(error):
                rounding(problem, Placement(), rng=rng, n_samples=2)
