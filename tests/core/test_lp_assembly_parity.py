"""LP assembly parity against independent references at every LP call site.

The solvers assemble every LP as array blocks + COO batches.  These tests
hold each one to an independent reference on random instances:

- FC-FR (LP (1)), Algorithm 1's LP (7), the placement LP (15) and [3]'s
  candidate-path LP against *keyed* reference assemblies kept here as
  oracles: the same LP written row by row as dict rows on the test-local
  :class:`~tests.flow.keyed_lp.KeyedLP` (LP (7)'s coefficients from
  pure-python all-pairs Dijkstra).  The materialized arrays must be
  identical and the optima bit-identical.
- the MSUFP splittable-routing LP and the multicommodity LP against
  networkx's network simplex.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.baselines import CandidatePathModel, candidate_path_baseline
from repro.core import ProblemInstance, Routing
from repro.core.algorithm1 import algorithm1, assemble_lp7
from repro.core.context import SolverContext
from repro.core.fcfr import assemble_fcfr_lp, solve_fcfr
from repro.core.placement import extract_serving_paths, fractional_placement_lp
from repro.flow.decomposition import PathFlow
from repro.flow.lp import LPBuilder
from repro.flow.mincost import (
    Commodity,
    min_cost_multicommodity_flow,
    min_cost_single_source_flow,
)
from repro.graph import all_pairs_least_costs
from tests.core.conftest import random_uncapacitated_problem
from tests.core.test_properties import random_capacitated_problem
from tests.flow.keyed_lp import KeyedLP, assert_same_materialized

FCFR_SEEDS = range(8)
LP7_SEEDS = range(8)
LP15_SEEDS = range(10)
CANDIDATE_SEEDS = range(8)
MSUFP_SEEDS = range(8)


@pytest.fixture
def solved_builders(monkeypatch):
    """Every ``(LPBuilder, LPSolution)`` solved while the test runs."""
    seen = []
    real_solve = LPBuilder.solve

    def spy(self):
        solution = real_solve(self)
        seen.append((self, solution))
        return solution

    monkeypatch.setattr(LPBuilder, "solve", spy)
    return seen


def _resized(problem, seed: int, extra_pins=()) -> ProblemInstance:
    """``problem`` with heterogeneous sizes on odd seeds and extra pinned copies."""
    rng = np.random.default_rng(seed + 77)
    sizes = None
    if seed % 2:
        sizes = {i: float(rng.uniform(0.5, 2.5)) for i in problem.catalog}
    return ProblemInstance(
        network=problem.network,
        catalog=problem.catalog,
        demand=problem.demand,
        item_sizes=sizes,
        pinned=problem.pinned | frozenset(extra_pins),
    )


def keyed_fcfr_lp(problem) -> tuple[KeyedLP, list]:
    """Optimization (1a)-(1f), one keyed row at a time; returns (lp, x_pairs)."""
    network = problem.network
    graph = network.graph
    edges = list(graph.edges)
    cache_nodes = [v for v in network.cache_nodes() if network.cache_capacity(v) > 0]
    requests = problem.requests
    eligible = {
        (item, s): sorted(set(cache_nodes) | problem.pinned_holders(item), key=repr)
        for (item, s) in requests
    }
    x_pairs = [
        (v, i) for v in cache_nodes for i in problem.catalog if (v, i) not in problem.pinned
    ]
    lp = KeyedLP(sense="min")
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    for (item, s) in requests:
        for v in eligible[(item, s)]:
            lp.add_variable(("r", v, item, s), lb=0.0, ub=1.0)
    # (1a) objective.
    for (item, s) in requests:
        rate = problem.demand[(item, s)]
        for (u, v) in edges:
            lp.add_variable(
                ("f", item, s, u, v), lb=0.0, ub=1.0, cost=rate * network.cost(u, v)
            )
    # (1b) link capacities.
    for (u, v) in edges:
        lp.add_le(
            {("f", item, s, u, v): problem.demand[(item, s)] for (item, s) in requests},
            network.capacity(u, v),
        )
    # (1c) flow conservation; (1d) full service; (1e) r <= x.
    for (item, s) in requests:
        sources = set(eligible[(item, s)])
        for node in graph.nodes:
            coeffs: dict = {}
            for _, w in graph.out_edges(node):
                key = ("f", item, s, node, w)
                coeffs[key] = coeffs.get(key, 0.0) + 1.0
            for w, _ in graph.in_edges(node):
                key = ("f", item, s, w, node)
                coeffs[key] = coeffs.get(key, 0.0) - 1.0
            if node in sources:
                coeffs[("r", node, item, s)] = -1.0
            lp.add_eq(coeffs, -1.0 if node == s else 0.0)
        lp.add_eq({("r", v, item, s): 1.0 for v in eligible[(item, s)]}, 1.0)
        for v in eligible[(item, s)]:
            if (v, item) not in problem.pinned:
                lp.add_le({("r", v, item, s): 1.0, ("x", v, item): -1.0}, 0.0)
    # (1f) cache capacities.
    for v in cache_nodes:
        coeffs = {
            ("x", v, i): problem.size_of(i)
            for i in problem.catalog
            if ("x", v, i) in lp.index
        }
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    return lp, x_pairs


def keyed_lp7(problem) -> tuple[KeyedLP, list]:
    """LP (7), one keyed row at a time, from pure-python least costs."""
    costs, _ = all_pairs_least_costs(problem.network.graph)

    def d(v, s):
        return costs[v].get(s, math.inf)

    network = problem.network
    cache_nodes = [v for v in network.cache_nodes() if network.cache_capacity(v) > 0]
    requested = sorted({i for (i, _s) in problem.demand}, key=repr)
    candidates = set(cache_nodes)
    for item in requested:
        candidates |= problem.pinned_holders(item)
    w_max = max(c for v in candidates for c in costs[v].values()) or 1.0
    x_pairs = [(v, i) for v in cache_nodes for i in requested if (v, i) not in problem.pinned]
    rows = []
    for (item, s), rate in problem.demand.items():
        sources = sorted(
            (v for v in set(cache_nodes) | problem.pinned_holders(item) if d(v, s) < math.inf),
            key=repr,
        )
        rows.append((item, s, rate, sources, [(w_max - d(v, s)) / w_max for v in sources]))

    lp = KeyedLP(sense="max")
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    for item, s, _rate, sources, _coefs in rows:
        for v in sources:
            lp.add_variable(("r", v, item, s), lb=0.0, ub=1.0)
    for item, s, rate, sources, _coefs in rows:
        for v in sources:
            lp.add_variable(("z", v, item, s), lb=0.0, ub=1.0, cost=rate * w_max)
    for item, s, _rate, sources, coefs in rows:
        for v, coef in zip(sources, coefs):
            r_key, z_key = ("r", v, item, s), ("z", v, item, s)
            if (v, item) in problem.pinned:
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0 + coef)
            elif ("x", v, item) in lp.index:
                lp.add_le({z_key: 1.0, r_key: 1.0, ("x", v, item): -coef}, 1.0)
            else:
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0)
        lp.add_eq({("r", v, item, s): 1.0 for v in sources}, 1.0)
    for v in cache_nodes:
        coeffs = {("x", v, i): 1.0 for i in requested if (v, i) not in problem.pinned}
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    return lp, x_pairs


@pytest.mark.parametrize("seed", FCFR_SEEDS)
def test_fcfr_parity(seed):
    _assert_fcfr_matches(random_capacitated_problem(seed, tightness=3.0))


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_fcfr_parity_heterogeneous_sizes(seed):
    _assert_fcfr_matches(_resized(random_capacitated_problem(seed, tightness=3.0), seed))


def _assert_fcfr_matches(prob):
    keyed, x_pairs = keyed_fcfr_lp(prob)
    assert_same_materialized(keyed, assemble_fcfr_lp(prob))
    objective, reference = keyed.solve()
    result = solve_fcfr(prob)
    assert result.cost == objective  # bit-identical, not approx
    expected = {
        pair: min(1.0, reference[("x",) + pair])
        for pair in x_pairs
        if reference[("x",) + pair] > 1e-9
    }
    assert dict(result.solution.placement.items()) == expected
    assert set(result.solution.routing.paths) == set(prob.demand)


def _assert_lp7_matches(prob, context=None):
    keyed, x_pairs = keyed_lp7(prob)
    assert_same_materialized(keyed, assemble_lp7(prob, context=context))
    objective, reference = keyed.solve()
    result = algorithm1(prob, polish=False, context=context)
    assert result.lp_objective == objective
    assert result.fractional_placement == {
        pair: reference[("x",) + pair]
        for pair in x_pairs
        if reference[("x",) + pair] > 1e-9
    }


@pytest.mark.parametrize("seed", LP7_SEEDS)
def test_lp7_parity(seed):
    _assert_lp7_matches(random_uncapacitated_problem(seed))


def test_lp7_parity_with_context():
    prob = random_uncapacitated_problem(1)
    _assert_lp7_matches(prob, SolverContext.from_problem(prob, backend="dense"))


def keyed_lp15(problem, paths) -> tuple[KeyedLP, list]:
    """LP (15), one keyed row at a time; returns (lp, x_pairs)."""
    network = problem.network
    cache_nodes = [v for v in network.cache_nodes() if network.cache_capacity(v) > 0]
    requested = sorted({sp.item for sp in paths}, key=repr)
    lp = KeyedLP(sense="max")
    x_pairs = [(v, i) for v in cache_nodes for i in requested if (v, i) not in problem.pinned]
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    for idx, sp in enumerate(paths):
        length = len(sp.path)
        window: dict = {}
        window_has_pin = False
        for k in range(1, length):
            node = sp.path[length - k]  # newest node entering the window
            if (node, sp.item) in problem.pinned:
                window_has_pin = True
            elif ("x", node, sp.item) in lp.index:
                key = ("x", node, sp.item)
                window[key] = window.get(key, 0.0) + 1.0
            link_cost = sp.suffix_cost[length - 1 - k] - sp.suffix_cost[length - k]
            if link_cost <= 1e-9 or window_has_pin:
                continue  # a pinned window gives y_k == 1 at no cost
            y_key = ("y", idx, k)
            lp.add_variable(y_key, lb=0.0, ub=1.0, cost=sp.rate * link_cost)
            coeffs = {y_key: 1.0}
            coeffs.update({key: -c for key, c in window.items()})
            lp.add_le(coeffs, 0.0)
    for v in cache_nodes:
        coeffs = {
            ("x", v, i): problem.size_of(i) for i in requested if ("x", v, i) in lp.index
        }
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    return lp, x_pairs


def keyed_candidate_lp(problem, model) -> tuple[KeyedLP, list, list]:
    """[3]'s LP, one keyed row at a time; returns (lp, x_pairs, r/z keys)."""
    network = problem.network
    cache_nodes = [v for v in network.cache_nodes() if network.cache_capacity(v) > 0]
    cache_set = set(cache_nodes)
    requested = sorted({i for (i, _s) in problem.demand}, key=repr)
    w_max = model.w_max() or 1.0
    lp = KeyedLP(sense="max")
    x_pairs = [(v, i) for v in cache_nodes for i in requested if (v, i) not in problem.pinned]
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    rz_keys = []
    for (item, s), rate in problem.demand.items():
        sources = [
            v
            for v in model.eligible_sources(s)
            if v in cache_set or (v, item) in problem.pinned
        ]
        for v in sources:
            r_key, z_key = ("r", v, item, s), ("z", v, item, s)
            rz_keys.append((r_key, z_key))
            lp.add_variable(r_key, lb=0.0, ub=1.0)
            lp.add_variable(z_key, lb=0.0, ub=1.0, cost=rate * w_max)
            coef = (w_max - model.serving[(v, s)][0]) / w_max
            if (v, item) in problem.pinned:
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0 + coef)
            else:
                lp.add_le({z_key: 1.0, r_key: 1.0, ("x", v, item): -coef}, 1.0)
        lp.add_eq({("r", v, item, s): 1.0 for v in sources}, 1.0)
    for v in cache_nodes:
        coeffs = {
            ("x", v, i): problem.size_of(i) for i in requested if ("x", v, i) in lp.index
        }
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    return lp, x_pairs, rz_keys


def lp15_instance(seed: int):
    """A random LP (15) instance: two serving paths per request.

    One path comes from the origin, one from a random node (a path head need
    not hold the item), and the item of the first path long enough is
    pinned next to its requester, so at least one window holds a pinned copy.
    """
    base = random_uncapacitated_problem(seed)
    graph = base.network.graph
    rng = np.random.default_rng(seed)
    routing = Routing()
    pin = None
    for (item, s) in base.demand:
        heads = [0, int(rng.choice([v for v in graph.nodes if v != s]))]
        routing.paths[(item, s)] = [
            PathFlow(path=tuple(nx.shortest_path(graph, h, s, weight="cost")), amount=a)
            for h, a in zip(heads, (0.7, 0.3))
        ]
        path = routing.paths[(item, s)][0].path
        if pin is None and len(path) >= 3:
            pin = (path[-2], item)
    problem = _resized(base, seed, [pin] if pin else ())
    return problem, extract_serving_paths(problem, routing)


@pytest.mark.parametrize("seed", LP15_SEEDS)
def test_lp15_parity(seed, solved_builders):
    prob, paths = lp15_instance(seed)
    keyed, x_pairs = keyed_lp15(prob, paths)
    fractional, _capacities = fractional_placement_lp(prob, paths)
    (builder, solution), = solved_builders
    assert_same_materialized(keyed, builder)
    objective, reference = keyed.solve()
    assert solution.objective == objective
    assert np.array_equal(
        solution.block("x"), [reference[("x",) + pair] for pair in x_pairs]
    )
    assert fractional == {
        pair: reference[("x",) + pair]
        for pair in x_pairs
        if reference[("x",) + pair] > 1e-9
    }


def test_lp15_instances_cover_pinned_windows_and_sizes():
    pinned_windows = 0
    for seed in LP15_SEEDS:
        prob, paths = lp15_instance(seed)
        pinned_windows += sum(
            any((v, sp.item) in prob.pinned for v in sp.path[1:]) for sp in paths
        )
    assert pinned_windows > 0
    assert not lp15_instance(1)[0].is_homogeneous()
    assert lp15_instance(0)[0].is_homogeneous()


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", CANDIDATE_SEEDS)
def test_candidate_path_lp_parity(seed, k, solved_builders):
    prob = _resized(random_uncapacitated_problem(seed), seed)
    model = CandidatePathModel.build(prob, k)
    keyed, x_pairs, rz_keys = keyed_candidate_lp(prob, model)
    candidate_path_baseline(prob, k=k)
    (builder, solution), = solved_builders
    assert_same_materialized(keyed, builder)
    objective, reference = keyed.solve()
    assert solution.objective == objective
    assert np.array_equal(
        solution.block("x"), [reference[("x",) + pair] for pair in x_pairs]
    )
    assert np.array_equal(
        solution.block("rz"), [[reference[r], reference[z]] for r, z in rz_keys]
    )


def _random_flow_graph(seed: int) -> tuple[nx.DiGraph, dict]:
    rng = np.random.default_rng(seed)
    base = seed
    while True:
        g = nx.gnp_random_graph(8, 0.4, seed=base, directed=True)
        base += 10_000
        if g.number_of_edges() and nx.is_strongly_connected(g):
            break
    demands = {}
    for s in (4, 5, 6, 7):
        if rng.random() < 0.8:
            demands[s] = float(rng.integers(1, 6))
    if not demands:
        demands[5] = 2.0
    total = sum(demands.values())
    for u, v in g.edges:
        g.edges[u, v]["cost"] = float(rng.integers(1, 10))
        g.edges[u, v]["capacity"] = float(total) * 2.0
    return g, demands


def _network_simplex_cost(graph, source, demands) -> float:
    nxg = graph.copy()
    nx.set_node_attributes(nxg, 0.0, "demand")
    for t, d in demands.items():
        nxg.nodes[t]["demand"] = d
    nxg.nodes[source]["demand"] = -sum(demands.values())
    return nx.min_cost_flow_cost(nxg, weight="cost")


@pytest.mark.parametrize("seed", MSUFP_SEEDS)
def test_msufp_splittable_lp_parity(seed):
    graph, demands = _random_flow_graph(seed)
    flow, cost = min_cost_single_source_flow(graph, 0, demands)
    assert cost == pytest.approx(_network_simplex_cost(graph, 0, demands))
    assert cost == pytest.approx(
        sum(amount * graph.edges[e]["cost"] for e, amount in flow.items())
    )


def test_multicommodity_parity():
    graph, demands = _random_flow_graph(2)
    commodities = [
        Commodity(name=f"c{s}", source=0, demands={s: d}) for s, d in demands.items()
    ]
    flows, cost = min_cost_multicommodity_flow(graph, commodities)
    # Shared capacities are twice the total demand, so they never bind and
    # the optimum decouples into one single-commodity optimum per sink.
    assert cost == pytest.approx(
        sum(_network_simplex_cost(graph, 0, {s: d}) for s, d in demands.items())
    )
    assert set(flows) == {c.name for c in commodities}
