"""LP assembly parity against independent references at the three LP call sites.

The solvers assemble every LP as array blocks + COO batches.  These tests
hold each one to an independent reference on random instances:

- FC-FR (LP (1)) and Algorithm 1's LP (7) against *keyed* reference
  assemblies kept here as oracles: the same LP written row by row through
  :class:`~repro.flow.lp.LPBuilder`'s keyed API (LP (7)'s coefficients from
  pure-python all-pairs Dijkstra).  The materialized matrices must be
  identical and the optima bit-identical.
- the MSUFP splittable-routing LP and the multicommodity LP against
  networkx's network simplex.
"""

import math

import networkx as nx
import numpy as np
import pytest

from repro.core.algorithm1 import algorithm1, assemble_lp7
from repro.core.context import SolverContext
from repro.core.fcfr import assemble_fcfr_lp, solve_fcfr
from repro.flow.lp import LPBuilder
from repro.flow.mincost import (
    Commodity,
    min_cost_multicommodity_flow,
    min_cost_single_source_flow,
)
from repro.graph import all_pairs_least_costs
from tests.core.conftest import random_uncapacitated_problem
from tests.core.test_properties import random_capacitated_problem

FCFR_SEEDS = range(8)
LP7_SEEDS = range(8)
MSUFP_SEEDS = range(8)


def keyed_fcfr_lp(problem) -> tuple[LPBuilder, list]:
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
    lp = LPBuilder(sense="min")
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    for (item, s) in requests:
        for v in eligible[(item, s)]:
            lp.add_variable(("r", v, item, s), lb=0.0, ub=1.0)
    for (item, s) in requests:
        for (u, v) in edges:
            lp.add_variable(("f", item, s, u, v), lb=0.0, ub=1.0)
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
            if lp.has_variable(("x", v, i))
        }
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    # (1a) objective.
    for (item, s) in requests:
        rate = problem.demand[(item, s)]
        for (u, v) in edges:
            lp.add_objective_terms({("f", item, s, u, v): rate * network.cost(u, v)})
    return lp, x_pairs


def keyed_lp7(problem) -> tuple[LPBuilder, list]:
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

    lp = LPBuilder(sense="max")
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
            elif lp.has_variable(("x", v, item)):
                lp.add_le({z_key: 1.0, r_key: 1.0, ("x", v, item): -coef}, 1.0)
            else:
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0)
        lp.add_eq({("r", v, item, s): 1.0 for v in sources}, 1.0)
    for v in cache_nodes:
        coeffs = {("x", v, i): 1.0 for i in requested if (v, i) not in problem.pinned}
        if coeffs:
            lp.add_le(coeffs, network.cache_capacity(v))
    return lp, x_pairs


def assert_same_materialized(keyed_lp, array_lp):
    md, ma = keyed_lp.materialize(), array_lp.materialize()
    assert np.array_equal(md.c, ma.c)
    assert np.array_equal(md.bounds, ma.bounds)
    for attr in ("a_ub", "a_eq"):
        ad, aa = getattr(md, attr), getattr(ma, attr)
        if ad is None:
            assert aa is None
        else:
            assert ad.shape == aa.shape
            assert (ad != aa).nnz == 0
    for attr in ("b_ub", "b_eq"):
        bd, ba = getattr(md, attr), getattr(ma, attr)
        assert (bd is None) == (ba is None)
        if bd is not None:
            assert np.array_equal(bd, ba)


@pytest.mark.parametrize("seed", FCFR_SEEDS)
def test_fcfr_parity(seed):
    prob = random_capacitated_problem(seed, tightness=3.0)
    keyed, x_pairs = keyed_fcfr_lp(prob)
    assert_same_materialized(keyed, assemble_fcfr_lp(prob))
    reference = keyed.solve()
    result = solve_fcfr(prob)
    assert result.cost == reference.objective  # bit-identical, not approx
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
    reference = keyed.solve()
    result = algorithm1(prob, polish=False, context=context)
    assert result.lp_objective == reference.objective
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
