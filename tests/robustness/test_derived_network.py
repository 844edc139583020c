"""Derived networks answer every query like the graph copies they replace.

``apply_failure`` derives the degraded network from the healthy one
(:meth:`~repro.graph.network.CacheNetwork.derive`) instead of copying the
graph.  :func:`copying_apply_failure` below is the earlier implementation,
kept verbatim as the oracle: every query of a derived network — membership,
links, costs, capacities, caches, degrees, the materialized graph — and
every ``InvalidProblemError`` must equal the oracle's, for link, node and
capacity faults and for chains of derivations.  The healthy instance must
stay untouched, even after a derived graph is materialized and mutated.
"""

import copy
import gc
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ProblemInstance
from repro.exceptions import InvalidProblemError
from repro.graph.network import CAPACITY, COST, CacheNetwork
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    RecoveryPolicy,
    apply_failure,
    replay_timeline,
)
from repro.robustness.faults import DegradedProblem

MISSING = "missing-node"


def copying_apply_failure(problem, scenario):
    """The copying ``apply_failure`` this package used before derived
    networks: a ``graph.copy()`` edited fault by fault, then a fully
    re-validated ``CacheNetwork``."""
    graph = problem.network.graph.copy()
    cache = problem.network.cache_capacities
    failed_nodes = set()
    failed_links = set()

    for fault in scenario.faults:
        if isinstance(fault, LinkFailure):
            removed = False
            for u, v in fault.directed_edges:
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                    failed_links.add((u, v))
                    removed = True
            if not removed:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"link ({fault.u!r}, {fault.v!r})"
                )
        elif isinstance(fault, NodeFailure):
            if fault.node not in graph:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"node {fault.node!r}"
                )
            failed_links.update(graph.in_edges(fault.node))
            failed_links.update(graph.out_edges(fault.node))
            graph.remove_node(fault.node)
            cache.pop(fault.node, None)
            failed_nodes.add(fault.node)
        elif isinstance(fault, CapacityDegradation):
            if not 0.0 < fault.factor <= 1.0:
                raise InvalidProblemError(
                    f"degradation factor must be in (0, 1], got {fault.factor!r}"
                )
            targets = fault.links if fault.links is not None else list(graph.edges)
            for u, v in targets:
                if not graph.has_edge(u, v):
                    raise InvalidProblemError(
                        f"failure scenario {scenario.name!r} degrades missing "
                        f"link ({u!r}, {v!r})"
                    )
                graph.edges[u, v][CAPACITY] = graph.edges[u, v][CAPACITY] * fault.factor

    demand = {}
    lost = {}
    for (item, s), rate in problem.demand.items():
        (lost if s in failed_nodes else demand)[(item, s)] = rate
    pinned = frozenset((v, i) for (v, i) in problem.pinned if v not in failed_nodes)
    degraded = ProblemInstance(
        network=CacheNetwork(graph, cache),
        catalog=problem.catalog,
        demand=demand,
        item_sizes=None if problem.item_sizes is None else dict(problem.item_sizes),
        pinned=pinned,
    )
    return DegradedProblem(
        scenario=scenario,
        problem=degraded,
        failed_nodes=frozenset(failed_nodes),
        failed_links=frozenset(failed_links),
        lost_demand=lost,
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def problems(draw):
    n = draw(st.integers(2, 7))
    labels = draw(st.permutations([f"v{k}" for k in range(n)]))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    links = draw(st.lists(pairs, min_size=1, max_size=3 * n, unique=True))
    caps = st.one_of(st.just(math.inf), st.floats(0.5, 20.0))
    graph = nx.DiGraph()
    graph.add_nodes_from(labels)
    for u, v in links:
        graph.add_edge(u, v, **{COST: float(draw(st.integers(0, 9))), CAPACITY: draw(caps)})
    cache = {v: float(draw(st.integers(0, 3))) for v in labels}
    catalog = ("a", "b")
    demand = {
        (i, s): float(draw(st.integers(1, 5)))
        for i in catalog
        for s in draw(st.lists(st.sampled_from(labels), unique=True, max_size=3))
    }
    pinned = frozenset((labels[0], i) for i in catalog)
    sizes = draw(st.one_of(st.none(), st.just({"a": 1.0, "b": 2.0})))
    return ProblemInstance(
        network=CacheNetwork(graph, cache),
        catalog=catalog,
        demand=demand,
        item_sizes=sizes,
        pinned=pinned,
    )


def faults_on(problem):
    """Faults over the instance's nodes and links, plus missing ones."""
    nodes = sorted(problem.network.nodes, key=repr)
    labels = st.sampled_from([*nodes, MISSING])
    links = st.tuples(labels, labels)
    existing = problem.network.edges
    some_links = st.lists(
        st.sampled_from(existing) if existing else links, max_size=3
    ) | st.lists(links, min_size=1, max_size=2)
    factor = st.sampled_from([0.5, 0.25, 1.0, 1e-3]) | st.sampled_from([0.0, 1.5])
    fault = st.one_of(
        st.builds(
            LinkFailure,
            st.sampled_from(existing).map(lambda e: e[0]) if existing else labels,
            labels,
            st.booleans(),
        ),
        st.sampled_from(existing).map(lambda e: LinkFailure(*e, both_directions=False))
        if existing
        else st.builds(LinkFailure, labels, labels),
        st.builds(NodeFailure, labels),
        st.builds(
            CapacityDegradation,
            factor,
            st.none() | some_links.map(tuple),
        ),
    )
    return st.lists(fault, max_size=4)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------


def outcome(fn, *args):
    """``(value, None)`` or ``(None, exception type)`` of ``fn(*args)``."""
    try:
        return fn(*args), None
    except (KeyError, InvalidProblemError) as exc:
        return None, type(exc)


def snapshot(network):
    graph = network.graph
    return (
        list(graph.nodes(data=True)),
        copy.deepcopy(list(graph.edges(data=True))),
        dict(graph.graph),
        network.cache_capacities,
    )


def assert_same_network(got, want, probe_nodes):
    assert got.nodes == want.nodes
    assert got.edges == want.edges
    assert got.num_nodes == want.num_nodes
    assert got.num_edges == want.num_edges
    assert len(got) == len(want)
    assert repr(got) == repr(want)
    assert got.costs() == want.costs()
    assert got.capacities() == want.capacities()
    assert list(got.cache_capacities.items()) == list(want.cache_capacities.items())
    assert got.cache_nodes() == want.cache_nodes()
    for u in probe_nodes:
        assert (u in got) == (u in want)
        assert outcome(got.cache_capacity, u) == outcome(want.cache_capacity, u)
        if u in want:
            assert list(got.out_edges(u)) == list(want.out_edges(u))
            # ``graph.copy()`` re-inserts predecessors in successor order, so
            # only the set of in-links is comparable with a copy's.
            assert sorted(got.in_edges(u)) == sorted(want.in_edges(u))
            assert got.degree(u) == want.degree(u)
            assert got.undirected_degree(u) == want.undirected_degree(u)
        for v in probe_nodes:
            assert got.has_edge(u, v) == want.has_edge(u, v)
            for query in ("cost", "capacity"):
                g_val, g_err = outcome(getattr(got, query), u, v)
                w_val, w_err = outcome(getattr(want, query), u, v)
                assert g_err == w_err, (query, u, v)
                if w_err is None:
                    assert type(g_val) is type(w_val)
                    assert math.isnan(w_val) or g_val == w_val, (query, u, v)


def assert_same_graph(got, want):
    assert list(got.nodes(data=True)) == list(want.nodes(data=True))
    assert list(got.edges(data=True)) == list(want.edges(data=True))
    assert got.graph == want.graph


def assert_same_degraded(got, want, probe_nodes):
    assert got.scenario == want.scenario
    assert got.failed_nodes == want.failed_nodes
    assert got.failed_links == want.failed_links
    assert got.lost_demand == want.lost_demand
    assert list(got.problem.demand.items()) == list(want.problem.demand.items())
    assert got.problem.pinned == want.problem.pinned
    assert got.problem.catalog == want.problem.catalog
    assert got.problem.item_sizes == want.problem.item_sizes
    assert_same_network(got.problem.network, want.problem.network, probe_nodes)


def derive_both(problem, oracle_problem, faults, name):
    scenario = FailureScenario(name, tuple(faults))
    got, got_err = outcome(apply_failure, problem, scenario)
    want, want_err = outcome(copying_apply_failure, oracle_problem, scenario)
    assert got_err == want_err, scenario
    if want_err is not None:
        # Same message too: both name the first offending fault.
        with pytest.raises(InvalidProblemError) as got_exc:
            apply_failure(problem, scenario)
        with pytest.raises(InvalidProblemError) as want_exc:
            copying_apply_failure(oracle_problem, scenario)
        assert str(got_exc.value) == str(want_exc.value)
    return got, want


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


class TestDerivedParity:
    @settings(max_examples=150, deadline=None)
    @given(problem=problems(), data=st.data())
    def test_chained_derivations_answer_like_copies(self, problem, data):
        healthy = snapshot(problem.network)
        probe = [*problem.network.nodes, MISSING]
        got_problem, want_problem = problem, problem
        for step in range(data.draw(st.integers(1, 3), label="steps")):
            faults = data.draw(faults_on(want_problem), label=f"faults{step}")
            got, want = derive_both(got_problem, want_problem, faults, f"s{step}")
            if want is None:
                break
            assert_same_degraded(got, want, probe)
            if data.draw(st.booleans(), label=f"materialize{step}"):
                assert_same_graph(got.problem.network.graph, want.problem.network.graph)
                assert_same_degraded(got, want, probe)  # now read from its graph
            got_problem, want_problem = got.problem, want.problem
        assert snapshot(problem.network) == healthy

    @settings(max_examples=60, deadline=None)
    @given(problem=problems(), data=st.data())
    def test_materialized_graph_is_independent_of_the_healthy_one(self, problem, data):
        healthy = snapshot(problem.network)
        faults = data.draw(faults_on(problem), label="faults")
        got, _want = derive_both(problem, problem, faults, "s")
        if got is None:
            return
        network = got.problem.network
        graph = network.graph
        for _u, _v, attrs in list(graph.edges(data=True)):
            attrs[CAPACITY] = 123.0
            attrs[COST] = 7.0
        if graph.number_of_edges():
            graph.remove_edge(*next(iter(graph.edges)))
        if len(graph):
            graph.remove_node(next(iter(graph.nodes)))
        network.set_uniform_link_capacity(5.0)
        assert snapshot(problem.network) == healthy
        # A derivation taken after the mutation still reads the healthy links.
        again = apply_failure(problem, FailureScenario("again", ()))
        assert again.problem.network.costs() == problem.network.costs()
        assert again.problem.network.capacities() == problem.network.capacities()

    def test_capacity_overlay_composes_across_derivations(self):
        net = CacheNetwork.from_edges([("a", "b", 1.0, 8.0), ("b", "c", 2.0, 6.0)])
        problem = ProblemInstance(
            network=net, catalog=("x",), demand={("x", "c"): 1.0},
            pinned=frozenset({("a", "x")}),
        )
        half = apply_failure(problem, FailureScenario("h", (CapacityDegradation(0.5),)))
        quarter = apply_failure(
            half.problem, FailureScenario("q", (CapacityDegradation(0.5, (("a", "b"),)),))
        )
        assert quarter.problem.network.capacity("a", "b") == 2.0
        assert quarter.problem.network.capacity("b", "c") == 3.0
        assert net.capacity("a", "b") == 8.0
        assert quarter.problem.network.graph.edges["a", "b"][CAPACITY] == 2.0


def test_recover_replay_copies_no_graph(monkeypatch):
    # A recover-path replay on Abovenet: every action runs apply_failure ->
    # degraded_context -> recover -> survivability_record, and none of them
    # may copy the graph or leave cyclic garbage behind.
    from repro.core.algorithm1 import algorithm1
    from repro.core.context import SolverContext
    from repro.experiments import ScenarioConfig, build_scenario
    from repro.robustness import TimelineConfig, generate_timeline

    scenario = build_scenario(
        ScenarioConfig(
            topology="abovenet", num_videos=3, cache_capacity=3,
            link_capacity_fraction=None, num_edge_nodes=4, seed=0,
        )
    )
    problem = scenario.problem
    context = SolverContext.from_problem(problem, backend="dense")
    solved = algorithm1(problem, context=context).solution
    timeline = generate_timeline(
        problem,
        TimelineConfig(
            horizon=30.0, link_mtbf=20.0, link_mttr=3.0, node_mtbf=60.0,
            node_mttr=4.0, exclude_nodes=(scenario.origin,),
        ),
        seed=3,
    )
    copies = []
    original = nx.DiGraph.copy

    def counting_copy(self, *args, **kwargs):
        copies.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(nx.DiGraph, "copy", counting_copy)
    gc.collect()
    gc.disable()
    try:
        report = replay_timeline(
            problem, solved.placement, timeline, RecoveryPolicy(repair=True),
            context=context, healthy_routing=solved.routing,
        )
        collected = gc.collect()
    finally:
        gc.enable()
    assert report.reoptimizations > 5
    assert copies == []
    assert collected == 0


def test_cluster_local_replay_copies_no_whole_graph(monkeypatch):
    # The cluster path (perfbench failover10k's): each action re-solves the
    # touched clusters from the derived network's links.  Only cluster-sized
    # sub-instances may be copied, never the degraded whole graph.
    import numpy as np

    from repro.core.context import SolverContext
    from repro.core.decomposed import partition_graph
    from repro.graph import tinet
    from repro.robustness import TimelineConfig, generate_timeline
    from tests.robustness.test_scale_resilience import midsize_problem, random_placement

    problem = midsize_problem(tinet, seed=11)
    placement = random_placement(np.random.default_rng(12), problem)
    timeline = generate_timeline(
        problem,
        TimelineConfig(horizon=20.0, link_mtbf=30.0, link_mttr=2.0, node_mtbf=60.0),
        seed=13,
    )
    partition = partition_graph(problem.network, seed=0)
    sizes = []
    original = nx.DiGraph.copy

    def sized_copy(self, *args, **kwargs):
        sizes.append(self.number_of_nodes())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(nx.DiGraph, "copy", sized_copy)
    report = replay_timeline(
        problem, placement, timeline,
        RecoveryPolicy(detection_delay=0.2, min_dwell=2.0),
        context=SolverContext.from_problem(problem, backend="lazy"),
        partition=partition,
    )
    assert report.reoptimizations > 3
    assert all(n < problem.network.num_nodes // 2 for n in sizes), sizes
