"""``compile_tables`` equals the per-type numpy compile it replaced.

:func:`numpy_compile_tables` below is the earlier implementation, kept
verbatim as the oracle: numpy arrays and one Vose alias table per request
type.  The current compile builds flat lists and gives a one-path type the
slot ``(1.0, itself, itself)``; every array must match the oracle's bytes
and dtype on random single-path and multi-path routings, with fractions
below ``_EPS`` and unrouted types.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Routing
from repro.exceptions import InvalidProblemError
from repro.flow.decomposition import PathFlow
from repro.robustness.chaos import random_problem
from repro.serving import compile_tables
from repro.serving.tables import _EPS, RoutingTables, _alias_table

ARRAYS = (
    "rates", "served_prob", "item_sizes", "slot_ptr", "type_req", "type_item",
    "slot_prob", "slot_path", "slot_alias", "path_cost", "path_type",
    "path_amount", "path_src", "path_edge_ptr", "path_edges", "edge_src",
    "edge_dst",
)


def numpy_compile_tables(problem, routing, *, allow_unrouted=False):
    """The compile this package used before flat slot lists."""
    requests = problem.requests
    network = problem.network
    edge_ids, edge_cost, node_ids, item_ids = {}, [], {}, {}
    edge_src, edge_dst = [], []
    rates = np.empty(len(requests))
    served_prob = np.zeros(len(requests))
    item_sizes = np.empty(len(requests))
    slot_ptr = np.zeros(len(requests) + 1, dtype=np.int64)
    type_req = np.zeros(len(requests), dtype=np.int64)
    type_item = np.zeros(len(requests), dtype=np.int64)
    slot_prob, slot_path, slot_alias = [], [], []
    path_cost, path_type, path_amount, path_src = [], [], [], []
    path_edge_ptr, path_edges = [0], []
    unrouted = 0
    for t, request in enumerate(requests):
        item, _s = request
        rates[t] = problem.demand[request]
        item_sizes[t] = problem.size_of(item)
        type_req[t] = node_ids.setdefault(_s, len(node_ids))
        type_item[t] = item_ids.setdefault(item, len(item_ids))
        pfs = routing.paths.get(request) or []
        amounts = np.array([pf.amount for pf in pfs], dtype=float)
        total = float(amounts.sum()) if len(amounts) else 0.0
        if total <= _EPS:
            if not allow_unrouted:
                raise InvalidProblemError(f"request {request!r} has no routing")
            unrouted += 1
            slot_ptr[t + 1] = slot_ptr[t]
            continue
        served_prob[t] = min(1.0, total)
        first_path = len(path_cost)
        for pf in pfs:
            if pf.amount <= _EPS:
                continue
            cost = 0.0
            for u, v in pf.edges():
                eid = edge_ids.setdefault((u, v), len(edge_ids))
                if eid == len(edge_cost):
                    edge_cost.append(network.cost(u, v))
                    edge_src.append(node_ids.setdefault(u, len(node_ids)))
                    edge_dst.append(node_ids.setdefault(v, len(node_ids)))
                cost += edge_cost[eid]
                path_edges.append(eid)
            path_cost.append(cost)
            path_type.append(t)
            path_amount.append(pf.amount)
            path_src.append(node_ids.setdefault(pf.source, len(node_ids)))
            path_edge_ptr.append(len(path_edges))
        k = len(path_cost) - first_path
        if k == 0:
            if not allow_unrouted:
                raise InvalidProblemError(f"request {request!r} has no routing")
            unrouted += 1
            served_prob[t] = 0.0
            slot_ptr[t + 1] = slot_ptr[t]
            continue
        probs = np.array(path_amount[first_path:], dtype=float)
        probs /= probs.sum()
        accept, alias = _alias_table(probs)
        slot_prob.append(accept)
        slot_path.append(np.arange(first_path, first_path + k, dtype=np.int64))
        slot_alias.append(alias + first_path)
        slot_ptr[t + 1] = slot_ptr[t] + k
    return RoutingTables(
        types=tuple(requests),
        edges=tuple(edge_ids),
        nodes=tuple(node_ids),
        items=tuple(item_ids),
        rates=rates,
        served_prob=served_prob,
        item_sizes=item_sizes,
        slot_ptr=slot_ptr,
        type_req=type_req,
        type_item=type_item,
        slot_prob=np.concatenate(slot_prob) if slot_prob else np.zeros(0),
        slot_path=(
            np.concatenate(slot_path) if slot_path else np.zeros(0, dtype=np.int64)
        ),
        slot_alias=(
            np.concatenate(slot_alias) if slot_alias else np.zeros(0, dtype=np.int64)
        ),
        path_cost=np.array(path_cost),
        path_type=np.array(path_type, dtype=np.int64),
        path_amount=np.array(path_amount),
        path_src=np.array(path_src, dtype=np.int64),
        path_edge_ptr=np.array(path_edge_ptr, dtype=np.int64),
        path_edges=np.array(path_edges, dtype=np.int64),
        edge_src=np.array(edge_src, dtype=np.int64),
        edge_dst=np.array(edge_dst, dtype=np.int64),
        unrouted_types=unrouted,
    )


AMOUNTS = st.one_of(
    st.sampled_from([1.0, 0.5, 0.25, 1e-13, 0.0, 1.0 / 3.0]),
    st.floats(min_value=1e-15, max_value=1.0),
)


@st.composite
def routed_problems(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    problem = random_problem(
        np.random.default_rng(seed), n_nodes=draw(st.integers(3, 8)), n_items=3
    )
    graph = problem.network.graph
    nodes = sorted(graph.nodes)
    routing = Routing()
    single = draw(st.booleans())  # every type one path, as RNR routes
    for request in problem.requests:
        _item, s = request
        n_paths = draw(st.integers(0, 1) if single else st.integers(0, 4))
        flows = []
        for _ in range(n_paths):
            source = draw(st.sampled_from(nodes))
            path = tuple(nx.shortest_path(graph, source, s, weight="cost"))
            flows.append(PathFlow(path=path, amount=draw(AMOUNTS)))
        if flows or draw(st.booleans()):
            routing.paths[request] = flows
    return problem, routing


def assert_same_tables(got, want):
    for name in ("types", "edges", "nodes", "items", "unrouted_types"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestCompileParity:
    @settings(max_examples=120, deadline=None)
    @given(routed_problems())
    def test_equals_numpy_compile(self, case):
        problem, routing = case
        assert_same_tables(
            compile_tables(problem, routing, allow_unrouted=True),
            numpy_compile_tables(problem, routing, allow_unrouted=True),
        )

    @settings(max_examples=60, deadline=None)
    @given(routed_problems())
    def test_same_unrouted_error(self, case):
        problem, routing = case
        try:
            want = numpy_compile_tables(problem, routing)
        except InvalidProblemError as exc:
            with pytest.raises(InvalidProblemError) as got:
                compile_tables(problem, routing)
            assert str(got.value) == str(exc)
        else:
            assert_same_tables(compile_tables(problem, routing), want)
