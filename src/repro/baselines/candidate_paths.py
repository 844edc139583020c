"""State-of-the-art benchmarks: Ioannidis & Yeh [3] and [38].

Both benchmarks predetermine *candidate paths* from the origin server to
each requester and only optimize within them — the key limitation the
paper's Algorithm 1 removes:

- ``[38] 'SP' / 'shortest path'``: requests travel the single least-cost
  server->requester path; caches on the path intercept.  Placement maximizes
  the caching gain along those fixed paths (pipage, as in Section 4.3.1).
- ``[3] 'k shortest paths' / 'SP + RNR' / 'k-SP + RNR'``: k candidate
  least-cost server->requester paths; joint placement + source selection is
  solved by an Algorithm-1-style LP + pipage where a node can serve a
  requester only along a candidate-path suffix; routing then serves each
  request from the nearest replica *on a candidate path* (restricted RNR).

For heterogeneous item sizes both benchmarks round with the equal-fraction
swap of (8)-(9) — which is only capacity-safe for equal sizes.  We reproduce
that faithfully (:func:`naive_equal_swap_round`), so their file-level
placements can exceed cache capacities exactly as the paper's Fig. 5 / 7 / 8
report.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import (
    cache_capacity_rows,
    extract_serving_paths,
    fractional_placement_lp,
    optimize_placement_lp,
)
from repro.core.problem import Item, ProblemInstance
from repro.core.solution import Placement, Routing, Solution
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.flow.decomposition import PathFlow
from repro.flow.lp import LPBuilder
from repro.graph.shortest_paths import k_shortest_paths

Node = Hashable


def origin_server(problem: ProblemInstance) -> Node:
    """The designated server: a pinned holder of every requested item."""
    requested = {i for (i, _s) in problem.demand}
    candidates = [
        v
        for v in sorted({v for (v, _i) in problem.pinned}, key=repr)
        if requested <= problem.pinned_items_at(v)
    ]
    if not candidates:
        raise InvalidProblemError(
            "candidate-path benchmarks need an origin pinning the full catalog"
        )
    return candidates[0]


@dataclass
class CandidatePathModel:
    """Candidate paths per requester plus the induced serving costs.

    ``serving[(v, s)]`` is the cheapest candidate-path *suffix* from node
    ``v`` to requester ``s`` (the only way [3] lets ``v`` serve ``s``), as a
    ``(cost, path)`` pair.
    """

    k: int
    server: Node
    paths: dict[Node, list[tuple[Node, ...]]] = field(default_factory=dict)
    serving: dict[tuple[Node, Node], tuple[float, tuple[Node, ...]]] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, problem: ProblemInstance, k: int) -> "CandidatePathModel":
        if k < 1:
            raise InvalidProblemError("k must be >= 1")
        server = origin_server(problem)
        graph = problem.network.graph
        link_cost = problem.network.cost
        model = cls(k=k, server=server)
        requesters = sorted({s for (_i, s) in problem.demand}, key=repr)
        for s in requesters:
            if s == server:
                model.paths[s] = [(server,)]
                model.serving[(server, s)] = (0.0, (server,))
                continue
            paths = k_shortest_paths(graph, server, s, k)
            if not paths:
                raise InfeasibleError(f"requester {s!r} unreachable from the server")
            model.paths[s] = [tuple(p) for p in paths]
            for p in model.paths[s]:
                suffix_costs = [0.0] * len(p)
                for m in range(len(p) - 2, -1, -1):
                    suffix_costs[m] = suffix_costs[m + 1] + link_cost(p[m], p[m + 1])
                for m, v in enumerate(p):
                    cost, _ = model.serving.get((v, s), (float("inf"), ()))
                    if suffix_costs[m] < cost:
                        model.serving[(v, s)] = (suffix_costs[m], p[m:])
        return model

    def eligible_sources(self, s: Node) -> list[Node]:
        return sorted(
            {v for (v, ss) in self.serving if ss == s}, key=repr
        )

    def w_max(self) -> float:
        finite = [c for (c, _p) in self.serving.values()]
        return max(finite) if finite else 1.0


def naive_equal_swap_round(
    fractional: dict[tuple[Node, Item], float],
    weights: dict[tuple[Node, Item], float],
) -> dict[tuple[Node, Item], float]:
    """The benchmarks' pipage rounding: swap *equal fractions* of two items.

    Safe only when items have equal sizes; with heterogeneous sizes the
    rounded placement may exceed cache capacities — reproduced on purpose
    (see Fig. 5's max-cache-occupancy panels).
    """
    x = {k: min(1.0, max(0.0, v)) for k, v in fractional.items() if v > 1e-7}
    by_node: dict[Node, list[Item]] = {}
    for (v, i) in x:
        by_node.setdefault(v, []).append(i)
    for v in sorted(by_node, key=repr):
        items = sorted(by_node[v], key=repr)
        while True:
            fractional_items = [i for i in items if 1e-7 < x.get((v, i), 0.0) < 1 - 1e-7]
            if len(fractional_items) >= 2:
                i, j = fractional_items[0], fractional_items[1]
                total = x[(v, i)] + x[(v, j)]
                if weights.get((v, i), 0.0) >= weights.get((v, j), 0.0):
                    xi = min(1.0, total)
                    xj = total - xi
                else:
                    xj = min(1.0, total)
                    xi = total - xj
                for key, val in (((v, i), xi), ((v, j), xj)):
                    if val <= 1e-7:
                        x.pop(key, None)
                    else:
                        x[key] = val
                continue
            if len(fractional_items) == 1:
                x[(v, fractional_items[0])] = 1.0
                continue
            break
    return {k: 1.0 for k, v in x.items() if v >= 1 - 1e-7}


def _restricted_placement_lp(
    problem: ProblemInstance, model: CandidatePathModel
) -> Placement:
    """[3]'s MinCost-SR: Algorithm-1-style LP + pipage over candidate paths.

    Columns are an ``x`` block over the optimizable (cache node, requested
    item) pairs, cache-node-major, then one ``(n, 2)`` block holding the
    ``(r, z)`` pair of each (request, candidate source) entry, request-major.
    """
    cache_nodes = [
        v
        for v in problem.network.cache_nodes()
        if problem.network.cache_capacity(v) > 0
    ]
    cache_set = set(cache_nodes)
    requested_items = sorted({i for (i, _s) in problem.demand}, key=repr)
    # Algorithm 1's rule: 1.0 only when every serving cost is 0, so the
    # placement does not depend on the cost unit.
    w_max = model.w_max() or 1.0
    x_pairs = [
        (v, i) for v in cache_nodes for i in requested_items if (v, i) not in problem.pinned
    ]
    x_index = {pair: k for k, pair in enumerate(x_pairs)}

    # One entry per (request, candidate source): (v, item, rate, serving cost).
    entries: list[tuple[Node, Item, float, float]] = []
    req_of: list[int] = []
    for k, ((item, s), rate) in enumerate(problem.demand.items()):
        sources = [
            v
            for v in model.eligible_sources(s)
            if v in cache_set or (v, item) in problem.pinned
        ]
        if not sources:
            raise InfeasibleError(f"request {(item, s)!r} has no candidate source")
        for v in sources:
            entries.append((v, item, rate, model.serving[(v, s)][0]))
            req_of.append(k)
    n = len(entries)
    rates = np.asarray([rate for _v, _i, rate, _c in entries], dtype=np.float64)
    coefs = np.asarray(
        [(w_max - cost) / w_max for _v, _i, _r, cost in entries], dtype=np.float64
    )
    x_col = np.asarray(
        [-1 if (v, i) in problem.pinned else x_index[(v, i)] for v, i, _r, _c in entries],
        dtype=np.intp,
    )

    lp = LPBuilder(sense="max")
    xb = lp.add_variable_block("x", len(x_pairs), lb=0.0, ub=1.0)
    rz = lp.add_variable_block(
        "rz", (n, 2), lb=0.0, ub=1.0,
        cost=np.column_stack([np.zeros(n), rates * w_max]),
    )
    # Per-entry rows: z + r (- coef * x) <= 1, or <= 1 + coef at a pinned copy.
    rows = np.arange(n, dtype=np.intp)
    r_cols = rz.flat(rows, 0)
    free = np.flatnonzero(x_col >= 0)
    lp.add_le_batch(
        np.concatenate([rows, rows, free]),
        np.concatenate([rz.flat(rows, 1), r_cols, xb.flat(x_col[free])]),
        np.concatenate([np.ones(n), np.ones(n), -coefs[free]]),
        np.where(x_col < 0, 1.0 + coefs, 1.0),
    )
    # Per-request full service: sum_v r = 1.
    lp.add_eq_batch(req_of, r_cols, np.ones(n), np.ones(len(problem.demand)))
    cap_rows, cap_cols, cap_data, cap_rhs = cache_capacity_rows(
        problem, x_pairs, [problem.size_of(i) for _v, i in x_pairs]
    )
    lp.add_le_batch(cap_rows, xb.flat(cap_cols), cap_data, cap_rhs)
    if lp.num_variables == 0:
        return Placement()
    solution = lp.solve()
    fractional = {
        pair: value
        for pair, value in zip(x_pairs, solution.block("x").tolist())
        if value > 1e-9
    }
    weights: dict = {}
    for (v, item, rate, cost), r_value in zip(
        entries, solution.block("rz")[:, 0].tolist()
    ):
        if r_value <= 0:
            continue
        key = (v, item)
        weights[key] = weights.get(key, 0.0) + rate * r_value * (w_max - cost)
    # The benchmarks always round by equal-fraction swaps (their published
    # scheme); for homogeneous sizes this is exactly Lemma 4.3's rounding.
    return Placement(naive_equal_swap_round(fractional, weights))


def _restricted_rnr_routing(
    problem: ProblemInstance, model: CandidatePathModel, placement: Placement
) -> Routing:
    """Serve each request from the cheapest candidate-path suffix."""
    routing = Routing()
    for (item, s), _rate in problem.demand.items():
        best_cost, best_path = float("inf"), None
        for v in model.eligible_sources(s):
            holds = (v, item) in problem.pinned or placement[(v, item)] >= 1 - 1e-6
            if not holds:
                continue
            cost, suffix = model.serving[(v, s)]
            if cost < best_cost:
                best_cost, best_path = cost, suffix
        if best_path is None:
            raise InfeasibleError(f"request {(item, s)!r} unserved on candidate paths")
        routing.paths[(item, s)] = [PathFlow(path=best_path, amount=1.0)]
    return routing


def candidate_path_baseline(
    problem: ProblemInstance,
    *,
    k: int = 10,
) -> Solution:
    """The benchmark of [3]: k-shortest-path MinCost-SR + restricted RNR.

    ``k=1`` gives the paper's 'SP + RNR' variant, ``k=10`` its recommended
    'k shortest paths' configuration.
    """
    model = CandidatePathModel.build(problem, k)
    placement = _restricted_placement_lp(problem, model)
    routing = _restricted_rnr_routing(problem, model, placement)
    return Solution(placement, routing)


def shortest_path_baseline(problem: ProblemInstance) -> Solution:
    """The benchmark of [38] ('SP'): placement on fixed shortest paths.

    Requests travel the single least-cost server->requester path; placement
    maximizes the caching gain (14) along those paths.  For homogeneous
    catalogs this uses the same pipage machinery as Section 4.3.1; for
    heterogeneous sizes it reproduces [38]'s equal-swap rounding (which can
    overfill caches).
    """
    model = CandidatePathModel.build(problem, 1)
    sp_routing = Routing()
    for (item, s), _rate in problem.demand.items():
        path = model.paths[s][0]
        sp_routing.paths[(item, s)] = [PathFlow(path=path, amount=1.0)]
    if problem.is_homogeneous():
        placement = optimize_placement_lp(problem, sp_routing)
    else:
        placement = _hetero_sp_placement(problem, sp_routing)
    routing = Routing()
    for (item, s), _rate in problem.demand.items():
        path = model.paths[s][0]
        # Interception: the response starts at the on-path replica nearest s.
        start = 0
        for m in range(1, len(path)):
            if (path[m], item) in problem.pinned or placement[(path[m], item)] >= 1 - 1e-6:
                start = m
        routing.paths[(item, s)] = [PathFlow(path=path[start:], amount=1.0)]
    return Solution(placement, routing)


def _hetero_sp_placement(problem: ProblemInstance, sp_routing: Routing) -> Placement:
    """[38]'s placement with heterogeneous sizes: LP (15) + naive equal-swap round."""
    paths = extract_serving_paths(problem, sp_routing)
    fractional, capacities = fractional_placement_lp(problem, paths)
    weights: dict = {}
    for sp in paths:
        length = len(sp.path)
        for m in range(1, length):
            node = sp.path[m]
            key = (node, sp.item)
            if key in fractional or (node in capacities and key not in problem.pinned):
                weights[key] = weights.get(key, 0.0) + sp.rate * (
                    sp.suffix_cost[0] - sp.suffix_cost[m]
                )
    return Placement(naive_equal_swap_round(fractional, weights))
