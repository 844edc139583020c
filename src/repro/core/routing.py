"""Source selection + routing under a fixed placement (Section 4.3.2).

With the placement fixed, adding one virtual source per content item — wired
by free uncapacitated links to every node holding that item — reduces joint
source selection and routing to a pure routing problem in the auxiliary
graph ``G^x`` (the per-item analogue of Lemma 4.5):

- fractional routing: the minimum-cost multiple-source splittable flow
  problem (MMSFP), solved exactly as an LP with one commodity per item.
  :func:`mmsfp_routing` is the only MMSFP path: every call assembles that LP
  over the current placement's ``G^x`` through
  :func:`~repro.flow.mincost.min_cost_multicommodity_flow`;
- integral routing: MMUFP, NP-hard, attacked by the paper's two heuristics —
  LP relaxation with randomized path rounding, and greedy capacity-aware
  path assignment.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Hashable
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.evaluation import congestion, path_cost, routing_cost
from repro.core.problem import Item, ProblemInstance, Request
from repro.core.solution import Placement, Routing
from repro.exceptions import InfeasibleError
from repro.flow.decomposition import PathFlow, decompose_single_source_flow
from repro.flow.mincost import Commodity, min_cost_multicommodity_flow
from repro.graph.network import CAPACITY, COST
from repro.graph.shortest_paths import reconstruct_path, single_source_dijkstra

Node = Hashable

logger = logging.getLogger(__name__)

_EPS = 1e-9
#: ``Generator.choice``'s tolerance on a probability vector's sum.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _item_source(item: Item) -> tuple[str, Item]:
    return ("__item_source__", item)


def holders_of(problem: ProblemInstance, placement: Placement, item: Item) -> set[Node]:
    """Nodes that can serve ``item``: integral replicas plus pinned copies."""
    holders = {
        v for v in placement.holders(item) if placement[(v, item)] >= 1 - 1e-6
    }
    holders |= problem.pinned_holders(item)
    return holders


def build_item_auxiliary_graph(
    problem: ProblemInstance, placement: Placement
) -> tuple[nx.DiGraph, dict[Item, tuple[str, Item]]]:
    """The auxiliary graph ``G^x`` with one virtual source per requested item."""
    aux = problem.network.graph.copy()
    sources: dict[Item, tuple[str, Item]] = {}
    for item in sorted({i for (i, _s) in problem.demand}, key=repr):
        vs = _item_source(item)
        aux.add_node(vs)
        sources[item] = vs
        holders = holders_of(problem, placement, item)
        if not holders:
            raise InfeasibleError(f"no node holds item {item!r}")
        for holder in sorted(holders, key=repr):
            aux.add_edge(vs, holder, **{COST: 0.0, CAPACITY: math.inf})
    return aux, sources


def _strip_virtual(path: tuple[Node, ...]) -> tuple[Node, ...]:
    if path and isinstance(path[0], tuple) and path[0][0] == "__item_source__":
        return path[1:]
    return path


@dataclass
class FractionalRoutingResult:
    routing: Routing
    #: Optimal MMSFP objective — a lower bound on any integral routing cost
    #: under the same placement.
    cost: float


def mmsfp_routing(
    problem: ProblemInstance, placement: Placement
) -> FractionalRoutingResult:
    """Optimal fractional routing (MMSFP) under the given placement."""
    aux, sources = build_item_auxiliary_graph(problem, placement)
    commodities = []
    for item, vs in sources.items():
        demands: dict[Node, float] = {}
        for (i, s), rate in problem.demand.items():
            if i == item:
                demands[s] = demands.get(s, 0.0) + rate
        commodities.append(Commodity(name=item, source=vs, demands=demands))
    flows, cost = min_cost_multicommodity_flow(aux, commodities)
    routing = Routing()
    for commodity in commodities:
        per_sink = decompose_single_source_flow(
            flows[commodity.name], commodity.source, commodity.demands
        )
        for (i, s), rate in problem.demand.items():
            if i != commodity.name:
                continue
            routing.paths[(i, s)] = [
                PathFlow(path=_strip_virtual(pf.path), amount=pf.amount / rate)
                for pf in per_sink[s]
            ]
    return FractionalRoutingResult(routing=routing, cost=cost)


def randomized_rounding_routing(
    problem: ProblemInstance,
    placement: Placement,
    *,
    rng: np.random.Generator | None = None,
    n_samples: int = 16,
) -> Routing:
    """MMUFP heuristic: LP relaxation + randomized path rounding.

    Draw each request's single path proportionally to its fractional flow,
    ``n_samples`` times; keep the draw with the best (congestion clamped at
    feasibility, then cost) score — the standard rounding of [26].

    The draws are those of ``Generator.choice`` over each request's path
    fractions: every sample takes one uniform double per request, in
    ``problem.requests`` order, so ``rng`` is left where that many draws
    leave it.  A draw's score uses the arithmetic of
    :func:`~repro.core.evaluation.routing_cost` and
    :func:`~repro.core.evaluation.congestion` (terms added in
    ``problem.demand`` order), and the first best draw wins; only that draw
    becomes a :class:`Routing`.

    Raises
    ------
    ValueError
        If ``n_samples < 1``, or a request's fractions are not a probability
        vector (NaN, negative, or not summing to 1).
    InfeasibleError
        If a request carries no fractional flow.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = rng or np.random.default_rng()
    fractional = mmsfp_routing(problem, placement)
    requests = problem.requests
    options = [fractional.routing.paths[request] for request in requests]
    cdf, first_path = _path_cdfs(requests, options)
    # uniforms[s, r] is request r's double in sample s; the path drawn is the
    # number of CDF entries at or below it (``searchsorted(side="right")``).
    uniforms = rng.random((n_samples, len(requests)))
    drawn = first_path + (cdf <= uniforms[:, :, None]).sum(axis=2)
    paths = [pf.path for pfs in options for pf in pfs]
    congestions, costs = _score_draws(problem, requests, paths, drawn)

    best, best_score = 0, None
    for sample in range(n_samples):
        score = (max(1.0, float(congestions[sample])), float(costs[sample]))
        if best_score is None or score < best_score:
            best, best_score = sample, score
    routing = Routing()
    for request, index in zip(requests, drawn[best].tolist()):
        routing.paths[request] = [PathFlow(path=paths[index], amount=1.0)]
    logger.debug(
        "randomized rounding: %d requests x %d samples; best draw congestion=%.6g"
        " cost=%.10g; MMSFP LP cost (lower bound)=%.10g",
        len(requests), n_samples, congestions[best], costs[best], fractional.cost,
    )
    return routing


def _path_cdfs(
    requests: list[Request], options: list[list[PathFlow]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each request's path CDF as ``Generator.choice`` builds it, one row each.

    Row ``r`` is ``cdf = p.cumsum(); cdf /= cdf[-1]`` for ``p`` the request's
    fractional amounts over their ``sum()``, padded with 1.0s that no
    uniform double reaches.  Also returns the index of each request's first
    path in the requests' paths laid end to end.
    """
    counts = np.array([len(pfs) for pfs in options], dtype=np.intp)
    first = np.cumsum(counts) - counts
    amounts = np.array([pf.amount for pfs in options for pf in pfs], dtype=float)
    # One numpy sum per request: it is pairwise, not a left fold, from 8 terms.
    totals = np.array(
        [amounts[a : a + k].sum() for a, k in zip(first.tolist(), counts.tolist())],
        dtype=float,
    )
    empty = np.flatnonzero(totals <= _EPS)
    if empty.size:
        raise InfeasibleError(f"request {requests[empty[0]]!r} has no fractional flow")
    rows = np.arange(len(requests))
    probs = np.zeros((len(requests), counts.max(initial=1)))
    columns = np.arange(amounts.size) - np.repeat(first, counts)
    probs[np.repeat(rows, counts), columns] = amounts / np.repeat(totals, counts)
    cdf = probs.cumsum(axis=1)
    sums = cdf[rows, counts - 1]
    # The checks ``Generator.choice`` makes on a probability vector.
    nan = np.isnan(sums)
    negative = (probs < 0).any(axis=1)
    bad = np.flatnonzero(nan | negative | (np.abs(sums - 1.0) > _CHOICE_ATOL))
    if bad.size:
        r = bad[0]
        reason = (
            "contain NaN" if nan[r]
            else "are not non-negative" if negative[r]
            else "do not sum to 1"
        )
        raise ValueError(f"path probabilities of request {requests[r]!r} {reason}")
    cdf /= sums[:, None]
    return cdf, first


def _score_draws(
    problem: ProblemInstance,
    requests: list[Request],
    paths: list[tuple[Node, ...]],
    drawn: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(congestion, routing cost)`` of every draw, as arrays over samples.

    ``drawn[s, r]`` indexes ``paths`` with the path ``requests[r]`` takes in
    draw ``s``.  The floats equal :func:`congestion` and :func:`routing_cost`
    of that draw as a :class:`Routing`, because the additions are the same
    and in the same order: the cost adds ``rate * path_cost`` to 0.0 in
    demand order (``np.add.accumulate`` is that left fold), and each link's
    load adds ``rate`` per drawn path crossing it, in demand order
    (``np.bincount`` adds its weights in input order).
    """
    network = problem.network
    n_samples = drawn.shape[0]
    position = {request: r for r, request in enumerate(requests)}
    order = np.array([position[request] for request in problem.demand], dtype=np.intp)
    drawn = drawn[:, order]
    rates = np.array(list(problem.demand.values()), dtype=float)

    path_costs = np.array([path_cost(network, path) for path in paths], dtype=float)
    terms = np.zeros((n_samples, rates.size + 1))
    terms[:, 1:] = rates * path_costs[drawn]
    costs = np.add.accumulate(terms, axis=1)[:, -1]

    # Path j crosses links hop_links[first_hop[j] : first_hop[j] + path_hops[j]].
    link_index: dict[tuple[Node, Node], int] = {}
    hop_links = np.array(
        [
            link_index.setdefault(e, len(link_index))
            for path in paths
            for e in zip(path[:-1], path[1:])
        ],
        dtype=np.intp,
    )
    path_hops = np.array([len(path) - 1 for path in paths], dtype=np.intp)
    first_hop = np.cumsum(path_hops) - path_hops
    # Every drawn hop, ordered by sample, then demand, then along the path;
    # sample s counts its loads in bins [s * n_links, (s + 1) * n_links).
    chosen = drawn.ravel()
    hops = path_hops[chosen]
    hop = np.repeat(first_hop[chosen] - (np.cumsum(hops) - hops), hops)
    hop += np.arange(hops.sum())
    n_links = len(link_index)
    bins = hop_links[hop] + np.repeat(
        np.repeat(np.arange(n_samples) * n_links, rates.size), hops
    )
    loads = np.bincount(
        bins,
        weights=np.repeat(np.tile(rates, n_samples), hops),
        minlength=n_samples * n_links,
    ).reshape(n_samples, n_links)

    capacity = np.array([network.capacity(u, v) for u, v in link_index], dtype=float)
    capped = ~np.isinf(capacity)
    closed = capped & (capacity <= 0)
    open_ = capped & (capacity > 0)
    worst = (loads[:, open_] / capacity[open_]).max(axis=1, initial=0.0)
    return np.where((loads[:, closed] > _EPS).any(axis=1), np.inf, worst), costs


def greedy_unsplittable_routing(
    problem: ProblemInstance,
    placement: Placement,
) -> Routing:
    """MMUFP heuristic: capacity-aware greedy path assignment.

    Requests are processed in decreasing rate order; each is routed on the
    cheapest path whose links all retain enough residual capacity, falling
    back to the cheapest unconstrained path when no such path exists (the
    overload is then visible as congestion > 1, as in the paper's plots).
    """
    aux, sources = build_item_auxiliary_graph(problem, placement)
    residual = {
        (u, v): d.get(CAPACITY, math.inf) for u, v, d in aux.edges(data=True)
    }
    routing = Routing()
    order = sorted(problem.demand.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    for (item, s), rate in order:
        vs = sources[item]
        feasible = nx.DiGraph()
        feasible.add_node(vs)
        feasible.add_node(s)
        for (u, v), res in residual.items():
            if res >= rate - _EPS:
                feasible.add_edge(u, v, **{COST: aux.edges[u, v][COST]})
        dist, pred = single_source_dijkstra(feasible, vs)
        if s in dist:
            path = tuple(reconstruct_path(pred, vs, s))
        else:
            dist, pred = single_source_dijkstra(aux, vs)
            if s not in dist:
                raise InfeasibleError(f"requester {s!r} unreachable for item {item!r}")
            path = tuple(reconstruct_path(pred, vs, s))
        for e in zip(path[:-1], path[1:]):
            residual[e] = residual.get(e, math.inf) - rate
        routing.paths[(item, s)] = [PathFlow(path=_strip_virtual(path), amount=1.0)]
    return routing


def mmufp_routing(
    problem: ProblemInstance,
    placement: Placement,
    *,
    method: str = "randomized",
    rng: np.random.Generator | None = None,
    n_samples: int = 16,
) -> Routing:
    """Integral routing under a fixed placement, by the selected heuristic.

    ``method="best"`` runs both heuristics and keeps the better one under
    the (feasibility-first, then cost) score.
    """
    if method == "randomized":
        return randomized_rounding_routing(
            problem, placement, rng=rng, n_samples=n_samples
        )
    if method == "greedy":
        return greedy_unsplittable_routing(problem, placement)
    if method == "best":
        candidates = [
            randomized_rounding_routing(
                problem, placement, rng=rng, n_samples=n_samples
            ),
            greedy_unsplittable_routing(problem, placement),
        ]
        return min(
            candidates,
            key=lambda r: (
                max(1.0, congestion(problem, r)),
                routing_cost(problem, r),
            ),
        )
    raise ValueError(f"unknown MMUFP method {method!r}")
