"""The FemtoCaching special case (Section 4.1.4).

When a subset ``U`` of nodes are pure requesters and a subset ``H`` pure
caches (helpers), and links are uncapacitated, the network collapses to a
bipartite graph whose logical links carry the least-cost helper->user costs
— the FemtoCaching problem of Shanmugam et al. [32].  Algorithm 1 then
matches [32]'s (1 - 1/e) guarantee while supporting *arbitrary* helper->user
costs, which is exactly the paper's point.

This module provides the reduction both ways:

- :func:`bipartite_network` builds the logical bipartite CacheNetwork from
  explicit helper->user costs (the classic FemtoCaching input);
- :func:`femtocaching_instance` extracts the bipartite abstraction of a
  general uncapacitated instance, so one can verify that solving either
  representation gives the same cost (tested in
  ``tests/core/test_femtocaching.py``).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

import networkx as nx

from repro.core.context import SolverContext
from repro.core.problem import Item, ProblemInstance, pin_full_catalog
from repro.exceptions import InvalidProblemError
from repro.graph.network import CAPACITY, COST, CacheNetwork

Node = Hashable


def bipartite_network(
    helpers: Sequence[Node],
    users: Sequence[Node],
    costs: Mapping[tuple[Node, Node], float],
    *,
    helper_capacity: float,
) -> CacheNetwork:
    """Build the bipartite helper/user network with logical link costs.

    ``costs[(h, u)]`` is the delivery cost from helper ``h`` to user ``u``;
    missing pairs mean the helper cannot serve that user.  Helpers get the
    given cache capacity, users none.
    """
    if set(helpers) & set(users):
        raise InvalidProblemError("helpers and users must be disjoint")
    graph = nx.DiGraph()
    graph.add_nodes_from(helpers)
    graph.add_nodes_from(users)
    for (h, u), cost in costs.items():
        if h not in set(helpers) or u not in set(users):
            raise InvalidProblemError(f"cost pair {(h, u)!r} not helper->user")
        graph.add_edge(h, u, **{COST: float(cost), CAPACITY: float("inf")})
    network = CacheNetwork(graph, {h: helper_capacity for h in helpers})
    return network


def femtocaching_instance(
    problem: ProblemInstance,
    *,
    origin: Node | None = None,
) -> ProblemInstance:
    """Collapse an uncapacitated instance to its bipartite abstraction.

    Helpers are the cache-capable nodes plus the origin (the pinned holder);
    users are the requesters.  Logical link costs are the least-cost path
    costs of the original network, so RNR costs — and therefore the optimal
    joint solution — are preserved (Section 4.1.4).
    """
    context = SolverContext.from_problem(problem, backend="lazy")
    helpers = sorted(
        (v for v in problem.network.cache_nodes()), key=repr
    )
    pinned_holders = sorted({v for (v, _i) in problem.pinned}, key=repr)
    users = sorted({s for (_i, s) in problem.demand}, key=repr)

    graph = nx.DiGraph()
    label = {}
    for h in helpers + pinned_holders:
        label[h] = ("helper", h)
        graph.add_node(label[h])
    for u in users:
        label_u = ("user", u)
        graph.add_node(label_u)
        for h in set(helpers) | set(pinned_holders):
            d = context.distance(h, u)
            if d < float("inf"):
                graph.add_edge(
                    label[h], label_u, **{COST: d, CAPACITY: float("inf")}
                )
    network = CacheNetwork(
        graph,
        {("helper", h): problem.network.cache_capacity(h) for h in helpers},
    )
    demand = {
        (item, ("user", s)): rate for (item, s), rate in problem.demand.items()
    }
    pinned = frozenset(
        (("helper", v), item) for (v, item) in problem.pinned
    )
    return ProblemInstance(
        network=network,
        catalog=problem.catalog,
        demand=demand,
        item_sizes=None if problem.item_sizes is None else dict(problem.item_sizes),
        pinned=pinned,
    )


def femtocaching_problem(
    helpers: Sequence[Node],
    users: Sequence[Node],
    costs: Mapping[tuple[Node, Node], float],
    demand: Mapping[tuple[Item, Node], float],
    catalog: Sequence[Item],
    *,
    helper_capacity: float,
    origin: Node,
) -> ProblemInstance:
    """The classic FemtoCaching input as a ProblemInstance.

    ``origin`` must be one of the helpers; it permanently stores the whole
    catalog (the macro base station of [32]).
    """
    if origin not in set(helpers):
        raise InvalidProblemError("origin must be one of the helpers")
    network = bipartite_network(
        helpers, users, costs, helper_capacity=helper_capacity
    )
    network.set_cache_capacity(origin, 0.0)
    return ProblemInstance(
        network=network,
        catalog=tuple(catalog),
        demand=dict(demand),
        pinned=pin_full_catalog(catalog, [origin]),
    )
