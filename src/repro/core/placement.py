"""Content placement under fixed routing (Section 4.3.1 and Section 5.2.3).

Given a (possibly fractional) routing — a set of serving paths with rates per
request — the cost of a placement ``x`` is equation (13): the response to a
request travels only the path suffix below the nearest on-path replica.  The
cost *saving* ``F_{r,f}(x)`` (14) is monotone submodular (Lemma 5.3), and:

- homogeneous (unit) item sizes: maximize the concave surrogate ``L_{r,f}``
  (15) by LP (:func:`fractional_placement_lp`), then pipage-round — a
  (1 - 1/e)-approximation;
- heterogeneous sizes: lazy greedy under the p-independence (knapsack)
  constraint — a 1/(1+p)-approximation (Theorem 5.2).

Path-position convention: a serving path ``p = (p[0], ..., p[L-1])`` runs
from the serving source ``p[0]`` to the requester ``p[L-1]``.  A replica at
position ``m >= 1`` truncates the response to the suffix starting at ``m``;
the head ``p[0]`` is the fallback server and its placement does not enter
the objective (matching the product indices of (13)).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.core.pipage import pipage_round
from repro.core.problem import Item, ProblemInstance
from repro.core.solution import Placement, Routing
from repro.flow.lp import LPBuilder

Node = Hashable

_EPS = 1e-9


@dataclass
class ServingPath:
    """One serving path with its absolute request rate ``lambda_p``."""

    item: Item
    path: tuple[Node, ...]
    rate: float
    #: suffix_cost[m] = cost of links from position m to the requester.
    suffix_cost: tuple[float, ...]


def extract_serving_paths(
    problem: ProblemInstance, routing: Routing
) -> list[ServingPath]:
    """Turn a routing into rated serving paths (rate = lambda * fraction)."""
    link_cost = problem.network.cost
    out: list[ServingPath] = []
    for (item, s), rate in problem.demand.items():
        for pf in routing.paths.get((item, s), []):
            if pf.amount <= _EPS or len(pf.path) < 2:
                continue
            length = len(pf.path)
            suffix = [0.0] * length
            for m in range(length - 2, -1, -1):
                suffix[m] = suffix[m + 1] + link_cost(pf.path[m], pf.path[m + 1])
            out.append(
                ServingPath(
                    item=item,
                    path=pf.path,
                    rate=rate * pf.amount,
                    suffix_cost=tuple(suffix),
                )
            )
    return out


def _effective(problem: ProblemInstance, x, node: Node, item: Item) -> float:
    """Placement value including pinned copies."""
    if (node, item) in problem.pinned:
        return 1.0
    return x.get((node, item), 0.0) if not isinstance(x, Placement) else x[(node, item)]


def placement_cost(
    problem: ProblemInstance,
    paths: list[ServingPath],
    placement: Placement,
) -> float:
    """Equation (13): routing cost of the fixed paths under ``placement``.

    For a fractional placement this is the multilinear extension (each
    ``x`` enters the products of (13) directly).
    """
    total = 0.0
    for sp in paths:
        length = len(sp.path)
        survive = 1.0  # product of (1 - x) over nodes below the current link
        cost = 0.0
        # Walk from the requester upward: k = 1 .. L-1.
        for k in range(1, length):
            node = sp.path[length - k]  # p_{|p|-k+1} ... the node below the link
            survive *= 1.0 - _effective(problem, placement, node, sp.item)
            link_cost = sp.suffix_cost[length - 1 - k] - sp.suffix_cost[length - k]
            cost += link_cost * survive
        total += sp.rate * cost
    return total


def placement_saving(
    problem: ProblemInstance,
    paths: list[ServingPath],
    placement: Placement,
) -> float:
    """Equation (14): F_{r,f}(x) = C_{r,f}(0) - C_{r,f}(x)."""
    empty = Placement()
    return placement_cost(problem, paths, empty) - placement_cost(
        problem, paths, placement
    )


# ----------------------------------------------------------------------
# LP + pipage (homogeneous sizes)
# ----------------------------------------------------------------------


def cache_capacity_rows(
    problem: ProblemInstance, x_pairs: list[tuple[Node, Item]], weights
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """COO rows ``sum_i weight_vi * x_vi <= c_v`` over an ``x`` block.

    One row per cache node, in first-appearance order of the node-major
    ``x_pairs``; ``cols`` index ``x_pairs`` (block-local, map them with
    :meth:`~repro.flow.lp.VariableBlock.flat`) and ``weights`` is parallel
    to ``x_pairs``.  Returns ``(rows, cols, data, rhs)``.
    """
    row_of: dict[Node, int] = {}
    for v, _i in x_pairs:
        row_of.setdefault(v, len(row_of))
    rows = np.fromiter(
        (row_of[v] for v, _i in x_pairs), dtype=np.intp, count=len(x_pairs)
    )
    rhs = np.asarray(
        [problem.network.cache_capacity(v) for v in row_of], dtype=np.float64
    )
    cols = np.arange(len(x_pairs), dtype=np.intp)
    return rows, cols, np.asarray(weights, dtype=np.float64), rhs


def fractional_placement_lp(
    problem: ProblemInstance, paths: list[ServingPath]
) -> tuple[dict[tuple[Node, Item], float], dict[Node, float]]:
    """Maximize the concave surrogate ``L_{r,f}`` (15) over fixed ``paths``.

    Columns are an ``x`` block over the optimizable (cache node, requested
    item) pairs, cache-node-major, then a ``y`` block with one column per
    positive-cost link of each path's window, in path order; a window that
    holds a pinned copy gets no ``y`` (it is 1 at no cost).  Rows are
    ``y - sum(window x) <= 0`` in ``y`` order, then the capacity rows, which
    weigh each item by :meth:`~repro.core.problem.ProblemInstance.size_of`.
    Returns the fractional placement (entries above ``1e-9``) and the
    capacity of every positive-capacity cache node; the caller picks the
    rounding.
    """
    cache_nodes = [
        v for v in problem.network.cache_nodes() if problem.network.cache_capacity(v) > 0
    ]
    capacities = {v: problem.network.cache_capacity(v) for v in cache_nodes}
    requested_items = sorted({sp.item for sp in paths}, key=repr)
    x_pairs = [
        (v, i) for v in cache_nodes for i in requested_items if (v, i) not in problem.pinned
    ]
    x_index = {pair: k for k, pair in enumerate(x_pairs)}

    y_cost: list[float] = []
    # Window entries of the y rows: (y row, x column), one per window node.
    win_rows: list[int] = []
    win_cols: list[int] = []
    for sp in paths:
        length = len(sp.path)
        window: list[int] = []
        for k in range(1, length):
            node = sp.path[length - k]  # newest node entering the window
            if (node, sp.item) in problem.pinned:
                break  # this and every wider window is served at no cost
            col = x_index.get((node, sp.item))
            if col is not None:
                window.append(col)
            link_cost = sp.suffix_cost[length - 1 - k] - sp.suffix_cost[length - k]
            if link_cost <= _EPS:
                continue
            win_rows.extend([len(y_cost)] * len(window))
            win_cols.extend(window)
            y_cost.append(sp.rate * link_cost)

    lp = LPBuilder(sense="max")
    xb = lp.add_variable_block("x", len(x_pairs), lb=0.0, ub=1.0)
    yb = lp.add_variable_block("y", len(y_cost), lb=0.0, ub=1.0, cost=y_cost)
    lp.add_le_batch(
        np.concatenate([np.arange(yb.size), np.asarray(win_rows, dtype=np.intp)]),
        np.concatenate([yb.indices(), xb.flat(np.asarray(win_cols, dtype=np.intp))]),
        np.concatenate([np.ones(yb.size), -np.ones(len(win_rows))]),
        np.zeros(yb.size),
    )
    rows, cols, data, rhs = cache_capacity_rows(
        problem, x_pairs, [problem.size_of(i) for _v, i in x_pairs]
    )
    lp.add_le_batch(rows, xb.flat(cols), data, rhs)

    if lp.num_variables == 0:
        return {}, capacities
    x_values = lp.solve().block("x").tolist()
    fractional = {
        pair: value for pair, value in zip(x_pairs, x_values) if value > 1e-9
    }
    return fractional, capacities


def optimize_placement_lp(
    problem: ProblemInstance,
    routing: Routing,
) -> Placement:
    """(1-1/e)-approximate placement via the LP surrogate (15) + pipage."""
    paths = extract_serving_paths(problem, routing)
    fractional, capacities = fractional_placement_lp(problem, paths)

    # Index paths by (node, item) for derivative evaluation during rounding.
    by_node_item: dict[tuple[Node, Item], list[tuple[ServingPath, int]]] = {}
    for sp in paths:
        for m, node in enumerate(sp.path):
            if m == 0:
                continue
            by_node_item.setdefault((node, sp.item), []).append((sp, m))

    def weight(v: Node, i: Item, x) -> float:
        """dF/dx_vi at the current (partially rounded) placement."""
        total = 0.0
        for sp, m in by_node_item.get((v, i), []):
            length = len(sp.path)
            # Links strictly above position m: k >= length - m.
            survive = 1.0
            for mm in range(m + 1, length):
                other = sp.path[mm]
                if (other, i) in problem.pinned:
                    survive = 0.0
                    break
                survive *= 1.0 - x.get((other, i), 0.0)
            if survive <= _EPS:
                continue
            contribution = 0.0
            prod_above = 1.0  # product over window nodes above m (positions < m, >=1)
            for k in range(length - m, length):
                node_below = sp.path[length - k]
                if node_below != v:
                    if (node_below, i) in problem.pinned:
                        prod_above = 0.0
                    else:
                        prod_above *= 1.0 - x.get((node_below, i), 0.0)
                if prod_above <= _EPS:
                    break
                link_cost = sp.suffix_cost[length - 1 - k] - sp.suffix_cost[length - k]
                contribution += link_cost * survive * prod_above
            total += sp.rate * contribution
        return total

    rounded = pipage_round(fractional, capacities, weight)
    return Placement(rounded)


# ----------------------------------------------------------------------
# Greedy (heterogeneous sizes)
# ----------------------------------------------------------------------


def optimize_placement_greedy(
    problem: ProblemInstance,
    routing: Routing,
) -> Placement:
    """1/(1+p)-approximate placement by lazy greedy (Theorem 5.2, Lemma 5.3)."""
    paths = extract_serving_paths(problem, routing)
    cache_nodes = [
        v for v in problem.network.cache_nodes() if problem.network.cache_capacity(v) > 0
    ]
    cache_set = set(cache_nodes)

    # State: nearest replica position per path (0 = only the head serves).
    nearest: list[int] = []
    for sp in paths:
        pos = 0
        for m in range(1, len(sp.path)):
            if (sp.path[m], sp.item) in problem.pinned:
                pos = m
        nearest.append(pos)

    by_node_item: dict[tuple[Node, Item], list[tuple[int, int]]] = {}
    for idx, sp in enumerate(paths):
        for m in range(1, len(sp.path)):
            node = sp.path[m]
            if node in cache_set and (node, sp.item) not in problem.pinned:
                by_node_item.setdefault((node, sp.item), []).append((idx, m))

    def marginal(v: Node, i: Item) -> float:
        gain = 0.0
        for idx, m in by_node_item.get((v, i), []):
            if m > nearest[idx]:
                sp = paths[idx]
                gain += sp.rate * (sp.suffix_cost[nearest[idx]] - sp.suffix_cost[m])
        return gain

    remaining = {v: problem.network.cache_capacity(v) for v in cache_nodes}
    counter = itertools.count()
    heap: list[tuple[float, int, Node, Item]] = []
    for (v, i) in by_node_item:
        gain = marginal(v, i)
        if gain > 0:
            heapq.heappush(heap, (-gain, next(counter), v, i))
    placement = Placement()
    chosen: set[tuple[Node, Item]] = set()
    while heap:
        neg_gain, _, v, i = heapq.heappop(heap)
        if (v, i) in chosen:
            continue
        if problem.size_of(i) > remaining[v] + 1e-12:
            continue
        gain = marginal(v, i)
        if gain <= 0:
            continue
        if gain < -neg_gain - 1e-12:
            heapq.heappush(heap, (-gain, next(counter), v, i))
            continue
        chosen.add((v, i))
        placement[(v, i)] = 1.0
        remaining[v] -= problem.size_of(i)
        for idx, m in by_node_item.get((v, i), []):
            if m > nearest[idx]:
                nearest[idx] = m
    return placement


def optimize_placement(
    problem: ProblemInstance,
    routing: Routing,
) -> Placement:
    """Dispatch: pipage LP for homogeneous catalogs, greedy otherwise."""
    if problem.is_homogeneous():
        return optimize_placement_lp(problem, routing)
    return optimize_placement_greedy(problem, routing)
