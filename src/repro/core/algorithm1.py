"""Algorithm 1: integral caching and source selection under RNR (Section 4.1).

For networks with unlimited link capacities, the optimal routing given a
placement is route-to-nearest-replica, so the problem reduces to placing
content.  Algorithm 1 achieves a (1 - 1/e)-approximation in truly polynomial
time:

1. compute all-pairs least costs ``w_{v->s}`` and the bound ``w_max``;
2. solve the auxiliary LP (7), whose objective is the concave surrogate
   ``L_RNR`` of the cost saving ``F_RNR`` (Lemma 4.2);
3. pipage-round the fractional placement (equations (8)-(9), Lemma 4.3);
4. serve every request from its nearest replica.

Implementation notes: request sources are restricted to *eligible* nodes —
cache-capable nodes and pinned holders that can reach the requester — because
every other node is provably unused by an optimal LP solution; this shrinks
the LP without changing its optimum (only by an additive constant in the
objective, which is reported as ``constant`` for bound checking).

LP (7) itself is assembled either through the keyed :class:`LPBuilder` API
(``assembly="dict"``) or, by default, through the array fast path
(``assembly="array"``): the z/r/x rows are emitted as COO batches over
flattened per-request eligible-source index arrays (taken from the
:class:`~repro.core.context.SolverContext` distance rows when one is
passed).  Both paths materialize bit-identical LPs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.pipage import pipage_round
from repro.core.problem import Item, Node, ProblemInstance
from repro.core.rnr import ShortestPathCache, route_to_nearest_replica
from repro.core.solution import Placement, Solution
from repro.core.submodular import local_search_swap
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.flow.lp import LPBuilder

if TYPE_CHECKING:
    from repro.core.context import SolverContext

logger = logging.getLogger(__name__)


@dataclass
class Algorithm1Result:
    """Output of Algorithm 1 plus the quantities needed for its guarantee."""

    solution: Solution
    #: Optimal value of the auxiliary LP (7) over eligible sources.
    lp_objective: float
    #: Constant ``sum_r lambda_r * n_eligible(r) * w_max``; the LP objective
    #: equals ``constant - C_RNR`` at integral points, so
    #: ``constant - lp_objective`` lower-bounds no cost, and the chain of
    #: Theorem 4.4 gives ``constant - cost >= (1-1/e)(constant - cost_opt)``.
    constant: float
    w_max: float
    fractional_placement: dict[tuple[Node, Item], float]


def _assemble_lp7_dict(problem, cache_nodes, requested_items, x_pairs, request_rows, w_max):
    """Keyed assembly of LP (7) (column order: all x, all r, all z)."""
    lp = LPBuilder(sense="max")
    for (v, i) in x_pairs:
        lp.add_variable(("x", v, i), lb=0.0, ub=1.0)
    for (item, s), _rate, sources, _coefs in request_rows:
        for v in sources:
            lp.add_variable(("r", v, item, s), lb=0.0, ub=1.0)
    for (item, s), rate, sources, _coefs in request_rows:
        for v in sources:
            z_key = lp.add_variable(("z", v, item, s), lb=0.0, ub=1.0)
            lp.add_objective_terms({z_key: rate * w_max})
    for (item, s), _rate, sources, coefs in request_rows:
        for v, coef in zip(sources, coefs):
            r_key = ("r", v, item, s)
            z_key = ("z", v, item, s)
            if (v, item) in problem.pinned:
                # x_vi == 1 permanently: z <= 1 - r + coef.
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0 + coef)
            elif lp.has_variable(("x", v, item)):
                lp.add_le(
                    {z_key: 1.0, r_key: 1.0, ("x", v, item): -coef}, 1.0
                )
            else:
                lp.add_le({z_key: 1.0, r_key: 1.0}, 1.0)
        lp.add_eq({("r", v, item, s): 1.0 for v in sources}, 1.0)
    for v in cache_nodes:
        coeffs = {
            ("x", v, i): 1.0
            for i in requested_items
            if (v, i) not in problem.pinned
        }
        if coeffs:
            lp.add_le(coeffs, problem.network.cache_capacity(v))
    return lp


def _assemble_lp7_array(problem, cache_nodes, x_pairs, request_rows, w_max):
    """Vectorized COO assembly of LP (7) (same row/column order)."""
    x_index = {pair: k for k, pair in enumerate(x_pairs)}
    req_of: list[int] = []
    x_col: list[int] = []
    pinned_mask: list[bool] = []
    coefs: list[float] = []
    rate_of: list[float] = []
    for k, ((item, _s), rate, sources, row_coefs) in enumerate(request_rows):
        for v, coef in zip(sources, row_coefs):
            req_of.append(k)
            is_pinned = (v, item) in problem.pinned
            pinned_mask.append(is_pinned)
            x_col.append(-1 if is_pinned else x_index.get((v, item), -1))
            coefs.append(coef)
            rate_of.append(rate)
    n_elig = len(req_of)
    req_of = np.asarray(req_of, dtype=np.intp)
    x_col = np.asarray(x_col, dtype=np.intp)
    pinned_mask = np.asarray(pinned_mask, dtype=bool)
    coefs = np.asarray(coefs, dtype=np.float64)
    rate_of = np.asarray(rate_of, dtype=np.float64)

    lp = LPBuilder(sense="max")
    xb = lp.add_variable_block("x", (len(x_pairs),), lb=0.0, ub=1.0)
    rb = lp.add_variable_block("r", (n_elig,), lb=0.0, ub=1.0)
    zb = lp.add_variable_block(
        "z", (n_elig,), lb=0.0, ub=1.0, cost=rate_of * w_max
    )
    # Per-entry rows: z + r (- coef * x) <= rhs.
    rows = np.arange(n_elig, dtype=np.intp)
    r_cols = rb.indices()
    z_cols = zb.indices()
    free = np.flatnonzero((~pinned_mask) & (x_col >= 0))
    rhs = np.where(pinned_mask, 1.0 + coefs, 1.0)
    lp.add_le_batch(
        np.concatenate([rows, rows, free]),
        np.concatenate([z_cols, r_cols, xb.flat(x_col[free])]),
        np.concatenate([np.ones(n_elig), np.ones(n_elig), -coefs[free]]),
        rhs,
    )
    # Per-request full service: sum_v r = 1.
    lp.add_eq_batch(
        req_of, r_cols, np.ones(n_elig), np.ones(len(request_rows))
    )
    # Cache capacities (x_pairs is cache-node-major: contiguous slices).
    cap_rows: list[np.ndarray] = []
    cap_cols: list[np.ndarray] = []
    cap_rhs: list[float] = []
    start = 0
    row_no = 0
    for v in cache_nodes:
        end = start
        while end < len(x_pairs) and x_pairs[end][0] == v:
            end += 1
        if end > start:
            cap_rows.append(np.full(end - start, row_no, dtype=np.intp))
            cap_cols.append(xb.flat(np.arange(start, end, dtype=np.intp)))
            cap_rhs.append(problem.network.cache_capacity(v))
            row_no += 1
        start = end
    if cap_rhs:
        cols = np.concatenate(cap_cols)
        lp.add_le_batch(
            np.concatenate(cap_rows),
            cols,
            np.ones(cols.size),
            np.asarray(cap_rhs),
        )
    return lp


def assemble_lp7(
    problem: ProblemInstance,
    *,
    assembly: str = "array",
    context: "SolverContext | None" = None,
) -> LPBuilder:
    """Assemble (without solving) LP (7) — benchmarking/testing hook."""
    prep = _prepare(problem, context)
    _dist, _sp, cache_nodes, requested, w_max, x_pairs, request_rows, _c = prep
    if assembly == "dict":
        return _assemble_lp7_dict(
            problem, cache_nodes, requested, x_pairs, request_rows, w_max
        )
    return _assemble_lp7_array(problem, cache_nodes, x_pairs, request_rows, w_max)


def _prepare(problem: ProblemInstance, context: "SolverContext | None"):
    """Distances, w_max, optimizable x pairs, and per-request source rows."""
    if context is not None:
        distance = context.distance
        sp = None
    else:
        sp = ShortestPathCache(problem)
        distance = sp.distance
    cache_nodes = [
        v for v in problem.network.cache_nodes() if problem.network.cache_capacity(v) > 0
    ]
    requested_items = sorted({i for (i, _s) in problem.demand}, key=repr)

    # w_max: upper bound over pairwise least costs (computed from candidate
    # sources, which are the only nodes whose costs enter the objective).
    candidate_sources = set(cache_nodes)
    for item in requested_items:
        candidate_sources |= problem.pinned_holders(item)
    if context is not None:
        w_max = context.finite_max_from(candidate_sources) if candidate_sources else 1.0
    else:
        w_max = 1.0
        for v in candidate_sources:
            dist, _ = sp.from_node(v)
            if dist:
                w_max = max(w_max, max(dist.values()))

    x_pairs = [
        (v, i)
        for v in cache_nodes
        for i in requested_items
        if (v, i) not in problem.pinned
    ]
    #: One row per request: ((item, s), rate, eligible sources, coefs).
    request_rows = []
    constant = 0.0
    for (item, s), rate in problem.demand.items():
        sources = []
        for v in set(cache_nodes) | problem.pinned_holders(item):
            if distance(v, s) < float("inf"):
                sources.append(v)
        if not sources:
            raise InfeasibleError(f"request {(item, s)!r} has no eligible source")
        sources.sort(key=repr)
        constant += rate * len(sources) * w_max
        coefs = [(w_max - distance(v, s)) / w_max for v in sources]
        request_rows.append(((item, s), rate, sources, coefs))
    return (
        distance, sp, cache_nodes, requested_items, w_max, x_pairs, request_rows,
        constant,
    )


def algorithm1(
    problem: ProblemInstance,
    *,
    polish: bool = True,
    context: "SolverContext | None" = None,
    assembly: str = "array",
) -> Algorithm1Result:
    """Run Algorithm 1 on an instance with (assumed) unlimited link capacities.

    Link capacities are ignored by design — the paper's premise is the
    lightly-loaded regime.  Raises :class:`InfeasibleError` when some request
    has no eligible source at all (no pinned holder or cache node reaches it).

    ``polish=True`` follows pipage rounding with a 1-swap local search on the
    true objective (:func:`~repro.core.submodular.local_search_swap`).  The
    LP (7) has many degenerate optima whose rounded solutions lack cross-node
    coordination; the polish recovers it while only ever increasing F_RNR,
    so Theorem 4.4's (1 - 1/e) guarantee is preserved.

    Pass a :class:`~repro.core.context.SolverContext` to take every pairwise
    cost from the context's distance rows (shared with the polish and the RNR
    routing step) instead of running memoized Dijkstras on demand.
    ``assembly`` selects how LP (7) is built: ``"array"`` (COO batches, the
    fast default) or ``"dict"`` (keyed rows); both produce bit-identical LPs.
    """
    if assembly not in ("array", "dict"):
        raise InvalidProblemError("assembly must be 'array' or 'dict'")
    prep = _prepare(problem, context)
    (
        distance, sp, cache_nodes, requested_items, w_max, x_pairs, request_rows,
        constant,
    ) = prep

    if assembly == "dict":
        lp = _assemble_lp7_dict(
            problem, cache_nodes, requested_items, x_pairs, request_rows, w_max
        )
    else:
        lp = _assemble_lp7_array(problem, cache_nodes, x_pairs, request_rows, w_max)

    logger.debug(
        "Algorithm 1 LP: %d variables, %d constraints", lp.num_variables,
        lp.num_constraints,
    )
    lp_solution = lp.solve()

    if assembly == "dict":
        x_values = [lp_solution[("x", v, i)] for (v, i) in x_pairs]
    else:
        x_values = lp_solution.block("x").tolist()
    return finish_from_lp(
        problem,
        distance=distance,
        sp=sp,
        cache_nodes=cache_nodes,
        w_max=w_max,
        x_pairs=x_pairs,
        request_rows=request_rows,
        constant=constant,
        lp_objective=lp_solution.objective,
        x_values=x_values,
        polish=polish,
        context=context,
    )


def finish_from_lp(
    problem: ProblemInstance,
    *,
    distance,
    sp: ShortestPathCache | None,
    cache_nodes: list[Node],
    w_max: float,
    x_pairs: list[tuple[Node, Item]],
    request_rows: list,
    constant: float,
    lp_objective: float,
    x_values: list[float],
    polish: bool = True,
    context: "SolverContext | None" = None,
) -> Algorithm1Result:
    """Post-LP stage of Algorithm 1: concentrate r, pipage-round, route.

    Shared between :func:`algorithm1` (fresh assembly) and the template
    re-solver of :mod:`repro.adaptive.periodic` (patched objective): given
    the optimal fractional ``x`` of LP (7), rebuild the source selection,
    the pipage weights, the rounded (optionally polished) placement, and
    the RNR routing — all against ``problem``'s *current* demand rates.
    """
    fractional = {
        pair: value
        for pair, value in zip(x_pairs, x_values)
        if value > 1e-9
    }
    eligible: dict[tuple[Item, Node], list[Node]] = {
        key: sources for key, _rate, sources, _coefs in request_rows
    }

    # Re-optimize the source selection for the fractional placement before
    # deriving pipage weights: the LP has many degenerate optima that spread
    # r thinly across near-equivalent sources, which would wash out the
    # popularity signal the rounding needs.  For fixed x, F_RNR is maximized
    # by concentrating each request on the source minimizing its expected
    # cost x*w + (1-x)*w_max, so this substitution can only increase
    # F_RNR(x~, r) and keeps the Theorem 4.4 chain intact.
    r_hat: dict[tuple[Item, Node], Node] = {}
    for (item, s) in problem.demand:
        best_v, best_cost = None, float("inf")
        for v in eligible[(item, s)]:
            if (v, item) in problem.pinned:
                x_value = 1.0
            else:
                x_value = fractional.get((v, item), 0.0)
            w = distance(v, s)
            expected = x_value * w + (1.0 - x_value) * w_max
            if expected < best_cost:
                best_v, best_cost = v, expected
        r_hat[(item, s)] = best_v

    # Pipage weights (equation (23)): A_vi = sum_s lambda r (w_max - w_{v->s}).
    weights: dict[tuple[Node, Item], float] = {}
    for (item, s), rate in problem.demand.items():
        v = r_hat[(item, s)]
        key = (v, item)
        weights[key] = weights.get(key, 0.0) + rate * (w_max - distance(v, s))

    capacities = {v: problem.network.cache_capacity(v) for v in cache_nodes}
    rounded = pipage_round(
        fractional, capacities, lambda v, i, _x: weights.get((v, i), 0.0)
    )
    placement = Placement(rounded)
    if polish:
        placement = local_search_swap(
            problem,
            placement,
            sp_cache=sp,
            max_sweeps=12,
            context=context,
        )
    routing = route_to_nearest_replica(
        problem,
        placement,
        sp_cache=sp,
        context=context,
    )
    return Algorithm1Result(
        solution=Solution(placement, routing),
        lp_objective=lp_objective,
        constant=constant,
        w_max=w_max,
        fractional_placement=fractional,
    )
