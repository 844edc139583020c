"""Exact LP solution of the FC-FR case (fractional caching + fractional routing).

With both constraint families (1g)-(1h) relaxed to ``[0, 1]``, optimization
(1) is a plain linear program (Section 3) and its optimum lower-bounds every
other regime (IC-FR and IC-IR).  The solver below builds (1a)-(1f) directly:

- ``x_{vi}`` for cache-capable nodes (pinned copies are constants 1),
- ``r_v^{(i,s)}`` for eligible sources (cache nodes and pinned holders),
- ``f_{uv}^{(i,s)}`` per request and link,

and decomposes the optimal per-request flows into serving paths so the
result is a regular (fractional) :class:`~repro.core.solution.Solution`.

The LP registers ``x``/``r``/``f`` as contiguous
:class:`~repro.flow.lp.VariableBlock` columns and emits the constraint
families (1b)-(1f) as COO batches built from the graph's cached node-arc
incidence arrays (:func:`~repro.flow.mincost.arc_incidence`).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.core.problem import ProblemInstance
from repro.core.solution import Placement, Routing, Solution
from repro.exceptions import InfeasibleError, InvalidProblemError
from repro.flow.decomposition import PathFlow, decompose_single_source_flow
from repro.flow.lp import LPBuilder
from repro.flow.mincost import arc_incidence

Node = Hashable

_EPS = 1e-9

#: Virtual node used when decomposing a request's multi-source flow.
_VIRTUAL = ("__fcfr_source__",)


@dataclass
class FCFRResult:
    """Optimal fractional solution and its (lower-bound) routing cost."""

    solution: Solution
    cost: float


@dataclass(frozen=True)
class _FCFRRowMeta:
    """Where the capacity rows landed in the materialized ``b_ub`` vector.

    The array assembly appends its ``<=`` batches in a fixed order — (1b)
    finite link capacities, (1e) ``r <= x``, (1f) cache capacities — so the
    rhs rows that a capacity sweep patches are two contiguous ranges.
    """

    #: Edges with finite capacity, in (1b) row order; rows start at 0.
    link_edges: tuple[tuple[Node, Node], ...]
    #: First global ``b_ub`` row of the (1f) family.
    cache_row_start: int
    #: Cache nodes with a (1f) row, in row order.
    cache_nodes: tuple[Node, ...]


def _eligible_sources(problem: ProblemInstance, cache_nodes, requests) -> dict:
    eligible: dict = {}
    for (item, s) in requests:
        sources = sorted(set(cache_nodes) | problem.pinned_holders(item), key=repr)
        if not sources:
            raise InfeasibleError(f"request {(item, s)!r} has no possible source")
        eligible[(item, s)] = sources
    return eligible


def _assemble_array(
    problem: ProblemInstance,
    cache_nodes,
    requests,
    edges,
    eligible,
    x_pairs,
):
    """Vectorized COO assembly of (1a)-(1f); ``edges`` in graph edge order."""
    network = problem.network
    inc = arc_incidence(network.graph)
    node_index = inc.node_index
    tail_idx, head_idx = inc.tail_idx, inc.head_idx
    n_nodes = len(inc.nodes)
    n_edges = len(edges)
    n_req = len(requests)

    edge_costs = np.fromiter(
        (network.cost(u, v) for u, v in edges), dtype=np.float64, count=n_edges
    )
    caps = np.fromiter(
        (network.capacity(u, v) for u, v in edges), dtype=np.float64, count=n_edges
    )
    rates = np.fromiter(
        (problem.demand[r] for r in requests), dtype=np.float64, count=n_req
    )
    s_idx = np.fromiter(
        (node_index[s] for (_i, s) in requests), dtype=np.intp, count=n_req
    )

    # Flatten the per-request eligible-source lists (request-major order).
    x_index = {pair: k for k, pair in enumerate(x_pairs)}
    req_of: list[int] = []
    src_idx: list[int] = []
    x_col: list[int] = []
    elig_offsets = [0]
    for k, (item, s) in enumerate(requests):
        for v in eligible[(item, s)]:
            req_of.append(k)
            src_idx.append(node_index[v])
            x_col.append(-1 if (v, item) in problem.pinned else x_index[(v, item)])
        elig_offsets.append(len(req_of))
    req_of = np.asarray(req_of, dtype=np.intp)
    src_idx = np.asarray(src_idx, dtype=np.intp)
    x_col = np.asarray(x_col, dtype=np.intp)
    n_elig = req_of.size

    lp = LPBuilder(sense="min")
    xb = lp.add_variable_block("x", (len(x_pairs),), lb=0.0, ub=1.0)
    rb = lp.add_variable_block("r", (n_elig,), lb=0.0, ub=1.0)
    fb = lp.add_variable_block(
        "f", (n_req, n_edges), lb=0.0, ub=1.0, cost=np.outer(rates, edge_costs)
    )

    # (1b) link capacities: one row per finitely-capacitated edge.
    finite = np.flatnonzero(np.isfinite(caps))
    if finite.size:
        e_rep = np.repeat(finite, n_req)
        r_rep = np.tile(np.arange(n_req, dtype=np.intp), finite.size)
        lp.add_le_batch(
            np.repeat(np.arange(finite.size, dtype=np.intp), n_req),
            fb.flat(r_rep, e_rep),
            np.tile(rates, finite.size),
            caps[finite],
        )
    # (1c) flow conservation + (1d) full service, interleaved per request:
    # for each request, one row per node followed by the sum-r row.
    rows_per_req = n_nodes + 1
    r_rep = np.repeat(np.arange(n_req, dtype=np.intp), n_edges)
    e_rep = np.tile(np.arange(n_edges, dtype=np.intp), n_req)
    col_f = fb.flat(r_rep, e_rep)
    row_out = r_rep * rows_per_req + tail_idx[e_rep]
    row_in = r_rep * rows_per_req + head_idx[e_rep]
    r_cols = rb.indices()
    row_r = req_of * rows_per_req + src_idx
    row_sum = req_of * rows_per_req + n_nodes
    rhs = np.zeros(n_req * rows_per_req)
    rhs[np.arange(n_req, dtype=np.intp) * rows_per_req + s_idx] = -1.0
    rhs[np.arange(n_req, dtype=np.intp) * rows_per_req + n_nodes] = 1.0
    lp.add_eq_batch(
        np.concatenate([row_out, row_in, row_r, row_sum]),
        np.concatenate([col_f, col_f, r_cols, r_cols]),
        np.concatenate(
            [
                np.ones(col_f.size),
                -np.ones(col_f.size),
                -np.ones(n_elig),
                np.ones(n_elig),
            ]
        ),
        rhs,
    )
    # (1e) r <= x for optimizable (source, item) pairs.
    free = np.flatnonzero(x_col >= 0)
    if free.size:
        rows = np.arange(free.size, dtype=np.intp)
        lp.add_le_batch(
            np.concatenate([rows, rows]),
            np.concatenate([r_cols[free], xb.flat(x_col[free])]),
            np.concatenate([np.ones(free.size), -np.ones(free.size)]),
            np.zeros(free.size),
        )
    # (1f) cache capacities (x_pairs is cache-node-major, so slices are
    # contiguous per node).
    sizes = np.fromiter(
        (problem.size_of(i) for _v, i in x_pairs), dtype=np.float64, count=len(x_pairs)
    )
    cap_rows: list[np.ndarray] = []
    cap_cols: list[np.ndarray] = []
    cap_data: list[np.ndarray] = []
    cap_rhs: list[float] = []
    cap_row_nodes: list[Node] = []
    start = 0
    row_no = 0
    for v in cache_nodes:
        end = start
        while end < len(x_pairs) and x_pairs[end][0] == v:
            end += 1
        if end > start:
            cap_rows.append(np.full(end - start, row_no, dtype=np.intp))
            cap_cols.append(xb.flat(np.arange(start, end, dtype=np.intp)))
            cap_data.append(sizes[start:end])
            cap_rhs.append(network.cache_capacity(v))
            cap_row_nodes.append(v)
            row_no += 1
        start = end
    if cap_rhs:
        lp.add_le_batch(
            np.concatenate(cap_rows),
            np.concatenate(cap_cols),
            np.concatenate(cap_data),
            np.asarray(cap_rhs),
        )
    # Rhs row layout: (1b) rows [0, n_finite), (1e) rows [n_finite,
    # n_finite + n_free), (1f) rows after that.  Rows with infinite cache
    # capacity are dropped by add_le_batch, so only finite-cap nodes get one.
    finite_cache = [
        v for v, cap in zip(cap_row_nodes, cap_rhs) if np.isfinite(cap)
    ]
    meta = _FCFRRowMeta(
        link_edges=tuple(edges[e] for e in finite),
        cache_row_start=int(finite.size) + int(free.size),
        cache_nodes=tuple(finite_cache),
    )
    return lp, elig_offsets, meta


def _build_result(
    problem: ProblemInstance,
    requests,
    eligible,
    x_pairs,
    x_vals,
    flow_dicts,
    r_vals,
    objective: float,
) -> FCFRResult:
    placement = Placement()
    for (v, i), value in zip(x_pairs, x_vals):
        if value > _EPS:
            placement[(v, i)] = min(1.0, value)
    routing = Routing()
    for k, (item, s) in enumerate(requests):
        flow = flow_dicts[k]
        for j, v in enumerate(eligible[(item, s)]):
            r_value = r_vals[k][j]
            if r_value > _EPS:
                flow[(_VIRTUAL, v)] = flow.get((_VIRTUAL, v), 0.0) + r_value
        per_sink = decompose_single_source_flow(flow, _VIRTUAL, {s: 1.0})
        routing.paths[(item, s)] = [
            PathFlow(path=pf.path[1:], amount=pf.amount) for pf in per_sink[s]
        ]
    return FCFRResult(solution=Solution(placement, routing), cost=objective)


def _assemble(problem: ProblemInstance):
    """Assemble (1a)-(1f): the LP, its decode layout, and its row meta."""
    network = problem.network
    edges = list(network.graph.edges)
    cache_nodes = [v for v in network.cache_nodes() if network.cache_capacity(v) > 0]
    requests = problem.requests
    eligible = _eligible_sources(problem, cache_nodes, requests)
    x_pairs = [
        (v, i)
        for v in cache_nodes
        for i in problem.catalog
        if (v, i) not in problem.pinned
    ]
    lp, elig_offsets, meta = _assemble_array(
        problem, cache_nodes, requests, edges, eligible, x_pairs
    )
    return lp, (requests, eligible, x_pairs, edges, elig_offsets), meta


def solve_fcfr(problem: ProblemInstance) -> FCFRResult:
    """Solve FC-FR exactly.  Raises :class:`InfeasibleError` when (1) is."""
    lp, layout, _meta = _assemble(problem)
    return _result_from_arrays(problem, layout, lp.solve())


def _result_from_arrays(problem, layout, lp_solution) -> FCFRResult:
    """Decode an assembled LP's solution into an :class:`FCFRResult`."""
    requests, eligible, x_pairs, edges, elig_offsets = layout
    x_arr = lp_solution.block("x")
    f_arr = lp_solution.block("f")
    r_arr = lp_solution.block("r")
    flow_dicts = []
    r_vals = []
    for k in range(len(requests)):
        row = f_arr[k]
        flow = {
            edges[e]: float(row[e]) for e in np.flatnonzero(row > _EPS)
        }
        flow_dicts.append(flow)
        r_vals.append(r_arr[elig_offsets[k] : elig_offsets[k + 1]].tolist())
    return _build_result(
        problem, requests, eligible, x_pairs, x_arr.tolist(), flow_dicts, r_vals,
        lp_solution.objective,
    )


class FCFRTemplate:
    """One assembled FC-FR LP, re-solved across capacity scenarios.

    A survivability or provisioning sweep solves optimization (1) many times
    on the *same* topology and demand, varying only link / cache capacities.
    Those capacities live purely in the ``b_ub`` right-hand side of the
    materialized LP, so the CSR constraint matrices can be assembled once
    (the dominant cost at Deltacom scale) and only two contiguous rhs row
    ranges patched per scenario via :class:`~repro.flow.lp.LPTemplate`.

    Every :meth:`solve` rewrites *all* capacity rows (baseline plus the
    scenario's overrides), so scenarios never leak into one another and
    ``solve()`` with no overrides is bit-identical to :func:`solve_fcfr` —
    the patched arrays equal the fresh assembly's arrays exactly.

    Patch-rule consequences (see :class:`~repro.flow.lp.LPTemplate`): a
    fresh assembly *drops* rows for infinitely-capacitated links and
    caches, so overrides must target elements that had finite capacity at
    assembly time and must stay finite.  Anything else needs a fresh
    :func:`solve_fcfr` call.
    """

    def __init__(self, problem: ProblemInstance) -> None:
        network = problem.network
        self.problem = problem
        lp, self._layout, self._meta = _assemble(problem)
        self._frozen = lp.freeze()
        meta = self._meta
        self._base_link = np.fromiter(
            (network.capacity(u, v) for u, v in meta.link_edges),
            dtype=np.float64,
            count=len(meta.link_edges),
        )
        self._base_cache = np.fromiter(
            (network.cache_capacity(v) for v in meta.cache_nodes),
            dtype=np.float64,
            count=len(meta.cache_nodes),
        )
        self._link_pos = {e: k for k, e in enumerate(meta.link_edges)}
        self._cache_pos = {v: k for k, v in enumerate(meta.cache_nodes)}

    @staticmethod
    def _patched(base: np.ndarray, overrides, pos: dict, kind: str) -> np.ndarray:
        values = base.copy()
        for element, cap in overrides.items():
            k = pos.get(element)
            if k is None:
                raise InvalidProblemError(
                    f"{kind} {element!r} has no capacity row in the template "
                    "(it was infinitely capacitated, absent, or zero-capacity "
                    "at assembly time); re-assemble with solve_fcfr instead"
                )
            cap = float(cap)
            if not np.isfinite(cap):
                raise InvalidProblemError(
                    f"capacity override for {kind} {element!r} must be finite "
                    "(a fresh assembly would drop the row); "
                    "re-assemble with solve_fcfr instead"
                )
            values[k] = cap
        return values

    def solve(
        self,
        *,
        link_capacities: dict | None = None,
        cache_capacities: dict | None = None,
    ) -> FCFRResult:
        """Solve one capacity scenario: baseline capacities plus overrides.

        ``link_capacities`` maps ``(u, v)`` edges and ``cache_capacities``
        maps cache nodes to replacement capacities; unlisted elements keep
        the problem's baseline.  Raises
        :class:`~repro.exceptions.InvalidProblemError` for overrides the
        template cannot express (see the class docstring) and
        :class:`~repro.exceptions.InfeasibleError` when the scenario admits
        no fractional solution.
        """
        meta = self._meta
        link = self._patched(
            self._base_link, link_capacities or {}, self._link_pos, "link"
        )
        cache = self._patched(
            self._base_cache, cache_capacities or {}, self._cache_pos, "cache node"
        )
        if link.size:
            self._frozen.set_b_ub(np.arange(link.size, dtype=np.intp), link)
        if cache.size:
            self._frozen.set_b_ub(
                np.arange(cache.size, dtype=np.intp) + meta.cache_row_start, cache
            )
        return _result_from_arrays(self.problem, self._layout, self._frozen.solve())


def fcfr_capacity_sweep(problem: ProblemInstance, scenarios) -> list[FCFRResult]:
    """Solve FC-FR across capacity scenarios, assembling the LP once.

    ``scenarios`` is an iterable of mappings with optional ``"link"`` and
    ``"cache"`` keys holding the per-scenario capacity overrides accepted by
    :meth:`FCFRTemplate.solve`.  Returns one :class:`FCFRResult` per
    scenario, in order — each bit-identical to a from-scratch
    :func:`solve_fcfr` on the correspondingly re-capacitated problem.
    """
    template = FCFRTemplate(problem)
    return [
        template.solve(
            link_capacities=scenario.get("link"),
            cache_capacities=scenario.get("cache"),
        )
        for scenario in scenarios
    ]


def assemble_fcfr_lp(problem: ProblemInstance) -> LPBuilder:
    """Assemble (without solving) the FC-FR LP — benchmarking/testing hook."""
    return _assemble(problem)[0]
