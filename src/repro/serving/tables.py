"""Compile a (problem, routing) pair into flat arrays for bulk replay.

The event simulator walks Python objects per request; the streaming engine
(:mod:`repro.serving.engine`) instead matches whole request batches against
precompiled tables:

- request types ``(item, s)`` are indexed ``0..R-1`` in the deterministic
  ``ProblemInstance.requests`` order;
- each type's serving paths become rows of a flat *path table* (per-path
  cost, item size, and a CSR layout of edge ids), so per-link accumulation
  is one weighted ``bincount`` over edge ids;
- each type's path-choice distribution becomes a Walker *alias table*
  (``slot_prob``/``slot_path``/``slot_alias``), so drawing one path per
  request is O(1) and fully vectorizable.  A one-path type (every type of
  an RNR routing under an integral placement) gets the single slot
  ``(1.0, path, path)`` — what :func:`_alias_table` returns for ``[1.0]``
  — without building a table.

Semantics mirror the event simulator with one deliberate exception: the
event loop *normalizes* path fractions (a partially served type still
routes every arrival), while the tables keep the unserved mass explicit —
a type whose fractions sum to ``f < 1`` serves each arrival with
probability ``f`` and counts the rest as unserved.  For fully served
routings (the parity suite's regime) the two agree.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.problem import ProblemInstance, Request
from repro.core.solution import Routing
from repro.exceptions import InvalidProblemError

Node = Hashable
Edge = tuple[Node, Node]

#: Fractions below this are treated as zero (matches Routing's _EPS scale).
_EPS = 1e-12


def _alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table for one discrete distribution.

    Returns ``(accept, alias)``: drawing ``slot ~ U{0..K-1}`` and
    ``u ~ U[0,1)``, the outcome is ``slot`` if ``u < accept[slot]`` else
    ``alias[slot]``.
    """
    k = len(probs)
    accept = probs * k
    alias = np.arange(k, dtype=np.int64)
    small = [i for i in range(k) if accept[i] < 1.0]
    large = [i for i in range(k) if accept[i] >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        alias[s] = l
        accept[l] -= 1.0 - accept[s]
        (small if accept[l] < 1.0 else large).append(l)
    # Numerical leftovers: everything remaining accepts with certainty.
    for i in small + large:
        accept[i] = 1.0
    return accept, alias


@dataclass
class RoutingTables:
    """Array view of one routing over one problem's demand.

    Small label tuples (``types``, ``edges``) stay Python objects; every
    per-request-type / per-path quantity is a numpy array so the engine can
    process millions of requests without touching Python dispatch.
    """

    #: Request types in deterministic order (``ProblemInstance.requests``).
    types: tuple[Request, ...]
    #: Edges referenced by any serving path (indexing ``edge_*`` arrays).
    edges: tuple[Edge, ...]
    #: Nodes referenced by any requester / serving path (id space of
    #: ``type_req``, ``edge_src``/``edge_dst``, ``path_src``).
    nodes: tuple[Node, ...]
    #: Items referenced by any request type (id space of ``type_item``).
    items: tuple[Hashable, ...]

    # -- per-type arrays (length R) ------------------------------------
    rates: np.ndarray  # float64 arrival rates lambda_{(i,s)}
    served_prob: np.ndarray  # float64 in [0, 1]: sum of path fractions
    item_sizes: np.ndarray  # float64 b_i of the type's item
    slot_ptr: np.ndarray  # int64, R+1: alias slots of type t
    type_req: np.ndarray  # int64 requester node id
    type_item: np.ndarray  # int64 item id

    # -- alias slots (length S, CSR by type) ---------------------------
    slot_prob: np.ndarray  # float64 acceptance threshold
    slot_path: np.ndarray  # int64 global path id on accept
    slot_alias: np.ndarray  # int64 global path id on reject

    # -- per-path arrays (length P) ------------------------------------
    path_cost: np.ndarray  # float64 sum of link costs along the path
    path_type: np.ndarray  # int64 owning request type
    path_amount: np.ndarray  # float64 raw routing fraction (expected_* uses it)
    path_src: np.ndarray  # int64 node id of the serving source (path[0])
    path_edge_ptr: np.ndarray  # int64, P+1
    path_edges: np.ndarray  # int64 edge ids, CSR by path

    # -- per-edge arrays (length E) ------------------------------------
    edge_src: np.ndarray  # int64 node id of the edge tail
    edge_dst: np.ndarray  # int64 node id of the edge head

    #: Types with no (or zero-fraction) routing.
    unrouted_types: int = 0

    # ------------------------------------------------------------------

    @property
    def num_types(self) -> int:
        return len(self.types)

    @property
    def num_paths(self) -> int:
        return len(self.path_cost)

    @property
    def total_rate(self) -> float:
        return float(self.rates.sum())

    def expected_loads(self) -> dict[Edge, float]:
        """Analytic per-link loads of constraint (1b): ``sum rate * f * b_i``.

        This is the deterministic aggregation path: no sampling, exactly the
        quantity the event simulator reports as ``analytic_loads``.
        """
        return self._per_edge(self._flow() * self.item_sizes[self.path_type])

    def link_rates(self) -> dict[Edge, float]:
        """Per-link ``sum rate * f``, not weighted by item size: the load
        :func:`repro.core.evaluation.link_loads` gives and congestion reads."""
        return self._per_edge(self._flow())

    def _flow(self) -> np.ndarray:
        return self.rates[self.path_type] * self.path_amount

    def _per_edge(self, weight: np.ndarray) -> dict[Edge, float]:
        """Sum a per-path ``weight`` over each path's edges (loaded edges only)."""
        per_edge = np.bincount(
            self.path_edges,
            weights=np.repeat(weight, np.diff(self.path_edge_ptr)),
            minlength=len(self.edges),
        )
        return {
            edge: float(load)
            for edge, load in zip(self.edges, per_edge)
            if load > 0.0
        }

    def expected_cost_rate(self) -> float:
        """Expected routing cost per unit time — objective (1a)."""
        return float(self._flow() @ self.path_cost)

    def expected_served_rate(self) -> float:
        """Expected served demand rate: ``sum rate * f`` over all paths."""
        return float(self._flow().sum())

    def node_index(self) -> dict[Node, int]:
        """Label -> id map over ``nodes`` (for failure masking; do not mutate)."""
        return self._label_ids[0]

    def edge_index(self) -> dict[Edge, int]:
        """Label -> id map over ``edges`` (for failure masking; do not mutate)."""
        return self._label_ids[1]

    @cached_property
    def _label_ids(self) -> tuple[dict[Node, int], dict[Edge, int]]:
        # Built once per table: its ids never change, and a table made by
        # ``dataclasses.replace`` starts without this memo.
        return (
            {v: k for k, v in enumerate(self.nodes)},
            {e: k for k, e in enumerate(self.edges)},
        )


def compile_tables(
    problem: ProblemInstance,
    routing: Routing,
    *,
    allow_unrouted: bool = False,
) -> RoutingTables:
    """Build :class:`RoutingTables` for ``routing`` over ``problem``'s demand.

    Raises :class:`InvalidProblemError` on a type with no (or zero-fraction)
    routing unless ``allow_unrouted`` — mirroring ``simulate()``'s contract;
    with ``allow_unrouted`` such types keep generating requests that count
    as unserved (the event simulator skips generating them entirely, which
    parity tests account for by comparing served counts).

    Every array is filled as a flat list and converted once at the end;
    only a type with two or more paths builds an alias table.
    """
    requests = problem.requests
    network = problem.network
    edge_ids: dict[Edge, int] = {}
    edge_cost: list[float] = []
    node_ids: dict[Node, int] = {}
    item_ids: dict[Hashable, int] = {}
    edge_src: list[int] = []
    edge_dst: list[int] = []

    rates: list[float] = []
    served_prob: list[float] = []
    item_sizes: list[float] = []
    slot_ptr: list[int] = [0]
    type_req: list[int] = []
    type_item: list[int] = []
    slot_prob: list[float] = []
    slot_path: list[int] = []
    slot_alias: list[int] = []

    path_cost: list[float] = []
    path_type: list[int] = []
    path_amount: list[float] = []
    path_src: list[int] = []
    path_edge_ptr: list[int] = [0]
    path_edges: list[int] = []
    unrouted = 0

    for t, request in enumerate(requests):
        item, _s = request
        rates.append(problem.demand[request])
        item_sizes.append(problem.size_of(item))
        type_req.append(node_ids.setdefault(_s, len(node_ids)))
        type_item.append(item_ids.setdefault(item, len(item_ids)))
        pfs = routing.paths.get(request) or []
        if len(pfs) == 1:
            total = float(pfs[0].amount)
        else:
            total = float(np.array([pf.amount for pf in pfs], dtype=float).sum())
        first_path = len(path_cost)
        if not total <= _EPS:
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
            # No routing, or a positive total with every fraction below _EPS.
            if not allow_unrouted:
                raise InvalidProblemError(f"request {request!r} has no routing")
            unrouted += 1
            served_prob.append(0.0)
        else:
            served_prob.append(min(1.0, total))
            if k == 1:
                # _alias_table([1.0]): accept with certainty, alias to itself.
                slot_prob.append(1.0)
                slot_path.append(first_path)
                slot_alias.append(first_path)
            else:
                probs = np.array(path_amount[first_path:], dtype=float)
                probs /= probs.sum()
                accept, alias = _alias_table(probs)
                slot_prob.extend(accept.tolist())
                slot_path.extend(range(first_path, first_path + k))
                slot_alias.extend((alias + first_path).tolist())
        slot_ptr.append(len(slot_prob))

    edges = tuple(edge_ids)
    return RoutingTables(
        types=tuple(requests),
        edges=edges,
        nodes=tuple(node_ids),
        items=tuple(item_ids),
        rates=np.array(rates, dtype=np.float64),
        served_prob=np.array(served_prob, dtype=np.float64),
        item_sizes=np.array(item_sizes, dtype=np.float64),
        slot_ptr=np.array(slot_ptr, dtype=np.int64),
        type_req=np.array(type_req, dtype=np.int64),
        type_item=np.array(type_item, dtype=np.int64),
        slot_prob=np.array(slot_prob, dtype=np.float64),
        slot_path=np.array(slot_path, dtype=np.int64),
        slot_alias=np.array(slot_alias, dtype=np.int64),
        path_cost=np.array(path_cost, dtype=np.float64),
        path_type=np.array(path_type, dtype=np.int64),
        path_amount=np.array(path_amount, dtype=np.float64),
        path_src=np.array(path_src, dtype=np.int64),
        path_edge_ptr=np.array(path_edge_ptr, dtype=np.int64),
        path_edges=np.array(path_edges, dtype=np.int64),
        edge_src=np.array(edge_src, dtype=np.int64),
        edge_dst=np.array(edge_dst, dtype=np.int64),
        unrouted_types=unrouted,
    )
