"""Failure masking of compiled routing tables: the one delivery rule.

A path of a compiled :class:`~repro.serving.tables.RoutingTables`
*delivers* under a :class:`TableDegradation` (down nodes, down directed
links, wiped cached copies) iff its requester is up, every node and
directed edge on it is up, and its source still holds the item.
:func:`_dead_paths` is the only place that rule is written; every
failure replay reads it from here:

- :func:`delivered_rates` gives the served demand rate and the
  delivered routing cost rate (objective (1a)) of a fault state.  The
  timeline controller integrates these piecewise-constant rates over
  time;
- :func:`degrade_tables` returns a new table in the *same
  type/path/edge id space* for the streaming replay.  Every dead path
  has its ``path_amount`` zeroed and is dropped from its type's
  Walker–Vose alias slots, and ``served_prob`` is recomputed per
  affected type as ``min(1, sum of surviving fractions)`` with the exact
  float-op sequence of :func:`~repro.serving.tables.compile_tables`, so a
  type whose replicas all died carries its whole mass as explicit
  unserved.  Its ``expected_served_rate()`` and ``expected_cost_rate()``
  equal :func:`delivered_rates` bit for bit.

Arrival ``rates`` are left untouched: a dead requester keeps
*generating* demand (it is offered load), it just serves nothing.
Because the alias rebuild consumes the surviving amounts through the
same operation sequence as a fresh compile, degrading is
**bit-identical** to recompiling the masked routing (the degraded-tables
test suite pins this against enumerated single-link/node scenarios).

Sharing: unchanged arrays (costs, CSR layouts, sizes) are shared with
the input tables, never copied — treat compiled tables as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.serving.tables import Edge, Node, RoutingTables, _alias_table

__all__ = ["TableDegradation", "degrade_tables", "delivered_rates"]


@dataclass(frozen=True)
class TableDegradation:
    """Liveness state to mask a compiled table with.

    ``down_links`` holds *directed* edges (a bidirectional link failure
    contributes both orientations, see ``LinkFailure.directed_edges``);
    ``wiped`` holds ``(node, item)`` pairs whose cached copy is gone — e.g.
    a cache that flapped and came back empty.  Callers deriving ``wiped``
    from a placement must exclude pinned pairs (permanent copies).
    """

    down_nodes: frozenset[Node] = frozenset()
    down_links: frozenset[Edge] = frozenset()
    wiped: frozenset[tuple[Node, object]] = frozenset()

    @property
    def empty(self) -> bool:
        return not (self.down_nodes or self.down_links or self.wiped)


def _dead_paths(tables: RoutingTables, degr: TableDegradation) -> np.ndarray:
    """Per-path mask of the paths that no longer deliver under ``degr``."""
    n_nodes = len(tables.nodes)
    node_down = np.zeros(n_nodes, dtype=bool)
    if degr.down_nodes:
        node_idx = tables.node_index()
        for v in degr.down_nodes:
            k = node_idx.get(v)
            if k is not None:
                node_down[k] = True

    edge_down = node_down[tables.edge_src] | node_down[tables.edge_dst]
    if degr.down_links:
        edge_idx = tables.edge_index()
        for e in degr.down_links:
            k = edge_idx.get(e)
            if k is not None:
                edge_down[k] = True

    n_paths = tables.num_paths
    path_dead = node_down[tables.path_src]
    if edge_down.any():
        counts = np.diff(tables.path_edge_ptr)
        owner = np.repeat(np.arange(n_paths, dtype=np.int64), counts)
        np.logical_or.at(path_dead, owner, edge_down[tables.path_edges])

    if degr.wiped:
        node_idx = tables.node_index()
        item_idx = {i: k for k, i in enumerate(tables.items)}
        n_items = len(tables.items)
        wiped_flat = [
            node_idx[v] * n_items + item_idx[i]
            for v, i in degr.wiped
            if v in node_idx and i in item_idx
        ]
        if wiped_flat:
            flat = (
                tables.path_src * np.int64(n_items)
                + tables.type_item[tables.path_type]
            )
            path_dead |= np.isin(
                flat, np.asarray(wiped_flat, dtype=np.int64)
            )

    # A dead requester is served nothing, whichever nodes its paths cross.
    path_dead |= node_down[tables.type_req][tables.path_type]
    return path_dead


def delivered_rates(
    tables: RoutingTables, degr: TableDegradation
) -> tuple[float, float]:
    """(served demand rate, delivered cost rate) of ``tables`` under ``degr``.

    Equal bit for bit to ``expected_served_rate()`` and
    ``expected_cost_rate()`` of ``degrade_tables(tables, degr)``, without
    rebuilding any alias table.
    """
    flow = tables.rates[tables.path_type] * tables.path_amount
    if not degr.empty:
        flow[_dead_paths(tables, degr)] = 0.0
    return float(flow.sum()), float(flow @ tables.path_cost)


def degrade_tables(
    tables: RoutingTables, degr: TableDegradation
) -> RoutingTables:
    """Mask ``tables`` with a failure state; see the module docstring.

    Returns the input object unchanged when nothing is masked.
    """
    if degr.empty:
        return tables
    path_dead = _dead_paths(tables, degr)
    if not path_dead.any():
        return tables

    n_types = tables.num_types
    affected = np.zeros(n_types, dtype=bool)
    affected[tables.path_type[path_dead]] = True

    path_amount = tables.path_amount.copy()
    path_amount[path_dead] = 0.0
    served_prob = tables.served_prob.copy()

    slot_ptr = np.zeros(n_types + 1, dtype=np.int64)
    prob_parts: list[np.ndarray] = []
    path_parts: list[np.ndarray] = []
    alias_parts: list[np.ndarray] = []
    base_ptr = tables.slot_ptr
    for t in range(n_types):
        if not affected[t]:
            lo, hi = base_ptr[t], base_ptr[t + 1]
            slot_ptr[t + 1] = slot_ptr[t] + (hi - lo)
            if hi > lo:
                prob_parts.append(tables.slot_prob[lo:hi])
                path_parts.append(tables.slot_path[lo:hi])
                alias_parts.append(tables.slot_alias[lo:hi])
            continue
        p_lo = int(np.searchsorted(tables.path_type, t, side="left"))
        p_hi = int(np.searchsorted(tables.path_type, t, side="right"))
        ids = np.arange(p_lo, p_hi, dtype=np.int64)[~path_dead[p_lo:p_hi]]
        if len(ids) == 0:
            served_prob[t] = 0.0
            slot_ptr[t + 1] = slot_ptr[t]
            continue
        # Same op sequence as compile_tables: sum the surviving amounts,
        # clamp, normalize a fresh copy, and rebuild the alias table —
        # identical floats in, bit-identical alias tables out.
        amounts = tables.path_amount[ids]
        served_prob[t] = min(1.0, float(amounts.sum()))
        probs = amounts.copy()
        probs /= probs.sum()
        accept, alias = _alias_table(probs)
        prob_parts.append(accept)
        path_parts.append(ids)
        alias_parts.append(ids[alias])
        slot_ptr[t + 1] = slot_ptr[t] + len(ids)

    return replace(
        tables,
        served_prob=served_prob,
        path_amount=path_amount,
        slot_ptr=slot_ptr,
        slot_prob=(
            np.concatenate(prob_parts) if prob_parts else np.zeros(0)
        ),
        slot_path=(
            np.concatenate(path_parts)
            if path_parts
            else np.zeros(0, dtype=np.int64)
        ),
        slot_alias=(
            np.concatenate(alias_parts)
            if alias_parts
            else np.zeros(0, dtype=np.int64)
        ),
        unrouted_types=int((served_prob == 0.0).sum()),
    )
