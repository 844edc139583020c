"""Flow -> path decomposition (the Edmonds-Karp-style conversion of [36]).

Given an aggregate single-source flow and per-sink demands, peel off
source->sink paths until every demand is covered.  Cycles encountered during
the backward walk are canceled (they can only exist through numerical noise
or zero-cost circulation and never carry required flow).

Each peeling step either exhausts a sink's remaining demand or zeroes at
least one link, so a sink receives at most ``|E|`` paths — the property the
paper uses in the proof of Theorem 4.7.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass

from repro.exceptions import DecompositionError

Node = Hashable
Edge = tuple[Node, Node]

_EPS = 1e-9
#: Demand slack that is forgiven (LP solutions carry ~1e-9 noise).
_TOLERANCE = 1e-7


@dataclass(frozen=True)
class PathFlow:
    """An amount of flow carried along one concrete node path."""

    path: tuple[Node, ...]
    amount: float

    @property
    def source(self) -> Node:
        return self.path[0]

    @property
    def sink(self) -> Node:
        return self.path[-1]

    def edges(self) -> list[Edge]:
        return list(zip(self.path[:-1], self.path[1:]))


def decompose_single_source_flow(
    flow: Mapping[Edge, float],
    source: Node,
    demands: Mapping[Node, float],
) -> dict[Node, list[PathFlow]]:
    """Decompose ``flow`` into per-sink path flows covering ``demands``.

    Parameters
    ----------
    flow:
        Aggregate link loads; must conserve flow with excess ``demands[t]``
        at each sink and ``-sum(demands)`` at ``source``.

    Raises
    ------
    DecompositionError
        If demands cannot be covered by the given flow.
    """
    residual: dict[Edge, float] = {e: f for e, f in flow.items() if f > _EPS}
    in_map: dict[Node, set[Node]] = {}
    for (u, v) in residual:
        in_map.setdefault(v, set()).add(u)

    def reduce_edge(u: Node, v: Node, amount: float) -> None:
        remaining = residual[(u, v)] - amount
        if remaining <= _EPS:
            del residual[(u, v)]
            in_map[v].discard(u)
        else:
            residual[(u, v)] = remaining

    result: dict[Node, list[PathFlow]] = {t: [] for t in demands}
    max_steps = 50 * (len(flow) + 1) * (len(demands) + 1) + 1000
    steps = 0
    for sink in demands:
        remaining = float(demands[sink])
        if remaining <= _TOLERANCE:
            continue
        if sink == source:
            result[sink].append(PathFlow(path=(source,), amount=remaining))
            continue
        while remaining > _TOLERANCE:
            steps += 1
            if steps > max_steps:
                raise DecompositionError("path peeling did not terminate")
            walk = [sink]
            position = {sink: 0}
            found = False
            while True:
                current = walk[-1]
                preds = in_map.get(current)
                if not preds:
                    raise DecompositionError(
                        f"flow cannot cover demand at {sink!r}: no inflow at {current!r}"
                    )
                # Deterministic choice: largest residual, ties by repr.
                u = max(preds, key=lambda p: (residual[(p, current)], repr(p)))
                if u == source:
                    walk.append(u)
                    found = True
                    break
                if u in position:
                    # Cancel the cycle u -> ... -> u found in the walk.
                    cycle_nodes = walk[position[u]:] + [u]
                    cycle_edges = [
                        (cycle_nodes[k + 1], cycle_nodes[k])
                        for k in range(len(cycle_nodes) - 1)
                    ]
                    bottleneck = min(residual[e] for e in cycle_edges)
                    for e in cycle_edges:
                        reduce_edge(*e, amount=bottleneck)
                    del walk[position[u] + 1 :]
                    position = {n: k for k, n in enumerate(walk)}
                    continue
                position[u] = len(walk)
                walk.append(u)
            if found:
                path = tuple(reversed(walk))
                edges = list(zip(path[:-1], path[1:]))
                bottleneck = min(residual[e] for e in edges)
                amount = min(bottleneck, remaining)
                for e in edges:
                    reduce_edge(*e, amount=amount)
                remaining -= amount
                result[sink].append(PathFlow(path=path, amount=amount))
    return result


def split_with_removal_quotas(
    paths_by_sink: Mapping[Node, list[PathFlow]],
    commodities: list[tuple[Hashable, Node, float, float]],
    *,
    costs: Mapping[Edge, float] | None = None,
) -> dict[Hashable, list[PathFlow]]:
    """Split per-sink path flows among commodities, steering expensive slices
    toward commodities that will later *remove* them.

    ``commodities`` is ``(commodity_id, sink, demand, removal_quota)`` where
    ``removal_quota = demand - rounded_demand`` is how much flow the caller
    will subsequently trim from the commodity's most expensive paths
    (Algorithm 2, line 4).  Assigning the most expensive slices to the
    commodities with the largest remaining quota maximizes the chance that
    every retained slice is cheap — the premise behind Theorem 4.7's cost
    bound (inequality (30)).

    Falls back to plain greedy assignment when ``costs`` is None.
    """
    if costs is None:
        return split_among_commodities(
            paths_by_sink,
            [(cid, sink, demand) for cid, sink, demand, _q in commodities],
        )

    def cost_of(path: tuple) -> float:
        return sum(costs.get(e, 0.0) for e in zip(path[:-1], path[1:]))

    out: dict[Hashable, list[PathFlow]] = {c[0]: [] for c in commodities}
    by_sink: dict[Node, list[list]] = {}
    for cid, sink, demand, quota in commodities:
        by_sink.setdefault(sink, []).append(
            [cid, float(demand), min(float(quota), float(demand))]
        )
    for sink, members in by_sink.items():
        slices = sorted(
            ([pf.amount, pf.path] for pf in paths_by_sink.get(sink, [])),
            key=lambda slot: cost_of(slot[1]),
            reverse=True,
        )
        # Pass 1 (expensive slices -> quota): consume removal quotas first.
        for slot in slices:
            for member in sorted(members, key=lambda m: -m[2]):
                if slot[0] <= _EPS:
                    break
                take = min(slot[0], member[1], member[2])
                if take <= _EPS:
                    continue
                slot[0] -= take
                member[1] -= take
                member[2] -= take
                out[member[0]].append(PathFlow(path=slot[1], amount=take))
        # Pass 2 (cheapest first): fill remaining demand.
        for slot in reversed(slices):
            for member in members:
                if slot[0] <= _EPS:
                    break
                take = min(slot[0], member[1])
                if take <= _EPS:
                    continue
                slot[0] -= take
                member[1] -= take
                out[member[0]].append(PathFlow(path=slot[1], amount=take))
        for member in members:
            if member[1] > _TOLERANCE:
                raise DecompositionError(
                    f"not enough path flow at sink {sink!r} for {member[0]!r}"
                )
    return out


def split_among_commodities(
    paths_by_sink: Mapping[Node, list[PathFlow]],
    commodities: list[tuple[Hashable, Node, float]],
) -> dict[Hashable, list[PathFlow]]:
    """Split per-sink path flows among commodities sharing that sink.

    ``commodities`` is a list of ``(commodity_id, sink, demand)``.  Several
    request types ``(i, s)`` map to the same physical destination ``s``;
    since they are interchangeable from a routing standpoint, each one is
    greedily assigned slices of the sink's path flows.
    """
    remaining_paths: dict[Node, list[list[float | tuple]]] = {
        t: [[pf.amount, pf.path] for pf in pfs] for t, pfs in paths_by_sink.items()
    }
    out: dict[Hashable, list[PathFlow]] = {}
    for cid, sink, demand in commodities:
        out[cid] = []
        need = float(demand)
        queue = remaining_paths.get(sink, [])
        index = 0
        while need > _TOLERANCE and index < len(queue):
            slot = queue[index]
            available = slot[0]
            if available <= _EPS:
                index += 1
                continue
            take = min(available, need)
            slot[0] = available - take
            need -= take
            out[cid].append(PathFlow(path=slot[1], amount=take))
            if slot[0] <= _EPS:
                index += 1
        if need > _TOLERANCE:
            raise DecompositionError(
                f"not enough path flow at sink {sink!r} for commodity {cid!r}"
            )
    return out
