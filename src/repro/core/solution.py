"""Solution containers: content placement, routing, and the joint solution.

A :class:`Placement` stores the caching decision ``x`` sparsely (only
positive entries).  A :class:`Routing` stores, for each request type, the
paths serving it together with the *fraction* of the request carried by each
path (a single path with fraction 1 under integral routing).  The source
selection ``r`` of the paper is implicit: it is the first node of each path.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.core.problem import Item, Node, ProblemInstance, Request
from repro.exceptions import InvalidProblemError
from repro.flow.decomposition import PathFlow

_EPS = 1e-9


class Placement:
    """Caching decision ``x`` (sparse map ``(node, item) -> fraction``)."""

    def __init__(self, entries: Mapping[tuple[Node, Item], float] | None = None) -> None:
        self._x: dict[tuple[Node, Item], float] = {}
        for key, value in (entries or {}).items():
            self[key] = value

    # -- mapping-ish interface -----------------------------------------

    def __getitem__(self, key: tuple[Node, Item]) -> float:
        return self._x.get(key, 0.0)

    def __setitem__(self, key: tuple[Node, Item], value: float) -> None:
        if value < -_EPS or value > 1 + _EPS:
            raise InvalidProblemError(f"placement fraction {value} out of [0, 1]")
        value = min(1.0, max(0.0, value))
        if value <= _EPS:
            self._x.pop(key, None)
        else:
            self._x[key] = value

    def __contains__(self, key: tuple[Node, Item]) -> bool:
        return self._x.get(key, 0.0) > _EPS

    def __iter__(self):
        return iter(self._x)

    def __len__(self) -> int:
        return len(self._x)

    def items(self):
        return self._x.items()

    def copy(self) -> "Placement":
        return Placement(dict(self._x))

    # -- queries ---------------------------------------------------------

    def is_integral(self, tol: float = 1e-6) -> bool:
        return all(v >= 1 - tol for v in self._x.values())

    def items_at(self, node: Node) -> set[Item]:
        return {i for (v, i), x in self._x.items() if v == node and x > _EPS}

    def holders(self, item: Item) -> set[Node]:
        return {v for (v, i), x in self._x.items() if i == item and x > _EPS}

    def used_capacity(self, node: Node, problem: ProblemInstance) -> float:
        """Cache space consumed at ``node`` (pinned contents are free)."""
        return sum(
            x * problem.size_of(i)
            for (v, i), x in self._x.items()
            if v == node and (v, i) not in problem.pinned
        )

    def used_capacities(self, problem: ProblemInstance) -> dict[Node, float]:
        """:meth:`used_capacity` of every node holding an entry, in one pass.

        Each node's terms are summed in entry order, as :meth:`used_capacity`
        sums them, so the values are identical; absent nodes use nothing.
        """
        terms: dict[Node, list[float]] = {}
        for (v, i), x in self._x.items():
            if (v, i) not in problem.pinned:
                terms.setdefault(v, []).append(x * problem.size_of(i))
        return {v: sum(t) for v, t in terms.items()}

    def as_set(self, tol: float = 1e-6) -> frozenset[tuple[Node, Item]]:
        """Integral placement as a set of ``(node, item)`` pairs."""
        return frozenset(k for k, v in self._x.items() if v >= 1 - tol)

    @classmethod
    def from_set(cls, entries: Iterable[tuple[Node, Item]]) -> "Placement":
        return cls({key: 1.0 for key in entries})

    def __repr__(self) -> str:
        return f"Placement({len(self._x)} entries)"


@dataclass
class Routing:
    """Routing decision: per request, the serving paths and their fractions.

    ``paths[request]`` is a list of :class:`PathFlow` whose ``amount`` values
    are fractions of the request (they sum to 1 for a served request).  Each
    path runs from the serving source to the requester; a length-1 path means
    the requester serves itself from its own cache.
    """

    paths: dict[Request, list[PathFlow]] = field(default_factory=dict)

    def is_integral(self, tol: float = 1e-6) -> bool:
        return all(
            len(pfs) == 1 and abs(pfs[0].amount - 1.0) <= tol
            for pfs in self.paths.values()
        )

    def served_fraction(self, request: Request) -> float:
        return sum(p.amount for p in self.paths.get(request, []))

    def sources(self, request: Request) -> dict[Node, float]:
        """Source selection ``r``: serving node -> fraction served from it."""
        out: dict[Node, float] = {}
        for pf in self.paths.get(request, []):
            out[pf.source] = out.get(pf.source, 0.0) + pf.amount
        return out

    def copy(self) -> "Routing":
        return Routing({req: list(pfs) for req, pfs in self.paths.items()})

    def __repr__(self) -> str:
        n_paths = sum(len(p) for p in self.paths.values())
        return f"Routing({len(self.paths)} requests, {n_paths} paths)"


@dataclass
class Solution:
    """A joint caching-and-routing solution."""

    placement: Placement
    routing: Routing

    def copy(self) -> "Solution":
        return Solution(self.placement.copy(), self.routing.copy())
