"""Problem instances for joint caching and routing (the paper's Section 2).

An instance bundles

- a :class:`~repro.graph.network.CacheNetwork` (topology, link costs ``w_uv``,
  link capacities ``c_uv``, cache capacities ``c_v``),
- a content catalog ``C`` with (optionally heterogeneous) item sizes ``b_i``,
- request rates ``lambda_{(i, s)}`` for request types ``(item, node)``, and
- *pinned* contents: items permanently stored at designated nodes (the origin
  server of the paper's evaluation stores the whole catalog and is not a
  decision variable).  Pinned contents do not consume the node's optimizable
  cache capacity.

The three variable regimes of the paper (FC-FR / IC-FR / IC-IR) are selection
flags on the solver calls, not on the instance.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field

from repro.exceptions import InvalidProblemError
from repro.graph.network import CacheNetwork

Item = Hashable
Node = Hashable
#: A request type ``(i, s)``: node ``s`` asks for item ``i``.
Request = tuple[Item, Node]


@dataclass
class ProblemInstance:
    """One joint caching-and-routing instance (optimization (1) of the paper).

    Parameters
    ----------
    network:
        The cache network. Cache capacities are in *items* for homogeneous
        catalogs and in the same unit as ``item_sizes`` otherwise.
    catalog:
        All content items.
    demand:
        Request rates ``lambda_{(i, s)} > 0`` keyed by ``(item, node)``.
    item_sizes:
        Optional per-item sizes ``b_i`` (Section 5). ``None`` means the
        homogeneous model where every item has size 1.
    pinned:
        ``(node, item)`` pairs permanently cached (e.g. the origin server
        holding the entire catalog). Free of cache-capacity charge.
    """

    network: CacheNetwork
    catalog: tuple[Item, ...]
    demand: dict[Request, float]
    item_sizes: dict[Item, float] | None = None
    pinned: frozenset[tuple[Node, Item]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        self.catalog = tuple(self.catalog)
        if len(set(self.catalog)) != len(self.catalog):
            raise InvalidProblemError("catalog has duplicate items")
        items = set(self.catalog)
        if not items:
            raise InvalidProblemError("catalog is empty")
        for (i, s), rate in self.demand.items():
            if i not in items:
                raise InvalidProblemError(f"demand references unknown item {i!r}")
            if s not in self.network:
                raise InvalidProblemError(f"demand references unknown node {s!r}")
            if rate <= 0:
                raise InvalidProblemError(f"demand for {(i, s)!r} must be positive")
        if self.item_sizes is not None:
            missing = items - set(self.item_sizes)
            if missing:
                raise InvalidProblemError(f"item_sizes missing items: {missing!r}")
            if any(b <= 0 for b in self.item_sizes.values()):
                raise InvalidProblemError("item sizes must be positive")
        self.pinned = frozenset(self.pinned)
        for v, i in self.pinned:
            if v not in self.network:
                raise InvalidProblemError(f"pinned node {v!r} not in network")
            if i not in items:
                raise InvalidProblemError(f"pinned item {i!r} not in catalog")

    # ------------------------------------------------------------------

    @property
    def requests(self) -> list[Request]:
        """All request types with positive rate, in deterministic order."""
        return sorted(self.demand, key=repr)

    @property
    def total_demand(self) -> float:
        return sum(self.demand.values())

    def size_of(self, item: Item) -> float:
        """Size ``b_i`` of an item (1.0 in the homogeneous model)."""
        if self.item_sizes is None:
            return 1.0
        return self.item_sizes[item]

    def is_homogeneous(self) -> bool:
        """Whether every item has unit size — the model of Section 4.

        Equal non-unit sizes are *not* homogeneous: Algorithm 1 and LP (15)
        with pipage count items against capacity, which overfills a cache
        when each item takes more than one unit.
        """
        return self.item_sizes is None or all(
            b == 1.0 for b in self.item_sizes.values()
        )

    def pinned_items_at(self, node: Node) -> set[Item]:
        return {i for (v, i) in self.pinned if v == node}

    def pinned_holders(self, item: Item) -> set[Node]:
        return {v for (v, i) in self.pinned if i == item}

    def cache_nodes(self) -> list[Node]:
        """Nodes whose caches the optimizer may use (positive capacity)."""
        return self.network.cache_nodes()

    def with_demand(self, demand: Mapping[Request, float]) -> "ProblemInstance":
        """Same instance under different request rates (prediction scenarios)."""
        return ProblemInstance(
            network=self.network,
            catalog=self.catalog,
            demand=dict(demand),
            item_sizes=None if self.item_sizes is None else dict(self.item_sizes),
            pinned=self.pinned,
        )

    def requesters_of(self, item: Item) -> list[Node]:
        return sorted(
            (s for (i, s) in self.demand if i == item), key=repr
        )

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(|V|={self.network.num_nodes}, |C|={len(self.catalog)}, "
            f"|R|={len(self.demand)}, pinned={len(self.pinned)})"
        )


def pin_full_catalog(
    catalog: Iterable[Item], nodes: Iterable[Node]
) -> frozenset[tuple[Node, Item]]:
    """Pin the whole catalog at each given node (origin servers)."""
    catalog = tuple(catalog)
    return frozenset((v, i) for v in nodes for i in catalog)
