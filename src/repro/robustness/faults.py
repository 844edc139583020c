"""Fault injection on problem instances (link/node failures, degradation).

The paper evaluates placements on healthy topologies; this module answers
the operational question behind its congestion constraints — *what happens
when part of the network dies?* — by deriving **degraded instances** from a
healthy :class:`~repro.core.problem.ProblemInstance`:

- :class:`LinkFailure` removes a link (by default both directions of the
  undirected ISP link, matching how the Topology Zoo maps are read);
- :class:`NodeFailure` removes a node together with its incident links,
  its cache (placed contents are lost — the recovery policies in
  :mod:`repro.robustness.recovery` drop stranded placement entries), its
  pinned contents, and any demand originating at it;
- :class:`CapacityDegradation` scales link capacities by a factor in
  ``(0, 1]`` (brown-out rather than black-out).

A :class:`FailureScenario` is a named tuple of faults; :func:`apply_failure`
derives the surviving :class:`DegradedProblem` without copying the graph
(its network is a :meth:`~repro.graph.network.CacheNetwork.derive` view of
the healthy one).  Scenario generators
cover enumerated single/k-failure sets and seeded random samplers, all with
deterministic ordering so survivability sweeps are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.problem import Node, ProblemInstance, Request
from repro.exceptions import InvalidProblemError

Edge = tuple[Node, Node]


@dataclass(frozen=True)
class LinkFailure:
    """Failure of link ``(u, v)`` (and ``(v, u)`` when ``both_directions``)."""

    u: Node
    v: Node
    both_directions: bool = True

    @property
    def directed_edges(self) -> tuple[Edge, ...]:
        """The directed edges this failure takes down: ``(u, v)``, then
        ``(v, u)`` when ``both_directions``."""
        if self.both_directions:
            return ((self.u, self.v), (self.v, self.u))
        return ((self.u, self.v),)

    def describe(self) -> str:
        arrow = "--" if self.both_directions else "->"
        return f"link {self.u!r}{arrow}{self.v!r}"


@dataclass(frozen=True)
class NodeFailure:
    """Failure of a node: incident links, cache contents, and demand are lost."""

    node: Node

    def describe(self) -> str:
        return f"node {self.node!r}"


@dataclass(frozen=True)
class CapacityDegradation:
    """Scale the capacity of ``links`` (all links when ``None``) by ``factor``."""

    factor: float
    links: tuple[Edge, ...] | None = None

    def describe(self) -> str:
        scope = "all links" if self.links is None else f"{len(self.links)} links"
        return f"capacity x{self.factor:g} on {scope}"


Fault = Union[LinkFailure, NodeFailure, CapacityDegradation]


@dataclass(frozen=True)
class FailureScenario:
    """A named set of faults applied together (one survivability data point)."""

    name: str
    faults: tuple[Fault, ...]

    def describe(self) -> str:
        return "; ".join(f.describe() for f in self.faults) or "no faults"


@dataclass
class DegradedProblem:
    """A healthy instance after a failure scenario, plus what was lost.

    ``problem`` is a fully valid :class:`ProblemInstance` over the surviving
    network; demand whose requester died is dropped from it and recorded in
    ``lost_demand`` so survivability reports can still charge it as
    unserved.  Its network is derived from the healthy one
    (:meth:`~repro.graph.network.CacheNetwork.derive`): it answers every
    query from the healthy links minus ``failed_nodes`` and
    ``failed_links``, and builds a graph of its own only if ``.graph`` is
    read.  ``failed_nodes`` and ``failed_links`` are also the masks
    :func:`~repro.robustness.degraded.degraded_context` applies to the
    parent's distance backend.
    """

    scenario: FailureScenario
    problem: ProblemInstance
    failed_nodes: frozenset[Node] = frozenset()
    #: Directed edges removed from the graph (including node-incident ones).
    failed_links: frozenset[Edge] = frozenset()
    #: Requests dropped because their requester node failed.
    lost_demand: dict[Request, float] = field(default_factory=dict)

    @property
    def total_original_demand(self) -> float:
        return self.problem.total_demand + sum(self.lost_demand.values())


def canonical_links(problem: ProblemInstance) -> list[Edge]:
    """Undirected links of the instance, deduplicated and ordered by repr.

    This is the element order every scenario generator and timeline process
    iterates in, so seeded sampling stays deterministic across platforms.
    """
    seen: set[frozenset] = set()
    out: list[Edge] = []
    for u, v in sorted(problem.network.edges, key=repr):
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        out.append((u, v))
    return out


def apply_failure(
    problem: ProblemInstance, scenario: FailureScenario
) -> DegradedProblem:
    """Derive the degraded instance that survives ``scenario``.

    Faults are applied in order; a fault referencing a link or node that no
    longer exists (e.g. already removed by an earlier fault in the same
    scenario) raises :class:`~repro.exceptions.InvalidProblemError` so typos
    in hand-written scenarios fail loudly.

    No graph is copied: the degraded network is
    :meth:`~repro.graph.network.CacheNetwork.derive` of ``problem.network``,
    which reads the healthy links minus the failed node and directed-link
    ids, with scaled capacities as a per-link overlay.  It builds its own
    graph only when a consumer reads ``.graph``.
    """
    network = problem.network
    failed_nodes: set[Node] = set()
    failed_links: set[Edge] = set()
    capacities: dict[Edge, float] = {}

    def alive(u: Node, v: Node) -> bool:
        return (u, v) not in failed_links and network.has_edge(u, v)

    for fault in scenario.faults:
        if isinstance(fault, LinkFailure):
            removed = False
            for u, v in fault.directed_edges:
                if alive(u, v):
                    failed_links.add((u, v))
                    removed = True
            if not removed:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"link ({fault.u!r}, {fault.v!r})"
                )
        elif isinstance(fault, NodeFailure):
            if fault.node not in network or fault.node in failed_nodes:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"node {fault.node!r}"
                )
            failed_links.update(network.in_edges(fault.node))
            failed_links.update(network.out_edges(fault.node))
            failed_nodes.add(fault.node)
        elif isinstance(fault, CapacityDegradation):
            if not 0.0 < fault.factor <= 1.0:
                raise InvalidProblemError(
                    f"degradation factor must be in (0, 1], got {fault.factor!r}"
                )
            targets = fault.links
            if targets is None:
                targets = [e for e in network.edges if e not in failed_links]
            for u, v in targets:
                if not alive(u, v):
                    raise InvalidProblemError(
                        f"failure scenario {scenario.name!r} degrades missing "
                        f"link ({u!r}, {v!r})"
                    )
                cap = capacities.get((u, v))
                if cap is None:
                    cap = network.capacity(u, v)
                capacities[(u, v)] = cap * fault.factor
        else:  # pragma: no cover - guarded by the Fault union
            raise InvalidProblemError(f"unknown fault type {type(fault).__name__}")

    demand: dict[Request, float] = {}
    lost: dict[Request, float] = {}
    for (item, s), rate in problem.demand.items():
        (lost if s in failed_nodes else demand)[(item, s)] = rate
    pinned = frozenset(
        (v, i) for (v, i) in problem.pinned if v not in failed_nodes
    )
    nodes, links = frozenset(failed_nodes), frozenset(failed_links)
    degraded = ProblemInstance(
        network=network.derive(
            nodes,
            links,
            {e: c for e, c in capacities.items() if e not in links},
        ),
        catalog=problem.catalog,
        demand=demand,
        item_sizes=None if problem.item_sizes is None else dict(problem.item_sizes),
        pinned=pinned,
    )
    return DegradedProblem(
        scenario=scenario,
        problem=degraded,
        failed_nodes=nodes,
        failed_links=links,
        lost_demand=lost,
    )


# ----------------------------------------------------------------------
# Scenario generators
# ----------------------------------------------------------------------


def single_link_failures(problem: ProblemInstance) -> list[FailureScenario]:
    """One scenario per undirected link of the instance (deterministic order)."""
    return [
        FailureScenario(name=f"link:{u!r}--{v!r}", faults=(LinkFailure(u, v),))
        for u, v in canonical_links(problem)
    ]


def k_link_failures(problem: ProblemInstance, k: int) -> list[FailureScenario]:
    """Every set of ``k`` simultaneous undirected link failures."""
    if k < 1:
        raise InvalidProblemError("k must be >= 1")
    return [
        FailureScenario(
            name="links:" + "+".join(f"{u!r}--{v!r}" for u, v in combo),
            faults=tuple(LinkFailure(u, v) for u, v in combo),
        )
        for combo in itertools.combinations(canonical_links(problem), k)
    ]


def single_node_failures(
    problem: ProblemInstance, *, exclude: tuple[Node, ...] = ()
) -> list[FailureScenario]:
    """One scenario per node (pass ``exclude=(origin,)`` to spare the origin)."""
    excluded = set(exclude)
    return [
        FailureScenario(name=f"node:{v!r}", faults=(NodeFailure(v),))
        for v in sorted(problem.network.nodes, key=repr)
        if v not in excluded
    ]


def sample_failures(
    problem: ProblemInstance,
    *,
    n_scenarios: int,
    links_per_scenario: int = 1,
    nodes_per_scenario: int = 0,
    exclude_nodes: tuple[Node, ...] = (),
    seed: int = 0,
) -> list[FailureScenario]:
    """Seeded random failure scenarios (without-replacement per scenario).

    Every call with the same arguments yields the same scenarios — samplers
    derive everything from ``numpy.random.default_rng(seed)``.

    Sampling is with replacement *across* scenarios: one seed can emit the
    same fault set twice (likely on small topologies).
    """
    if n_scenarios < 1:
        raise InvalidProblemError("n_scenarios must be >= 1")
    rng = np.random.default_rng(seed)
    links = canonical_links(problem)
    nodes = [
        v for v in sorted(problem.network.nodes, key=repr)
        if v not in set(exclude_nodes)
    ]
    if links_per_scenario > len(links):
        raise InvalidProblemError("links_per_scenario exceeds the link count")
    if nodes_per_scenario > len(nodes):
        raise InvalidProblemError("nodes_per_scenario exceeds the node count")
    scenarios: list[FailureScenario] = []
    for k in range(n_scenarios):
        faults: list[Fault] = []
        if links_per_scenario:
            chosen = rng.choice(len(links), size=links_per_scenario, replace=False)
            faults.extend(LinkFailure(*links[j]) for j in sorted(chosen))
        if nodes_per_scenario:
            chosen = rng.choice(len(nodes), size=nodes_per_scenario, replace=False)
            faults.extend(NodeFailure(nodes[j]) for j in sorted(chosen))
        scenarios.append(FailureScenario(name=f"random:{k}", faults=tuple(faults)))
    return scenarios
