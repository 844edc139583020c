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
materializes the surviving :class:`DegradedProblem`.  Scenario generators
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
from repro.graph.network import CAPACITY, CacheNetwork

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
    unserved.
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


_canonical_links = canonical_links


def apply_failure(
    problem: ProblemInstance, scenario: FailureScenario
) -> DegradedProblem:
    """Materialize the degraded instance that survives ``scenario``.

    Faults are applied in order; a fault referencing a link or node that no
    longer exists (e.g. already removed by an earlier fault in the same
    scenario) raises :class:`~repro.exceptions.InvalidProblemError` so typos
    in hand-written scenarios fail loudly.
    """
    graph = problem.network.graph.copy()
    cache = problem.network.cache_capacities
    failed_nodes: set[Node] = set()
    failed_links: set[Edge] = set()

    for fault in scenario.faults:
        if isinstance(fault, LinkFailure):
            removed = False
            for u, v in fault.directed_edges:
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
                    failed_links.add((u, v))
                    removed = True
            if not removed:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"link ({fault.u!r}, {fault.v!r})"
                )
        elif isinstance(fault, NodeFailure):
            if fault.node not in graph:
                raise InvalidProblemError(
                    f"failure scenario {scenario.name!r} removes missing "
                    f"node {fault.node!r}"
                )
            failed_links.update(graph.in_edges(fault.node))
            failed_links.update(graph.out_edges(fault.node))
            graph.remove_node(fault.node)
            cache.pop(fault.node, None)
            failed_nodes.add(fault.node)
        elif isinstance(fault, CapacityDegradation):
            if not 0.0 < fault.factor <= 1.0:
                raise InvalidProblemError(
                    f"degradation factor must be in (0, 1], got {fault.factor!r}"
                )
            targets = fault.links if fault.links is not None else list(graph.edges)
            for u, v in targets:
                if not graph.has_edge(u, v):
                    raise InvalidProblemError(
                        f"failure scenario {scenario.name!r} degrades missing "
                        f"link ({u!r}, {v!r})"
                    )
                graph.edges[u, v][CAPACITY] = graph.edges[u, v][CAPACITY] * fault.factor
        else:  # pragma: no cover - guarded by the Fault union
            raise InvalidProblemError(f"unknown fault type {type(fault).__name__}")

    demand: dict[Request, float] = {}
    lost: dict[Request, float] = {}
    for (item, s), rate in problem.demand.items():
        (lost if s in failed_nodes else demand)[(item, s)] = rate
    pinned = frozenset(
        (v, i) for (v, i) in problem.pinned if v not in failed_nodes
    )
    degraded = ProblemInstance(
        network=CacheNetwork(graph, cache),
        catalog=problem.catalog,
        demand=demand,
        item_sizes=None if problem.item_sizes is None else dict(problem.item_sizes),
        pinned=pinned,
    )
    return DegradedProblem(
        scenario=scenario,
        problem=degraded,
        failed_nodes=frozenset(failed_nodes),
        failed_links=frozenset(failed_links),
        lost_demand=lost,
    )


# ----------------------------------------------------------------------
# Scenario generators
# ----------------------------------------------------------------------


def single_link_failures(
    problem: ProblemInstance, *, both_directions: bool = True
) -> list[FailureScenario]:
    """One scenario per undirected link of the instance (deterministic order)."""
    return [
        FailureScenario(
            name=f"link:{u!r}--{v!r}",
            faults=(LinkFailure(u, v, both_directions=both_directions),),
        )
        for u, v in _canonical_links(problem)
    ]


def k_link_failures(
    problem: ProblemInstance, k: int, *, both_directions: bool = True
) -> list[FailureScenario]:
    """Every set of ``k`` simultaneous undirected link failures."""
    if k < 1:
        raise InvalidProblemError("k must be >= 1")
    links = _canonical_links(problem)
    return [
        FailureScenario(
            name="links:" + "+".join(f"{u!r}--{v!r}" for u, v in combo),
            faults=tuple(
                LinkFailure(u, v, both_directions=both_directions) for u, v in combo
            ),
        )
        for combo in itertools.combinations(links, k)
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
    unique: bool = False,
) -> list[FailureScenario]:
    """Seeded random failure scenarios (without-replacement per scenario).

    Every call with the same arguments yields the same scenarios — samplers
    derive everything from ``numpy.random.default_rng(seed)``.

    Sampling is with replacement *across* scenarios: one seed can emit the
    same fault set twice (likely on small topologies).  ``unique=True``
    keeps drawing until ``n_scenarios`` distinct fault sets are collected
    (raising :class:`InvalidProblemError` when the element pool cannot
    supply that many); the default preserves the historical duplicated
    stream bit-for-bit.
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
    seen: set[frozenset] = set()
    max_attempts = 100 * n_scenarios
    attempts = 0
    while len(scenarios) < n_scenarios:
        if attempts >= max_attempts:
            raise InvalidProblemError(
                f"could not sample {n_scenarios} unique scenarios in "
                f"{max_attempts} attempts (element pool too small?)"
            )
        attempts += 1
        faults: list[Fault] = []
        if links_per_scenario:
            chosen = rng.choice(len(links), size=links_per_scenario, replace=False)
            faults.extend(LinkFailure(*links[j]) for j in sorted(chosen))
        if nodes_per_scenario:
            chosen = rng.choice(len(nodes), size=nodes_per_scenario, replace=False)
            faults.extend(NodeFailure(nodes[j]) for j in sorted(chosen))
        if unique:
            key = frozenset(faults)
            if key in seen:
                continue
            seen.add(key)
        scenarios.append(
            FailureScenario(name=f"random:{len(scenarios)}", faults=tuple(faults))
        )
    return scenarios
