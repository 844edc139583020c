"""Discrete-event failure timelines: stochastic fail/repair processes.

PR-3's survivability layer scores *snapshots*: one scenario, one recovery,
one record.  Real cache networks live through failure processes — links
flap, nodes die and come back, shared conduits cut several links at once.
This module turns a healthy :class:`~repro.core.problem.ProblemInstance`
into a deterministic, seeded **event sequence**:

- every undirected link and every (non-excluded) node runs an independent
  alternating-renewal process: exponential time-to-failure (``mtbf``)
  followed by exponential time-to-repair (``mttr``);
- with probability ``flap_probability`` a failure is a transient *flap*
  whose duration is drawn from the much shorter ``flap_mttr`` instead —
  the events controllers should absorb with backoff rather than re-route;
- shared-risk link groups (``srlg_groups``) add correlated failures: one
  process per group emits simultaneous :class:`FailureEvent`'s for every
  member link (a backhoe cutting a conduit).  Overlap with the per-link
  processes is legal — the replay layer down-counts per element, so a link
  is up only when *all* processes covering it have repaired it.

Determinism: every process draws from its own ``numpy`` generator spawned
from ``SeedSequence(seed)`` in a fixed element order, so the emitted
:class:`FailureTimeline` is a pure function of ``(problem, config, seed)``
regardless of dict ordering or platform.  Events are sorted by
``(time, repairs-before-failures, repr(fault))``.

:func:`timeline_from_scenario` embeds a static :class:`FailureScenario`
as a single permanent failure at ``t=0`` — the bridge the chaos harness
uses to assert that replaying a timeline degenerates *bit-identically* to
the static ``survivability_record`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.problem import Node, ProblemInstance
from repro.exceptions import InvalidProblemError
from repro.robustness.faults import (
    Fault,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    canonical_links,
)

Edge = tuple[Node, Node]


def validate_horizon(horizon: float) -> None:
    """Reject a horizon that is not a finite positive number: the renewal
    processes run until they pass it, and the replay divides by it."""
    if not 0.0 < horizon < float("inf"):
        raise InvalidProblemError("timeline horizon must be finite and > 0")


@dataclass(frozen=True)
class FailureEvent:
    """An element goes down at ``time`` (``transient`` marks a short flap)."""

    time: float
    fault: Fault
    transient: bool = False

    def describe(self) -> str:
        kind = "flap" if self.transient else "fail"
        return f"t={self.time:g} {kind} {self.fault.describe()}"


@dataclass(frozen=True)
class RepairEvent:
    """The element taken down by ``fault`` comes back up at ``time``."""

    time: float
    fault: Fault

    def describe(self) -> str:
        return f"t={self.time:g} repair {self.fault.describe()}"


TimelineEvent = Union[FailureEvent, RepairEvent]


def _event_sort_key(event: TimelineEvent) -> tuple:
    # Repairs sort before failures at identical timestamps so a replay never
    # sees a spurious double-down; repr(fault) breaks the remaining ties.
    return (event.time, 0 if isinstance(event, RepairEvent) else 1, repr(event.fault))


@dataclass(frozen=True)
class TimelineConfig:
    """Knobs of the stochastic fail/repair processes (times in model units).

    ``link_mtbf``/``node_mtbf`` of ``None`` disable that element class
    entirely.  ``srlg_groups`` lists undirected link tuples that fail
    together, each group driven by its own ``srlg_mtbf``/``srlg_mttr``
    process.
    """

    horizon: float = 100.0
    link_mtbf: float | None = 50.0
    link_mttr: float = 5.0
    node_mtbf: float | None = None
    node_mttr: float = 10.0
    flap_probability: float = 0.0
    flap_mttr: float = 0.1
    srlg_groups: tuple[tuple[Edge, ...], ...] = ()
    srlg_mtbf: float = 200.0
    srlg_mttr: float = 5.0
    #: Nodes spared from node failures (pass the origin to keep it alive).
    exclude_nodes: tuple[Node, ...] = ()

    def validate(self) -> None:
        validate_horizon(self.horizon)
        for label, value in (
            ("link_mtbf", self.link_mtbf),
            ("node_mtbf", self.node_mtbf),
        ):
            if value is not None and not value > 0:
                raise InvalidProblemError(f"{label} must be > 0 or None")
        for label, value in (
            ("link_mttr", self.link_mttr),
            ("node_mttr", self.node_mttr),
            ("flap_mttr", self.flap_mttr),
            ("srlg_mtbf", self.srlg_mtbf),
            ("srlg_mttr", self.srlg_mttr),
        ):
            if not value > 0:
                raise InvalidProblemError(f"{label} must be > 0")
        if not 0.0 <= self.flap_probability <= 1.0:
            raise InvalidProblemError("flap_probability must be in [0, 1]")


@dataclass(frozen=True)
class FailureTimeline:
    """A deterministic, time-sorted sequence of fail/repair events."""

    name: str
    horizon: float
    events: tuple[TimelineEvent, ...] = field(default=())

    def __len__(self) -> int:
        return len(self.events)

    @property
    def failures(self) -> tuple[FailureEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, FailureEvent))

    @property
    def repairs(self) -> tuple[RepairEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, RepairEvent))

    def fault_universe(self) -> tuple[Fault, ...]:
        """Distinct faults the timeline touches, in first-appearance order."""
        seen: dict[Fault, None] = {}
        for event in self.events:
            seen.setdefault(event.fault, None)
        return tuple(seen)

    def describe(self, limit: int = 10) -> str:
        head = "; ".join(e.describe() for e in self.events[:limit])
        more = f"; ... (+{len(self.events) - limit})" if len(self.events) > limit else ""
        return f"{self.name}[horizon={self.horizon:g}]: {head}{more}"


def _alternating_renewal(
    rng: np.random.Generator,
    faults: tuple[Fault, ...],
    *,
    mtbf: float,
    mttr: float,
    flap_probability: float,
    flap_mttr: float,
    horizon: float,
) -> list[TimelineEvent]:
    """One up/down renewal process emitting events for every fault in ``faults``.

    Single-element processes pass one fault; an SRLG process passes the whole
    group so its members share exact fail/repair timestamps.  A failure whose
    repair would land past the horizon is emitted without a repair (permanent
    within the observation window).
    """
    events: list[TimelineEvent] = []
    t = 0.0
    while True:
        t += float(rng.exponential(mtbf))
        if t >= horizon:
            break
        transient = flap_probability > 0 and float(rng.random()) < flap_probability
        duration = float(rng.exponential(flap_mttr if transient else mttr))
        for fault in faults:
            events.append(FailureEvent(t, fault, transient=transient))
        t_up = t + duration
        if t_up >= horizon:
            break
        for fault in faults:
            events.append(RepairEvent(t_up, fault))
        t = t_up
    return events


def generate_timeline(
    problem: ProblemInstance,
    config: TimelineConfig,
    *,
    seed: int = 0,
    name: str = "timeline",
) -> FailureTimeline:
    """Seeded stochastic failure timeline over ``problem``'s elements.

    Processes are spawned in a fixed order — undirected links (canonical
    order), nodes (repr-sorted, minus ``exclude_nodes``), then SRLG groups —
    each with its own child of ``SeedSequence(seed)``, so the result is
    bit-stable under any iteration-order change elsewhere.
    """
    config.validate()
    processes: list[tuple[tuple[Fault, ...], float, float]] = []
    if config.link_mtbf is not None:
        for u, v in canonical_links(problem):
            processes.append(
                ((LinkFailure(u, v),), config.link_mtbf, config.link_mttr)
            )
    if config.node_mtbf is not None:
        excluded = set(config.exclude_nodes)
        for v in sorted(problem.network.nodes, key=repr):
            if v in excluded:
                continue
            processes.append(((NodeFailure(v),), config.node_mtbf, config.node_mttr))
    for group in config.srlg_groups:
        faults = tuple(LinkFailure(u, v) for u, v in group)
        if not faults:
            raise InvalidProblemError("empty SRLG group")
        for fault in faults:
            if not (
                problem.network.has_edge(fault.u, fault.v)
                or problem.network.has_edge(fault.v, fault.u)
            ):
                raise InvalidProblemError(
                    f"SRLG group references missing link ({fault.u!r}, {fault.v!r})"
                )
        processes.append((faults, config.srlg_mtbf, config.srlg_mttr))

    events: list[TimelineEvent] = []
    children = np.random.SeedSequence(seed).spawn(len(processes)) if processes else []
    for (faults, mtbf, mttr), child in zip(processes, children):
        events.extend(
            _alternating_renewal(
                np.random.default_rng(child),
                faults,
                mtbf=mtbf,
                mttr=mttr,
                flap_probability=config.flap_probability,
                flap_mttr=config.flap_mttr,
                horizon=config.horizon,
            )
        )
    events.sort(key=_event_sort_key)
    return FailureTimeline(name=name, horizon=config.horizon, events=tuple(events))


def timeline_from_scenario(
    scenario: FailureScenario, *, horizon: float = 1.0
) -> FailureTimeline:
    """Embed a static scenario as one permanent failure batch at ``t=0``.

    Replaying the result with the default (zero-delay) policy reproduces the
    static ``survivability_record`` for ``scenario`` bit-for-bit — the
    chaos harness's static-parity invariant.
    """
    validate_horizon(horizon)
    return FailureTimeline(
        name=scenario.name,
        horizon=horizon,
        events=tuple(FailureEvent(0.0, fault) for fault in scenario.faults),
    )
