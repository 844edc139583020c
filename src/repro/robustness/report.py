"""Survivability reporting: cost inflation, unserved demand, congestion.

For each failure scenario the report records the recovered routing's cost
(inflated by detours around the failure), the demand fraction no policy can
serve (replica and origin unreachable, or requester dead), and the
congestion the surviving links absorb.  Costs are normalized against the
*healthy* instance so ``cost_inflation = 1.0`` means the failure was free.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.evaluation import congestion, routing_cost
from repro.core.problem import ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement, Routing
from repro.robustness.degraded import degraded_context
from repro.robustness.faults import FailureScenario, apply_failure
from repro.robustness.recovery import RecoveryResult, recover

if TYPE_CHECKING:
    from repro.core.context import SolverContext

_SERVED_TOL = 1e-6


def _json_float(value):
    """Make one record field strict-JSON safe (non-finite floats → strings)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf" / "-inf" / "nan"
    return value


def _from_json_float(value):
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


@dataclass(frozen=True)
class SurvivabilityRecord:
    """One failure scenario's survivability metrics."""

    scenario: str
    #: Recovered routing cost over the demand still served.
    cost: float
    #: ``cost / healthy_cost`` (``inf`` when the healthy cost is 0 and the
    #: degraded cost is not).
    cost_inflation: float
    #: Unserved demand over the healthy instance's total demand.
    unserved_fraction: float
    #: Worst link load-to-capacity ratio under the recovered routing.
    congestion: float
    #: Surviving requests left (partially) unserved.
    stranded_requests: int
    #: Placement entries lost with failed nodes.
    dropped_entries: int
    #: Placement entries re-inserted by incremental repair.
    repaired_entries: int

    @property
    def fully_served(self) -> bool:
        return self.unserved_fraction <= _SERVED_TOL


@dataclass
class SurvivabilityReport:
    """Survivability of one placement across a set of failure scenarios."""

    healthy_cost: float
    records: list[SurvivabilityRecord]

    @property
    def worst_cost_inflation(self) -> float:
        return max((r.cost_inflation for r in self.records), default=1.0)

    @property
    def worst_unserved_fraction(self) -> float:
        return max((r.unserved_fraction for r in self.records), default=0.0)

    @property
    def fully_served_scenarios(self) -> int:
        return sum(1 for r in self.records if r.fully_served)

    def rows(self) -> list[dict]:
        """Plain-dict rows for :func:`repro.experiments.format_sweep`."""
        return [
            {
                "scenario": r.scenario,
                "cost": r.cost,
                "inflation": r.cost_inflation,
                "unserved": r.unserved_fraction,
                "congestion": r.congestion,
                "stranded": r.stranded_requests,
                "dropped": r.dropped_entries,
                "repaired": r.repaired_entries,
            }
            for r in self.records
        ]

    def format(self, *, title: str = "survivability") -> str:
        from repro.experiments.reporting import format_sweep

        table = format_sweep(
            self.rows(),
            [
                "scenario",
                "cost",
                "inflation",
                "unserved",
                "congestion",
                "stranded",
                "dropped",
                "repaired",
            ],
            title=title,
        )
        summary = (
            f"healthy cost {self.healthy_cost:,.4g} | "
            f"{self.fully_served_scenarios}/{len(self.records)} scenarios fully "
            f"served | worst inflation {self.worst_cost_inflation:.4g} | "
            f"worst unserved {self.worst_unserved_fraction:.2%}"
        )
        return f"{table}\n{summary}"

    def to_json(self, *, indent: int | None = None) -> str:
        """Strict-JSON serialization (``inf`` encoded as the string "inf").

        Disconnected scenarios can yield an infinite ``cost_inflation``;
        raw ``json.dumps`` would emit the non-standard ``Infinity`` token,
        so non-finite floats are stringified and restored by
        :meth:`from_json`.
        """
        payload = {
            "healthy_cost": _json_float(self.healthy_cost),
            "records": [
                {k: _json_float(v) for k, v in asdict(r).items()}
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "SurvivabilityReport":
        """Inverse of :meth:`to_json` — round-trips bit-for-bit."""
        payload = json.loads(text)
        return cls(
            healthy_cost=_from_json_float(payload["healthy_cost"]),
            records=[
                SurvivabilityRecord(
                    **{k: _from_json_float(v) for k, v in r.items()}
                )
                for r in payload["records"]
            ],
        )


def survivability_record(
    result: RecoveryResult, *, healthy_cost: float
) -> SurvivabilityRecord:
    """Score one recovery outcome against the healthy baseline cost."""
    problem = result.degraded.problem
    cost = routing_cost(problem, result.routing, demand=problem.demand)
    if healthy_cost > 0:
        inflation = cost / healthy_cost
    else:
        inflation = 1.0 if cost <= 0 else float("inf")
    return SurvivabilityRecord(
        scenario=result.degraded.scenario.name,
        cost=cost,
        cost_inflation=inflation,
        unserved_fraction=result.unserved_fraction,
        congestion=congestion(problem, result.routing),
        stranded_requests=len(result.stranded),
        dropped_entries=len(result.dropped),
        repaired_entries=len(result.repaired),
    )


def survivability_report(
    problem: ProblemInstance,
    placement: Placement,
    scenarios: Sequence[FailureScenario],
    *,
    repair: bool = False,
    healthy_routing: Routing | None = None,
    context: "SolverContext | None" = None,
) -> SurvivabilityReport:
    """Evaluate a placement's graceful degradation across ``scenarios``.

    ``healthy_routing`` defaults to RNR on the healthy instance, the same
    policy recovery applies after failure — so on uncapacitated instances
    cost inflation is guaranteed ≥ 1 for every fully-served scenario
    (removing links can only lengthen shortest paths).

    ``context`` is the *healthy* instance's :class:`SolverContext`; when
    given, each scenario's recovery runs on a context derived from it via
    :func:`repro.robustness.degraded.degraded_context` (distance rows
    computed on demand) instead of a per-scenario shortest-path cache.
    Results are identical either way; only the wall-clock changes.
    """
    if healthy_routing is None:
        healthy_routing = route_to_nearest_replica(
            problem, placement, context=context
        )
    healthy_cost = routing_cost(problem, healthy_routing, demand=problem.demand)
    records = []
    for scenario in scenarios:
        degraded = apply_failure(problem, scenario)
        ctx = degraded_context(context, degraded) if context is not None else None
        records.append(
            survivability_record(
                recover(degraded, placement, repair=repair, context=ctx),
                healthy_cost=healthy_cost,
            )
        )
    return SurvivabilityReport(healthy_cost=healthy_cost, records=records)
