"""Survivability reporting: cost inflation, unserved demand, congestion.

For each failure scenario the report records the recovered routing's cost
(inflated by detours around the failure), the demand fraction no policy can
serve (replica and origin unreachable, or requester dead), and the
congestion the surviving links absorb.  Costs are normalized against the
*healthy* instance so ``cost_inflation = 1.0`` means the failure was free.
Every routing is priced from its :class:`~repro.serving.tables.RoutingTables`
over the healthy instance, the table the timeline controller installs, so
static and timeline records are equal by construction.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from repro.core.context import SolverContext
from repro.core.evaluation import link_utilization
from repro.core.problem import ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.core.solution import Placement
from repro.robustness.degraded import degraded_context
from repro.robustness.faults import FailureScenario, apply_failure
from repro.robustness.recovery import RecoveryResult, recover
from repro.serving.tables import RoutingTables, compile_tables

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
    result: RecoveryResult, tables: RoutingTables, *, healthy_cost: float
) -> SurvivabilityRecord:
    """Score one recovery outcome against the healthy baseline cost.

    ``tables`` is ``result.routing`` compiled over the *healthy* instance
    (``allow_unrouted=True``); cost and congestion are read from it."""
    cost = tables.expected_cost_rate()
    if healthy_cost > 0:
        inflation = cost / healthy_cost
    else:
        inflation = 1.0 if cost <= 0 else float("inf")
    utilization = link_utilization(result.degraded.problem.network, tables.link_rates())
    return SurvivabilityRecord(
        scenario=result.degraded.scenario.name,
        cost=cost,
        cost_inflation=inflation,
        unserved_fraction=result.unserved_fraction,
        congestion=max(utilization.values(), default=0.0),
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
    context: SolverContext | None = None,
) -> SurvivabilityReport:
    """Evaluate a placement's graceful degradation across ``scenarios``.

    The healthy cost is RNR's on the healthy instance, the same policy
    recovery applies after failure — so on uncapacitated instances cost
    inflation is guaranteed ≥ 1 for every fully-served scenario (removing
    links can only lengthen shortest paths).

    ``context`` is the *healthy* instance's :class:`SolverContext` (a lazy
    one is built when none is passed); each scenario's recovery runs on a
    context derived from it via
    :func:`repro.robustness.degraded.degraded_context`, whose distance rows
    are computed on demand.
    """
    context = context or SolverContext.from_problem(problem, backend="lazy")
    healthy_routing = route_to_nearest_replica(problem, placement, context=context)
    healthy_tables = compile_tables(problem, healthy_routing, allow_unrouted=True)
    healthy_cost = healthy_tables.expected_cost_rate()
    records = []
    for scenario in scenarios:
        degraded = apply_failure(problem, scenario)
        ctx = degraded_context(context, degraded)
        result = recover(degraded, placement, repair=repair, context=ctx)
        tables = compile_tables(problem, result.routing, allow_unrouted=True)
        records.append(survivability_record(result, tables, healthy_cost=healthy_cost))
    return SurvivabilityReport(healthy_cost=healthy_cost, records=records)
