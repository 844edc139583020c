"""Failure resilience: fault injection, graceful-degradation recovery, reports.

The subsystem answers "what happens when a link or cache node dies?" for any
placement produced by the paper's algorithms:

>>> from repro.robustness import single_link_failures, survivability_report
>>> report = survivability_report(problem, placement, single_link_failures(problem))
>>> print(report.format())

Static sweeps ignore *when* faults happen; the timeline stack adds the time
axis.  :func:`generate_timeline` draws a seeded discrete-event fault
sequence, :func:`replay_timeline` runs an online recovery controller through
it, and :func:`run_chaos` fuzzes the whole pipeline under invariants on
small random topologies, 1k–10k-node hierarchies and streamed workloads:

>>> from repro.robustness import TimelineConfig, generate_timeline, replay_timeline
>>> timeline = generate_timeline(problem, TimelineConfig(horizon=100.0), seed=0)
>>> print(replay_timeline(problem, placement, timeline).format())

See :mod:`repro.robustness.faults` for the failure model,
:mod:`repro.robustness.recovery` for the re-route/repair policies,
:mod:`repro.robustness.timeline` / :mod:`repro.robustness.controller` for
fault dynamics, :mod:`repro.robustness.chaos` for the invariant harness, and
:mod:`repro.robustness.demo` for a self-contained gadget walkthrough.
"""

from repro.robustness.chaos import (
    ChaosConfig,
    ChaosReport,
    InvariantChecker,
    check_static_parity,
    check_streaming_invariants,
    hierarchy_problem,
    run_chaos,
)
from repro.robustness.controller import (
    RecoveryPolicy,
    TimelineController,
    TimelineReport,
    replay_timeline,
)
from repro.robustness.degraded import degraded_context
from repro.robustness.faults import (
    CapacityDegradation,
    DegradedProblem,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
    k_link_failures,
    sample_failures,
    single_link_failures,
    single_node_failures,
)
from repro.robustness.recovery import (
    RecoveryResult,
    cluster_local_recover,
    recover,
    repair_placement,
    surviving_placement,
)
from repro.robustness.report import (
    SurvivabilityRecord,
    SurvivabilityReport,
    survivability_record,
    survivability_report,
)
from repro.robustness.streaming import (
    StreamingTimelineReport,
    StreamSegment,
    replay_timeline_streaming,
)
from repro.robustness.timeline import (
    FailureEvent,
    FailureTimeline,
    RepairEvent,
    TimelineConfig,
    generate_timeline,
    timeline_from_scenario,
)

__all__ = [
    "LinkFailure",
    "NodeFailure",
    "CapacityDegradation",
    "FailureScenario",
    "DegradedProblem",
    "apply_failure",
    "canonical_links",
    "single_link_failures",
    "k_link_failures",
    "single_node_failures",
    "sample_failures",
    "degraded_context",
    "FailureEvent",
    "RepairEvent",
    "FailureTimeline",
    "TimelineConfig",
    "generate_timeline",
    "timeline_from_scenario",
    "RecoveryPolicy",
    "TimelineController",
    "TimelineReport",
    "replay_timeline",
    "StreamSegment",
    "StreamingTimelineReport",
    "replay_timeline_streaming",
    "ChaosConfig",
    "ChaosReport",
    "InvariantChecker",
    "check_static_parity",
    "check_streaming_invariants",
    "hierarchy_problem",
    "run_chaos",
    "RecoveryResult",
    "cluster_local_recover",
    "recover",
    "repair_placement",
    "surviving_placement",
    "SurvivabilityRecord",
    "SurvivabilityReport",
    "survivability_record",
    "survivability_report",
]
