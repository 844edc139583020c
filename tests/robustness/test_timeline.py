"""Discrete-event timeline generation: determinism, ordering, flaps, SRLGs."""

import pytest

from repro.exceptions import InvalidProblemError
from repro.robustness import (
    FailureEvent,
    FailureScenario,
    LinkFailure,
    NodeFailure,
    RepairEvent,
    TimelineConfig,
    canonical_links,
    generate_timeline,
    timeline_from_scenario,
)
from repro.robustness.demo import gadget_problem

BUSY = TimelineConfig(horizon=200.0, link_mtbf=10.0, link_mttr=2.0)


@pytest.fixture(scope="module")
def problem():
    return gadget_problem()


class TestGenerateTimeline:
    def test_same_seed_bit_identical(self, problem):
        a = generate_timeline(problem, BUSY, seed=3)
        b = generate_timeline(problem, BUSY, seed=3)
        assert a == b
        assert a.events  # the busy config actually produces events

    def test_different_seed_differs(self, problem):
        a = generate_timeline(problem, BUSY, seed=3)
        b = generate_timeline(problem, BUSY, seed=4)
        assert a.events != b.events

    def test_events_sorted_and_inside_horizon(self, problem):
        timeline = generate_timeline(problem, BUSY, seed=0)
        times = [e.time for e in timeline.events]
        assert times == sorted(times)
        assert all(0.0 <= t < BUSY.horizon for t in times)

    def test_repairs_match_failures_per_fault(self, problem):
        timeline = generate_timeline(problem, BUSY, seed=1)
        for fault in timeline.fault_universe():
            downs = [e for e in timeline.failures if e.fault == fault]
            ups = [e for e in timeline.repairs if e.fault == fault]
            # Alternating renewal: every repair follows a failure; at most
            # the final failure may be left unrepaired at the horizon.
            assert len(downs) - len(ups) in (0, 1)

    def test_flaps_marked_transient_and_short(self, problem):
        config = TimelineConfig(
            horizon=500.0,
            link_mtbf=10.0,
            link_mttr=20.0,
            flap_probability=1.0,
            flap_mttr=0.01,
        )
        timeline = generate_timeline(problem, config, seed=0)
        failures = timeline.failures
        assert failures and all(e.transient for e in failures)
        # With flap_mttr=0.01 vs mttr=20 the draws are unmistakably short.
        durations = []
        for fault in timeline.fault_universe():
            history = [e for e in timeline.events if e.fault == fault]
            for down, up in zip(history[:-1], history[1:]):
                if isinstance(down, FailureEvent) and isinstance(up, RepairEvent):
                    durations.append(up.time - down.time)
        assert durations and max(durations) < 1.0

    def test_srlg_members_share_timestamps(self, problem):
        group = tuple(canonical_links(problem)[:2])
        config = TimelineConfig(
            horizon=2000.0,
            link_mtbf=None,
            srlg_groups=(group,),
            srlg_mtbf=50.0,
            srlg_mttr=5.0,
        )
        timeline = generate_timeline(problem, config, seed=2)
        assert timeline.events
        by_time: dict[float, set] = {}
        for e in timeline.failures:
            by_time.setdefault(e.time, set()).add((e.fault.u, e.fault.v))
        for members in by_time.values():
            assert members == set(group)

    def test_node_processes_respect_exclude(self, problem):
        nodes = sorted(problem.network.nodes, key=repr)
        config = TimelineConfig(
            horizon=5000.0,
            link_mtbf=None,
            node_mtbf=20.0,
            node_mttr=2.0,
            exclude_nodes=(nodes[0],),
        )
        timeline = generate_timeline(problem, config, seed=0)
        failed = {e.fault.node for e in timeline.failures}
        assert failed  # other nodes do fail...
        assert nodes[0] not in failed  # ...the excluded one never does

    def test_srlg_missing_link_rejected(self, problem):
        config = TimelineConfig(srlg_groups=((("nope", "nada"),),))
        with pytest.raises(InvalidProblemError):
            generate_timeline(problem, config)

    def test_none_mtbf_disables_class(self, problem):
        config = TimelineConfig(horizon=1000.0, link_mtbf=None, node_mtbf=None)
        assert generate_timeline(problem, config, seed=0).events == ()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": 0.0},
            {"link_mtbf": -1.0},
            {"link_mttr": 0.0},
            {"node_mttr": -2.0},
            {"flap_probability": 1.5},
            {"flap_mttr": 0.0},
            {"srlg_mtbf": 0.0},
            {"horizon": float("inf")},
            {"horizon": float("nan")},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InvalidProblemError):
            TimelineConfig(**kwargs).validate()


class TestFromScenario:
    def test_embeds_permanent_failures_at_zero(self):
        scenario = FailureScenario(
            "cut", (LinkFailure("a", "b"), NodeFailure("c"))
        )
        timeline = timeline_from_scenario(scenario, horizon=3.0)
        assert timeline.name == "cut"
        assert timeline.horizon == 3.0
        assert all(isinstance(e, FailureEvent) for e in timeline.events)
        assert all(e.time == 0.0 for e in timeline.events)
        assert tuple(e.fault for e in timeline.events) == scenario.faults
        assert not any(isinstance(e, RepairEvent) for e in timeline.events)

    def test_bad_horizon_rejected(self):
        with pytest.raises(InvalidProblemError):
            timeline_from_scenario(FailureScenario("x", ()), horizon=0.0)

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_non_finite_horizon_rejected(self, horizon):
        # An infinite horizon would make the replay's integrals inf/nan.
        with pytest.raises(InvalidProblemError, match="finite"):
            timeline_from_scenario(FailureScenario("x", ()), horizon=horizon)
