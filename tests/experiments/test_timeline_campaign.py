"""Timeline campaigns through the Monte Carlo runner (extras side-channel)."""

from repro.experiments import (
    MonteCarloConfig,
    ScenarioConfig,
    TimelineAlgorithm,
    build_scenario,
    run_timeline_campaign,
    timeline_rows,
)
from repro.experiments.algorithms import greedy
from repro.robustness import RecoveryPolicy, TimelineConfig

SMALL = ScenarioConfig(seed=0, num_videos=5, link_capacity_fraction=None,
                       num_edge_nodes=5)
TCFG = TimelineConfig(horizon=20.0, link_mtbf=60.0, link_mttr=3.0,
                      flap_probability=0.2)
MC = MonteCarloConfig(n_runs=2, base_seed=123)


class TestTimelineAlgorithm:
    def test_attaches_replay_summary(self):
        scenario = build_scenario(SMALL)
        wrapped = TimelineAlgorithm(greedy, timeline_config=TCFG)
        solution = wrapped(scenario)
        summary = solution.extra_metrics["timeline"]
        assert 0.0 <= summary["availability"] <= 1.0
        assert summary["events"] > 0
        assert summary["horizon"] == TCFG.horizon

    def test_healthy_solution_unchanged(self):
        scenario = build_scenario(SMALL)
        plain = greedy(scenario)
        wrapped = TimelineAlgorithm(greedy, timeline_config=TCFG)(scenario)
        assert dict(wrapped.placement.items()) == dict(plain.placement.items())
        assert wrapped.routing.paths == plain.routing.paths

    def test_origin_excluded_from_node_failures(self):
        scenario = build_scenario(SMALL)
        wrapped = TimelineAlgorithm(
            greedy,
            timeline_config=TimelineConfig(
                horizon=20.0, link_mtbf=None, node_mtbf=5.0, node_mttr=1.0
            ),
        )
        solution = wrapped(scenario)
        # The origin holds every pin; sparing it keeps availability > 0.
        assert solution.extra_metrics["timeline"]["availability"] > 0.0


class TestCampaign:
    def test_records_carry_timeline_extras(self):
        records = run_timeline_campaign(
            SMALL, {"greedy": greedy}, MC, timeline_config=TCFG
        )
        assert len(records) == 2
        for record in records:
            assert not record.failed
            summary = record.extra["timeline"]
            assert 0.0 <= summary["availability"] <= 1.0
        rows = timeline_rows(records)
        assert len(rows) == 2
        assert {"algorithm", "seed", "availability", "reopts"} <= rows[0].keys()

    def test_parallel_matches_serial(self):
        """Two campaigns on the same seeds agree in all but wall-clock timings."""

        def run():
            return run_timeline_campaign(
                SMALL, {"greedy": greedy}, MC, timeline_config=TCFG,
                policy=RecoveryPolicy(detection_delay=0.25),
            )

        def without_timings(record):
            summary = {
                k: v for k, v in record.extra["timeline"].items() if k != "wall_seconds"
            }
            return (record.algorithm, record.seed, record.cost, record.congestion,
                    record.occupancy, record.failed, summary)

        first, second = run(), run()
        assert len(first) == 2
        assert [without_timings(r) for r in first] == [
            without_timings(r) for r in second
        ]

    def test_rows_skip_records_without_extras(self):
        records = run_timeline_campaign(
            SMALL, {"greedy": greedy}, MonteCarloConfig(n_runs=1),
            timeline_config=TCFG,
        )
        from repro.experiments.runner import RunRecord

        bare = RunRecord(
            algorithm="bare", seed=0, cost=1.0, congestion=0.0,
            occupancy=0.0, seconds=0.0,
        )
        rows = timeline_rows([*records, bare])
        assert len(rows) == len(records)
