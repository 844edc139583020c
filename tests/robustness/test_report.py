"""Survivability reporting: records, aggregates, and formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import congestion, routing_cost
from repro.core.problem import ProblemInstance
from repro.core.rnr import route_to_nearest_replica
from repro.graph.network import CacheNetwork
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    FailureTimeline,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
    recover,
    replay_timeline,
    single_link_failures,
    single_node_failures,
    survivability_record,
    survivability_report,
)
from repro.robustness.chaos import random_placement, random_problem
from repro.robustness.demo import gadget_placement, gadget_problem, run_gadget_demo
from repro.serving.tables import compile_tables


@pytest.fixture(scope="module")
def gadget_report():
    return run_gadget_demo(repair=True)


class TestRecord:
    def test_detour_scenario_fields(self):
        problem = gadget_problem(lam=10.0, eps=0.01, w=5.0)
        degraded = apply_failure(
            problem, FailureScenario("f", (LinkFailure("v1", "s"),))
        )
        result = recover(degraded, gadget_placement())
        tables = compile_tables(problem, result.routing, allow_unrouted=True)
        record = survivability_record(result, tables, healthy_cost=1.0)
        # item1 detours vs->v2->s (cost 10), item2 stays on v2->s (cost 5).
        assert record.cost == pytest.approx(10.0 * 10.0 + 0.01 * 5.0)
        assert record.cost_inflation == pytest.approx(record.cost)
        assert record.fully_served
        assert record.unserved_fraction == 0.0
        assert record.stranded_requests == 0
        assert record.scenario == "f"

    def test_zero_healthy_cost_inflation(self):
        problem = gadget_problem()
        degraded = apply_failure(
            problem, FailureScenario("f", (LinkFailure("v1", "s"),))
        )
        result = recover(degraded, gadget_placement())
        tables = compile_tables(problem, result.routing, allow_unrouted=True)
        record = survivability_record(result, tables, healthy_cost=0.0)
        assert record.cost_inflation == float("inf")


class TestReport:
    def test_gadget_fully_survives_single_faults(self, gadget_report):
        assert gadget_report.fully_served_scenarios == len(gadget_report.records)
        assert gadget_report.worst_unserved_fraction == 0.0
        # Both client links survive every single fault, so inflation >= 1.
        assert gadget_report.worst_cost_inflation >= 1.0

    def test_inflation_at_least_one_when_fully_served(self):
        problem = gadget_problem()
        placement = gadget_placement()
        scenarios = single_link_failures(problem) + single_node_failures(
            problem, exclude=("s",)
        )
        report = survivability_report(problem, placement, scenarios)
        for record in report.records:
            if record.fully_served:
                assert record.cost_inflation >= 1.0 - 1e-9, record.scenario

    def test_rows_align_with_records(self, gadget_report):
        rows = gadget_report.rows()
        assert len(rows) == len(gadget_report.records)
        for row, record in zip(rows, gadget_report.records):
            assert row["scenario"] == record.scenario
            assert row["inflation"] == record.cost_inflation
            assert row["unserved"] == record.unserved_fraction

    def test_format_is_readable(self, gadget_report):
        text = gadget_report.format(title="gadget")
        assert "gadget" in text
        assert "fully served" in text
        assert "worst inflation" in text
        for record in gadget_report.records:
            assert record.scenario in text

    def test_empty_report_defaults(self):
        problem = gadget_problem()
        report = survivability_report(problem, gadget_placement(), [])
        assert report.records == []
        assert report.worst_cost_inflation == 1.0
        assert report.worst_unserved_fraction == 0.0
        assert report.fully_served_scenarios == 0


class TestSatelliteColumns:
    def test_rows_expose_stranded_and_dropped(self, gadget_report):
        for row, record in zip(gadget_report.rows(), gadget_report.records):
            assert row["stranded"] == record.stranded_requests
            assert row["dropped"] == record.dropped_entries

    def test_format_includes_new_columns(self, gadget_report):
        text = gadget_report.format()
        assert "stranded" in text
        assert "dropped" in text


class TestJsonRoundTrip:
    def test_gadget_report_round_trips(self, gadget_report):
        from repro.robustness import SurvivabilityReport

        text = gadget_report.to_json(indent=2)
        clone = SurvivabilityReport.from_json(text)
        assert clone == gadget_report

    def test_infinite_inflation_survives_strict_json(self):
        import json

        from repro.robustness import SurvivabilityRecord, SurvivabilityReport

        report = SurvivabilityReport(
            healthy_cost=0.0,
            records=[
                SurvivabilityRecord(
                    scenario="isolated",
                    cost=4.2,
                    cost_inflation=float("inf"),
                    unserved_fraction=1.0,
                    congestion=0.0,
                    stranded_requests=2,
                    dropped_entries=1,
                    repaired_entries=0,
                )
            ],
        )
        text = report.to_json()
        # Strict JSON: parseable by any consumer, no Infinity token.
        assert "Infinity" not in text
        json.loads(text)
        clone = SurvivabilityReport.from_json(text)
        assert clone == report
        assert clone.records[0].cost_inflation == float("inf")


def sized_capacitated_instance(seed: int):
    """A random instance with finite capacities on most links, heterogeneous
    item sizes and a fractional placement, plus a fault set drawn from link,
    node and capacity faults (applied in the controller's safe order)."""
    rng = np.random.default_rng(seed)
    base = random_problem(rng, n_nodes=int(rng.integers(5, 9)), n_items=3)
    graph = base.network.graph.copy()
    for u, v in graph.edges:
        if rng.random() < 0.7:
            graph.edges[u, v]["capacity"] = float(rng.uniform(0.5, 20.0))
    network = CacheNetwork(
        graph, {v: base.network.cache_capacity(v) for v in base.network.cache_nodes()}
    )
    problem = ProblemInstance(
        network,
        base.catalog,
        base.demand,
        item_sizes={i: float(rng.uniform(0.2, 3.0)) for i in base.catalog},
        pinned=base.pinned,
    )
    placement = random_placement(rng, problem)
    for key in list(placement):
        if rng.random() < 0.5:
            placement[key] = float(rng.uniform(0.1, 0.9))
    faults = []
    if rng.random() < 0.5:
        links = None
        if rng.random() < 0.5:
            links = tuple(e for e in network.edges if rng.random() < 0.5) or None
        faults.append(CapacityDegradation(float(rng.uniform(0.2, 1.0)), links))
    links = canonical_links(problem)
    for j in rng.choice(len(links), size=int(rng.integers(0, 3)), replace=False):
        faults.append(LinkFailure(*links[int(j)]))
    if rng.random() < 0.5:
        faults.append(NodeFailure(f"n{int(rng.integers(1, len(network.nodes)))}"))
    return problem, placement, FailureScenario("mixed", tuple(faults))


class TestTablePriceParity:
    """Records priced from compiled tables agree with the path walkers
    (``routing_cost``/``congestion``) to the last few bits."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), repair=st.booleans())
    def test_matches_path_walk(self, seed, repair):
        problem, placement, scenario = sized_capacitated_instance(seed)
        exact = pytest.approx

        report = survivability_report(problem, placement, [], repair=repair)
        healthy = route_to_nearest_replica(problem, placement)
        walked = routing_cost(problem, healthy)
        assert report.healthy_cost == exact(walked, rel=1e-12, abs=0)
        timeline = replay_timeline(
            problem, placement, FailureTimeline("none", 1.0, ())
        )
        assert timeline.healthy_cost == report.healthy_cost

        degraded = apply_failure(problem, scenario)
        result = recover(degraded, placement, repair=repair)
        tables = compile_tables(problem, result.routing, allow_unrouted=True)
        record = survivability_record(result, tables, healthy_cost=1.0)
        walked = routing_cost(degraded.problem, result.routing)
        assert record.cost == exact(walked, rel=1e-12, abs=0)
        walked = congestion(degraded.problem, result.routing)
        assert record.congestion == exact(walked, rel=1e-12, abs=0)
