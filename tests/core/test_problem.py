"""Tests for ProblemInstance validation and helpers."""

import pytest

from repro.core import ProblemInstance, pin_full_catalog
from repro.exceptions import InvalidProblemError
from repro.graph import line_topology

from tests.core.conftest import make_line_problem


class TestValidation:
    def test_valid_instance(self):
        prob = make_line_problem()
        assert len(prob.catalog) == 2
        assert prob.total_demand == pytest.approx(6.0)

    def test_empty_catalog_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(line_topology(3), (), {})

    def test_duplicate_catalog_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(line_topology(3), ("a", "a"), {})

    def test_unknown_demand_item_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(line_topology(3), ("a",), {("zz", 1): 1.0})

    def test_unknown_demand_node_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(line_topology(3), ("a",), {("a", 99): 1.0})

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(line_topology(3), ("a",), {("a", 1): 0.0})

    def test_missing_item_sizes_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(
                line_topology(3), ("a", "b"), {("a", 1): 1.0}, item_sizes={"a": 1.0}
            )

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(
                line_topology(3), ("a",), {("a", 1): 1.0}, item_sizes={"a": 0.0}
            )

    def test_pinned_unknown_node_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(
                line_topology(3), ("a",), {("a", 1): 1.0}, pinned={(99, "a")}
            )

    def test_pinned_unknown_item_rejected(self):
        with pytest.raises(InvalidProblemError):
            ProblemInstance(
                line_topology(3), ("a",), {("a", 1): 1.0}, pinned={(0, "zz")}
            )


class TestHelpers:
    def test_requests_sorted_deterministically(self):
        prob = make_line_problem()
        assert prob.requests == sorted(prob.demand, key=repr)

    def test_size_of_defaults_to_one(self):
        prob = make_line_problem()
        assert prob.size_of(prob.catalog[0]) == 1.0
        assert prob.is_homogeneous()

    def test_heterogeneous_sizes(self):
        net = line_topology(3)
        prob = ProblemInstance(
            net, ("a", "b"), {("a", 1): 1.0}, item_sizes={"a": 2.0, "b": 5.0}
        )
        assert prob.size_of("b") == 5.0
        assert not prob.is_homogeneous()

    def test_uniform_non_unit_sizes_are_not_homogeneous(self):
        # Homogeneous means the unit-size model of Section 4: count-based
        # solvers would overfill caches with equal sizes above 1.
        net = line_topology(3)
        prob = ProblemInstance(
            net, ("a", "b"), {("a", 1): 1.0}, item_sizes={"a": 3.0, "b": 3.0}
        )
        assert not prob.is_homogeneous()
        unit = ProblemInstance(
            net, ("a", "b"), {("a", 1): 1.0}, item_sizes={"a": 1.0, "b": 1.0}
        )
        assert unit.is_homogeneous()

    def test_pinned_lookups(self):
        prob = make_line_problem()
        assert prob.pinned_items_at(0) == set(prob.catalog)
        assert prob.pinned_holders(prob.catalog[0]) == {0}
        assert prob.pinned_items_at(1) == set()

    def test_pin_full_catalog(self):
        pins = pin_full_catalog(("a", "b"), [0, 1])
        assert pins == frozenset({(0, "a"), (0, "b"), (1, "a"), (1, "b")})

    def test_with_demand_preserves_everything_else(self):
        prob = make_line_problem()
        other = prob.with_demand({(prob.catalog[0], 2): 3.0})
        assert other.total_demand == pytest.approx(3.0)
        assert other.pinned == prob.pinned
        assert other.network is prob.network

    def test_requesters_of(self):
        prob = make_line_problem()
        assert prob.requesters_of(prob.catalog[0]) == [4]

    def test_repr(self):
        assert "|C|=2" in repr(make_line_problem())
