"""Tests for the sparse LP builder (variable blocks, COO batches, edge cases)."""

import math

import numpy as np
import pytest

from repro.exceptions import (
    InfeasibleError,
    InvalidProblemError,
    SolverError,
    UnboundedError,
)
from repro.flow import LPBuilder
from tests.flow.keyed_lp import KeyedLP, assert_same_materialized


class TestLPBuilder:
    def test_simple_minimization(self):
        lp = LPBuilder("min")
        v = lp.add_variable_block("v", 2, cost=[1.0, 2.0])
        lp.add_ge_batch([0, 0], v.indices(), [1.0, 1.0], [4.0])
        sol = lp.solve()
        assert sol.objective == pytest.approx(4.0)
        np.testing.assert_allclose(sol.block("v"), [4.0, 0.0], atol=1e-9)

    def test_simple_maximization(self):
        lp = LPBuilder("max")
        lp.add_variable_block("x", 1, ub=3.0, cost=5.0)
        sol = lp.solve()
        assert sol.objective == pytest.approx(15.0)

    def test_equality_constraint(self):
        lp = LPBuilder("min")
        v = lp.add_variable_block("v", 2, cost=1.0)
        lp.add_eq_batch([0, 0], v.indices(), [1.0, 2.0], [6.0])
        x, y = lp.solve().block("v")
        assert x + 2 * y == pytest.approx(6.0)
        assert x + y == pytest.approx(3.0)  # all mass on y

    def test_le_constraint_binds(self):
        lp = LPBuilder("max")
        x = lp.add_variable_block("x", 1, cost=1.0)
        lp.add_le_batch([0], x.indices(), [2.0], [10.0])
        assert lp.solve().block("x")[0] == pytest.approx(5.0)

    def test_infinite_rhs_skipped(self):
        lp = LPBuilder("max")
        x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        lp.add_le_batch([0], x.indices(), [1.0], [math.inf])
        assert lp.num_constraints == 0
        assert lp.solve().objective == pytest.approx(1.0)

    def test_unknown_sense_rejected(self):
        with pytest.raises(ValueError):
            LPBuilder("maximize-ish")

    def test_infeasible_raises(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        lp.add_ge_batch([0], x.indices(), [1.0], [5.0])
        with pytest.raises(InfeasibleError):
            lp.solve()

    def test_empty_lp_raises(self):
        with pytest.raises(SolverError):
            LPBuilder().solve()

    def test_unbounded_raises_solver_error(self):
        lp = LPBuilder("max")
        lp.add_variable_block("x", 1, cost=1.0)
        with pytest.raises(SolverError):
            lp.solve()

    def test_tuple_keys(self):
        # Block names are any hashable, e.g. ("f", commodity) in mincost.
        lp = LPBuilder("min")
        lp.add_variable_block(("f", "a", "b"), 1, lb=1.0, cost=2.0)
        sol = lp.solve()
        assert sol.block(("f", "a", "b"))[0] == pytest.approx(1.0)


class TestLPBuilderEdgeCases:
    def test_empty_objective_solves_to_zero(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1, ub=1.0)
        lp.add_ge_batch([0], x.indices(), [1.0], [0.5])
        sol = lp.solve()
        assert sol.objective == 0.0
        assert 0.5 - 1e-9 <= sol.block("x")[0] <= 1.0 + 1e-9

    def test_max_sense_sign_round_trip(self):
        lp = LPBuilder("max")
        lp.add_variable_block("v", 2, ub=[4.0, 1.0], cost=[2.5, -1.0])
        sol = lp.solve()
        # Internally negated twice: the reported optimum is the max itself.
        assert sol.objective == pytest.approx(10.0)
        assert sol.block("v")[1] == pytest.approx(0.0)

    def test_nan_rhs_raises_invalid_problem(self):
        for method in ("add_le_batch", "add_ge_batch", "add_eq_batch"):
            lp = LPBuilder("min")
            x = lp.add_variable_block("x", 1)
            with pytest.raises(InvalidProblemError, match="NaN"):
                getattr(lp, method)([0], x.indices(), [1.0], [float("nan")])

    def test_nan_coefficient_raises_invalid_problem(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1)
        with pytest.raises(InvalidProblemError, match="non-finite"):
            lp.add_le_batch([0], x.indices(), [float("nan")], [1.0])

    def test_ge_infinite_rhs_is_infeasible_not_silent(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        lp.add_ge_batch([0], x.indices(), [1.0], [math.inf])
        with pytest.raises(InfeasibleError, match="trivially infeasible"):
            lp.solve()

    def test_le_minus_infinite_rhs_is_infeasible(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        lp.add_le_batch([0], x.indices(), [1.0], [-math.inf])
        with pytest.raises(InfeasibleError, match="trivially infeasible"):
            lp.solve()

    def test_eq_infinite_rhs_is_infeasible(self):
        for rhs in (math.inf, -math.inf):
            lp = LPBuilder("min")
            x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
            lp.add_eq_batch([0], x.indices(), [1.0], [rhs])
            with pytest.raises(InfeasibleError, match="trivially infeasible"):
                lp.solve()

    def test_ge_minus_infinite_rhs_skipped(self):
        lp = LPBuilder("min")
        x = lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        lp.add_ge_batch([0], x.indices(), [1.0], [-math.inf])
        assert lp.num_constraints == 0
        assert lp.solve().objective == pytest.approx(0.0)

    def test_nan_bounds_raise(self):
        for bound in ("lb", "ub"):
            lp = LPBuilder("min")
            with pytest.raises(InvalidProblemError, match="NaN bounds"):
                lp.add_variable_block("x", 2, **{bound: [0.0, float("nan")]})


class _FakeResult:
    def __init__(self, status, message="synthetic"):
        self.status = status
        self.message = message
        self.x = np.zeros(1)
        self.fun = 0.0


class TestSolveStatuses:
    """Regression tests: every non-zero linprog status maps to a clear error."""

    def _builder(self):
        lp = LPBuilder("min")
        lp.add_variable_block("x", 1, ub=1.0, cost=1.0)
        return lp

    def test_status_1_iteration_limit_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.flow.lp.linprog", lambda *a, **k: _FakeResult(1)
        )
        with pytest.raises(SolverError, match="status 1"):
            self._builder().solve()

    def test_status_2_is_infeasible(self, monkeypatch):
        monkeypatch.setattr(
            "repro.flow.lp.linprog", lambda *a, **k: _FakeResult(2)
        )
        with pytest.raises(InfeasibleError):
            self._builder().solve()

    def test_status_3_is_unbounded_with_actionable_message(self, monkeypatch):
        monkeypatch.setattr(
            "repro.flow.lp.linprog", lambda *a, **k: _FakeResult(3)
        )
        with pytest.raises(UnboundedError, match="unbounded"):
            self._builder().solve()

    def test_status_4_numerical_is_solver_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.flow.lp.linprog", lambda *a, **k: _FakeResult(4)
        )
        with pytest.raises(SolverError, match="status 4"):
            self._builder().solve()

    def test_unbounded_error_is_a_solver_error(self):
        # Callers that caught SolverError before keep working.
        assert issubclass(UnboundedError, SolverError)
        lp = LPBuilder("max")
        lp.add_variable_block("x", 1, cost=1.0)
        with pytest.raises(UnboundedError, match="unbounded"):
            lp.solve()


class TestArrayAPI:
    def test_batch_vs_dict_hand_checked(self):
        # min x + 2y  s.t.  x + y >= 4, x <= 3  ->  x=3, y=1, objective 5.
        keyed = KeyedLP("min")
        keyed.add_variable(("v", 0), cost=1.0)
        keyed.add_variable(("v", 1), cost=2.0)
        keyed.add_ge({("v", 0): 1.0, ("v", 1): 1.0}, 4.0)
        keyed.add_le({("v", 0): 1.0}, 3.0)
        objective, values = keyed.solve()

        batched = LPBuilder("min")
        block = batched.add_variable_block("v", 2, cost=[1.0, 2.0])
        batched.add_ge_batch([0, 0], block.flat([0, 1]), [1.0, 1.0], [4.0])
        batched.add_le_batch([0], [block.flat(0)], [1.0], [3.0])
        assert_same_materialized(keyed, batched)
        bs = batched.solve()

        assert bs.objective == objective == pytest.approx(5.0)
        assert bs.block("v").tolist() == [values[("v", 0)], values[("v", 1)]]
        np.testing.assert_allclose(bs.block("v"), [3.0, 1.0])

    def test_block_keys_resolve_to_multi_index(self):
        lp = LPBuilder("min")
        lp.add_variable_block("x", (2, 3), lb=1.0, cost=1.0)
        sol = lp.solve()
        assert sol.block("x").shape == (2, 3)
        assert sol.block("x")[1, 2] == pytest.approx(1.0)
        np.testing.assert_allclose(sol.block("x"), 1.0)

    def test_block_bounds_and_cost_broadcast(self):
        lp = LPBuilder("min")
        lp.add_variable_block("x", 3, lb=[1.0, 2.0, 3.0], ub=10.0, cost=[1.0, 1.0, -1.0])
        sol = lp.solve()
        np.testing.assert_allclose(sol.block("x"), [1.0, 2.0, 10.0])

    def test_flat_vectorized_and_scalar(self):
        lp = LPBuilder("min")
        lp.add_variable_block("pad", 1)  # offset the block
        block = lp.add_variable_block("x", (2, 4))
        assert block.flat(1, 3) == 1 + 1 * 4 + 3
        np.testing.assert_array_equal(
            block.flat(np.array([0, 1]), np.array([2, 0])), [1 + 2, 1 + 4]
        )
        with pytest.raises(ValueError):
            block.flat(1)

    def test_duplicate_block_name_rejected(self):
        lp = LPBuilder("min")
        lp.add_variable_block("x", 2)
        with pytest.raises(ValueError):
            lp.add_variable_block("x", 3)

    def test_batch_validation_errors(self):
        lp = LPBuilder("min")
        block = lp.add_variable_block("x", 2)
        with pytest.raises(InvalidProblemError, match="lengths differ"):
            lp.add_le_batch([0], block.flat([0, 1]), [1.0, 1.0], [1.0])
        with pytest.raises(InvalidProblemError, match="row index"):
            lp.add_le_batch([5], [block.flat(0)], [1.0], [1.0])
        with pytest.raises(InvalidProblemError, match="column index"):
            lp.add_le_batch([0], [7], [1.0], [1.0])
        with pytest.raises(InvalidProblemError, match="NaN"):
            lp.add_le_batch([0], [block.flat(0)], [1.0], [float("nan")])
        with pytest.raises(InvalidProblemError, match="non-finite"):
            lp.add_eq_batch([0], [block.flat(0)], [math.inf], [1.0])

    def test_le_batch_drops_vacuous_rows_keeps_rest(self):
        lp = LPBuilder("max")
        block = lp.add_variable_block("x", 2, ub=3.0, cost=1.0)
        lp.add_le_batch(
            [0, 1, 2],
            block.flat([0, 1, 0]),
            [1.0, 1.0, 1.0],
            [math.inf, 2.0, math.inf],
        )
        assert lp.num_constraints == 1
        sol = lp.solve()
        assert sol.block("x")[1] == pytest.approx(2.0)
        assert sol.objective == pytest.approx(5.0)

    def test_le_batch_minus_inf_marks_infeasible(self):
        lp = LPBuilder("min")
        block = lp.add_variable_block("x", 1, ub=1.0)
        lp.add_le_batch([0], [block.flat(0)], [1.0], [-math.inf])
        with pytest.raises(InfeasibleError, match="trivially infeasible"):
            lp.solve()

    def test_ge_batch_plus_inf_marks_infeasible(self):
        lp = LPBuilder("min")
        block = lp.add_variable_block("x", 1, ub=1.0)
        lp.add_ge_batch([0], [block.flat(0)], [1.0], [math.inf])
        with pytest.raises(InfeasibleError, match="trivially infeasible"):
            lp.solve()

    def test_eq_batch_inf_marks_infeasible(self):
        lp = LPBuilder("min")
        block = lp.add_variable_block("x", 1, ub=1.0)
        lp.add_eq_batch([0], [block.flat(0)], [1.0], [math.inf])
        with pytest.raises(InfeasibleError, match="trivially infeasible"):
            lp.solve()

    def test_duplicate_coo_entries_are_summed(self):
        lp = LPBuilder("max")
        block = lp.add_variable_block("x", 1, cost=1.0)
        # x + x <= 4  ->  x <= 2.
        lp.add_le_batch([0, 0], block.flat([0, 0]), [1.0, 1.0], [4.0])
        assert lp.solve().block("x")[0] == pytest.approx(2.0)

    def test_nan_block_cost_raises(self):
        lp = LPBuilder("min")
        with pytest.raises(InvalidProblemError):
            lp.add_variable_block("x", 2, cost=[1.0, float("nan")])

    def test_empty_batch_is_noop(self):
        lp = LPBuilder("min")
        lp.add_variable_block("x", 2, ub=1.0)
        lp.add_le_batch([], [], [], [])
        assert lp.num_constraints == 0
