"""Hardened LP solve: fallback chain, rescale retry, SolveReport.

The acceptance scenario: monkeypatch ``linprog`` so the first method
crashes, and the chain must absorb it, succeed with the next method, and
record both attempts in the attached :class:`SolveReport`.
"""

import types

import pytest
from scipy.optimize import linprog as real_linprog

import repro.flow.lp as lp_module
from repro.exceptions import InfeasibleError, SolverError, UnboundedError
from repro.flow import DEFAULT_SOLVE_METHODS, LPBuilder


def simple_lp():
    lp = LPBuilder("min")
    lp.add_variable("x", lb=0, cost=1.0)
    lp.add_variable("y", lb=0, cost=2.0)
    lp.add_ge({"x": 1.0, "y": 1.0}, 4.0)
    return lp


def flaky_linprog(broken_methods, error=RuntimeError("HiGHS crashed")):
    """A linprog whose listed methods raise; others delegate to scipy."""
    calls = []

    def fake(c, *args, method="highs", **kwargs):
        calls.append(method)
        if method in broken_methods:
            raise error
        return real_linprog(c, *args, method=method, **kwargs)

    return fake, calls


class TestFallbackChain:
    def test_crash_in_first_method_is_absorbed(self, monkeypatch):
        fake, calls = flaky_linprog({"highs"})
        monkeypatch.setattr(lp_module, "linprog", fake)
        sol = simple_lp().solve()
        assert sol.objective == pytest.approx(4.0)
        assert calls == ["highs", "highs-ds"]
        report = sol.report
        assert report.succeeded
        assert report.method == "highs-ds"
        assert report.num_attempts == 2
        first, second = report.attempts
        assert (first.method, first.status) == ("highs", -1)
        assert "HiGHS crashed" in first.message
        assert (second.method, second.status) == ("highs-ds", 0)
        assert not report.rescaled

    def test_two_crashes_fall_through_to_ipm(self, monkeypatch):
        fake, calls = flaky_linprog({"highs", "highs-ds"})
        monkeypatch.setattr(lp_module, "linprog", fake)
        sol = simple_lp().solve()
        assert sol.objective == pytest.approx(4.0)
        assert calls == list(DEFAULT_SOLVE_METHODS)
        assert sol.report.method == "highs-ipm"
        assert [a.status for a in sol.report.attempts] == [-1, -1, 0]

    def test_all_methods_failing_raises_solver_error(self, monkeypatch):
        fake, calls = flaky_linprog(set(DEFAULT_SOLVE_METHODS))
        monkeypatch.setattr(lp_module, "linprog", fake)
        with pytest.raises(SolverError, match="6 attempts"):
            simple_lp().solve()
        # Whole chain, then the whole chain again on the rescaled LP.
        assert calls == list(DEFAULT_SOLVE_METHODS) * 2

    def test_nonterminal_status_moves_to_next_method(self, monkeypatch):
        def fake(c, *args, method="highs", **kwargs):
            if method == "highs":
                result = real_linprog(c, *args, method=method, **kwargs)
                return types.SimpleNamespace(
                    status=4, message="numerical difficulties", x=result.x, fun=result.fun
                )
            return real_linprog(c, *args, method=method, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", fake)
        sol = simple_lp().solve()
        assert sol.report.method == "highs-ds"
        assert [a.status for a in sol.report.attempts] == [4, 0]


class TestRescaleRetry:
    def test_success_on_rescaled_lp_is_flagged(self, monkeypatch):
        seen = {"first_pass": 0}

        def fake(c, *args, method="highs", **kwargs):
            seen["first_pass"] += 1
            if seen["first_pass"] <= len(DEFAULT_SOLVE_METHODS):
                raise RuntimeError("bad scaling")
            return real_linprog(c, *args, method=method, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", fake)
        sol = simple_lp().solve()
        assert sol.objective == pytest.approx(4.0)
        assert sol.report.rescaled
        assert sol.report.attempts[-1].rescaled
        assert all(not a.rescaled for a in sol.report.attempts[:3])

    def test_rescaling_preserves_the_optimum(self):
        # A badly row-scaled LP: same optimum before and after equilibration.
        lp = LPBuilder("min")
        lp.add_variable("x", lb=0, cost=1.0)
        lp.add_ge({"x": 1e8}, 3e8)
        plain = lp.solve().objective
        rescaled = lp_module.LPBuilder._rescaled(lp.materialize())
        # Every row's largest coefficient is equilibrated to magnitude 1...
        assert abs(rescaled.a_ub).max() == pytest.approx(1.0)
        assert abs(rescaled.b_ub).max() == pytest.approx(3.0)
        # ...and the optimum is unchanged.
        assert plain == pytest.approx(3.0)


class TestTerminalVerdicts:
    def test_infeasible_does_not_trigger_fallback(self, monkeypatch):
        fake, calls = flaky_linprog(set())
        monkeypatch.setattr(lp_module, "linprog", fake)
        lp = LPBuilder("min")
        lp.add_variable("x", lb=0, ub=1, cost=1.0)
        lp.add_ge({"x": 1.0}, 5.0)
        with pytest.raises(InfeasibleError):
            lp.solve()
        assert calls == ["highs"]

    def test_unbounded_does_not_trigger_fallback(self, monkeypatch):
        fake, calls = flaky_linprog(set())
        monkeypatch.setattr(lp_module, "linprog", fake)
        lp = LPBuilder("max")
        lp.add_variable("x", lb=0, cost=1.0)
        with pytest.raises(UnboundedError):
            lp.solve()
        assert calls == ["highs"]


class TestOptions:
    """``solve()`` takes no options: the chain above is the only one."""

    def test_default_solve_attaches_report(self):
        sol = simple_lp().solve()
        assert sol.report is not None
        assert sol.report.succeeded
        assert sol.report.method == "highs"
        assert sol.report.seconds >= 0.0
