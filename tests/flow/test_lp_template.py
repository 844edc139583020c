"""LPTemplate parity: objective-patched solves == fresh-assembly solves.

The freeze/patch contract (see :class:`repro.flow.lp.LPTemplate`) promises
that a template whose block objective was patched is indistinguishable from
re-running the full assembly with the new costs: identical materialized
arrays, therefore bit-identical HiGHS results.  These tests build 20+
random LP instances, freeze one variant, patch its objective into the
other's, and compare against a fresh :class:`~repro.flow.lp.LPBuilder` —
arrays and solutions compared exactly, no tolerances.
"""

import numpy as np
import pytest
from scipy.optimize import linprog as real_linprog

import repro.flow.lp as lp_module
from repro.exceptions import InfeasibleError, InvalidProblemError, SolverError
from repro.flow.lp import LPBuilder

SEEDS = range(22)


def random_instance(seed: int):
    """A feasible, bounded random LP in two interchangeable parameterizations.

    Variables live in one block with finite [0, ub] bounds; <= rows have
    non-negative coefficients and non-negative rhs (x = 0 stays feasible for
    every draw) plus one == row tying a pair of variables together.
    Returns ``(structure, params_a, params_b)`` where the params share
    rhs, bounds and sparsity pattern and differ only in the objective.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    m = int(rng.integers(2, 5))
    rows = np.repeat(np.arange(m, dtype=np.intp), n)
    cols = np.tile(np.arange(n, dtype=np.intp), m)
    data = rng.uniform(0.1, 2.0, size=m * n)
    eq_pair = rng.choice(n, size=2, replace=False)

    fixed = {
        "ub": rng.uniform(1.0, 4.0, size=n),
        "b_ub": rng.uniform(1.0, 6.0, size=m),
        "b_eq": float(rng.uniform(0.0, 0.5)),
    }

    def params(r):
        return {**fixed, "c": r.uniform(0.5, 3.0, size=n)}

    structure = {"n": n, "m": m, "rows": rows, "cols": cols, "data": data,
                 "eq_pair": eq_pair}
    return structure, params(rng), params(np.random.default_rng(seed + 500))


def build(structure, p) -> LPBuilder:
    lp = LPBuilder(sense="min")
    block = lp.add_variable_block(
        "x", (structure["n"],), lb=0.0, ub=p["ub"], cost=p["c"]
    )
    lp.add_le_batch(
        structure["rows"],
        block.flat(structure["cols"]),
        structure["data"],
        p["b_ub"],
    )
    i, j = structure["eq_pair"]
    lp.add_eq_batch(
        np.zeros(2, dtype=np.intp),
        block.flat(np.asarray([i, j], dtype=np.intp)),
        np.asarray([1.0, -1.0]),
        np.asarray([p["b_eq"]]),
    )
    return lp


def patch(template, p) -> None:
    template.set_block_objective("x", p["c"])


class TestFreezeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_unpatched_template_matches_builder(self, seed):
        structure, pa, _ = random_instance(seed)
        builder = build(structure, pa)
        template = builder.freeze()
        a = builder.solve()
        b = template.solve()
        assert a.objective == b.objective
        assert np.array_equal(a.block("x"), b.block("x"))
        assert a.values == b.values

    @pytest.mark.parametrize("seed", SEEDS)
    def test_patched_template_matches_fresh_assembly(self, seed):
        structure, pa, pb = random_instance(seed)
        template = build(structure, pa).freeze()
        patch(template, pb)
        fresh = build(structure, pb)
        # The patched arrays must equal a fresh materialization exactly...
        got = template.materialized()
        want = fresh.materialize()
        assert np.array_equal(got.c, want.c)
        assert np.array_equal(got.b_ub, want.b_ub)
        assert np.array_equal(got.b_eq, want.b_eq)
        assert np.array_equal(got.bounds, want.bounds)
        assert np.array_equal(got.a_ub.indptr, want.a_ub.indptr)
        assert np.array_equal(got.a_ub.indices, want.a_ub.indices)
        assert np.array_equal(got.a_ub.data, want.a_ub.data)
        # ...so the solves are bit-identical too.
        a = fresh.solve()
        b = template.solve()
        assert a.objective == b.objective
        assert np.array_equal(a.block("x"), b.block("x"))

    @pytest.mark.parametrize("seed", range(5))
    def test_repatching_back_restores_original(self, seed):
        structure, pa, pb = random_instance(seed)
        builder = build(structure, pa)
        template = builder.freeze()
        original = template.solve()
        patch(template, pb)
        template.solve()
        patch(template, pa)
        again = template.solve()
        assert again.objective == original.objective
        assert np.array_equal(again.block("x"), original.block("x"))

    def test_freeze_is_a_snapshot(self):
        structure, pa, _ = random_instance(0)
        builder = build(structure, pa)
        template = builder.freeze()
        before = template.solve().objective
        # Mutate the builder after freeze: the template must not notice.
        builder.add_variable("extra", lb=1.0, ub=1.0)
        builder.add_objective_terms({"extra": 100.0})
        assert template.solve().objective == before


class TestGuards:
    def test_freeze_empty_lp_raises(self):
        with pytest.raises(SolverError):
            LPBuilder().freeze()

    def test_freeze_trivially_infeasible_raises(self):
        lp = LPBuilder()
        lp.add_variable("x", lb=0.0, ub=1.0)
        lp.add_le({"x": 1.0}, float("-inf"))  # can never hold
        with pytest.raises(InfeasibleError):
            lp.freeze()

    def test_nan_objective_patch_rejected(self):
        structure, pa, _ = random_instance(1)
        template = build(structure, pa).freeze()
        cost = pa["c"].copy()
        cost[0] = float("nan")
        with pytest.raises(InvalidProblemError):
            template.set_block_objective("x", cost)


class TestMaxSense:
    def test_max_objective_patches_with_user_sign(self):
        lp = LPBuilder(sense="max")
        lp.add_variable_block("x", (2,), lb=0.0, ub=3.0, cost=[1.0, 0.0])
        lp.add_le_batch([0, 0], [0, 1], [1.0, 1.0], [3.0])
        template = lp.freeze()
        template.set_block_objective("x", [1.0, 2.0])
        solved = template.solve()
        assert solved.objective == pytest.approx(6.0)
        assert solved.values[("x", 1)] == pytest.approx(3.0)
        assert solved.values[("x", 0)] == pytest.approx(0.0)


class TestFallback:
    def test_template_solve_runs_the_builder_chain(self, monkeypatch):
        structure, pa, _ = random_instance(3)
        builder = build(structure, pa)
        template = builder.freeze()
        calls = []

        def fake(c, *args, method="highs", **kwargs):
            calls.append(method)
            if method == "highs":
                raise RuntimeError("HiGHS crashed")
            return real_linprog(c, *args, method=method, **kwargs)

        monkeypatch.setattr(lp_module, "linprog", fake)
        solved = template.solve()
        assert calls == ["highs", "highs-ds"]
        assert solved.report.method == "highs-ds"
        assert solved.report.num_attempts == 2
        assert solved.objective == pytest.approx(builder.solve().objective)
