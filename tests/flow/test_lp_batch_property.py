"""Property test: a batched LP equals its keyed reference bit for bit.

Random bounded LPs are generated feasible-by-construction (the rhs is set
from a random interior point), then assembled twice — once as dict rows on
the test-local :class:`~tests.flow.keyed_lp.KeyedLP` reference and once
through ``add_variable_block``/``add_le_batch``/``add_eq_batch`` — and
solved.  Both materialize bit-identical canonical matrices, so HiGHS must
return a bit-identical optimum.
"""

import numpy as np
import pytest

from repro.flow import LPBuilder
from tests.flow.keyed_lp import KeyedLP, assert_same_materialized

N_INSTANCES = 24


def _random_lp(rng: np.random.Generator):
    n = int(rng.integers(3, 9))
    ub = rng.uniform(1.0, 5.0, size=n)
    cost = rng.uniform(-2.0, 2.0, size=n)
    x0 = rng.uniform(0.0, 1.0, size=n) * ub  # interior point -> feasibility
    n_le = int(rng.integers(1, 5))
    n_eq = int(rng.integers(0, 3))
    le_rows = []
    for _ in range(n_le):
        coefs = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, 2.0, size=n), 0.0)
        le_rows.append((coefs, float(coefs @ x0 + rng.uniform(0.1, 1.0))))
    eq_rows = []
    for _ in range(n_eq):
        coefs = np.where(rng.random(n) < 0.5, rng.uniform(-1.0, 2.0, size=n), 0.0)
        eq_rows.append((coefs, float(coefs @ x0)))
    return n, ub, cost, le_rows, eq_rows


def _build_keyed(sense, n, ub, cost, le_rows, eq_rows) -> KeyedLP:
    lp = KeyedLP(sense)
    for j in range(n):
        lp.add_variable(("v", j), lb=0.0, ub=float(ub[j]), cost=float(cost[j]))
    for coefs, rhs in le_rows:
        lp.add_le({("v", j): float(c) for j, c in enumerate(coefs)}, rhs)
    for coefs, rhs in eq_rows:
        lp.add_eq({("v", j): float(c) for j, c in enumerate(coefs)}, rhs)
    return lp


def _build_batched(sense, n, ub, cost, le_rows, eq_rows) -> LPBuilder:
    lp = LPBuilder(sense)
    block = lp.add_variable_block("v", n, lb=0.0, ub=ub, cost=cost)
    cols = block.indices()

    def emit(rows, add):
        if not rows:
            return
        row_idx = np.repeat(np.arange(len(rows)), n)
        col_idx = np.tile(cols, len(rows))
        data = np.concatenate([coefs for coefs, _ in rows])
        add(row_idx, col_idx, data, np.array([rhs for _, rhs in rows]))

    emit(le_rows, lp.add_le_batch)
    emit(eq_rows, lp.add_eq_batch)
    return lp


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_keyed_and_batched_solutions_identical(seed):
    rng = np.random.default_rng(seed)
    n, ub, cost, le_rows, eq_rows = _random_lp(rng)
    sense = "min" if seed % 2 == 0 else "max"
    keyed = _build_keyed(sense, n, ub, cost, le_rows, eq_rows)
    batched = _build_batched(sense, n, ub, cost, le_rows, eq_rows)

    assert_same_materialized(keyed, batched)

    objective, values = keyed.solve()
    solution = batched.solve()
    assert solution.objective == objective
    assert np.array_equal(solution.block("v"), [values[("v", j)] for j in range(n)])
