"""A keyed reference LP for parity tests, independent of ``LPBuilder``.

Variables are registered under hashable keys and every row is a
``{key: coefficient}`` dict, the way the paper writes its LPs.
:meth:`KeyedLP.materialize` builds the canonical CSR form (duplicates
summed, explicit zeros dropped, indices sorted) straight with scipy, and
:meth:`KeyedLP.solve` calls ``linprog(method="highs")`` once.  An
:class:`~repro.flow.lp.LPBuilder` assembly of the same LP must materialize
to identical arrays, so HiGHS returns a bit-identical optimum for both.
"""

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.flow.lp import MaterializedLP


class KeyedLP:
    def __init__(self, sense: str = "min") -> None:
        assert sense in ("min", "max")
        self.sign = 1.0 if sense == "min" else -1.0
        #: Column of every variable key, in registration order.
        self.index: dict = {}
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.cost: dict = {}
        self.ub_rows: list[tuple[dict, float]] = []
        self.eq_rows: list[tuple[dict, float]] = []

    def add_variable(self, key, *, lb=0.0, ub=math.inf, cost=0.0) -> None:
        assert key not in self.index, key
        self.index[key] = len(self.lb)
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.cost[key] = float(cost)

    def add_le(self, coefficients: dict, rhs: float) -> None:
        self.ub_rows.append((coefficients, float(rhs)))

    def add_ge(self, coefficients: dict, rhs: float) -> None:
        self.add_le({key: -coef for key, coef in coefficients.items()}, -rhs)

    def add_eq(self, coefficients: dict, rhs: float) -> None:
        self.eq_rows.append((coefficients, float(rhs)))

    def _csr(self, rows):
        if not rows:
            return None, None
        entries = [
            (r, self.index[key], coef)
            for r, (coefficients, _rhs) in enumerate(rows)
            for key, coef in coefficients.items()
        ]
        mat = sparse.csr_matrix(
            (
                np.asarray([e[2] for e in entries], dtype=np.float64),
                (
                    np.asarray([e[0] for e in entries], dtype=np.intp),
                    np.asarray([e[1] for e in entries], dtype=np.intp),
                ),
            ),
            shape=(len(rows), len(self.index)),
        )
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat, np.asarray([rhs for _coefficients, rhs in rows], dtype=np.float64)

    def materialize(self) -> MaterializedLP:
        c = np.zeros(len(self.index))
        for key, coef in self.cost.items():
            c[self.index[key]] += coef
        a_ub, b_ub = self._csr(self.ub_rows)
        a_eq, b_eq = self._csr(self.eq_rows)
        bounds = np.column_stack(
            [np.asarray(self.lb, dtype=np.float64), np.asarray(self.ub, dtype=np.float64)]
        )
        return MaterializedLP(
            c=self.sign * c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds
        )

    def solve(self) -> tuple[float, dict]:
        """``(objective, {key: value})`` from one ``highs`` solve."""
        lp = self.materialize()
        result = linprog(
            lp.c,
            A_ub=lp.a_ub,
            b_ub=lp.b_ub,
            A_eq=lp.a_eq,
            b_eq=lp.b_eq,
            bounds=lp.bounds,
            method="highs",
        )
        assert result.status == 0, result.message
        values = result.x.tolist()
        return self.sign * float(result.fun), {
            key: values[col] for key, col in self.index.items()
        }


def assert_same_materialized(reference, builder) -> None:
    """``reference`` and ``builder`` hand HiGHS identical canonical arrays."""
    mr, mb = reference.materialize(), builder.materialize()
    assert np.array_equal(mr.c, mb.c)
    assert np.array_equal(mr.bounds, mb.bounds)
    for attr in ("a_ub", "a_eq"):
        ar, ab = getattr(mr, attr), getattr(mb, attr)
        assert (ar is None) == (ab is None), attr
        if ar is not None:
            assert ar.shape == ab.shape
            assert np.array_equal(ar.indptr, ab.indptr)
            assert np.array_equal(ar.indices, ab.indices)
            assert np.array_equal(ar.data, ab.data)
    for attr in ("b_ub", "b_eq"):
        br, bb = getattr(mr, attr), getattr(mb, attr)
        assert (br is None) == (bb is None), attr
        if br is not None:
            assert np.array_equal(br, bb)
