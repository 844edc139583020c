"""Sparse linear-program builder on top of ``scipy.optimize.linprog`` (HiGHS).

Every LP in the paper — the auxiliary LP (7) of Algorithm 1, the splittable
min-cost flows inside Algorithm 2, the placement LP (15), and the MMSFP
routing LPs — is assembled through :class:`LPBuilder`.  Two assembly styles
coexist:

- the **keyed API** (:meth:`LPBuilder.add_variable`, :meth:`LPBuilder.add_le`,
  ...): variables are registered under hashable keys (e.g. ``("x", v, i)``)
  so the calling code reads like the paper's math instead of juggling raw
  column indices;
- the **array API** (:meth:`LPBuilder.add_variable_block`,
  :meth:`LPBuilder.add_le_batch`, ...): whole variable blocks and constraint
  families are registered at once from numpy arrays / COO triplets, which is
  what the Deltacom-scale FC-FR, LP (7) and MSUFP assemblies use.  Block
  variables resolve to keys ``(name, *multi_index)`` on readback, so
  :class:`LPSolution` looks the same either way.

Both styles can be mixed freely in one builder; :meth:`LPBuilder.materialize`
reduces everything to one canonical CSR matrix per constraint sense
(duplicates summed, explicit zeros dropped, indices sorted), so two builders
describing the same LP — one keyed, one batched — hand *bit-identical*
inputs to HiGHS and therefore return bit-identical solutions.

Every LP is solved one way: the fixed HiGHS fallback chain
(:data:`DEFAULT_SOLVE_METHODS`, then one retry on the row-equilibrated LP),
reported in a :class:`SolveReport`.  :meth:`LPBuilder.freeze` keeps one
assembled LP whose block objective can be re-patched between solves — the
only variation a caller re-solves under (LP (7)'s demand rates).
"""

from __future__ import annotations

import math
import time
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import (
    InfeasibleError,
    InvalidProblemError,
    SolverError,
    UnboundedError,
)

Key = Hashable


@dataclass(frozen=True)
class VariableBlock:
    """A contiguous block of LP columns registered under one name.

    ``flat(*multi_index)`` maps (scalar or array) multi-indices to global
    column indices; on readback the block's variables appear in
    :attr:`LPSolution.values` under keys ``(name, *multi_index)``.
    """

    name: Key
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.intp)) if self.shape else 1

    def flat(self, *multi_index):
        """Global column indices for ``multi_index`` (vectorized)."""
        if len(multi_index) != len(self.shape):
            raise ValueError(
                f"block {self.name!r} expects {len(self.shape)} indices, "
                f"got {len(multi_index)}"
            )
        return self.offset + np.ravel_multi_index(multi_index, self.shape)

    def indices(self) -> np.ndarray:
        """All global column indices of the block, in flat (C) order."""
        return self.offset + np.arange(self.size, dtype=np.intp)


@dataclass(frozen=True)
class MaterializedLP:
    """The assembled arrays handed to ``linprog`` (canonical CSR form)."""

    c: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    bounds: np.ndarray  # shape (n, 2)


#: Fallback chain handed to HiGHS: the default hybrid solver first, then the
#: dual simplex and interior-point codes explicitly.  A failure of one method
#: (iteration/time limit, numerical difficulties, an exception inside HiGHS)
#: moves on to the next; infeasible/unbounded verdicts are terminal.
DEFAULT_SOLVE_METHODS: tuple[str, ...] = ("highs", "highs-ds", "highs-ipm")

#: Statuses after which trying another method cannot help.
_TERMINAL_STATUSES = frozenset({0, 2, 3})


@dataclass(frozen=True)
class SolveAttempt:
    """One ``linprog`` call inside the fallback chain."""

    method: str
    #: ``linprog`` status (0 ok, 1 limit, 2 infeasible, 3 unbounded,
    #: 4 numerical); -1 when the call raised instead of returning.
    status: int
    message: str
    seconds: float
    #: Whether this attempt ran on the row-equilibrated (rescaled) LP.
    rescaled: bool = False


@dataclass(frozen=True)
class SolveReport:
    """Structured record of how an LP was (or was not) solved."""

    attempts: tuple[SolveAttempt, ...]
    #: The method that succeeded (``None`` if every attempt failed).
    method: str | None
    #: Whether the successful solve ran on the rescaled LP.
    rescaled: bool
    #: Total wall-clock across all attempts.
    seconds: float

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def succeeded(self) -> bool:
        return self.method is not None


@dataclass(frozen=True)
class LPSolution:
    """Optimal solution of an LP: objective value and per-key variable values."""

    objective: float
    values: dict[Key, float]
    #: Per-block value arrays (reshaped to the block's shape); keyed by name.
    block_values: dict[Key, np.ndarray] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: How the solve went (fallback attempts, statuses, wall-clock).
    report: SolveReport | None = field(
        default=None, compare=False, repr=False
    )

    def __getitem__(self, key: Key) -> float:
        return self.values[key]

    def get(self, key: Key, default: float = 0.0) -> float:
        return self.values.get(key, default)

    def block(self, name: Key) -> np.ndarray:
        """Values of block ``name`` as an array shaped like the block."""
        return self.block_values[name]


@dataclass(frozen=True)
class _Batch:
    """One validated COO constraint batch (rows are batch-local)."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    rhs: np.ndarray


class LPBuilder:
    """Incrementally build and solve a (sparse) linear program.

    Parameters
    ----------
    sense:
        ``"min"`` or ``"max"``.  Internally everything is minimized; for a
        maximization the objective is negated on the way in and out.
    """

    def __init__(self, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self._sense = sense
        self._cols = 0
        self._index: dict[Key, int] = {}
        self._blocks: dict[Key, VariableBlock] = {}
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._objective: dict[int, float] = {}
        #: Per-block objective contributions as (offset, flat cost array).
        self._objective_blocks: list[tuple[int, np.ndarray]] = []
        # Constraint storage: keyed rows as index->coef dicts, batches as COO.
        self._ub_rows: list[tuple[dict[int, float], float]] = []
        self._eq_rows: list[tuple[dict[int, float], float]] = []
        self._ub_batches: list[_Batch] = []
        self._eq_batches: list[_Batch] = []
        #: First reason this LP became trivially infeasible (e.g. a ``>= inf``
        #: row), reported by :meth:`solve` instead of feeding HiGHS ``-inf``.
        self._infeasible_reason: str | None = None

    # ------------------------------------------------------------------
    # Variables and objective
    # ------------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self._cols

    @property
    def num_constraints(self) -> int:
        return (
            len(self._ub_rows)
            + len(self._eq_rows)
            + sum(b.rhs.size for b in self._ub_batches)
            + sum(b.rhs.size for b in self._eq_batches)
        )

    def add_variable(
        self, key: Key, *, lb: float = 0.0, ub: float = math.inf, cost: float = 0.0
    ) -> Key:
        """Register variable ``key`` with bounds and objective coefficient."""
        if key in self._index:
            raise ValueError(f"variable {key!r} already defined")
        if math.isnan(lb) or math.isnan(ub):
            raise InvalidProblemError(f"variable {key!r} has NaN bounds")
        if math.isnan(cost):
            raise InvalidProblemError(f"variable {key!r} has NaN cost")
        idx = self._cols
        self._index[key] = idx
        self._cols += 1
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        if cost:
            self._objective[idx] = float(cost)
        return key

    def add_variables(
        self, keys: Iterable[Key], *, lb: float = 0.0, ub: float = math.inf
    ) -> list[Key]:
        return [self.add_variable(k, lb=lb, ub=ub) for k in keys]

    def add_variable_block(
        self,
        name: Key,
        shape: int | tuple[int, ...],
        *,
        lb=0.0,
        ub=math.inf,
        cost=None,
    ) -> VariableBlock:
        """Register a contiguous numpy-indexed block of variables.

        ``lb``/``ub``/``cost`` may be scalars or arrays broadcastable to
        ``shape``.  The block's variables appear in the solution under keys
        ``(name, *multi_index)``; callers must not register keyed variables
        with colliding keys.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(d) for d in shape)
        if not shape or any(d < 0 for d in shape):
            raise InvalidProblemError(f"block {name!r} has invalid shape {shape!r}")
        if name in self._blocks:
            raise ValueError(f"variable block {name!r} already defined")
        lb_arr = np.broadcast_to(np.asarray(lb, dtype=np.float64), shape).ravel()
        ub_arr = np.broadcast_to(np.asarray(ub, dtype=np.float64), shape).ravel()
        if np.isnan(lb_arr).any() or np.isnan(ub_arr).any():
            raise InvalidProblemError(f"block {name!r} has NaN bounds")
        block = VariableBlock(name=name, shape=shape, offset=self._cols)
        self._blocks[name] = block
        self._cols += block.size
        self._lb.extend(lb_arr.tolist())
        self._ub.extend(ub_arr.tolist())
        if cost is not None:
            cost_arr = np.ascontiguousarray(
                np.broadcast_to(np.asarray(cost, dtype=np.float64), shape),
                dtype=np.float64,
            ).ravel()
            if np.isnan(cost_arr).any():
                raise InvalidProblemError(f"block {name!r} has NaN cost")
            self._objective_blocks.append((block.offset, cost_arr))
        return block

    def block(self, name: Key) -> VariableBlock:
        return self._blocks[name]

    def has_variable(self, key: Key) -> bool:
        return key in self._index

    def set_objective_coefficient(self, key: Key, coefficient: float) -> None:
        self._objective[self._index[key]] = float(coefficient)

    def add_objective_terms(self, terms: Mapping[Key, float]) -> None:
        for key, coef in terms.items():
            idx = self._index[key]
            self._objective[idx] = self._objective.get(idx, 0.0) + float(coef)

    # ------------------------------------------------------------------
    # Constraints (keyed API)
    # ------------------------------------------------------------------

    def _row(self, coefficients: Mapping[Key, float]) -> dict[int, float]:
        row: dict[int, float] = {}
        for key, coef in coefficients.items():
            if not coef:
                continue
            if not math.isfinite(coef):
                raise InvalidProblemError(
                    f"non-finite coefficient {coef!r} for variable {key!r}"
                )
            idx = self._index[key]
            row[idx] = row.get(idx, 0.0) + float(coef)
        return row

    def _mark_infeasible(self, reason: str) -> None:
        if self._infeasible_reason is None:
            self._infeasible_reason = reason

    def add_le(self, coefficients: Mapping[Key, float], rhs: float) -> None:
        """Add ``sum(coef * var) <= rhs``.

        A ``+inf`` rhs is vacuous and skipped; a ``-inf`` rhs makes the whole
        LP trivially infeasible (reported by :meth:`solve` instead of feeding
        HiGHS an infinite bound); a NaN rhs raises
        :class:`~repro.exceptions.InvalidProblemError`.
        """
        rhs = float(rhs)
        if math.isnan(rhs):
            raise InvalidProblemError("constraint rhs is NaN in add_le")
        if math.isinf(rhs):
            if rhs > 0:
                return
            self._mark_infeasible("a <= -inf constraint can never hold")
            return
        self._ub_rows.append((self._row(coefficients), rhs))

    def add_ge(self, coefficients: Mapping[Key, float], rhs: float) -> None:
        """Add ``sum(coef * var) >= rhs`` (stored as the negated <= row).

        A ``-inf`` rhs is vacuous and skipped; a ``+inf`` rhs makes the LP
        trivially infeasible; a NaN rhs raises
        :class:`~repro.exceptions.InvalidProblemError`.
        """
        rhs = float(rhs)
        if math.isnan(rhs):
            raise InvalidProblemError("constraint rhs is NaN in add_ge")
        if math.isinf(rhs):
            if rhs < 0:
                return
            self._mark_infeasible("a >= +inf constraint can never hold")
            return
        row = {i: -c for i, c in self._row(coefficients).items()}
        self._ub_rows.append((row, -rhs))

    def add_eq(self, coefficients: Mapping[Key, float], rhs: float) -> None:
        """Add ``sum(coef * var) == rhs`` (finite rhs required)."""
        rhs = float(rhs)
        if math.isnan(rhs):
            raise InvalidProblemError("constraint rhs is NaN in add_eq")
        if math.isinf(rhs):
            self._mark_infeasible("an == +/-inf constraint can never hold")
            return
        self._eq_rows.append((self._row(coefficients), rhs))

    # ------------------------------------------------------------------
    # Constraints (array API)
    # ------------------------------------------------------------------

    def _validated_batch(self, row_idx, col_idx, data, rhs, kind: str) -> _Batch | None:
        row = np.asarray(row_idx, dtype=np.intp).ravel()
        col = np.asarray(col_idx, dtype=np.intp).ravel()
        data = np.asarray(data, dtype=np.float64).ravel()
        rhs = np.asarray(rhs, dtype=np.float64).ravel()
        if not (row.size == col.size == data.size):
            raise InvalidProblemError(
                f"COO triplet lengths differ in add_{kind}_batch: "
                f"{row.size}/{col.size}/{data.size}"
            )
        if rhs.size == 0:
            if row.size:
                raise InvalidProblemError(
                    f"add_{kind}_batch has entries but an empty rhs"
                )
            return None
        if np.isnan(rhs).any():
            raise InvalidProblemError(f"constraint rhs contains NaN in add_{kind}_batch")
        if data.size and not np.isfinite(data).all():
            raise InvalidProblemError(
                f"non-finite coefficient in add_{kind}_batch"
            )
        if row.size and (row.min() < 0 or row.max() >= rhs.size):
            raise InvalidProblemError(
                f"row index out of range in add_{kind}_batch"
            )
        if col.size and (col.min() < 0 or col.max() >= self._cols):
            raise InvalidProblemError(
                f"column index out of range in add_{kind}_batch"
            )
        return _Batch(row=row, col=col, data=data, rhs=rhs)

    def add_le_batch(self, row_idx, col_idx, data, rhs) -> None:
        """Add a family of ``<=`` rows from COO triplets.

        ``row_idx``/``col_idx``/``data`` are parallel arrays of matrix
        entries (rows are local to this batch, columns are global indices —
        use :meth:`VariableBlock.flat`); ``rhs`` holds one bound per row.
        Rows with ``+inf`` rhs are vacuous and dropped; any ``-inf`` rhs
        marks the LP trivially infeasible; NaN raises
        :class:`~repro.exceptions.InvalidProblemError`.  Duplicate
        ``(row, col)`` entries are summed.
        """
        batch = self._validated_batch(row_idx, col_idx, data, rhs, "le")
        if batch is None:
            return
        if np.isneginf(batch.rhs).any():
            self._mark_infeasible("a <= -inf constraint can never hold")
            return
        vacuous = np.isposinf(batch.rhs)
        if vacuous.any():
            keep_rows = ~vacuous
            new_row_of = np.cumsum(keep_rows) - 1
            entry_keep = keep_rows[batch.row]
            batch = _Batch(
                row=new_row_of[batch.row[entry_keep]],
                col=batch.col[entry_keep],
                data=batch.data[entry_keep],
                rhs=batch.rhs[keep_rows],
            )
            if batch.rhs.size == 0:
                return
        self._ub_batches.append(batch)

    def add_ge_batch(self, row_idx, col_idx, data, rhs) -> None:
        """Add a family of ``>=`` rows (negated into the ``<=`` storage)."""
        batch = self._validated_batch(row_idx, col_idx, data, rhs, "ge")
        if batch is None:
            return
        if np.isposinf(batch.rhs).any():
            self._mark_infeasible("a >= +inf constraint can never hold")
            return
        self.add_le_batch(batch.row, batch.col, -batch.data, -batch.rhs)

    def add_eq_batch(self, row_idx, col_idx, data, rhs) -> None:
        """Add a family of ``==`` rows from COO triplets (finite rhs)."""
        batch = self._validated_batch(row_idx, col_idx, data, rhs, "eq")
        if batch is None:
            return
        if np.isinf(batch.rhs).any():
            self._mark_infeasible("an == +/-inf constraint can never hold")
            return
        self._eq_batches.append(batch)

    # ------------------------------------------------------------------
    # Materialization and solving
    # ------------------------------------------------------------------

    def _combine(
        self,
        rows: list[tuple[dict[int, float], float]],
        batches: list[_Batch],
    ) -> tuple[sparse.csr_matrix | None, np.ndarray | None]:
        n_rows = len(rows) + sum(b.rhs.size for b in batches)
        if n_rows == 0:
            return None, None
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        data_parts: list[np.ndarray] = []
        rhs_parts: list[np.ndarray] = []
        if rows:
            data, row_idx, col_idx, rhs = [], [], [], []
            for r, (row, b) in enumerate(rows):
                rhs.append(b)
                for idx, coef in row.items():
                    row_idx.append(r)
                    col_idx.append(idx)
                    data.append(coef)
            row_parts.append(np.asarray(row_idx, dtype=np.intp))
            col_parts.append(np.asarray(col_idx, dtype=np.intp))
            data_parts.append(np.asarray(data, dtype=np.float64))
            rhs_parts.append(np.asarray(rhs, dtype=np.float64))
        offset = len(rows)
        for b in batches:
            row_parts.append(b.row + offset)
            col_parts.append(b.col)
            data_parts.append(b.data)
            rhs_parts.append(b.rhs)
            offset += b.rhs.size
        mat = sparse.csr_matrix(
            (
                np.concatenate(data_parts) if data_parts else np.empty(0),
                (
                    np.concatenate(row_parts) if row_parts else np.empty(0, np.intp),
                    np.concatenate(col_parts) if col_parts else np.empty(0, np.intp),
                ),
            ),
            shape=(n_rows, self._cols),
        )
        # Canonical form: duplicates summed (done by the COO->CSR conversion),
        # explicit zeros dropped, indices sorted — so keyed and batched
        # assemblies of the same LP produce bit-identical matrices.
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat, np.concatenate(rhs_parts)

    def materialize(self) -> MaterializedLP:
        """Assemble the canonical arrays that :meth:`solve` hands to HiGHS."""
        n = self._cols
        sign = 1.0 if self._sense == "min" else -1.0
        c = np.zeros(n)
        for idx, coef in self._objective.items():
            c[idx] = coef
        for offset, cost_arr in self._objective_blocks:
            c[offset : offset + cost_arr.size] += cost_arr
        if sign != 1.0:
            c = sign * c
        a_ub, b_ub = self._combine(self._ub_rows, self._ub_batches)
        a_eq, b_eq = self._combine(self._eq_rows, self._eq_batches)
        bounds = np.column_stack(
            [np.asarray(self._lb, dtype=np.float64), np.asarray(self._ub, dtype=np.float64)]
        )
        return MaterializedLP(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds)

    def _check_solvable(self) -> None:
        if self._cols == 0:
            raise SolverError("LP has no variables")
        if self._infeasible_reason is not None:
            raise InfeasibleError(
                f"LP is trivially infeasible: {self._infeasible_reason}"
            )

    @staticmethod
    def _rescaled(lp: MaterializedLP) -> MaterializedLP:
        """Row-equilibrated copy of ``lp`` (same feasible set and optimum).

        Each inequality/equality row (and its rhs) is divided by the row's
        largest absolute coefficient — an exact reformulation that tames the
        wide coefficient ranges behind most HiGHS "numerical difficulties"
        failures.  Variable bounds and the objective are untouched, so the
        solution vector maps back 1:1.
        """

        def scale(a, b):
            if a is None:
                return None, None
            row_max = np.abs(a).max(axis=1)
            row_max = np.asarray(row_max.todense()).ravel()
            factors = np.where(row_max > 0, row_max, 1.0)
            d = sparse.diags(1.0 / factors).tocsr()
            return (d @ a).tocsr(), b / factors

        a_ub, b_ub = scale(lp.a_ub, lp.b_ub)
        a_eq, b_eq = scale(lp.a_eq, lp.b_eq)
        return MaterializedLP(
            c=lp.c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=lp.bounds
        )

    def solve(self) -> LPSolution:
        """Solve the LP with a hardened HiGHS fallback chain.

        The methods of :data:`DEFAULT_SOLVE_METHODS` (``highs`` →
        ``highs-ds`` → ``highs-ipm``) are tried in order.  An attempt that
        hits a limit, reports numerical difficulties, or raises inside HiGHS
        moves on to the next method; infeasible and unbounded verdicts are
        terminal.  If the whole chain fails, it runs once more on a
        row-equilibrated (exactly equivalent) LP.  The returned solution
        carries a :class:`SolveReport` listing every attempt.

        Raises
        ------
        InfeasibleError
            The LP has no feasible point (HiGHS status 2, or a trivially
            infeasible constraint such as ``>= +inf`` was added).
        UnboundedError
            The objective can be improved without limit (HiGHS status 3).
        SolverError
            The LP is empty, or every attempt of the fallback chain failed
            (iteration/time limits, numerical difficulties, ...).
        """
        self._check_solvable()
        x, fun, report = _solve_materialized(self.materialize())
        sign = 1.0 if self._sense == "min" else -1.0
        return _read_solution(x, sign * fun, report, self._index, self._blocks)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------

    def freeze(self) -> "LPTemplate":
        """Snapshot this LP as a reusable :class:`LPTemplate`.

        The template owns one materialized copy of the LP; its block
        objectives can be patched between solves without re-running
        :meth:`materialize`.  An unpatched template solve is bit-identical
        to :meth:`solve` on this builder; a patched solve is bit-identical
        to a fresh assembly with the same objective, because
        :meth:`materialize` is deterministic.  Mutating the builder after
        ``freeze()`` does not affect existing templates.
        """
        self._check_solvable()
        return LPTemplate(
            lp=self.materialize(),
            sense=self._sense,
            index=dict(self._index),
            blocks=dict(self._blocks),
        )


def _solve_materialized(lp: MaterializedLP) -> tuple[np.ndarray, float, SolveReport]:
    """Run the hardened HiGHS fallback chain on assembled arrays.

    Shared by :meth:`LPBuilder.solve` and :meth:`LPTemplate.solve`; returns
    ``(x, fun, report)`` and raises the same exceptions as
    :meth:`LPBuilder.solve`.
    """
    attempts: list[SolveAttempt] = []
    total_start = time.perf_counter()

    def attempt_chain(current: MaterializedLP, rescaled: bool):
        for method in DEFAULT_SOLVE_METHODS:
            start = time.perf_counter()
            try:
                result = linprog(
                    current.c,
                    A_ub=current.a_ub,
                    b_ub=current.b_ub,
                    A_eq=current.a_eq,
                    b_eq=current.b_eq,
                    bounds=current.bounds,
                    method=method,
                )
            except Exception as exc:  # a HiGHS crash must not kill the chain
                attempts.append(
                    SolveAttempt(
                        method=method,
                        status=-1,
                        message=f"{type(exc).__name__}: {exc}",
                        seconds=time.perf_counter() - start,
                        rescaled=rescaled,
                    )
                )
                continue
            attempts.append(
                SolveAttempt(
                    method=method,
                    status=int(result.status),
                    message=str(result.message),
                    seconds=time.perf_counter() - start,
                    rescaled=rescaled,
                )
            )
            if result.status in _TERMINAL_STATUSES:
                return result
        return None

    result = attempt_chain(lp, rescaled=False)
    rescaled = False
    if result is None:
        result = attempt_chain(LPBuilder._rescaled(lp), rescaled=True)
        rescaled = result is not None
    report = SolveReport(
        attempts=tuple(attempts),
        method=attempts[-1].method if result is not None else None,
        rescaled=rescaled,
        seconds=time.perf_counter() - total_start,
    )
    if result is None:
        trail = "; ".join(
            f"{a.method}{' (rescaled)' if a.rescaled else ''}: "
            f"status {a.status} ({a.message})"
            for a in attempts
        )
        raise SolverError(
            f"LP solver failed after {len(attempts)} attempts: {trail}"
        )
    if result.status == 2:
        raise InfeasibleError("LP is infeasible")
    if result.status == 3:
        raise UnboundedError(
            "LP is unbounded: the objective can improve without limit; "
            "check for a missing capacity constraint or variable bound "
            f"({result.message})"
        )
    return result.x, float(result.fun), report


def _read_solution(
    x: np.ndarray,
    objective: float,
    report: SolveReport,
    index: dict[Key, int],
    blocks: dict[Key, VariableBlock],
) -> LPSolution:
    """Read a solution vector back into keyed and per-block values."""
    values = {key: float(x[idx]) for key, idx in index.items()}
    block_values: dict[Key, np.ndarray] = {}
    for name, block in blocks.items():
        flat = x[block.offset : block.offset + block.size]
        block_values[name] = flat.reshape(block.shape).copy()
        if block.size:
            index_arrays = np.unravel_index(
                np.arange(block.size, dtype=np.intp), block.shape
            )
            columns = [a.tolist() for a in index_arrays]
            flat_list = flat.tolist()
            for k, multi in enumerate(zip(*columns)):
                values[(name, *multi)] = flat_list[k]
    return LPSolution(
        objective=objective, values=values, block_values=block_values, report=report
    )


class LPTemplate:
    """A frozen LP whose block objectives patch in place between solves.

    Produced by :meth:`LPBuilder.freeze`.  The constraints, right-hand sides
    and variable bounds are fixed; only the objective coefficients of a
    variable block may change (:meth:`set_block_objective`), which is the
    one patch a re-solve under new demand rates needs
    (:class:`~repro.adaptive.periodic.Algorithm1Template`).  A patched solve
    is bit-identical to a fresh :class:`LPBuilder` assembly with the same
    objective: :meth:`LPBuilder.materialize` is deterministic, so HiGHS sees
    identical arrays.
    """

    def __init__(
        self,
        *,
        lp: MaterializedLP,
        sense: str,
        index: dict[Key, int],
        blocks: dict[Key, VariableBlock],
    ) -> None:
        self._lp = lp
        self._index = index
        self._blocks = blocks
        self._sign = 1.0 if sense == "min" else -1.0
        # Only the objective is patchable, so only ``c`` gets its own copy.
        self._c = lp.c.copy()

    def set_block_objective(self, name: Key, cost) -> None:
        """Patch a variable block's objective coefficients."""
        block = self._blocks[name]
        arr = np.broadcast_to(np.asarray(cost, dtype=np.float64), block.shape).ravel()
        if np.isnan(arr).any():
            raise InvalidProblemError(f"objective patch for block {name!r} has NaN")
        self._c[block.offset : block.offset + block.size] = self._sign * arr

    def materialized(self) -> MaterializedLP:
        """Current patched arrays in :class:`MaterializedLP` form."""
        return replace(self._lp, c=self._c)

    def solve(self) -> LPSolution:
        """Solve the patched LP (same fallback chain and exceptions as
        :meth:`LPBuilder.solve`)."""
        x, fun, report = _solve_materialized(self.materialized())
        return _read_solution(x, self._sign * fun, report, self._index, self._blocks)
