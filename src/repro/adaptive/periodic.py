"""Periodic Algorithm-1 re-optimization driven by rolling GPR refits.

The closed prediction loop of the online experiment: observed per-type
request counts accumulate chunk by chunk; every re-planning epoch the
:class:`PredictivePlanner` refits the demand predictor
(:class:`~repro.prediction.gpr.GaussianProcessRegressor`) on the observed
rate series and re-runs Algorithm 1 under the predicted rates.

Re-solving is cheap because LP (7)'s constraint structure is independent of
the request rates — only the z-block objective ``rate * w_max`` carries
them — so the LP is frozen once into a :class:`~repro.flow.lp.LPTemplate`
and every re-optimization is a single objective patch plus a re-solve
(:class:`Algorithm1Template`).  The post-LP stage (source
concentration, pipage rounding, polish, RNR routing) is shared with the
one-shot solver via :func:`repro.core.algorithm1.finish_from_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adaptive.strategies import ReactiveTables
from repro.core.algorithm1 import (
    Algorithm1Result,
    _assemble_lp7_array,
    _prepare,
    finish_from_lp,
)
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance, Request
from repro.exceptions import InvalidProblemError
from repro.prediction.gpr import GaussianProcessRegressor
from repro.prediction.kernels import paper_kernel

#: Rates below this are floored before entering the LP (demand must stay
#: positive for the instance to remain valid).
_RATE_FLOOR = 1e-6


class Algorithm1Template:
    """Algorithm 1 with a frozen LP (7), re-solvable under new demand rates.

    The template is built once from ``problem``; :meth:`solve` accepts any
    demand over the *same* request support (same ``(item, s)`` keys) and
    patches only the z-block objective before re-solving.  An unpatched
    solve is bit-identical to ``algorithm1(problem)``.  The distance rows
    live on one lazy backend shared by every re-solve.
    """

    def __init__(self, problem: ProblemInstance) -> None:
        self.problem = problem
        context = SolverContext.from_problem(problem, backend="lazy")
        self._backend = context.backend
        (
            self._cache_nodes,
            self._w_max,
            self._x_pairs,
            self._request_rows,
            _constant,
        ) = _prepare(problem, context)
        lp = _assemble_lp7_array(
            problem, self._x_pairs, self._request_rows, self._w_max
        )
        self._template = lp.freeze()
        self._row_keys: list[Request] = [key for key, *_ in self._request_rows]
        self._sources_per_row = np.array(
            [len(sources) for _key, _rate, sources, _c in self._request_rows],
            dtype=np.int64,
        )

    @property
    def request_keys(self) -> list[Request]:
        """The demand support the template accepts, in row order."""
        return list(self._row_keys)

    def solve(self, demand: dict[Request, float] | None = None) -> Algorithm1Result:
        """Re-run Algorithm 1 under ``demand`` (defaults to the original)."""
        if demand is None:
            demand = self.problem.demand
        if set(demand) != set(self.problem.demand):
            raise InvalidProblemError(
                "template demand must cover exactly the original request support"
            )
        rates = np.array(
            [max(float(demand[key]), _RATE_FLOOR) for key in self._row_keys]
        )
        rate_of = np.repeat(rates, self._sources_per_row)
        self._template.set_block_objective("z", rate_of * self._w_max)
        lp_solution = self._template.solve()
        constant = float((rates * self._sources_per_row).sum() * self._w_max)
        swapped = self.problem.with_demand(
            {key: max(float(demand[key]), _RATE_FLOOR) for key in self.problem.demand}
        )
        rows = [
            (key, rate, sources, coefs)
            for (key, _old, sources, coefs), rate in zip(self._request_rows, rates)
        ]
        return finish_from_lp(
            swapped,
            # A context caches requester rates per problem, so every
            # re-solve wraps the shared backend in a context of its own.
            context=SolverContext(swapped, backend=self._backend),
            cache_nodes=self._cache_nodes,
            w_max=self._w_max,
            x_pairs=self._x_pairs,
            request_rows=rows,
            constant=constant,
            lp_objective=lp_solution.objective,
            x_values=lp_solution.block("x").tolist(),
        )


# ----------------------------------------------------------------------


@dataclass
class PlannerConfig:
    """Prediction-loop knobs of the :class:`PredictivePlanner`."""

    #: Chunks of observed-rate history kept for the predictor (rolling).
    history_window: int = 64
    #: Minimum observed chunks before the GPR is trusted; earlier replans
    #: use the empirical mean rates.
    min_history: int = 4
    #: GPR refits are restricted to the busiest types (by cumulative
    #: observed count); the long tail uses its empirical mean — the per-type
    #: O(n^3) Cholesky would otherwise dominate the replan.
    max_gpr_types: int = 16
    #: Random restarts per GPR refit (0 = optimize from current theta only).
    n_restarts: int = 0
    seed: int = 0


class PredictivePlanner:
    """Observed counts -> GPR rate forecasts -> template re-optimization.

    ``observe`` records one chunk's per-type counts; ``replan`` refits the
    rolling predictors and re-solves Algorithm 1 under the forecast rates,
    returning the fresh result (also kept as ``self.current``).
    """

    def __init__(
        self,
        reactive: ReactiveTables,
        config: PlannerConfig | None = None,
    ) -> None:
        self.rt = reactive
        self.config = config or PlannerConfig()
        if self.config.history_window < 2:
            raise InvalidProblemError("history_window must be >= 2")
        self.template = Algorithm1Template(reactive.problem)
        #: Map template row order -> tables type order (both are over the
        #: same request keys; tables use the deterministic sorted order).
        type_index = {key: t for t, key in enumerate(reactive.tables.types)}
        self._row_to_type = np.array(
            [type_index[key] for key in self.template.request_keys],
            dtype=np.int64,
        )
        self._history: list[np.ndarray] = []  # per-chunk observed rates (R,)
        self._cumulative = np.zeros(reactive.num_types)
        self._rng = np.random.default_rng(self.config.seed)
        self.current: Algorithm1Result | None = None
        self.replans = 0

    def observe(self, counts: np.ndarray, elapsed: float) -> None:
        """Record one chunk's observed per-type counts over ``elapsed``."""
        counts = np.asarray(counts, dtype=float)
        if elapsed <= 0:
            raise InvalidProblemError("elapsed must be positive")
        rates = counts / elapsed
        self._history.append(rates)
        if len(self._history) > self.config.history_window:
            self._history.pop(0)
        self._cumulative += counts

    def forecast(self) -> np.ndarray:
        """Predicted per-type rates (tables' type order) for the next epoch."""
        if not self._history:
            # Nothing observed yet: fall back to the instance's own rates.
            return self.rt.tables.rates.copy()
        hist = np.stack(self._history)  # (n, R)
        predicted = hist.mean(axis=0)
        n = len(self._history)
        if n >= self.config.min_history and self.config.max_gpr_types > 0:
            busiest = np.argsort(-self._cumulative, kind="stable")[
                : self.config.max_gpr_types
            ]
            x_train = np.arange(n, dtype=float)
            for t in busiest:
                series = hist[:, t]
                if series.std() <= 1e-12:
                    continue  # constant series: the mean is already exact
                gpr = GaussianProcessRegressor(
                    kernel=paper_kernel(),
                    n_restarts=self.config.n_restarts,
                    rng=np.random.default_rng(int(self._rng.integers(2**31))),
                )
                try:
                    gpr.fit(x_train, series)
                    predicted[t] = float(gpr.predict(np.array([float(n)]))[0])
                except Exception:
                    # A degenerate refit falls back to the empirical mean.
                    pass
        return np.maximum(predicted, _RATE_FLOOR)

    def replan(self) -> Algorithm1Result:
        """Refit the predictors and re-solve Algorithm 1 (template patch)."""
        predicted = self.forecast()
        demand = {
            key: float(predicted[self._row_to_type[row]])
            for row, key in enumerate(self.template.request_keys)
        }
        self.current = self.template.solve(demand)
        self.replans += 1
        return self.current
