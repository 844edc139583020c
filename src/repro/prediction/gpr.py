"""Gaussian-process regression with maximum-marginal-likelihood fitting.

A from-scratch replacement for the scikit-learn GPR the paper uses for
demand prediction: Cholesky-based exact inference, log-marginal-likelihood
hyperparameter optimization with L-BFGS-B and random restarts, and target
normalization.  Gradients are approximated by finite differences — model
sizes here (a few hundred training hours) keep that comfortably cheap.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg
from scipy.optimize import minimize

from repro.exceptions import PredictionError
from repro.prediction.kernels import Kernel, paper_kernel

_JITTER = 1e-10
#: Jitter escalation ceiling for the final Cholesky in :meth:`fit`.
_MAX_JITTER = 1e-2


def _stable_cholesky(k: np.ndarray, *, jitter: float = _JITTER) -> np.ndarray:
    """Lower Cholesky of ``k + jitter * I`` with jitter escalation.

    A marginal-likelihood optimum can sit arbitrarily close to a singular
    kernel matrix (e.g. a length-scale so large that all inputs become
    indistinguishable); instead of letting ``LinAlgError`` escape, retry
    with a 10x larger diagonal until ``_MAX_JITTER`` (scaled by the kernel's
    diagonal magnitude) and raise :class:`PredictionError` beyond that.
    """
    scale = max(1.0, float(np.mean(np.diag(k))))
    eye = np.eye(len(k))
    while jitter <= _MAX_JITTER * scale:
        try:
            return linalg.cholesky(k + jitter * eye, lower=True)
        except linalg.LinAlgError:
            jitter *= 10.0
    raise PredictionError(
        "kernel matrix is not positive definite even with jitter "
        f"{_MAX_JITTER * scale:g}; the optimized hyperparameters are "
        "degenerate for this training set"
    )


class GaussianProcessRegressor:
    """Exact GP regression: fit hyperparameters, predict mean and std.

    Parameters
    ----------
    kernel:
        Covariance kernel (defaults to the paper's
        ``constant * (RBF + periodic) + white``).
    n_restarts:
        Extra random restarts of the marginal-likelihood optimization.

    Targets are standardized before fitting (view counts span orders of
    magnitude).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        n_restarts: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.kernel = kernel or paper_kernel()
        self.n_restarts = int(n_restarts)
        self._rng = rng or np.random.default_rng(0)
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------

    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        """LML of the training data under hyperparameters ``theta``.

        Evaluating at an explicit ``theta`` is side-effect free: the
        kernel's hyperparameters are restored afterwards, so exploratory
        evaluations cannot corrupt a fitted model.
        """
        if self._x is None:
            raise PredictionError("call fit() first")
        if theta is None:
            return self._lml()
        previous = self.kernel.theta.copy()
        self.kernel.theta = np.asarray(theta, dtype=float)
        try:
            return self._lml()
        finally:
            self.kernel.theta = previous

    def _lml(self) -> float:
        """LML of the training data under the kernel's current theta."""
        k = self.kernel(self._x) + _JITTER * np.eye(len(self._x))
        try:
            chol = linalg.cholesky(k, lower=True)
        except linalg.LinAlgError:
            return -np.inf
        alpha = linalg.cho_solve((chol, True), self._y_train)
        lml = -0.5 * float(self._y_train @ alpha)
        lml -= float(np.sum(np.log(np.diag(chol))))
        lml -= 0.5 * len(self._x) * np.log(2 * np.pi)
        return lml

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit hyperparameters by maximizing the log marginal likelihood."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if len(x) != len(y):
            raise PredictionError("x and y must have the same length")
        if len(x) < 2:
            raise PredictionError("need at least 2 training points")
        self._x = x
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self._y_train = (y - self._y_mean) / self._y_std

        bounds = self.kernel.bounds

        def objective(theta):
            return -self.log_marginal_likelihood(theta)

        candidates = [self.kernel.theta.copy()]
        for _ in range(self.n_restarts):
            candidates.append(
                np.array([self._rng.uniform(lo, hi) for lo, hi in bounds])
            )
        best_theta, best_value = None, np.inf
        for start in candidates:
            result = minimize(
                objective,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 60},
            )
            if result.fun < best_value:
                best_theta, best_value = result.x, result.fun
        if best_theta is None or not np.isfinite(best_value):
            raise PredictionError("marginal likelihood optimization failed")
        self.kernel.theta = best_theta

        k = self.kernel(self._x)
        self._chol = _stable_cholesky(k)
        self._alpha = linalg.cho_solve((self._chol, True), self._y_train)
        return self

    def predict(
        self, x_star: np.ndarray, *, return_std: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Posterior mean (and optionally std) at the query points."""
        if self._alpha is None or self._x is None or self._chol is None:
            raise PredictionError("call fit() first")
        x_star = np.asarray(x_star, dtype=float)
        if x_star.ndim == 1:
            x_star = x_star[:, None]
        k_star = self.kernel(x_star, self._x)
        mean = k_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        prior_var = np.diag(self.kernel(x_star)).copy()
        var = np.maximum(prior_var - np.sum(v**2, axis=0), 0.0)
        return mean, np.sqrt(var) * self._y_std


class DemandPredictor:
    """Hour-ahead request-rate prediction, batched as in the paper.

    The paper predicts "five hours at a time, then retrain[s] the model
    using the cumulative history" (footnote 6).  ``predict_series`` walks a
    full view series that way and returns the predicted evaluation window.
    """

    def __init__(
        self,
        *,
        train_hours: int = 550,
        batch_hours: int = 5,
        history_window: int | None = 200,
        n_restarts: int = 1,
        seed: int = 0,
    ) -> None:
        if train_hours < 2:
            raise PredictionError("train_hours must be >= 2")
        self.train_hours = train_hours
        self.batch_hours = max(1, batch_hours)
        #: Cap on the history length used per refit (None = cumulative, as in
        #: the paper; a window keeps the O(n^3) Cholesky cheap in benches).
        self.history_window = history_window
        self.n_restarts = n_restarts
        self.seed = seed

    def predict_series(self, series: np.ndarray, eval_hours: int) -> np.ndarray:
        """Predict ``series[train_hours : train_hours + eval_hours]``.

        ``series`` must contain at least ``train_hours + eval_hours`` values;
        the prediction for each 5-hour batch uses only hours before it.
        """
        series = np.asarray(series, dtype=float)
        if len(series) < self.train_hours + eval_hours:
            raise PredictionError("series shorter than train + eval window")
        out = np.empty(eval_hours)
        t = self.train_hours
        produced = 0
        rng = np.random.default_rng(self.seed)
        while produced < eval_hours:
            batch = min(self.batch_hours, eval_hours - produced)
            start = 0 if self.history_window is None else max(0, t - self.history_window)
            x_train = np.arange(start, t, dtype=float)
            y_train = series[start:t]
            gpr = GaussianProcessRegressor(
                n_restarts=self.n_restarts,
                rng=np.random.default_rng(int(rng.integers(2**31))),
            )
            gpr.fit(x_train, y_train)
            x_star = np.arange(t, t + batch, dtype=float)
            pred = gpr.predict(x_star)
            floor = max(1e-6, float(y_train.min()) * 1e-3)
            out[produced : produced + batch] = np.maximum(pred, floor)
            t += batch
            produced += batch
        return out
