"""Adaptive projected-gradient placement (Ioannidis–Yeh, arXiv 1604.03175).

"Adaptive Caching Networks with Optimality Guarantees" shows that the
expected caching gain along fixed request paths is concave in the relaxed
placement ``y`` and that a projected (sub)gradient ascent driven only by
*observed* requests converges to the optimum of the relaxation; periodic
randomized/deterministic rounding recovers an integral placement within the
usual ``1 - 1/e`` factor.

For a request of type ``t`` traveling its path ``p_0 (requester) .. p_K
(origin)`` with request-direction edge costs ``w_k`` (edge into position
``k``), the expected serving cost under relaxed placement ``y`` is

    C_t(y) = sum_k w_k * prod_{l < k} (1 - y_{p_l, i_t}),

interpreting ``y`` as independent rounding probabilities.  The partial
derivative of the expected *saving* with respect to ``y_{p_m, i_t}`` is

    G_m = prod_{l < m} (1 - y_{p_l, i}) * T_m,
    T_m = w_{m+1} + (1 - y_{p_{m+1}, i}) * T_{m+1},   T_K = 0,

computed here with an exclusive prefix product and a backward suffix
recursion — no division by ``1 - y``, so ``y -> 1`` is safe.  Each
measurement chunk contributes its observed per-type counts as the rate
estimate, giving the stochastic subgradient of the paper; the state then
takes a diminishing step and is projected back onto the per-node capacity
simplex ``{0 <= y <= 1, sum_i b_i y_{v,i} <= c_v}`` (Euclidean projection
via bisection on the dual variable).  ``placement()`` rounds the state
deterministically (greedy by fractional value) for online scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adaptive.strategies import ReactiveTables
from repro.core.solution import Placement
from repro.exceptions import InvalidProblemError

_EPS = 1e-12
#: Capacity slack and bisection cap of :func:`project_box_capacity`.
_PROJECTION_TOL = 1e-10
_PROJECTION_MAX_ITER = 200


def project_box_capacity(
    z: np.ndarray,
    sizes: np.ndarray,
    capacity: float,
) -> np.ndarray:
    """Euclidean projection of ``z`` onto ``{0<=y<=1, sizes @ y <= capacity}``.

    The KKT solution is ``y = clip(z - tau * sizes, 0, 1)`` with ``tau >= 0``
    chosen so the capacity constraint holds with equality when the clipped
    ``z`` alone violates it; ``sizes @ y(tau)`` is nonincreasing in ``tau``,
    so bisection converges geometrically.
    """
    z = np.asarray(z, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if capacity < 0:
        raise InvalidProblemError("capacity must be nonnegative")
    y = np.clip(z, 0.0, 1.0)
    if float(sizes @ y) <= capacity + _PROJECTION_TOL:
        return y
    lo, hi = 0.0, float(np.max(z / np.maximum(sizes, _EPS))) + 1.0
    for _ in range(_PROJECTION_MAX_ITER):
        tau = 0.5 * (lo + hi)
        y = np.clip(z - tau * sizes, 0.0, 1.0)
        load = float(sizes @ y)
        if abs(load - capacity) <= _PROJECTION_TOL:
            break
        if load > capacity:
            lo = tau
        else:
            hi = tau
    if float(sizes @ y) > capacity + _PROJECTION_TOL:
        return np.clip(z - hi * sizes, 0.0, 1.0)
    return y


@dataclass
class GradientConfig:
    """Step-size schedule and rounding cadence of the adaptive ascent."""

    #: Base step size; step ``k`` uses ``gamma0 / k**power`` (diminishing,
    #: square-summable-but-not-summable for ``0.5 < power <= 1``).
    gamma0: float = 0.1
    power: float = 0.6
    #: Round the relaxed state into an integral placement every this many
    #: steps (the placement used for online scoring between roundings).
    round_every: int = 10


class AdaptiveGradientPlacement:
    """Online projected-gradient state over ``(cache node, item)``.

    ``observe(counts, elapsed)`` performs one stochastic ascent step from a
    chunk's observed per-type request counts; ``placement()`` returns the
    current deterministically-rounded integral placement as the shared
    :class:`~repro.core.solution.Placement` type.
    """

    def __init__(
        self,
        reactive: ReactiveTables,
        config: GradientConfig | None = None,
    ) -> None:
        self.rt = reactive
        self.config = config or GradientConfig()
        if self.config.gamma0 <= 0 or not 0 < self.config.power <= 1:
            raise InvalidProblemError("need gamma0 > 0 and 0 < power <= 1")
        if self.config.round_every <= 0:
            raise InvalidProblemError("round_every must be positive")
        v, c = len(reactive.nodes), len(reactive.item_size)
        #: Relaxed placement state; rows of cache-less nodes stay zero.
        self.y = np.zeros((v, c))
        self._cache_rows = np.flatnonzero(reactive.capacities > 0)
        self.steps = 0
        self._rounded: Placement | None = None

    # ------------------------------------------------------------------

    def expected_cost_rate(self, rates: np.ndarray) -> float:
        """Relaxed objective: expected cost per unit time at rates ``rates``."""
        rt = self.rt
        ybar, pad_w = self._path_arrays()
        prefix = self._exclusive_prefix(ybar)
        return float((rates[:, None] * pad_w * prefix).sum())

    def observe(self, counts: np.ndarray, elapsed: float) -> None:
        """One projected ascent step from a chunk's observed type counts."""
        counts = np.asarray(counts, dtype=float)
        if elapsed <= 0:
            raise InvalidProblemError("elapsed must be positive")
        if len(counts) != self.rt.num_types:
            raise InvalidProblemError("counts must have one entry per type")
        lam_hat = counts / elapsed
        grad = self._subgradient(lam_hat)
        self.steps += 1
        gamma = self.config.gamma0 / self.steps**self.config.power
        self.y += gamma * grad
        self._project()
        if self._rounded is None or self.steps % self.config.round_every == 0:
            self._rounded = self._round()

    def placement(self) -> Placement:
        """The integral placement currently used for online scoring."""
        if self._rounded is None:
            self._rounded = self._round()
        return self._rounded

    # ------------------------------------------------------------------

    def _path_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-position survival ``1 - y`` and request-direction edge costs.

        Pinned holders have survival 0 (a copy is always there); invalid
        (padded) positions have survival 0 and edge cost 0, so they never
        contribute to prefixes, suffixes, or gradients.
        """
        rt = self.rt
        y_here = self.y[np.maximum(rt.pad_nodes, 0), rt.type_item[:, None]]
        ybar = np.where(rt.pad_valid, 1.0 - y_here, 0.0)
        ybar = np.where(rt.pad_pinned, 0.0, ybar)
        pad_w = np.diff(rt.pad_prefix_cost, axis=1, prepend=0.0)
        return ybar, pad_w

    @staticmethod
    def _exclusive_prefix(ybar: np.ndarray) -> np.ndarray:
        """``prefix[:, k] = prod_{l < k} ybar[:, l]`` (ones at ``k = 0``)."""
        prefix = np.ones_like(ybar)
        np.cumprod(ybar[:, :-1], axis=1, out=prefix[:, 1:])
        return prefix

    def _subgradient(self, lam_hat: np.ndarray) -> np.ndarray:
        """Rate-weighted saving gradient, scattered to ``(node, item)``."""
        rt = self.rt
        ybar, pad_w = self._path_arrays()
        prefix = self._exclusive_prefix(ybar)
        L = ybar.shape[1]
        # T[:, m] = w_{m+1} + ybar_{m+1} T[:, m+1]; T at the last column = 0.
        T = np.zeros_like(ybar)
        for m in range(L - 2, -1, -1):
            T[:, m] = pad_w[:, m + 1] + ybar[:, m + 1] * T[:, m + 1]
        per_pos = lam_hat[:, None] * prefix * T
        # Only true cache positions can increase y (pinned contributes no
        # gradient: its survival is already 0).
        mask = rt.pad_cache & rt.pad_valid & ~rt.pad_pinned
        grad = np.zeros_like(self.y)
        np.add.at(
            grad,
            (rt.pad_nodes[mask], np.broadcast_to(rt.type_item[:, None], mask.shape)[mask]),
            per_pos[mask],
        )
        return grad

    def _project(self) -> None:
        rt = self.rt
        for v in self._cache_rows:
            self.y[v] = project_box_capacity(
                self.y[v], rt.item_size, float(rt.capacities[v])
            )

    def _round(self) -> Placement:
        """Greedy deterministic rounding of the relaxed state.

        Per cache node, items enter in decreasing fractional value (ties by
        item index) while they fit; pinned copies are free and omitted.
        """
        rt = self.rt
        entries: list[tuple] = []
        pinned = rt.problem.pinned
        for v in self._cache_rows:
            row = self.y[v]
            order = np.argsort(-row, kind="stable")
            budget = float(rt.capacities[v])
            node = rt.nodes[v]
            for i in order:
                if row[i] <= 1e-6:
                    break
                item = rt.items[i]
                if (node, item) in pinned:
                    continue
                size = float(rt.item_size[i])
                if size <= budget + 1e-12:
                    entries.append((node, item))
                    budget -= size
        return Placement.from_set(entries)
