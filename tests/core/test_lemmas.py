"""Direct numeric checks of the paper's Lemmas 4.2 and 4.3.

These evaluate the actual functions of Section 4.1 — F_RNR (20) and its
concave surrogate L_RNR (6) — at random fractional points and verify the
Goemans-Williamson sandwich and the pipage-rounding monotonicity exactly as
stated, independently of Algorithm 1's implementation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipage_round
from repro.graph import all_pairs_least_costs

from tests.core.conftest import random_uncapacitated_problem


class _Distances:
    """Pure-python all-pairs least costs behind a ``distance`` lookup."""

    def __init__(self, problem):
        self.costs, _w_max = all_pairs_least_costs(problem.network.graph)

    def distance(self, v, s):
        return self.costs[v].get(s, math.inf)


def _setup(problem):
    sp = _Distances(problem)
    w_max = 1.0
    sources = {}
    for (item, s) in problem.demand:
        candidates = [
            v
            for v in set(problem.network.cache_nodes())
            | problem.pinned_holders(item)
            if sp.distance(v, s) < math.inf
        ]
        sources[(item, s)] = sorted(candidates, key=repr)
        for v in candidates:
            w_max = max(w_max, sp.distance(v, s))
    return sp, w_max, sources


def f_rnr(problem, sp, w_max, sources, x, r):
    """Equation (20): F_RNR(x, r) up to the constant offset per source set."""
    total = 0.0
    for (item, s), rate in problem.demand.items():
        for v in sources[(item, s)]:
            x_vi = 1.0 if (v, item) in problem.pinned else x.get((v, item), 0.0)
            coef = (w_max - sp.distance(v, s)) / w_max
            r_v = r.get((v, item, s), 0.0)
            total += rate * w_max * (1.0 - r_v * (1.0 - x_vi * coef))
    return total


def l_rnr(problem, sp, w_max, sources, x, r):
    """Equation (6): the piecewise-linear concave surrogate."""
    total = 0.0
    for (item, s), rate in problem.demand.items():
        for v in sources[(item, s)]:
            x_vi = 1.0 if (v, item) in problem.pinned else x.get((v, item), 0.0)
            coef = (w_max - sp.distance(v, s)) / w_max
            r_v = r.get((v, item, s), 0.0)
            total += rate * w_max * min(1.0, 1.0 - r_v + x_vi * coef)
    return total


def random_point(problem, sources, rng):
    """A random fractional (x, r) satisfying (2b) and box constraints."""
    x = {}
    for v in problem.network.cache_nodes():
        items = [i for i in problem.catalog if (v, i) not in problem.pinned]
        if not items:
            continue
        raw = rng.uniform(0, 1, size=len(items))
        cap = problem.network.cache_capacity(v)
        if raw.sum() > cap:
            raw *= cap / raw.sum()
        for item, value in zip(items, raw):
            x[(v, item)] = float(min(1.0, value))
    r = {}
    for (item, s), candidates in sources.items():
        weights = rng.dirichlet(np.ones(len(candidates)))
        for v, w in zip(candidates, weights):
            r[(v, item, s)] = float(w)
    return x, r


class TestLemma42:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_goemans_williamson_sandwich(self, seed, point_seed):
        problem = random_uncapacitated_problem(seed)
        sp, w_max, sources = _setup(problem)
        rng = np.random.default_rng(point_seed)
        x, r = random_point(problem, sources, rng)
        f = f_rnr(problem, sp, w_max, sources, x, r)
        l = l_rnr(problem, sp, w_max, sources, x, r)
        assert f <= l + 1e-9
        assert f >= (1 - 1 / math.e) * l - 1e-9


class TestLemma43:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_pipage_never_decreases_f_rnr(self, seed, point_seed):
        problem = random_uncapacitated_problem(seed)
        sp, w_max, sources = _setup(problem)
        rng = np.random.default_rng(point_seed)
        x, r = random_point(problem, sources, rng)
        # Pipage weights from (23): A_vi = sum_s lambda r (w_max - w_{v->s}).
        weights = {}
        for (item, s), rate in problem.demand.items():
            for v in sources[(item, s)]:
                key = (v, item)
                weights[key] = weights.get(key, 0.0) + rate * r.get(
                    (v, item, s), 0.0
                ) * (w_max - sp.distance(v, s))
        capacities = {
            v: problem.network.cache_capacity(v)
            for v in problem.network.cache_nodes()
        }
        rounded = pipage_round(
            x, capacities, lambda v, i, _x: weights.get((v, i), 0.0)
        )
        before = f_rnr(problem, sp, w_max, sources, x, r)
        after = f_rnr(problem, sp, w_max, sources, rounded, r)
        assert after >= before - 1e-7
        # And the rounded placement respects (2c) and (2d).
        for v, cap in capacities.items():
            used = sum(val for (vv, _i), val in rounded.items() if vv == v)
            assert used <= cap + 1e-9
        assert all(val == 1.0 for val in rounded.values())
