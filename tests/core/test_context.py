"""Property tests: SolverContext-based solvers against brute-force references.

Every Section 4 solver reads its distances from a SolverContext (distance
rows + vectorized reductions).  These tests check them over random seeded
instances against an independent reference built on pure-python all-pairs
Dijkstra (:func:`repro.graph.all_pairs_least_costs`): F_RNR gains and
values, the RNR fill cost, and the greedy, local-search and Algorithm 1
outcomes.
"""

import itertools
import math

import numpy as np
import pytest

from repro.core import (
    RNRCostSaving,
    SolverContext,
    greedy_rnr_placement,
    route_to_nearest_replica,
    routing_cost,
)
from repro.core.algorithm1 import algorithm1
from repro.core.solution import Placement
from repro.core.submodular import local_search_swap
from repro.graph import all_pairs_least_costs

from tests.core.conftest import (
    brute_force_rnr_optimum,
    make_line_problem,
    random_uncapacitated_problem,
)

SEEDS = range(8)
_TOL = 1e-9


@pytest.fixture(params=SEEDS)
def random_problem(request):
    return random_uncapacitated_problem(request.param)


class BruteForceRNR:
    """F_RNR and RNR serving costs from pure-python all-pairs least costs."""

    def __init__(self, problem):
        self.problem = problem
        self.costs, self.w_max = all_pairs_least_costs(problem.network.graph)

    def d(self, v, s):
        return self.costs[v].get(s, math.inf)

    def baseline(self, item, s):
        """Pinned-only serving cost, capped at ``w_max`` (F_RNR's baseline)."""
        pinned = [self.d(h, s) for h in self.problem.pinned_holders(item)]
        return min([self.w_max, *pinned])

    def saving(self, entries):
        """``F_RNR(entries) - F_RNR(empty)`` by direct summation."""
        total = 0.0
        for (item, s), rate in self.problem.demand.items():
            base = self.baseline(item, s)
            best = min([base] + [self.d(v, s) for (v, i) in entries if i == item])
            total += rate * (base - best)
        return total

    def gain(self, entries, candidate):
        if candidate in entries:
            return 0.0
        return self.saving(set(entries) | {candidate}) - self.saving(entries)

    def fill_cost(self, placement):
        """RNR cost: nearest holders first, each up to its stored fraction."""
        problem = self.problem
        total = 0.0
        for (item, s), rate in problem.demand.items():
            fractions = {v: placement[(v, item)] for v in placement.holders(item)}
            fractions.update({h: 1.0 for h in problem.pinned_holders(item)})
            remaining, cost = 1.0, 0.0
            for v in sorted(fractions, key=lambda v: self.d(v, s)):
                take = min(fractions[v], remaining)
                if remaining <= _TOL or math.isinf(self.d(v, s)):
                    break
                cost += take * self.d(v, s)
                remaining -= take
            total += rate * cost
        return total


def _candidates(problem):
    return [
        (v, i)
        for v in problem.network.cache_nodes()
        for i in problem.catalog
        if (v, i) not in problem.pinned
    ]


def _fits(problem, entries, candidate):
    v, i = candidate
    used = sum(problem.size_of(j) for (w, j) in entries if w == v)
    return problem.size_of(i) <= problem.network.cache_capacity(v) - used + 1e-12


def _is_greedy_outcome(problem, ref, chosen):
    """Some order of ``chosen`` takes a max-gain feasible entry at every
    step, and no feasible entry with positive gain is left at the end."""
    candidates = _candidates(problem)
    for order in itertools.permutations(chosen):
        taken: list = []
        for entry in order:
            top = max(
                ref.gain(taken, c)
                for c in candidates
                if c not in taken and _fits(problem, taken, c)
            )
            if ref.gain(taken, entry) < top - 1e-9:
                break
            taken.append(entry)
        else:
            if all(
                ref.gain(taken, c) <= 1e-9
                for c in candidates
                if c not in taken and _fits(problem, taken, c)
            ):
                return True
    return False


class TestContextStructure:
    def test_distances_match_dict_all_pairs(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        costs, wmax = all_pairs_least_costs(random_problem.network.graph)
        for u in random_problem.network.nodes:
            for v in random_problem.network.nodes:
                assert ctx.distance(u, v) == pytest.approx(
                    costs[u].get(v, float("inf"))
                )
        assert ctx.w_max == pytest.approx(wmax)

    def test_requester_block_aligned_with_problem(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        for item in random_problem.catalog:
            block = ctx.requesters(item)
            expected = tuple(random_problem.requesters_of(item))
            assert block.nodes == expected
            assert block.size == len(expected)
            for s, rate in zip(block.nodes, block.rates):
                assert rate == random_problem.demand[(item, s)]

    def test_baseline_costs_are_pinned_minima(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        ref = BruteForceRNR(random_problem)
        for item in random_problem.catalog:
            block = ctx.requesters(item)
            base = ctx.baseline_costs(item)
            for s, got in zip(block.nodes, base):
                assert got == pytest.approx(ref.baseline(item, s))

    def test_baseline_costs_returns_fresh_copy(self):
        prob = make_line_problem(cache_nodes={3: 1})
        ctx = SolverContext.from_problem(prob)
        item = prob.catalog[0]
        first = ctx.baseline_costs(item)
        first[:] = -1.0
        assert np.all(ctx.baseline_costs(item) >= 0.0)

    def test_link_cost_matches_network(self, random_problem):
        # A context holds link costs only as its backend's CSR entries.
        ctx = SolverContext.from_problem(random_problem)
        idx = ctx.node_index
        for (u, v) in random_problem.network.edges:
            if u != v:
                got = ctx.backend.csgraph[idx[u], idx[v]]
                assert got == random_problem.network.cost(u, v)


class TestObjectiveEquivalence:
    def test_marginal_gains_agree(self, random_problem):
        ref = BruteForceRNR(random_problem)
        f = RNRCostSaving(random_problem)
        for item in random_problem.catalog:
            for v in random_problem.network.cache_nodes():
                assert f.marginal_gain(v, item) == pytest.approx(
                    ref.gain([], (v, item))
                ), (v, item)

    def test_gains_agree_after_adds(self, random_problem):
        ref = BruteForceRNR(random_problem)
        ctx = SolverContext.from_problem(random_problem)
        f = RNRCostSaving(random_problem, context=ctx)
        cache_nodes = random_problem.network.cache_nodes()
        # Grow a selection and keep checking gains against the reference.
        taken = []
        for step, item in enumerate(random_problem.catalog[:2]):
            v = cache_nodes[step % len(cache_nodes)]
            assert f.add(v, item) == pytest.approx(ref.gain(taken, (v, item)))
            taken.append((v, item))
            assert f.value() == pytest.approx(ref.saving(taken))
            for other in random_problem.catalog:
                for w in cache_nodes:
                    assert f.marginal_gain(w, other) == pytest.approx(
                        ref.gain(taken, (w, other))
                    )

    def test_evaluate_agrees(self, random_problem):
        ref = BruteForceRNR(random_problem)
        f = RNRCostSaving(random_problem)
        v = random_problem.network.cache_nodes()[0]
        pairs = [(v, random_problem.catalog[0])]
        assert f.evaluate(pairs) == pytest.approx(ref.saving(pairs))
        every = _candidates(random_problem)
        assert f.evaluate(every) == pytest.approx(ref.saving(every))


class TestSolverEquivalence:
    def test_greedy_placement_identical(self, random_problem):
        ref = BruteForceRNR(random_problem)
        ctx = SolverContext.from_problem(random_problem)
        placement = greedy_rnr_placement(random_problem)
        assert dict(placement.items()) == dict(
            greedy_rnr_placement(random_problem, context=ctx).items()
        )
        assert _is_greedy_outcome(random_problem, ref, list(placement))

    def test_rnr_routing_cost_identical(self, random_problem):
        ref = BruteForceRNR(random_problem)
        integral = greedy_rnr_placement(random_problem)
        fractional = Placement(
            {
                (v, i): 0.5
                for v in random_problem.network.cache_nodes()
                for i in random_problem.catalog[:2]
            }
        )
        for placement in (integral, fractional):
            routing = route_to_nearest_replica(random_problem, placement)
            assert routing_cost(random_problem, routing) == pytest.approx(
                ref.fill_cost(placement)
            )

    def test_local_search_cost_identical(self, random_problem):
        ref = BruteForceRNR(random_problem)
        # Start from the least-requested items so swaps have work to do.
        volume = {i: 0.0 for i in random_problem.catalog}
        for (i, _s), rate in random_problem.demand.items():
            volume[i] += rate
        coldest = sorted(random_problem.catalog, key=lambda i: (volume[i], i))
        start = Placement()
        for v in random_problem.network.cache_nodes():
            cap = int(random_problem.network.cache_capacity(v))
            for i in coldest[:cap]:
                start[(v, i)] = 1.0
        swapped = local_search_swap(random_problem, start.copy(), max_sweeps=50)
        cost = routing_cost(
            random_problem, route_to_nearest_replica(random_problem, swapped)
        )
        assert cost == pytest.approx(ref.fill_cost(swapped))
        assert cost <= ref.fill_cost(start) + 1e-9
        # A 1-swap local optimum: no insertion or swap raises F_RNR.
        held = [key for key, x in swapped.items() if x >= 0.5]
        here = ref.saving(held)
        for cand in _candidates(random_problem):
            if cand in held:
                continue
            if _fits(random_problem, held, cand):
                assert ref.saving(held + [cand]) <= here + 1e-9
            for out in (e for e in held if e[0] == cand[0]):
                rest = [e for e in held if e != out]
                if _fits(random_problem, rest, cand):
                    assert ref.saving(rest + [cand]) <= here + 1e-9

    def test_algorithm1_cost_identical(self, random_problem):
        ref = BruteForceRNR(random_problem)
        res = algorithm1(random_problem)
        res_ctx = algorithm1(
            random_problem, context=SolverContext.from_problem(random_problem)
        )
        cost = routing_cost(random_problem, res.solution.routing)
        assert dict(res.solution.placement.items()) == dict(
            res_ctx.solution.placement.items()
        )
        assert cost == routing_cost(random_problem, res_ctx.solution.routing)
        assert cost == pytest.approx(ref.fill_cost(res.solution.placement))
        optimum = brute_force_rnr_optimum(random_problem)
        f_final = res.constant - cost
        assert f_final >= (1 - 1 / math.e) * (res.constant - optimum) - 1e-6

    def test_scipy_and_python_contexts_agree(self):
        # scipy rows against the pure-python Dijkstra reference, and the
        # greedy placement on those rows against the brute-force F_RNR.
        prob = random_uncapacitated_problem(3)
        fast = SolverContext.from_problem(prob)
        ref = BruteForceRNR(prob)
        for u in fast.nodes:
            expected = [ref.d(u, v) for v in fast.nodes]
            np.testing.assert_allclose(fast.row_of(u), expected)
        placement = greedy_rnr_placement(prob, context=fast)
        assert _is_greedy_outcome(prob, ref, list(placement))


class TestLazyTierEquivalence:
    """Lazy rows are bit-identical to fully primed rows on every solver."""

    def lazy_ctx(self, problem):
        return SolverContext.from_problem(problem, backend="lazy")

    def dense_ctx(self, problem):
        return SolverContext.from_problem(problem, backend="dense")

    def test_distance_ops_bit_identical(self, random_problem):
        dense = self.dense_ctx(random_problem)
        lazy = self.lazy_ctx(random_problem)
        nodes = list(random_problem.network.nodes)
        for v in nodes:
            assert np.array_equal(dense.row_of(v), lazy.row_of(v))
        assert np.array_equal(dense.rows_of(nodes[:4]), lazy.rows_of(nodes[:4]))
        assert dense.finite_max_from(nodes[:5]) == lazy.finite_max_from(nodes[:5])
        assert dense.w_max == lazy.w_max

    def test_pinned_and_baseline_bit_identical(self, random_problem):
        dense = self.dense_ctx(random_problem)
        lazy = self.lazy_ctx(random_problem)
        for item in random_problem.catalog:
            assert np.array_equal(
                dense.pinned_min_costs(item), lazy.pinned_min_costs(item)
            )
            assert np.array_equal(
                dense.baseline_costs(item), lazy.baseline_costs(item)
            )

    def test_greedy_bit_identical(self, random_problem):
        p_dense = greedy_rnr_placement(
            random_problem, context=self.dense_ctx(random_problem)
        )
        p_lazy = greedy_rnr_placement(
            random_problem, context=self.lazy_ctx(random_problem)
        )
        assert dict(p_dense.items()) == dict(p_lazy.items())

    def test_algorithm1_bit_identical(self, random_problem):
        res_dense = algorithm1(
            random_problem, context=self.dense_ctx(random_problem)
        )
        res_lazy = algorithm1(
            random_problem, context=self.lazy_ctx(random_problem)
        )
        assert dict(res_dense.solution.placement.items()) == dict(
            res_lazy.solution.placement.items()
        )
        assert res_dense.lp_objective == res_lazy.lp_objective
        assert routing_cost(
            random_problem, res_dense.solution.routing
        ) == routing_cost(random_problem, res_lazy.solution.routing)

    def test_rnr_bit_identical(self, random_problem):
        placement = greedy_rnr_placement(random_problem)
        r_dense = route_to_nearest_replica(
            random_problem, placement, context=self.dense_ctx(random_problem)
        )
        r_lazy = route_to_nearest_replica(
            random_problem, placement, context=self.lazy_ctx(random_problem)
        )
        assert routing_cost(random_problem, r_dense) == routing_cost(
            random_problem, r_lazy
        )

    def test_auto_threshold_picks_tier(self, monkeypatch):
        import repro.core.context as context_module

        prob = random_uncapacitated_problem(1)
        n = prob.network.num_nodes
        assert SolverContext.from_problem(prob).backend.materialized == n
        monkeypatch.setattr(context_module, "DENSE_NODE_THRESHOLD", 3)
        assert SolverContext.from_problem(prob).backend.materialized == 0
        primed = SolverContext.from_problem(prob, backend="dense")
        assert primed.backend.materialized == n

    def test_prime_rows_limits_materialization(self):
        from repro.core.context import relevant_sources
        from repro.graph.backends import LazyRowBackend

        prob = random_uncapacitated_problem(2)
        ctx = self.lazy_ctx(prob)
        backend = ctx.backend
        assert isinstance(backend, LazyRowBackend)
        ctx.prime_rows()
        assert backend.materialized == len(relevant_sources(prob))

    def test_repr_does_not_force_wmax(self):
        prob = random_uncapacitated_problem(4)
        ctx = self.lazy_ctx(prob)
        assert "w_max=<unread>" in repr(ctx)
        _ = ctx.w_max
        assert "w_max=<unread>" not in repr(ctx)
