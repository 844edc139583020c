"""Focused coverage additions across core modules."""

import numpy as np
import pytest

from repro.core import (
    Placement,
    Routing,
    extract_serving_paths,
    optimize_placement_lp,
    placement_cost,
)
from repro.flow.decomposition import PathFlow

from tests.core.conftest import make_line_problem


class TestPlacementWithFractionalRouting:
    def test_extract_weights_fractional_paths(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        routing = Routing(
            {
                (item, 4): [
                    PathFlow(path=(0, 1, 2, 3, 4), amount=0.25),
                    PathFlow(path=(0, 1, 2, 3, 4), amount=0.75),
                ],
                (prob.catalog[1], 4): [PathFlow(path=(0, 1, 2, 3, 4), amount=1.0)],
            }
        )
        paths = extract_serving_paths(prob, routing)
        rates = sorted(sp.rate for sp in paths if sp.item == item)
        assert rates == pytest.approx([0.25 * 5, 0.75 * 5])

    def test_lp_placement_on_fractional_routing(self):
        prob = make_line_problem(cache_nodes={3: 1})
        item = prob.catalog[0]
        routing = Routing(
            {
                (item, 4): [
                    PathFlow(path=(0, 1, 2, 3, 4), amount=0.5),
                    PathFlow(path=(0, 1, 2, 4), amount=0.5)
                    if prob.network.has_edge(2, 4)
                    else PathFlow(path=(0, 1, 2, 3, 4), amount=0.5),
                ],
                (prob.catalog[1], 4): [PathFlow(path=(0, 1, 2, 3, 4), amount=1.0)],
            }
        )
        placement = optimize_placement_lp(prob, routing)
        assert (3, item) in placement  # caching where the rate concentrates

    def test_placement_cost_weights_by_fraction(self):
        prob = make_line_problem()
        item = prob.catalog[0]
        routing = Routing(
            {
                (item, 4): [PathFlow(path=(0, 1, 2, 3, 4), amount=0.5)],
                (prob.catalog[1], 4): [PathFlow(path=(0, 1, 2, 3, 4), amount=1.0)],
            }
        )
        paths = extract_serving_paths(prob, routing)
        # Half of item0's rate-5 demand plus all of item1's rate-1 demand.
        assert placement_cost(prob, paths, Placement()) == pytest.approx(
            (0.5 * 5 + 1.0) * 4
        )


class TestRandomizedRoundingStatistics:
    def test_single_sample_follows_fractions(self):
        """With one sample per draw, path choice frequencies track fractions."""
        from repro.core import randomized_rounding_routing

        prob = make_line_problem(cache_nodes={3: 1}, link_capacity=1e9)
        item = prob.catalog[0]
        placement = Placement({(3, item): 1.0})
        sources = {3: 0, 0: 0}
        for seed in range(60):
            routing = randomized_rounding_routing(
                prob, placement, rng=np.random.default_rng(seed), n_samples=1
            )
            src = routing.paths[(item, 4)][0].source
            sources[src] = sources.get(src, 0) + 1
        # Uncapacitated MMSFP puts everything on the nearest replica, so the
        # rounding is deterministic here: always node 3.
        assert sources[3] == 60
