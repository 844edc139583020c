"""Streaming request-level serving engine (vectorized replay at scale).

The event-driven :mod:`repro.simulation` validates routings one request at
a time; this package replays the same request process as bulk numpy arrays
— millions of requests per second — and is the substrate for online
adaptive baselines and non-stationary workload suites.  ``simulate()``
remains the oracle: the parity suite pins this engine's aggregates against
it on small instances.  ``ServingConfig.n_shards`` splits the stream into
independently seeded shards, which :func:`replay` runs in-process, in
shard order.

Quick start::

    from repro.serving import ServingConfig, compile_tables, replay

    tables = compile_tables(problem, solution.routing)
    report = replay(tables, ServingConfig(horizon=1.0, seed=0))
    report.served_fraction, report.delivered_cost, report.empirical_loads
"""

from repro.serving.degraded import TableDegradation, degrade_tables
from repro.serving.engine import (
    RequestBatch,
    ServingConfig,
    ServingReport,
    generate_requests,
    horizon_for_requests,
    replay,
    serve_batch,
)
from repro.serving.tables import RoutingTables, compile_tables

__all__ = [
    "RequestBatch",
    "RoutingTables",
    "ServingConfig",
    "ServingReport",
    "TableDegradation",
    "compile_tables",
    "degrade_tables",
    "generate_requests",
    "horizon_for_requests",
    "replay",
    "replay_solution",
    "serve_batch",
]


def replay_solution(problem, routing, config=None, *, allow_unrouted=False):
    """Compile ``routing`` over ``problem`` and replay it in one call."""
    tables = compile_tables(problem, routing, allow_unrouted=allow_unrouted)
    return replay(tables, config)
