"""Derive solver contexts for degraded instances from the healthy parent.

A failure sweep evaluates hundreds of closely related instances: each
scenario removes a handful of links or nodes from one healthy topology.
:func:`degraded_context` derives the degraded instance's
:class:`~repro.core.context.SolverContext` from the healthy parent's:

- a capacity-only scenario (no link or node removed) leaves every link cost
  — and therefore every distance — untouched, so the parent's backend is
  shared outright, primed rows included;
- a removal goes through :meth:`repro.graph.backends.LazyRowBackend.repair`,
  a fresh backend on the surviving graph that computes a row only when it
  is read.  Failure recovery reads cache, pinned and holder rows — a small
  fraction of a primed parent — so the derived context pays Dijkstra for
  exactly that handful instead of a full all-pairs rebuild.

Either way the derived context equals
``SolverContext.from_problem(degraded.problem)`` bit for bit on every
distance it serves — parity is asserted in
``tests/robustness/test_degraded_context.py`` and
``tests/robustness/test_scale_resilience.py`` — so it can be threaded
through recovery and reporting without changing any result, only the
wall-clock (and without ever materializing O(|V|²) state).

The timeline controller (:mod:`repro.robustness.controller`) derives
every re-optimization's context from the healthy root the same way, from
the composed set of active faults.
"""

from __future__ import annotations

from repro.core.context import SolverContext
from repro.robustness.faults import DegradedProblem

__all__ = ["degraded_context"]


def degraded_context(
    parent: SolverContext, degraded: DegradedProblem
) -> SolverContext:
    """A :class:`SolverContext` for ``degraded.problem``, derived from ``parent``.

    The parent must be the context of the instance the scenario was applied
    to (usually the healthy one; a derived context works as a parent too).
    Capacity-only scenarios share the parent's backend outright; removals
    get a fresh backend on the surviving graph whose rows compute on demand.
    """
    graph = degraded.problem.network.graph
    backend = parent.backend
    if (
        degraded.failed_links
        or degraded.failed_nodes
        or parent.nodes != tuple(graph.nodes)
    ):
        backend = backend.repair(graph)
    return SolverContext(degraded.problem, backend=backend)

