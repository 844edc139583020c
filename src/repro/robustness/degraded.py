"""Derive solver contexts for degraded instances from the healthy parent.

A failure sweep evaluates hundreds of closely related instances: each
scenario removes a handful of links or nodes from one healthy topology.
:func:`degraded_context` derives the degraded instance's
:class:`~repro.core.context.SolverContext` from the healthy parent's:

- a capacity-only scenario (no link or node removed) leaves every link cost
  — and therefore every distance — untouched, so the parent's backend is
  shared outright, primed rows included;
- a removal goes through :meth:`repro.graph.backends.LazyRowBackend.repair`,
  which masks the parent's CSR arrays with the scenario's failed node and
  directed-link ids (``DegradedProblem.failed_nodes``/``failed_links``) —
  no graph is copied or walked — into a fresh backend that computes a row
  only when it is read.  Failure recovery reads cache, pinned and holder
  rows — a small fraction of a primed parent — so the derived context pays
  Dijkstra for exactly that handful instead of a full all-pairs rebuild.

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
from repro.exceptions import InvalidProblemError
from repro.robustness.faults import DegradedProblem

__all__ = ["degraded_context"]


def degraded_context(
    parent: SolverContext, degraded: DegradedProblem
) -> SolverContext:
    """A :class:`SolverContext` for ``degraded.problem``, derived from ``parent``.

    The parent must be the context of the instance the scenario was applied
    to (usually the healthy one; a derived context works as a parent too).
    Capacity-only scenarios share the parent's backend outright; removals
    mask the parent's CSR with ``degraded.failed_nodes`` and
    ``degraded.failed_links`` (:meth:`LazyRowBackend.repair
    <repro.graph.backends.LazyRowBackend.repair>`), and the child's rows
    compute on demand.  Neither reads the degraded network's graph.
    """
    backend = parent.backend
    if degraded.failed_links or degraded.failed_nodes:
        backend = backend.repair(degraded.failed_nodes, degraded.failed_links)
    if len(backend.nodes) != degraded.problem.network.num_nodes:
        raise InvalidProblemError(
            "degraded_context needs the context of the instance the scenario "
            "was applied to"
        )
    return SolverContext(degraded.problem, backend=backend)
