"""Built-in simulation-engine backends.

This module populates the :data:`repro.registry.engines` registry (it is the
registry's lazy loader target).  A *backend* is a dispatch strategy for the
same simulation: every backend receives the exact keyword arguments of
:class:`~repro.simulation.engine.SimulationEngine` and must produce
bit-identical trace digests, delivery logs and metrics.  The parity suite
(:mod:`repro.experiments.parity`) enforces this pairwise against
``reference`` in CI.

* ``reference`` — the per-event queue dispatcher
  (:class:`~repro.simulation.engine.SimulationEngine` itself), byte-for-byte
  unchanged by the backend split.  Always correct, always available; the
  baseline every other backend is measured against.
* ``vectorized`` — :class:`~repro.simulation.vectorized.VectorizedEngine`,
  a struct-of-arrays core that batches the delivery fan-out of each
  broadcast (NumPy time/seq/destination arrays per batch, prefetched
  per-channel loss/delay vectors) and merges batches with the event queue on
  the reference ``(time, seq)`` total order.  Falls back to per-event
  dispatch — silently, and bit-identically — whenever a
  :class:`~repro.explore.controller.ScheduleController` or a FULL trace
  level is active, so explore/replay stay exact.
"""

from __future__ import annotations

from ..registry import register_engine
from .engine import SimulationEngine
from .vectorized import VectorizedEngine

# The engine classes are their own factories: both take the runner's
# keyword arguments verbatim.
register_engine(
    "reference",
    description="per-event queue dispatch (the bit-exact baseline)",
)(SimulationEngine)

register_engine(
    "vectorized",
    batched=True,
    description=(
        "struct-of-arrays batched delivery dispatch; bit-identical to "
        "reference, falls back to per-event under a controller or FULL "
        "trace"
    ),
)(VectorizedEngine)
