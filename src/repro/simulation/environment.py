"""The per-process environment handed to protocol code.

:class:`ProcessEnvironment` implements
:class:`repro.core.interfaces.EnvironmentAPI`: it is the *only* object a
protocol process ever touches.  It deliberately exposes nothing that would
break the paper's system model:

* no process identifiers (the index is stored privately for the engine's
  bookkeeping only),
* no clock (times are recorded engine-side),
* no topology or channel access beyond the anonymous ``broadcast``.

Lifetime: the engine is held *weakly*, the one back-edge of a run's object
graph (engine → processes → environment ⇢ engine).  Whoever runs an engine owns
it and a result never keeps it alive, so a finished run is freed by reference
counting; with the engine gone every service call raises ``ReferenceError``.
"""

from __future__ import annotations

import random
import weakref
from typing import TYPE_CHECKING, Any, Optional

from ..core.messages import TaggedMessage
from ..failure_detectors.base import FailureDetectorView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import SimulationEngine


class ProcessEnvironment:
    """Anonymous runtime environment of one simulated process."""

    def __init__(self, index: int, engine: "SimulationEngine") -> None:
        self._index = index
        self._engine: "SimulationEngine" = weakref.proxy(engine)
        self._random: Optional[random.Random] = None

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the engine: a shipped result has no use for one."""
        return {"_index": self._index, "_random": self._random}

    # ------------------------------------------------------------------ #
    # EnvironmentAPI
    # ------------------------------------------------------------------ #
    def broadcast(self, payload: Any) -> None:
        """The paper's ``broadcast(m)``: one copy to every process."""
        self._engine.broadcast_from(self._index, payload)

    @property
    def random(self) -> random.Random:
        """Process-local random substream (tags), seeded when first read."""
        if self._random is None:
            self._random = self._engine.random_source.for_process(self._index)
        return self._random

    def atheta(self) -> FailureDetectorView:
        """Read the AΘ variable (empty view if no detector is configured)."""
        return self._engine.atheta_view(self._index)

    def apstar(self) -> FailureDetectorView:
        """Read the AP\\* variable (empty view if no detector is configured)."""
        return self._engine.apstar_view(self._index)

    def notify_delivery(self, message: TaggedMessage) -> None:
        """Report a URB-delivery to the platform (tracing/metrics)."""
        self._engine.on_process_delivered(self._index, message)

    def notify_retire(self, message: TaggedMessage) -> None:
        """Report the retirement of *message* from the retransmission set."""
        self._engine.on_process_retired(self._index, message)

    # ------------------------------------------------------------------ #
    # engine-side helpers (not part of EnvironmentAPI)
    # ------------------------------------------------------------------ #
    @property
    def engine_index(self) -> int:
        """The process index — for engine/analysis use, never protocol code."""
        return self._index
