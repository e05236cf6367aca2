"""Shared test helpers.

`FakeEnvironment` is a minimal in-memory implementation of
:class:`repro.core.interfaces.EnvironmentAPI` used by the protocol *unit*
tests: it records everything the process broadcasts and lets the test control
the failure-detector views directly, so each pseudocode branch can be
exercised without spinning up the simulator.
"""

from __future__ import annotations

import random
import weakref
from typing import Any

from repro.core.messages import TaggedMessage
from repro.failure_detectors.base import FailureDetectorView


class FakeEnvironment:
    """In-memory EnvironmentAPI for protocol unit tests."""

    def __init__(self, seed: int = 0,
                 atheta_view: FailureDetectorView | None = None,
                 apstar_view: FailureDetectorView | None = None) -> None:
        self._random = random.Random(seed)
        self.atheta_view = atheta_view or FailureDetectorView.empty()
        self.apstar_view = apstar_view or FailureDetectorView.empty()
        #: Every payload the process handed to ``broadcast``.
        self.broadcasts: list[Any] = []
        #: Every message reported through ``notify_delivery``.
        self.deliveries: list[TaggedMessage] = []
        #: Every message reported through ``notify_retire``.
        self.retirements: list[TaggedMessage] = []

    # -- EnvironmentAPI --------------------------------------------------- #
    def broadcast(self, payload: Any) -> None:
        self.broadcasts.append(payload)

    @property
    def random(self) -> random.Random:
        return self._random

    def atheta(self) -> FailureDetectorView:
        return self.atheta_view

    def apstar(self) -> FailureDetectorView:
        return self.apstar_view

    def notify_delivery(self, message: TaggedMessage) -> None:
        self.deliveries.append(message)

    def notify_retire(self, message: TaggedMessage) -> None:
        self.retirements.append(message)

    # -- test conveniences ------------------------------------------------ #
    def broadcasts_of_kind(self, kind: str) -> list[Any]:
        """Broadcast payloads whose wire kind matches *kind*."""
        return [p for p in self.broadcasts if getattr(p, "kind", None) == kind]

    def clear(self) -> None:
        """Forget recorded broadcasts/deliveries (keeps RNG state)."""
        self.broadcasts.clear()
        self.deliveries.clear()
        self.retirements.clear()


def drain_loopback(process, env: FakeEnvironment, max_rounds: int = 10) -> None:
    """Feed the process its own broadcasts until it stops producing new ones.

    Emulates a perfectly reliable loopback channel, useful for single-process
    unit tests of the acknowledge-then-count path.
    """
    delivered_upto = 0
    for _ in range(max_rounds):
        pending = env.broadcasts[delivered_upto:]
        if not pending:
            return
        delivered_upto = len(env.broadcasts)
        for payload in pending:
            process.on_receive(payload)
    raise AssertionError("loopback did not stabilise within max_rounds")


def track_live_runs(monkeypatch) -> "weakref.WeakSet":
    """Wrap the batch runner's ``run_scenario`` so that the trace of every
    run it executes in this process lands in the returned ``WeakSet``: its
    length is the number of finished runs somebody still holds."""
    from repro.experiments import batch

    live: weakref.WeakSet = weakref.WeakSet()
    run_scenario = batch.run_scenario

    def tracked(scenario):
        result = run_scenario(scenario)
        live.add(result.simulation.trace)
        return result

    monkeypatch.setattr(batch, "run_scenario", tracked)
    return live
