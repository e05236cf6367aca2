"""The paper's algorithms on a transport that is not the simulator.

``repro.core`` reaches its platform only through
:class:`~repro.core.interfaces.EnvironmentAPI` and the failure-detector
views; ``tests/unit/test_core_layering.py`` checks that statically.  This
file checks it by running the unmodified protocol objects on
:class:`LockstepTransport`, a round-based in-memory transport written here
with no engine, scheduler or channel object behind it:

* in round ``r`` every live process first takes the application broadcasts
  scheduled for ``r``, then receives the copies sent in round ``r - 1``,
  then runs one Task 1 round (``on_tick``);
* each copy of a broadcast is lost independently with a fixed probability
  (a fair lossy channel with probability 1), otherwise it arrives in the
  next round, even if its sender has crashed since;
* a process crashed at round ``c`` takes no step from round ``c`` on, and
  the failure detectors read the same crash times.

Everything is seeded, so each case is deterministic and costs milliseconds.
"""

from __future__ import annotations

import random
from typing import Any, Callable

import pytest

from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.algorithm2 import QuiescentUrbProcess
from repro.core.interfaces import BroadcastProtocol, EnvironmentAPI
from repro.core.messages import TaggedMessage
from repro.failure_detectors.apstar import APStarOracle
from repro.failure_detectors.atheta import AThetaOracle
from repro.failure_detectors.base import FailureDetectorView
from repro.failure_detectors.oracle import GroundTruthOracle
from repro.simulation.faults import CrashSchedule

N = 4

FACTORIES: dict[str, Callable[[EnvironmentAPI, int], BroadcastProtocol]] = {
    "algorithm1": lambda env, n: MajorityUrbProcess(env, n),
    "algorithm2": lambda env, n: QuiescentUrbProcess(env),
}


class _Environment:
    """One process's view of a :class:`LockstepTransport`."""

    def __init__(self, transport: "LockstepTransport", index: int) -> None:
        self._transport = transport
        self._index = index
        self._random = random.Random(transport.seed * 1_000 + index)

    def broadcast(self, payload: Any) -> None:
        self._transport.broadcast_from(self._index, payload)

    @property
    def random(self) -> random.Random:
        return self._random

    def atheta(self) -> FailureDetectorView:
        return self._transport.atheta.view(self._index, self._transport.now)

    def apstar(self) -> FailureDetectorView:
        return self._transport.apstar.view(self._index, self._transport.now)

    def notify_delivery(self, message: TaggedMessage) -> None:
        self._transport.deliveries[self._index].append(message.content)

    def notify_retire(self, message: TaggedMessage) -> None:
        self._transport.retires += 1


class LockstepTransport:
    """Runs *n* protocol processes in lock-step rounds (see module docs)."""

    def __init__(self, algorithm: str, n: int = N, *, loss: float = 0.0,
                 crashes: dict[int, int] | None = None, seed: int = 0) -> None:
        self.n = n
        self.loss = loss
        self.seed = seed
        self.crashes = dict(crashes or {})
        self.round = 0
        self.sends = 0
        self.drops = 0
        self.retires = 0
        self.last_send_round: int | None = None
        self.deliveries: dict[int, list[Any]] = {i: [] for i in range(n)}
        #: For each process, the senders of the copies it received.
        self.heard_from: dict[int, set[int]] = {i: set() for i in range(n)}
        self._loss_rng = random.Random(seed)
        self._in_flight: list[tuple[int, int, Any]] = []
        schedule = CrashSchedule.crash_at(
            n, {i: float(r) for i, r in self.crashes.items()})
        ground = GroundTruthOracle(schedule, rng=random.Random(seed))
        self.atheta = AThetaOracle(ground)
        self.apstar = APStarOracle(ground)
        self.environments = [_Environment(self, i) for i in range(n)]
        self.processes = [FACTORIES[algorithm](env, n)
                          for env in self.environments]

    @property
    def now(self) -> float:
        return float(self.round)

    def alive(self, index: int) -> bool:
        return self.crashes.get(index, self.round + 1) > self.round

    def broadcast_from(self, src: int, payload: Any) -> None:
        if not self.alive(src):
            return
        self.last_send_round = self.round
        for dst in range(self.n):
            self.sends += 1
            if self.loss and self._loss_rng.random() < self.loss:
                self.drops += 1
            else:
                self._in_flight.append((src, dst, payload))

    def run(self, rounds: int,
            workload: dict[int, list[tuple[int, Any]]]) -> "LockstepTransport":
        for self.round in range(rounds):
            arriving, self._in_flight = self._in_flight, []
            for sender, content in workload.get(self.round, ()):
                if self.alive(sender):
                    self.processes[sender].urb_broadcast(content)
            for src, dst, payload in arriving:
                if self.alive(dst):
                    self.heard_from[dst].add(src)
                    self.processes[dst].on_receive(payload)
            for index, process in enumerate(self.processes):
                if self.alive(index):
                    process.on_tick()
        return self

    def delivered_everywhere(self, contents, indices) -> bool:
        return all(set(contents) <= set(self.deliveries[i]) for i in indices)

    def at_most_once(self) -> bool:
        return all(len(got) == len(set(got))
                   for got in self.deliveries.values())


ALGORITHMS = pytest.mark.parametrize("algorithm", sorted(FACTORIES))


def test_environment_satisfies_the_protocol_interface():
    transport = LockstepTransport("algorithm1")
    assert all(isinstance(env, EnvironmentAPI)
               for env in transport.environments)


@ALGORITHMS
def test_single_broadcast_reaches_everyone(algorithm):
    transport = LockstepTransport(algorithm, seed=1).run(
        20, {0: [(0, "m0")]})
    assert transport.delivered_everywhere(["m0"], range(N))
    assert all(p.delivered_contents() == ["m0"] for p in transport.processes)
    assert transport.sends > 0 and transport.drops == 0


@ALGORITHMS
def test_lossy_channels_recovered_by_retransmission(algorithm):
    transport = LockstepTransport(algorithm, loss=0.3, seed=2).run(
        60, {0: [(1, "m1")]})
    assert transport.delivered_everywhere(["m1"], range(N))
    assert transport.drops > 0
    assert transport.at_most_once()


@ALGORITHMS
def test_multi_message_workload(algorithm):
    workload = {0: [(0, "a")], 2: [(1, "b")], 4: [(2, "c"), (3, "d")]}
    transport = LockstepTransport(algorithm, loss=0.1, seed=6).run(
        60, workload)
    assert transport.delivered_everywhere("abcd", range(N))
    assert transport.at_most_once()


@ALGORITHMS
def test_delivers_under_loss_and_midrun_crash(algorithm):
    crashes = {N - 1: 3}
    transport = LockstepTransport(algorithm, loss=0.2, crashes=crashes,
                                  seed=21).run(80, {0: [(0, "ft")]})
    assert transport.delivered_everywhere(["ft"], range(N - 1))
    assert transport.drops > 0
    assert transport.at_most_once()


@ALGORITHMS
def test_crashed_sender_message_still_spreads(algorithm):
    # The sender crashes right after its first dissemination, which misses
    # some process altogether; the receivers' Task 1 relays the message.
    transport = LockstepTransport(algorithm, loss=0.5, crashes={0: 1},
                                  seed=0).run(80, {0: [(0, "orphan")]})
    assert transport.deliveries[0] == []
    assert any(0 not in transport.heard_from[i] for i in range(1, N))
    assert transport.delivered_everywhere(["orphan"], range(1, N))


@ALGORITHMS
def test_initially_crashed_process_takes_no_steps(algorithm):
    transport = LockstepTransport(algorithm, crashes={2: 0}, seed=24).run(
        40, {2: [(0, "m4")]})
    assert transport.deliveries[2] == []
    assert transport.processes[2].pending_retransmissions == 0
    assert transport.delivered_everywhere(["m4"], (0, 1, 3))


def test_algorithm1_keeps_sending_for_the_whole_run():
    transport = LockstepTransport("algorithm1", seed=3).run(
        30, {0: [(0, "m")]})
    assert transport.delivered_everywhere(["m"], range(N))
    assert transport.last_send_round == 29
    assert all(p.pending_retransmissions for p in transport.processes)


@pytest.mark.parametrize("crashes", [{}, {N - 1: 2}], ids=["none", "one"])
def test_algorithm2_falls_silent(crashes):
    transport = LockstepTransport("algorithm2", loss=0.1, crashes=crashes,
                                  seed=4).run(60, {0: [(0, "q")]})
    correct = [i for i in range(N) if i not in crashes]
    assert transport.delivered_everywhere(["q"], correct)
    assert transport.last_send_round < 30
    assert transport.retires >= len(correct)
    assert all(transport.processes[i].pending_retransmissions == 0
               for i in correct)
