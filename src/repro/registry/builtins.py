"""Built-in component registrations.

This module is imported lazily by :mod:`repro.registry` the first time any
registry is read.  It registers the paper's algorithms, the three channel
families, the standard failure-detector setups and the workload presets using
exactly the same decorators third-party extensions use — the built-ins enjoy
no special treatment anywhere downstream.

Factories read protocol options straight off the scenario
(``majority_threshold``, ``strict_equality``, …); presets additionally read
free-form knobs from ``scenario.metadata`` (e.g. ``burst_size``) so they can
be tuned without new Scenario fields.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core.algorithm1 import MajorityUrbProcess
from ..core.algorithm2 import QuiescentUrbProcess
from ..core.baselines import (
    BestEffortBroadcastProcess,
    EagerReliableBroadcastProcess,
    IdentifiedMajorityUrbProcess,
)
from ..failure_detectors.apstar import APStarOracle
from ..failure_detectors.atheta import AThetaOracle
from ..failure_detectors.oracle import GroundTruthOracle
from ..network.fair_lossy import FairLossyChannelFactory
from ..network.reliable import QuasiReliableChannelFactory, ReliableChannelFactory
from ..workloads.generators import (
    AllToAll,
    BurstWorkload,
    PoissonStream,
    SingleBroadcast,
    UniformStream,
)
from . import (
    register_algorithm,
    register_channel,
    register_detector_setup,
    register_workload,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import Scenario
    from ..simulation.environment import ProcessEnvironment
    from ..simulation.faults import CrashSchedule
    from ..simulation.rng import RandomSource


# --------------------------------------------------------------------------- #
# algorithms (paper protocols + baselines)
# --------------------------------------------------------------------------- #
@register_algorithm(
    "algorithm1",
    description="Paper Algorithm 1: anonymous majority-ACK URB (non-quiescent)",
    requires_majority=True,
)
def _build_algorithm1(scenario: "Scenario", index: int,
                      env: "ProcessEnvironment") -> MajorityUrbProcess:
    return MajorityUrbProcess(
        env,
        scenario.n_processes,
        majority_threshold=scenario.majority_threshold,
        eager_first_broadcast=scenario.eager_first_broadcast,
    )


@register_algorithm(
    "algorithm2",
    description="Paper Algorithm 2: quiescent anonymous URB using AΘ and AP*",
    supports_quiescence=True,
    uses_failure_detectors=True,
)
def _build_algorithm2(scenario: "Scenario", index: int,
                      env: "ProcessEnvironment") -> QuiescentUrbProcess:
    return QuiescentUrbProcess(
        env,
        strict_equality=scenario.strict_equality,
        retire_enabled=scenario.retire_enabled,
        eager_first_broadcast=scenario.eager_first_broadcast,
    )


class _NoRetransmitUrbProcess(MajorityUrbProcess):
    """Algorithm 1 with Task 1 disabled — a deliberately broken mutant.

    Without the «repeat forever» retransmission loop, channel fairness never
    gets a second attempt to force delivery, so loss patterns exist in which
    a correct broadcaster never collects a majority of acknowledgements.
    The schedule explorer (see :mod:`repro.explore`) is expected to find
    them; the exploration CI smoke job runs it with ``--expect-violation``
    as an end-to-end self-test of the violation pipeline.
    """

    name = "algorithm1_noretx"

    def on_tick(self) -> None:
        return None


@register_algorithm(
    "algorithm1_noretx",
    description="BROKEN mutant of Algorithm 1 (Task 1 retransmission "
                "disabled) — schedule-explorer self-test target",
    requires_majority=True,
    broken=True,
)
def _build_algorithm1_noretx(scenario: "Scenario", index: int,
                             env: "ProcessEnvironment") -> _NoRetransmitUrbProcess:
    return _NoRetransmitUrbProcess(
        env,
        scenario.n_processes,
        majority_threshold=scenario.majority_threshold,
        eager_first_broadcast=scenario.eager_first_broadcast,
    )


@register_algorithm(
    "best_effort",
    description="Baseline: best-effort broadcast (no retransmission)",
)
def _build_best_effort(scenario: "Scenario", index: int,
                       env: "ProcessEnvironment") -> BestEffortBroadcastProcess:
    return BestEffortBroadcastProcess(env)


@register_algorithm(
    "eager_rb",
    description="Baseline: eager reliable broadcast (relay once on reception)",
)
def _build_eager_rb(scenario: "Scenario", index: int,
                    env: "ProcessEnvironment") -> EagerReliableBroadcastProcess:
    return EagerReliableBroadcastProcess(env)


@register_algorithm(
    "identified_urb",
    description="Baseline: classic majority URB with process identities",
    requires_majority=True,
    anonymous=False,
)
def _build_identified_urb(scenario: "Scenario", index: int,
                          env: "ProcessEnvironment") -> IdentifiedMajorityUrbProcess:
    return IdentifiedMajorityUrbProcess(
        env,
        scenario.n_processes,
        identity=index,
        majority_threshold=scenario.majority_threshold,
        eager_first_broadcast=scenario.eager_first_broadcast,
    )


# --------------------------------------------------------------------------- #
# channel families
# --------------------------------------------------------------------------- #
@register_channel(
    "fair_lossy",
    description="Fair lossy channels (the paper's model, §II)",
)
def _build_fair_lossy(scenario: "Scenario",
                      crash_schedule: "CrashSchedule") -> FairLossyChannelFactory:
    return FairLossyChannelFactory(
        loss_spec=scenario.loss,
        delay_spec=scenario.delay,
        fairness_bound=scenario.fairness_bound,
    )


@register_channel(
    "reliable",
    description="Reliable channels (every copy delivered)",
    lossy=False,
)
def _build_reliable(scenario: "Scenario",
                    crash_schedule: "CrashSchedule") -> ReliableChannelFactory:
    return ReliableChannelFactory(delay_spec=scenario.delay)


@register_channel(
    "quasi_reliable",
    description="Quasi-reliable channels (copies die with a crashed sender)",
)
def _build_quasi_reliable(
    scenario: "Scenario", crash_schedule: "CrashSchedule"
) -> QuasiReliableChannelFactory:
    return QuasiReliableChannelFactory(
        sender_crash_time=crash_schedule.crash_time,
        delay_spec=scenario.delay,
    )


# --------------------------------------------------------------------------- #
# failure-detector setups
# --------------------------------------------------------------------------- #
@register_detector_setup(
    "oracle",
    description="Ground-truth AΘ and AP* with the scenario's delays (default)",
)
def _build_oracle_detectors(scenario: "Scenario", crash_schedule: "CrashSchedule",
                            random_source: "RandomSource"):
    ground_truth = GroundTruthOracle(
        crash_schedule, rng=random_source.stream("labels")
    )
    atheta = AThetaOracle(
        ground_truth,
        policy=scenario.fd_policy,
        detection_delay=scenario.fd_detection_delay,
        learn_delay=scenario.fd_learn_delay,
        rng=random_source.stream("atheta-learn") if scenario.fd_learn_delay else None,
    )
    apstar = APStarOracle(
        ground_truth,
        policy=scenario.fd_policy,
        detection_delay=scenario.effective_apstar_delay,
        learn_delay=scenario.fd_learn_delay,
        rng=random_source.stream("apstar-learn") if scenario.fd_learn_delay else None,
    )
    return atheta, apstar


@register_detector_setup(
    "prescient",
    description="Zero-delay AΘ and AP* (instant, perfectly accurate oracles)",
)
def _build_prescient_detectors(scenario: "Scenario",
                               crash_schedule: "CrashSchedule",
                               random_source: "RandomSource"):
    ground_truth = GroundTruthOracle(
        crash_schedule, rng=random_source.stream("labels")
    )
    atheta = AThetaOracle(
        ground_truth, policy=scenario.fd_policy,
        detection_delay=0.0, learn_delay=0.0,
    )
    apstar = APStarOracle(
        ground_truth, policy=scenario.fd_policy,
        detection_delay=0.0, learn_delay=0.0,
    )
    return atheta, apstar


@register_detector_setup(
    "none",
    description="No oracles at all (protocols see empty detector views)",
)
def _build_no_detectors(scenario: "Scenario", crash_schedule: "CrashSchedule",
                        random_source: "RandomSource"):
    return None, None


# --------------------------------------------------------------------------- #
# workload presets
# --------------------------------------------------------------------------- #
@register_workload(
    "single",
    description="One broadcast by process 0 at t=0 (the proofs' pattern)",
    draws=False,
)
def _build_single(scenario: "Scenario", rng: None) -> SingleBroadcast:
    return SingleBroadcast(sender=0, time=0.0)


@register_workload(
    "all_to_all",
    description="Every process broadcasts one message",
    draws=False,
)
def _build_all_to_all(scenario: "Scenario", rng: None) -> AllToAll:
    return AllToAll(
        scenario.n_processes,
        spacing=float(scenario.metadata.get("workload_spacing", 0.0)),
    )


@register_workload(
    "uniform_stream",
    description="Fixed-rate stream from process 0 (metadata: stream_messages, "
                "stream_interval)",
    draws=False,
)
def _build_uniform_stream(scenario: "Scenario",
                          rng: None) -> UniformStream:
    return UniformStream(
        int(scenario.metadata.get("stream_messages", scenario.n_processes)),
        interval=float(scenario.metadata.get("stream_interval", 5.0)),
    )


@register_workload(
    "two_senders",
    description="Processes 0 and 1 broadcast one message each, at t=0 and t=1",
    draws=False,
)
def _build_two_senders(scenario: "Scenario",
                       rng: None) -> UniformStream:
    return UniformStream(2, senders=(0, 1), interval=1.0)


@register_workload(
    "burst",
    description="Back-to-back burst from process 0 (metadata: burst_size)",
    draws=False,
)
def _build_burst(scenario: "Scenario", rng: None) -> BurstWorkload:
    return BurstWorkload(
        int(scenario.metadata.get("burst_size", scenario.n_processes))
    )


@register_workload(
    "poisson",
    description="Poisson arrivals, random senders (metadata: poisson_messages, "
                "poisson_rate); draws from the run's seeded workload stream",
)
def _build_poisson(scenario: "Scenario", rng: random.Random) -> PoissonStream:
    return PoissonStream(
        int(scenario.metadata.get("poisson_messages", scenario.n_processes)),
        scenario.n_processes,
        float(scenario.metadata.get("poisson_rate", 0.5)),
        rng,
    )
