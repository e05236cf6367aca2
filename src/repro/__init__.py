"""repro — Uniform Reliable Broadcast in anonymous distributed systems with
fair lossy channels.

A faithful, simulation-based reproduction of Tang, Larrea, Arévalo & Jiménez
(2015): the non-quiescent majority URB algorithm (Algorithm 1), the quiescent
URB algorithm using the anonymous failure detectors AΘ and AP\\*
(Algorithm 2), the impossibility construction, baselines, and a full
experiment harness.

Quickstart::

    from repro import Scenario, run_scenario
    from repro.network import LossSpec

    result = run_scenario(
        Scenario(algorithm="algorithm2", n_processes=5,
                 loss=LossSpec.bernoulli(0.3), crashes={4: 10.0},
                 stop_when_quiescent=True)
    )
    print(result.describe())
"""

from .core import (
    BestEffortBroadcastProcess,
    BroadcastProtocol,
    EagerReliableBroadcastProcess,
    IdentifiedMajorityUrbProcess,
    MajorityUrbProcess,
    QuiescentUrbProcess,
    TaggedMessage,
)
from .experiments import (
    BatchRunner,
    Scenario,
    ScenarioResult,
    ScenarioSuite,
    SuiteResult,
    build_engine,
    default_scenario,
    run_scenario,
)
from .campaigns import (
    Campaign,
    CampaignReport,
    ResultStore,
    run_campaign,
    scenario_cell_key,
)
from .explore import ExplorationReport, Explorer, explore
from .registry import (
    register_algorithm,
    register_channel,
    register_detector_setup,
    register_strategy,
    register_workload,
)
from .simulation import (
    BroadcastCommand,
    CrashSchedule,
    SimulationConfig,
    SimulationEngine,
    SimulationResult,
)

__version__ = "1.0.0"

__all__ = [
    "BatchRunner",
    "BestEffortBroadcastProcess",
    "Campaign",
    "CampaignReport",
    "ResultStore",
    "BroadcastCommand",
    "BroadcastProtocol",
    "CrashSchedule",
    "EagerReliableBroadcastProcess",
    "IdentifiedMajorityUrbProcess",
    "MajorityUrbProcess",
    "QuiescentUrbProcess",
    "Scenario",
    "ScenarioResult",
    "ScenarioSuite",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "SuiteResult",
    "TaggedMessage",
    "ExplorationReport",
    "Explorer",
    "build_engine",
    "default_scenario",
    "explore",
    "register_algorithm",
    "register_channel",
    "register_detector_setup",
    "register_strategy",
    "register_workload",
    "run_campaign",
    "run_scenario",
    "scenario_cell_key",
    "__version__",
]
