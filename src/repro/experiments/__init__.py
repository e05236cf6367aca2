"""Experiment harness: scenario configuration, runners, suites/batching and
the registry of the paper-style experiments E1–E10."""

from .batch import (
    BatchExecutionError,
    BatchFailure,
    BatchRunner,
    ScenarioSuite,
    SuiteItem,
    SuiteResult,
)
from .config import Scenario
from .export import (
    scenario_result_to_dict,
    write_artifact_csv,
    write_experiment_json,
)
from .report import ExperimentArtifact, ExperimentResult
from .runner import (
    ScenarioResult,
    build_engine,
    build_workload,
    default_scenario,
    run_scenario,
)

__all__ = [
    "BatchExecutionError",
    "BatchFailure",
    "BatchRunner",
    "ExperimentArtifact",
    "ExperimentResult",
    "Scenario",
    "ScenarioResult",
    "ScenarioSuite",
    "SuiteItem",
    "SuiteResult",
    "build_engine",
    "build_workload",
    "default_scenario",
    "run_scenario",
    "scenario_result_to_dict",
    "write_artifact_csv",
    "write_experiment_json",
]

