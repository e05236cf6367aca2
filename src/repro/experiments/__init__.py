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
    write_experiment_csvs,
    write_experiment_json,
    write_scenario_json,
)
from .report import ExperimentArtifact, ExperimentResult
from .runner import (
    ScenarioResult,
    build_engine,
    build_workload,
    default_scenario,
    replicate,
    run_scenario,
    run_scenarios,
)

__all__ = [
    "ALGORITHMS",
    "BatchExecutionError",
    "BatchFailure",
    "BatchRunner",
    "CHANNEL_TYPES",
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
    "replicate",
    "run_scenario",
    "run_scenarios",
    "scenario_result_to_dict",
    "write_artifact_csv",
    "write_experiment_csvs",
    "write_experiment_json",
    "write_scenario_json",
]


def __getattr__(name: str):
    """Forward the legacy ``ALGORITHMS`` / ``CHANNEL_TYPES`` tuples.

    These are live views of the component registries (see
    :mod:`repro.experiments.config`), kept as module attributes for
    backwards compatibility.
    """
    if name in ("ALGORITHMS", "CHANNEL_TYPES"):
        from . import config

        return getattr(config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
