"""Exporting experiment and scenario results to JSON / CSV.

The plain-text tables are what the CLI and ``EXPERIMENTS.md`` show; this
module provides machine-readable exports so results can be post-processed or
plotted with external tooling (pandas, gnuplot, spreadsheets) without adding
any plotting dependency to the library itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from ..simulation.engine import ScheduleProvenance
from .report import ExperimentArtifact, ExperimentResult
from .runner import ScenarioResult


def artifact_to_dict(artifact: ExperimentArtifact) -> dict[str, Any]:
    """Plain-dict view of one artifact (JSON friendly)."""
    return {
        "name": artifact.name,
        "kind": artifact.kind,
        "headers": list(artifact.headers),
        "rows": [list(row) for row in artifact.rows],
        "notes": artifact.notes,
    }


def experiment_result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Plain-dict view of an experiment result (JSON friendly)."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "parameters": dict(result.parameters),
        "artifacts": [artifact_to_dict(a) for a in result.artifacts],
    }


def provenance_to_dict(
    provenance: ScheduleProvenance | None,
) -> dict[str, Any] | None:
    """JSON-friendly view of a run's schedule provenance, decisions included.

    Unlike :meth:`ScheduleProvenance.as_dict` (a summary for reports), this
    form carries the decision trace too, so an export round-trips through
    :func:`provenance_from_dict` equal to its source.
    """
    if provenance is None:
        return None
    data = provenance.as_dict()
    data["decisions"] = [list(decision) for decision in provenance.decisions]
    return data


def provenance_from_dict(
    data: dict[str, Any] | None,
) -> ScheduleProvenance | None:
    """Rebuild a :class:`ScheduleProvenance` written by
    :func:`provenance_to_dict` (``None`` passes through)."""
    if data is None:
        return None
    return ScheduleProvenance(
        strategy=data["strategy"],
        seed=data["seed"],
        schedule_index=data["schedule_index"],
        decision_count=data["decision_count"],
        schedule_hash=data["schedule_hash"],
        decisions=tuple(tuple(decision) for decision in data["decisions"]),
    )


def scenario_result_to_dict(result: ScenarioResult) -> dict[str, Any]:
    """Plain-dict view of what a single scenario run produced (JSON
    friendly).  The scenario itself is not in it: a stored payload carries
    it once, as :func:`~repro.explore.serialize.scenario_to_dict` writes it
    beside this dict."""
    return {
        "verdict": {
            "validity": result.verdict.validity.holds,
            "uniform_agreement": result.verdict.uniform_agreement.holds,
            "uniform_integrity": result.verdict.uniform_integrity.holds,
            "violations": result.verdict.violations(),
        },
        "quiescence": {
            "quiescent": result.quiescence.quiescent,
            "last_send_time": result.quiescence.last_send_time,
            "idle_tail": result.quiescence.idle_tail,
        },
        "anonymity_passed": result.anonymity.passed,
        "metrics": result.metrics.as_dict(),
        "stop_reason": result.simulation.stop_reason,
        "final_time": result.simulation.final_time,
        "schedule": provenance_to_dict(result.simulation.schedule),
        "deliveries": {
            str(index): log.contents()
            for index, log in result.simulation.delivery_logs.items()
        },
    }


# --------------------------------------------------------------------------- #
# file writers
# --------------------------------------------------------------------------- #
def write_experiment_json(result: ExperimentResult, path: str | Path) -> Path:
    """Write one experiment result as a JSON file; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(experiment_result_to_dict(result), indent=2, default=str),
        encoding="utf-8",
    )
    return path


def write_artifact_csv(artifact: ExperimentArtifact, path: str | Path) -> Path:
    """Write one table/figure as a CSV file; returns the path."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(artifact.headers))
        for row in artifact.rows:
            writer.writerow(list(row))
    return path
