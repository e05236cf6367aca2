"""Counterexample artifacts: replayable JSON for violating schedules.

An artifact bundles everything needed to reproduce a violation on a machine
that only has the repository: the full scenario (reconstructed field by
field — not pickled, so artifacts survive code evolution), the decision
trace (and its shrunk form), the schedule provenance and the violated
properties.  ``repro.explore.explorer.replay_counterexample`` turns one back
into a live run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..experiments.config import Scenario
from ..network.delay import DelaySpec
from ..network.loss import LossSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .explorer import Counterexample

#: Bump when the artifact layout changes incompatibly.
SCHEMA_VERSION = 1


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """JSON-friendly dict capturing every field needed to rebuild *scenario*.

    Raises :class:`ValueError` for scenarios that cannot be serialised
    faithfully: inline workload objects and custom (callable-backed)
    loss/delay specs have no stable JSON form.
    """
    if scenario.workload is not None and not isinstance(scenario.workload, str):
        raise ValueError(
            "only registered (named) workloads can be serialised; got an "
            "inline workload object"
        )
    for label, spec in (("loss", scenario.loss), ("delay", scenario.delay)):
        if spec.kind == "custom":
            raise ValueError(f"custom {label} specs cannot be serialised")
    return {
        "name": scenario.name,
        "algorithm": scenario.algorithm,
        "n_processes": scenario.n_processes,
        "seed": scenario.seed,
        # This dict is the scenario's one canonical form (the campaign cell
        # key and the artifact id hash it), so every float field is written
        # as a float: ``max_time=60`` equals ``max_time=60.0`` and must
        # serialise, and hash, the same.
        "crashes": {str(index): float(time)
                    for index, time in dict(scenario.crashes).items()},
        "loss": {"kind": scenario.loss.kind,
                 "params": dict(scenario.loss.params)},
        "delay": {"kind": scenario.delay.kind,
                  "params": dict(scenario.delay.params)},
        "fairness_bound": scenario.fairness_bound,
        "channel_type": scenario.channel_type,
        "tick_interval": float(scenario.tick_interval),
        "max_time": float(scenario.max_time),
        "check_interval": float(scenario.check_interval),
        "stop_when_all_correct_delivered": scenario.stop_when_all_correct_delivered,
        "stop_when_quiescent": scenario.stop_when_quiescent,
        "drain_grace_period": float(scenario.drain_grace_period),
        "detector_setup": scenario.detector_setup,
        "fd_policy": scenario.fd_policy.value,
        "fd_detection_delay": float(scenario.fd_detection_delay),
        "fd_learn_delay": float(scenario.fd_learn_delay),
        "apstar_detection_delay": (
            None if scenario.apstar_detection_delay is None
            else float(scenario.apstar_detection_delay)),
        "strict_equality": scenario.strict_equality,
        "retire_enabled": scenario.retire_enabled,
        "eager_first_broadcast": scenario.eager_first_broadcast,
        "majority_threshold": scenario.majority_threshold,
        "workload": scenario.workload,
        "trace_enabled": scenario.trace_enabled,
        "trace_ticks": scenario.trace_ticks,
        "explore_strategy": scenario.explore_strategy,
        "explore_index": scenario.explore_index,
        "metadata": dict(scenario.metadata),
        # Backends are bit-identical by contract, so the default engine is
        # omitted: campaign cell hashes (repro.campaigns.hashing) of every
        # pre-existing scenario stay stable, while an explicit non-default
        # choice still round-trips (and hashes as its own cell, which is
        # the conservative thing to do for a dispatch-strategy knob).
        **({"engine": scenario.engine}
           if scenario.engine != "reference" else {}),
    }


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Rebuild a :class:`Scenario` written by :func:`scenario_to_dict`.

    Artifacts written before the ``explore_*`` fields were serialised (they
    were added later, for the campaign cell hash) load with the defaults.
    """
    fields = dict(data)
    fields.setdefault("explore_strategy", None)
    fields.setdefault("explore_index", 0)
    fields.setdefault("engine", "reference")
    fields["crashes"] = {
        int(index): time
        for index, time in dict(fields.get("crashes", {})).items()
    }
    loss = fields.get("loss", {"kind": "none", "params": {}})
    fields["loss"] = LossSpec(kind=loss["kind"], params=dict(loss["params"]))
    delay = fields.get("delay", {"kind": "fixed", "params": {}})
    fields["delay"] = DelaySpec(kind=delay["kind"], params=dict(delay["params"]))
    return Scenario(**fields)


def decisions_to_lists(decisions: Sequence[Sequence[Any]]) -> list[list[Any]]:
    """Decision tuples as JSON arrays."""
    return [list(decision) for decision in decisions]


def decisions_from_lists(data: Sequence[Sequence[Any]]) -> tuple[tuple, ...]:
    """JSON arrays back to decision tuples."""
    return tuple(tuple(decision) for decision in data)


def counterexample_to_dict(counterexample: "Counterexample") -> dict[str, Any]:
    """The artifact schema for one violating schedule."""
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(counterexample.scenario),
        "strategy": counterexample.strategy,
        "schedule_index": counterexample.schedule_index,
        "seed": counterexample.seed,
        "schedule_hash": counterexample.schedule_hash,
        "violations": list(counterexample.violations),
        "signature": list(counterexample.signature),
        "decisions": decisions_to_lists(counterexample.decisions),
        "shrunk_decisions": (
            None if counterexample.shrunk_decisions is None
            else decisions_to_lists(counterexample.shrunk_decisions)
        ),
        "shrunk_hash": counterexample.shrunk_hash,
        "shrunk_verified": counterexample.shrunk_verified,
        "shrink_tests": counterexample.shrink_tests,
    }


def write_counterexample(counterexample: "Counterexample",
                         directory: str | Path) -> Path:
    """Write one artifact into *directory* (created if missing)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"counterexample_{counterexample.strategy}_"
        f"{counterexample.schedule_index}_{counterexample.schedule_hash}.json"
    )
    path.write_text(
        json.dumps(counterexample_to_dict(counterexample), indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_counterexample(path: str | Path) -> dict[str, Any]:
    """Load an artifact, rebuilding the scenario and decision tuples.

    The returned mapping mirrors the file but with ``scenario`` as a live
    :class:`Scenario` and the decision lists as tuples.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data["scenario"] = scenario_from_dict(data["scenario"])
    data["decisions"] = decisions_from_lists(data["decisions"])
    if data.get("shrunk_decisions") is not None:
        data["shrunk_decisions"] = decisions_from_lists(data["shrunk_decisions"])
    return data
