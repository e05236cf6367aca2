"""Declarative threshold rules over metric snapshots, for CI gates.

A rule names a metric in the JSON snapshot (see
:mod:`repro.obs.exposition`), an aggregation over its matching samples,
a comparison and a threshold — the rule *fires* when the comparison
holds, i.e. the rule expresses the bad condition::

    {"name": "lease-reclaim-storm",
     "metric": "repro_lease_reclaims_total",
     "op": ">", "threshold": 10}

    {"name": "slow-cells",
     "metric": "repro_batch_cell_seconds",
     "quantile": 0.99, "op": ">", "threshold": 60.0}

Histogram rules take ``quantile`` (estimated from the cumulative buckets
with the usual ``histogram_quantile`` linear interpolation); counter and
gauge rules aggregate sample values with ``aggregate`` (``sum``,
``max`` or ``min``, default ``sum``).  ``labels`` filters samples to
those whose labels are a superset of the given mapping.  A metric absent
from the snapshot evaluates as ``0`` (the natural reading for counters)
unless ``if_absent`` is ``"skip"`` or ``"fire"``.

:func:`evaluate` returns an :class:`AlertReport` whose ``exit_code`` is
non-zero iff any rule fired.  ``repro-urb obs check SNAPSHOT [--rules
FILE]`` is the one command-line entry point; the CI ``obs`` job runs it
against the final snapshots of a smoke campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

__all__ = ["AlertRule", "RuleResult", "AlertReport", "default_rules",
           "load_rules", "evaluate"]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_AGGREGATES = ("sum", "max", "min")
_IF_ABSENT = ("zero", "skip", "fire")


@dataclass(frozen=True)
class AlertRule:
    """One threshold rule (see module docs for the JSON form)."""

    name: str
    metric: str
    op: str
    threshold: float
    labels: Mapping[str, str] = field(default_factory=dict)
    aggregate: str = "sum"
    quantile: Optional[float] = None
    if_absent: str = "zero"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: unknown op {self.op!r}")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"rule {self.name!r}: unknown aggregate {self.aggregate!r}")
        if self.if_absent not in _IF_ABSENT:
            raise ValueError(
                f"rule {self.name!r}: unknown if_absent {self.if_absent!r}")
        if self.quantile is not None and not 0.0 < self.quantile <= 1.0:
            raise ValueError(
                f"rule {self.name!r}: quantile must be in (0, 1]")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertRule":
        known = {"name", "metric", "op", "threshold", "labels",
                 "aggregate", "quantile", "if_absent"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown rule keys: {sorted(unknown)}")
        return cls(
            name=str(data["name"]),
            metric=str(data["metric"]),
            op=str(data["op"]),
            threshold=float(data["threshold"]),
            labels=dict(data.get("labels", {})),
            aggregate=str(data.get("aggregate", "sum")),
            quantile=(float(data["quantile"])
                      if data.get("quantile") is not None else None),
            if_absent=str(data.get("if_absent", "zero")),
        )


@dataclass(frozen=True)
class RuleResult:
    """Evaluation of one rule against one snapshot."""

    rule: AlertRule
    value: Optional[float]
    firing: bool
    detail: str

    def describe(self) -> str:
        state = "FIRING" if self.firing else "ok"
        shown = "absent" if self.value is None else f"{self.value:g}"
        return (f"[{state:>6}] {self.rule.name}: "
                f"{self.rule.metric} = {shown} "
                f"(rule: {self.rule.op} {self.rule.threshold:g}) "
                f"— {self.detail}")


@dataclass(frozen=True)
class AlertReport:
    """All rule results; ``exit_code`` is the CI contract."""

    results: tuple[RuleResult, ...]

    @property
    def firing(self) -> tuple[RuleResult, ...]:
        return tuple(r for r in self.results if r.firing)

    @property
    def exit_code(self) -> int:
        return 1 if self.firing else 0

    def describe(self) -> str:
        lines = [r.describe() for r in self.results]
        lines.append(
            f"{len(self.firing)} of {len(self.results)} rule(s) firing")
        return "\n".join(lines)


def default_rules() -> tuple[AlertRule, ...]:
    """The built-in rule set the CI ``obs`` job evaluates.

    Thresholds are deliberately loose: they catch pathologies (reclaim
    storms, wedged cells, workers erroring), not normal variance.
    """
    return (
        AlertRule(name="lease-reclaim-storm",
                  metric="repro_lease_reclaims_total",
                  op=">", threshold=25),
        AlertRule(name="batch-cell-p99-slow",
                  metric="repro_batch_cell_seconds",
                  quantile=0.99, op=">", threshold=120.0),
        AlertRule(name="worker-cell-p99-slow",
                  metric="repro_worker_cell_seconds",
                  quantile=0.99, op=">", threshold=120.0),
        AlertRule(name="batch-cell-failures",
                  metric="repro_batch_cells_total",
                  labels={"status": "failed"},
                  op=">", threshold=0),
        AlertRule(name="worker-cell-errors",
                  metric="repro_worker_cells_total",
                  labels={"outcome": "error"},
                  op=">", threshold=0),
    )


def load_rules(source: Union[str, Path]) -> tuple[AlertRule, ...]:
    """Parse a JSON rules file: a list of rule objects, or ``{"rules":
    [...]}``."""
    data = json.loads(Path(source).read_text(encoding="utf-8"))
    if isinstance(data, Mapping):
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise ValueError("rules file must be a JSON list (or {'rules': []})")
    return tuple(AlertRule.from_dict(entry) for entry in data)


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #
def _matching_samples(metric: Mapping[str, Any],
                      labels: Mapping[str, str]) -> list[Mapping[str, Any]]:
    wanted = {k: str(v) for k, v in labels.items()}
    out = []
    for sample in metric.get("samples", ()):
        sample_labels = sample.get("labels", {})
        if all(sample_labels.get(k) == v for k, v in wanted.items()):
            out.append(sample)
    return out


def _merge_buckets(samples: Sequence[Mapping[str, Any]]) -> tuple[
        list[tuple[float, int]], int]:
    """Sum cumulative buckets across samples; returns (bounds+counts,
    total count).  The ``+Inf`` entry is folded into the total."""
    merged: dict[float, int] = {}
    total = 0
    for sample in samples:
        total += int(sample.get("count", 0))
        for bound_text, cum in sample.get("buckets", {}).items():
            if bound_text == "+Inf":
                continue
            merged[float(bound_text)] = merged.get(float(bound_text), 0) \
                + int(cum)
    return sorted(merged.items()), total


def _quantile_from_buckets(samples: Sequence[Mapping[str, Any]],
                           q: float) -> Optional[float]:
    """``histogram_quantile``-style estimate from cumulative buckets."""
    buckets, total = _merge_buckets(samples)
    if total == 0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in buckets:
        if cum >= rank:
            if cum == previous_cum:
                return bound
            fraction = (rank - previous_cum) / (cum - previous_cum)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cum
    # Rank falls in the +Inf bucket: the estimate saturates at the
    # highest finite bound (the standard Prometheus behaviour).
    return buckets[-1][0] if buckets else None


def _rule_value(rule: AlertRule,
                snapshot: Mapping[str, Any]) -> tuple[Optional[float], str]:
    metric = snapshot.get("metrics", {}).get(rule.metric)
    if metric is None:
        return None, "metric absent from snapshot"
    samples = _matching_samples(metric, rule.labels)
    if not samples:
        return None, f"no samples match labels {dict(rule.labels)}"
    if rule.quantile is not None:
        if metric.get("type") != "histogram":
            raise ValueError(
                f"rule {rule.name!r}: quantile on non-histogram "
                f"{rule.metric!r}")
        value = _quantile_from_buckets(samples, rule.quantile)
        if value is None:
            return None, "histogram has no observations"
        return value, f"p{rule.quantile * 100:g} over {len(samples)} sample(s)"
    values = [float(s["value"]) for s in samples]
    if rule.aggregate == "max":
        return max(values), f"max over {len(values)} sample(s)"
    if rule.aggregate == "min":
        return min(values), f"min over {len(values)} sample(s)"
    return sum(values), f"sum over {len(values)} sample(s)"


def evaluate(snapshot: Mapping[str, Any],
             rules: Optional[Sequence[AlertRule]] = None) -> AlertReport:
    """Evaluate *rules* (default: :func:`default_rules`) on a snapshot."""
    if rules is None:
        rules = default_rules()
    results = []
    for rule in rules:
        value, detail = _rule_value(rule, snapshot)
        if value is None:
            if rule.if_absent == "skip":
                results.append(RuleResult(rule, None, False,
                                          detail + " (skipped)"))
                continue
            if rule.if_absent == "fire":
                results.append(RuleResult(rule, None, True, detail))
                continue
            value = 0.0
            detail += " (treated as 0)"
        firing = _OPS[rule.op](value, rule.threshold)
        results.append(RuleResult(rule, value, firing, detail))
    return AlertReport(results=tuple(results))
