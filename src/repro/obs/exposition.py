"""Render a :class:`~repro.obs.registry.MetricsRegistry` for consumers.

Two formats:

* :func:`render_prometheus` — Prometheus text exposition format v0.0.4
  (``# HELP`` / ``# TYPE`` headers, one sample per line, histograms as
  cumulative ``_bucket``/``_sum``/``_count`` series with ``le`` labels);
* :func:`snapshot` / :func:`render_json` — a key-sorted JSON document,
  the machine-readable form consumed by ``--metrics-out``, the
  ``/snapshot`` endpoint, ``repro-urb obs snapshot`` and
  :mod:`repro.obs.alerts`.

The snapshot schema (version 1)::

    {
      "snapshot_version": 1,
      "generated_unix": 1723100000.0,
      "metrics": {
        "<name>": {
          "type": "counter" | "gauge" | "histogram",
          "help": "...",
          "labelnames": ["engine", ...],
          "samples": [
            {"labels": {"engine": "reference"}, "value": 12.0},      # counter/gauge
            {"labels": {...}, "count": 10, "sum": 1.25,              # histogram
             "buckets": {"0.005": 2, ..., "+Inf": 10}}               # cumulative
          ]
        }
      }
    }
"""

from __future__ import annotations

import json
import time
from typing import Any, Optional

from .registry import Counter, Gauge, Histogram, MetricsRegistry, REGISTRY

__all__ = ["render_prometheus", "render_json", "snapshot",
           "CONTENT_TYPE_PROMETHEUS"]

#: The Content-Type header value of the ``/metrics`` endpoint.
CONTENT_TYPE_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def _label_block(names: tuple[str, ...], values: tuple[str, ...],
                 extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [f'{n}="{_escape_label_value(v)}"'
             for n, v in zip(names, values)]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _header_lines(name: str, metric: dict[str, Any]) -> list[str]:
    return [f"# HELP {name} {_escape_help(metric.get('help', ''))}",
            f"# TYPE {name} {metric.get('type')}"]


def _sample_lines(name: str, metric: dict[str, Any]) -> list[str]:
    """The sample lines of one snapshot-shaped metric (schema above): labels
    in ``labelnames`` order, histogram buckets in bound order."""
    lines: list[str] = []
    kind = metric.get("type")
    for sample in metric.get("samples", []):
        labels = sample.get("labels", {})
        names = tuple(metric.get("labelnames") or sorted(labels))
        values = tuple(str(labels[n]) for n in names)
        block = _label_block(names, values)
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{block} "
                         f"{_format_value(float(sample.get('value', 0.0)))}")
        elif kind == "histogram":
            buckets = sample.get("buckets", {})
            for bound in sorted(buckets, key=float):  # "+Inf" parses, and sorts last
                bucket = _label_block(names, values, extra=("le", bound))
                lines.append(f"{name}_bucket{bucket} {int(buckets[bound])}")
            lines.append(f"{name}_sum{block} "
                         f"{_format_value(float(sample.get('sum', 0.0)))}")
            lines.append(f"{name}_count{block} {int(sample.get('count', 0))}")
    return lines


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry's current state in text exposition format v0.0.4."""
    lines: list[str] = []
    for name, metric in snapshot(registry)["metrics"].items():
        lines += _header_lines(name, metric)
        lines += _sample_lines(name, metric)
    return "\n".join(lines) + "\n"


def snapshot(registry: Optional[MetricsRegistry] = None) -> dict[str, Any]:
    """A JSON-friendly snapshot of the registry (schema above)."""
    registry = registry if registry is not None else REGISTRY
    metrics: dict[str, Any] = {}
    for inst in registry.instruments():
        samples: list[dict[str, Any]] = []
        if isinstance(inst, (Counter, Gauge)):
            for values, value in inst.samples():
                samples.append({
                    "labels": dict(zip(inst.labelnames, values)),
                    "value": value,
                })
        elif isinstance(inst, Histogram):
            for values, (cumulative, total, count) in inst.samples():
                buckets = {_format_value(bound): cum
                           for bound, cum in zip(inst.buckets, cumulative)}
                buckets["+Inf"] = count
                samples.append({
                    "labels": dict(zip(inst.labelnames, values)),
                    "count": count,
                    "sum": total,
                    "buckets": buckets,
                })
        metrics[inst.name] = {
            "type": inst.kind,
            "help": inst.help,
            "labelnames": list(inst.labelnames),
            "samples": samples,
        }
    return {
        "snapshot_version": 1,
        "generated_unix": time.time(),
        "metrics": metrics,
    }


def render_json(registry: Optional[MetricsRegistry] = None,
                *, indent: Optional[int] = 2) -> str:
    """The JSON snapshot serialised with sorted keys (stable diffs)."""
    return json.dumps(snapshot(registry), indent=indent, sort_keys=True)
