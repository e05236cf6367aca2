"""Canonical content hashing of scenarios — the campaign cache key.

A campaign *cell* is one fully described simulated run: registry component
names, every option field, and the seed.  Because every run in this library
is bit-determined by its scenario, two scenarios with equal canonical forms
produce byte-identical results — so their hash is a safe content address for
a stored result, and "has this cell already been computed?" is a single key
lookup.

Canonicalisation rules (documented in DESIGN.md §10):

* The scenario is first serialised field-by-field through
  :func:`repro.explore.serialize.scenario_to_dict` — the same registry-
  validated round-trip counterexample artifacts use.  Scenarios that cannot
  be serialised faithfully (inline workload objects, custom callable-backed
  loss/delay specs, non-JSON field values) cannot be cached and raise
  :class:`ValueError`.
* The dict is rendered as minified JSON with **sorted keys** at every
  nesting level, so the hash is independent of field declaration order,
  crash-map insertion order and metadata ordering.
* Floats use ``repr`` (via ``json``), which round-trips exactly — ``0.1``
  and ``0.1000000000000001`` are different cells, as they must be for
  bit-identical caching.
* The hash covers the *explore* fields too: an RNG-driven run and a
  strategy-controlled run of the same configuration are different cells.

``HASH_VERSION`` is folded into the digest: if the canonical form ever
changes (a new scenario field, a serialisation fix), old keys stop matching
and affected cells are recomputed rather than silently reused.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..experiments.config import Scenario
from ..explore.serialize import scenario_from_dict, scenario_to_dict

#: Bump when the canonical form changes (invalidates every cached cell).
HASH_VERSION = 1

#: Scenario fields the simulator treats as floats: an int-specified value
#: (``max_time=60``) compares equal to its float form and must hash equally.
_FLOAT_FIELDS = (
    "tick_interval",
    "max_time",
    "check_interval",
    "drain_grace_period",
    "fd_detection_delay",
    "fd_learn_delay",
    "apstar_detection_delay",
)


def canonical_scenario_dict(scenario: Scenario) -> dict[str, Any]:
    """The scenario's canonical JSON-friendly form (see module docs).

    Raises :class:`ValueError` for scenarios with no stable serialised form
    (inline workloads, custom loss/delay callables).
    """
    data = scenario_to_dict(scenario)
    for field in _FLOAT_FIELDS:
        if data.get(field) is not None:
            data[field] = float(data[field])
    return data


def canonical_scenario_json(scenario: Scenario) -> str:
    """Minified, key-sorted JSON of the canonical form (the hashed bytes)."""
    data = canonical_scenario_dict(scenario)
    try:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        # A non-JSON value (in metadata or a spec's params) has no
        # canonical byte form; name the fields that hold one.
        bad = [name for name, value in sorted(data.items())
               if not _has_json_form(value)]
        raise ValueError(
            f"scenario {scenario.name!r} cannot be content-addressed: "
            f"field(s) {', '.join(bad)} have no JSON form ({exc})"
        ) from None


def _has_json_form(value: Any) -> bool:
    try:
        json.dumps(value, sort_keys=True)
    except TypeError:
        return False
    return True


def scenario_cell_key(scenario: Scenario) -> str:
    """Content address of one campaign cell (hex, 32 chars).

    Stable across processes, Python versions and field ordering; changes
    whenever any field that influences the simulation changes.
    """
    payload = f"cell:v{HASH_VERSION}:{canonical_scenario_json(scenario)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def scenario_from_canonical_dict(data: dict[str, Any]) -> Scenario:
    """Rebuild a scenario from its canonical form (registry-validated)."""
    return scenario_from_dict(data)
