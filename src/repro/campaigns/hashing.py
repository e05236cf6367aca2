"""Canonical content hashing of scenarios — the campaign cache key.

A campaign *cell* is one fully described simulated run: registry component
names, every option field, and the seed.  Because every run in this library
is bit-determined by its scenario, two scenarios with equal canonical forms
produce byte-identical results — so their hash is a safe content address for
a stored result, and "has this cell already been computed?" is a single key
lookup.

Canonicalisation rules (documented in DESIGN.md §10):

* The canonical form is :func:`repro.explore.serialize.scenario_to_dict` —
  the same registry-validated round-trip counterexample artifacts use, and
  the one place that decides it (it writes every float field as a float, so
  ``max_time=60`` and ``max_time=60.0`` are one cell).  Scenarios that
  cannot be serialised faithfully (inline workload objects, custom
  callable-backed loss/delay specs, non-JSON field values) cannot be cached
  and raise :class:`ValueError`.
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
from ..explore.serialize import scenario_to_dict

#: Bump when the canonical form changes (invalidates every cached cell).
HASH_VERSION = 1


def _canonical_json(data: dict[str, Any]) -> str:
    """Minified, key-sorted JSON of *data*; a value with no JSON form is a
    :class:`ValueError` that names its fields."""
    try:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        bad = [name for name, value in sorted(data.items())
               if not _has_json_form(value)]
        raise ValueError(
            f"scenario {data['name']!r} cannot be content-addressed: "
            f"field(s) {', '.join(bad)} have no JSON form ({exc})"
        ) from None


def _has_json_form(value: Any) -> bool:
    try:
        json.dumps(value, sort_keys=True)
    except TypeError:
        return False
    return True


def canonical_scenario_json(scenario: Scenario) -> str:
    """Minified, key-sorted JSON of the canonical form (the hashed bytes)."""
    return _canonical_json(scenario_to_dict(scenario))


def cell_key_of(data: dict[str, Any]) -> str:
    """The cell key of a :func:`scenario_to_dict` form, for a caller that
    holds one already (it serialises each scenario once)."""
    payload = f"cell:v{HASH_VERSION}:{_canonical_json(data)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def scenario_cell_key(scenario: Scenario) -> str:
    """Content address of one campaign cell (hex, 32 chars).

    Stable across processes, Python versions and field ordering; changes
    whenever any field that influences the simulation changes.
    """
    return cell_key_of(scenario_to_dict(scenario))
