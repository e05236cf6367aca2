"""Query/aggregation layer: stored campaign data → tables and reports.

The adapters here feed the existing presentation stack —
:func:`repro.analysis.tables.render_table` and
:class:`repro.experiments.report.ExperimentArtifact` /
:class:`~repro.experiments.report.ExperimentResult` — from a
:class:`~repro.campaigns.store.ResultStore` instead of live runs, using the
same mean (:func:`repro.simulation.metrics.pairwise_mean`) over the same
floats in the same order.  The formatting helpers are shared with the CLI's
live sweep rendering, so a stored campaign and an in-memory sweep of the
same suite render byte-identical aggregate tables.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence, TypeVar

from ..experiments.report import ExperimentArtifact, ExperimentResult
from ..simulation.metrics import pairwise_mean
from .store import ResultStore, StoreError, StoredRow

R = TypeVar("R")

#: Columns of the standard per-group aggregate table (sweeps + campaigns).
GROUP_TABLE_HEADERS = ("configuration", "runs", "mean latency", "URB ok",
                       "quiescent")


def format_group_rows(
    groups: Mapping[str, Sequence[R]],
    *,
    mean_latency_of: Callable[[R], Optional[float]],
    ok_of: Callable[[R], bool],
    quiescent_of: Callable[[R], bool],
) -> list[list[Any]]:
    """The standard aggregate table rows over grouped run data.

    Works uniformly over live :class:`~repro.experiments.runner.
    ScenarioResult` groups and stored :class:`StoredRow` groups — callers
    supply the accessors, this function owns the statistics and formatting,
    which is what makes stored and live tables comparable byte-for-byte.
    """
    rows: list[list[Any]] = []
    for group, results in groups.items():
        mean = pairwise_mean([float(v) for v in map(mean_latency_of, results)
                              if v is not None])
        ok = (sum(1 for r in results if ok_of(r)) / len(results)
              if results else 0.0)
        quiescent = (sum(1 for r in results if quiescent_of(r)) / len(results)
                     if results else 0.0)
        rows.append([
            group,
            len(results),
            "-" if mean is None else f"{mean:.3f}",
            f"{ok:.2f}",
            f"{quiescent:.2f}",
        ])
    return rows


def campaign_groups(store: ResultStore,
                    campaign: str) -> dict[str, list[StoredRow]]:
    """Stored rows of a campaign keyed by group, in first-seen position
    order (cells without a stored result are skipped, like failed items in
    a live :class:`~repro.experiments.batch.SuiteResult`)."""
    manifest = store.campaign_cells(campaign)
    grouped: dict[str, list[StoredRow]] = {}
    for _position, group, cell_key in manifest:
        bucket = grouped.setdefault(group, [])
        row = store.get(cell_key, count=False)
        if row is not None:
            bucket.append(row)
    return grouped


def campaign_table(store: ResultStore, campaign: str,
                   *, notes: str = "") -> ExperimentArtifact:
    """The per-group aggregate table of a stored campaign."""
    info = store.campaign_info(campaign)
    if info is None:
        raise StoreError(f"unknown campaign {campaign!r} in {store.root}")
    rows = format_group_rows(
        campaign_groups(store, campaign),
        mean_latency_of=lambda row: row.mean_latency,
        ok_of=lambda row: row.all_properties_hold,
        quiescent_of=lambda row: row.quiescent,
    )
    return ExperimentArtifact(
        name=f"Campaign {campaign} ({info.done}/{info.total} cells)",
        kind="table",
        headers=list(GROUP_TABLE_HEADERS),
        rows=rows,
        notes=notes,
    )


def campaign_report(store: ResultStore, campaign: str) -> ExperimentResult:
    """A stored campaign packaged as an :class:`ExperimentResult`.

    This is the adapter that lets everything downstream of the experiment
    layer (plain-text rendering, JSON/CSV export via
    :mod:`repro.experiments.export`) consume persisted campaigns without
    re-running anything.
    """
    info = store.campaign_info(campaign)
    if info is None:
        raise StoreError(f"unknown campaign {campaign!r} in {store.root}")
    return ExperimentResult(
        experiment_id=f"campaign:{campaign}",
        title=f"Campaign {campaign!r} (suite {info.suite_name!r})",
        artifacts=[campaign_table(store, campaign)],
        parameters={
            "cells": info.total,
            "done": info.done,
            "store": str(store.root),
        },
    )


def query_table(store: ResultStore, *, limit: Optional[int] = None,
                **filters: Any) -> ExperimentArtifact:
    """Ad-hoc ``store.query`` results as a renderable table."""
    rows = store.query(limit=limit, **filters)
    table_rows = [
        [
            row.cell_key[:12],
            row.algorithm,
            row.n_processes,
            row.n_crashes,
            row.seed,
            f"{row.loss_level:.3g}" if row.loss_level is not None
            else row.loss_kind,
            row.all_hold,
            row.quiescent,
            f"{row.mean_latency:.3f}" if row.mean_latency is not None else "-",
            f"{row.wall_time:.3f}" if row.wall_time is not None else "-",
            row.stop_reason,
        ]
        for row in rows
    ]
    described = ", ".join(f"{k}={v}" for k, v in sorted(filters.items()))
    return ExperimentArtifact(
        name=f"Query [{described}]" if described else "Query [all]",
        kind="table",
        headers=["cell", "algorithm", "n", "crashes", "seed", "loss",
                 "URB ok", "quiescent", "mean latency", "wall s",
                 "stop reason"],
        rows=table_rows,
        notes=f"{len(table_rows)} row(s)",
    )
