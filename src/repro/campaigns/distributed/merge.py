"""Idempotent union of result stores.

``merge_stores`` copies every cell a source store has and the destination
lacks — payload bytes and index row travel verbatim, so ``created_at`` and
``wall_time`` provenance survives the merge.  Each source is one SQL
transaction inside the destination (:meth:`ResultStore.adopt`: the source
index attached, one ``INSERT … SELECT`` per table), so a source is merged
whole or not at all.  Because cells are content-addressed by
:func:`~repro.campaigns.hashing.scenario_cell_key`, re-merging the same
source is a no-op by construction, and merging the partial store of a
SIGKILLed worker alongside the store of the worker that re-executed its
cells deduplicates cleanly.

The one thing a merge must never do silently is *pick a winner*: when both
stores hold a cell but the stored payloads differ semantically, either a
run was not deterministic or one store is corrupt.  That raises
:class:`MergeConflictError` naming the cell, before any row of that source
is copied.  "Semantically" means the payload JSON minus the volatile
``created_at`` stamp (two honest executions of one cell differ only there;
``wall_time`` lives in the index, outside the payload, and is never
compared) and minus the scenario summary older payloads repeat under
``result`` (the canonical ``scenario`` beside it is compared).

Campaign manifests merge by name: an unknown campaign is adopted wholesale,
a known one must carry the identical cell list (same rule as resuming).
Counterexample artifacts union by their content-hashed ``artifact_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..store import ResultStore, StoreError


class MergeConflictError(StoreError):
    """Two stores hold semantically different payloads for one cell.

    This is loud on purpose: identical scenarios must produce identical
    results (the determinism invariant every campaign feature leans on), so
    a conflict is evidence of a determinism bug or store corruption — never
    something to paper over by picking a side.
    """

    def __init__(self, cell_key: str, dest_root: str, source_root: str) -> None:
        super().__init__(
            f"merge conflict on cell {cell_key}: {source_root} and "
            f"{dest_root} hold semantically different results for the same "
            "content hash — this indicates a determinism bug or a corrupt "
            "store; refusing to merge"
        )
        self.cell_key = cell_key


@dataclass
class MergeStats:
    """What one :func:`merge_stores` call did."""

    sources: int = 0
    copied: int = 0
    skipped: int = 0
    campaigns_added: int = 0
    artifacts_added: int = 0
    #: Roots of the source stores, in merge order (CLI reporting).
    source_roots: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary for the CLI."""
        return (
            f"merged {self.sources} store(s): {self.copied} cell(s) copied, "
            f"{self.skipped} already present, {self.campaigns_added} "
            f"campaign manifest(s) and {self.artifacts_added} "
            f"counterexample(s) adopted"
        )


def _semantic_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """A stored payload with the volatile write stamp removed, and with the
    ``result.scenario`` summary that payloads written before the scenario
    was stored once still carry (the top-level ``scenario`` holds it)."""
    semantic = {key: value for key, value in payload.items() if key != "created_at"}
    semantic["result"] = {key: value for key, value in payload["result"].items()
                          if key != "scenario"}
    return semantic


def _merge_campaigns(dest: ResultStore, source: ResultStore,
                     stats: MergeStats) -> None:
    for info in source.campaigns():
        cells = source.campaign_cells(info.name)
        if dest.campaign_info(info.name) is None:
            dest.register_campaign(info.name, info.suite_name, cells)
            stats.campaigns_added += 1
        else:
            # Same name must mean the same plan; reuse the resume check,
            # which raises StoreError on a manifest mismatch.
            dest.register_campaign(info.name, info.suite_name, cells,
                                   resume=True)


def merge_stores(dest: ResultStore,
                 sources: Sequence[ResultStore]) -> MergeStats:
    """Union every *source* store into *dest*; returns what happened.

    A conflict raises :class:`MergeConflictError` before anything of the
    offending source is copied; sources merged earlier stay, and re-running
    the merge after fixing the cause copies exactly what is still missing —
    idempotence again.
    """
    stats = MergeStats()
    for source in sources:
        if source.root.resolve() == dest.root.resolve():
            raise StoreError(
                f"cannot merge {source.root} into itself"
            )

        def check(cell_key: str, ours: dict[str, Any],
                  theirs: dict[str, Any]) -> None:
            if _semantic_payload(ours) != _semantic_payload(theirs):
                raise MergeConflictError(cell_key, str(dest.root),
                                         str(source.root))

        copied, skipped, artifacts_added = dest.adopt(source, check)
        stats.copied += copied
        stats.skipped += skipped
        stats.artifacts_added += artifacts_added
        _merge_campaigns(dest, source, stats)
        stats.sources += 1
        stats.source_roots.append(str(source.root))
    return stats


def merge_store_paths(dest_root: str, source_roots: Sequence[str],
                      *, create_dest: bool = True) -> MergeStats:
    """Path-level convenience wrapper used by the CLI and coordinator."""
    with ResultStore(dest_root, create=create_dest) as dest:
        stats = MergeStats()
        for root in source_roots:
            with ResultStore(root, create=False) as source:
                partial = merge_stores(dest, [source])
            stats.sources += partial.sources
            stats.copied += partial.copied
            stats.skipped += partial.skipped
            stats.campaigns_added += partial.campaigns_added
            stats.artifacts_added += partial.artifacts_added
            stats.source_roots.extend(partial.source_roots)
    return stats
