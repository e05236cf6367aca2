"""Persistent campaigns: content-addressed result store, resumable
sweeps, and the query/report layer over stored data.

The subsystem turns the in-memory suite runner into a durable, incremental
experiment pipeline::

    from repro.campaigns import Campaign, ResultStore
    from repro.experiments.batch import ScenarioSuite

    suite = ScenarioSuite("loss-sweep").add_sweep(base, "loss", specs).with_seeds(5)
    with ResultStore("results/") as store:
        report = Campaign(store, suite, name="loss-sweep", parallel=4).run()
        # kill it, re-run — completed cells are never simulated again:
        report = Campaign(store, suite, name="loss-sweep").run(resume=True)
        assert report.executed == 0  # when the first run completed

See DESIGN.md §10 for the hash canonicalisation rules, the store schema and
the resume semantics; the CLI surface is ``repro-urb campaign
run/status/query/export/gc``.
"""

from .campaign import Campaign, CampaignReport, run_campaign
from .distributed import (
    CampaignPlan,
    Coordinator,
    CoordinatorReport,
    LeaseError,
    LeaseTable,
    MergeConflictError,
    MergeStats,
    Worker,
    WorkerReport,
    merge_store_paths,
    merge_stores,
    plan_campaign,
    run_worker,
)
from .hashing import (
    HASH_VERSION,
    canonical_scenario_json,
    scenario_cell_key,
)
from .reporting import (
    campaign_groups,
    campaign_report,
    campaign_table,
    format_group_rows,
    query_table,
)
from .store import (
    SCHEMA_VERSION,
    CampaignInfo,
    CounterexampleRow,
    GcStats,
    ResultStore,
    SchemaMismatchError,
    StoreError,
    StoredRow,
)

__all__ = [
    "Campaign",
    "CampaignInfo",
    "CampaignPlan",
    "CampaignReport",
    "Coordinator",
    "CoordinatorReport",
    "CounterexampleRow",
    "GcStats",
    "HASH_VERSION",
    "LeaseError",
    "LeaseTable",
    "MergeConflictError",
    "MergeStats",
    "ResultStore",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "StoreError",
    "StoredRow",
    "Worker",
    "WorkerReport",
    "campaign_groups",
    "campaign_report",
    "campaign_table",
    "canonical_scenario_json",
    "format_group_rows",
    "merge_store_paths",
    "merge_stores",
    "plan_campaign",
    "query_table",
    "run_campaign",
    "scenario_cell_key",
]
