#!/usr/bin/env python
"""CI gate: the vectorized engine must be bit-identical to the reference.

Runs the parity battery (:func:`repro.experiments.parity.parity_cases`)
under every compared backend and fails when any scenario's fingerprint —
trace digest, metrics summary, delivery logs, event stats, channel stats,
final time, stop reason — differs from the reference engine's.

Usage (from the repository root)::

    python scripts/engine_parity.py
    python scripts/engine_parity.py --engines reference,vectorized \
        --artifacts parity-artifacts

On mismatch, one ``parity_<scenario>.json`` digest-diff per failing
scenario is written into ``--artifacts`` (CI uploads the directory) and
the script exits non-zero.  The script also fails if no compared backend
ever took its batched dispatch path, or if either way of consuming a
delivery run (``batched``: through the repeat filter; ``boxed``: every
entry replayed) never ran — that would make the gate vacuous (everything
silently falling back to per-event dispatch *is* bit-identical, but proves
nothing).  Likewise for the per-event loop's row path (``Network.broadcast_fast``
fating a source row's broadcast as a row): each case prints how many rows
its per-event runs fated that way, and the script fails if no case used the
row path or if a case whose rows the rule rejects (:data:`PER_COPY_CASES`)
did.  The batched loop's sharing of one flush among the TICKs of an
instant is held to the same standard, by the counts of each run's
execution record: the script fails if no batched run shared a flush among
two or more TICKs, or if no run cut such a TICK run short because a copy
was due at or before its instant (the case whose ties make the cut matter).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.parity import (  # noqa: E402
    DEFAULT_ENGINES,
    check_parity,
)

#: Battery cases whose channel rows ``row_profile`` rejects (all-drop loss,
#: exponential delay, reliable and quasi-reliable channels): their
#: per-event runs must fate every copy through its channel's ``transmit``.
PER_COPY_CASES = ("all-drop", "bernoulli-exponential", "reliable",
                  "quasi-reliable")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engines", default=",".join(DEFAULT_ENGINES),
                        help="comma-separated engine names; the first is the "
                             "reference fingerprint (default: %(default)s)")
    parser.add_argument("--artifacts", type=Path,
                        default=Path("parity-artifacts"),
                        help="directory for digest-diff JSON on mismatch")
    args = parser.parse_args(argv)

    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if len(engines) < 2:
        parser.error("need at least two engines to compare")

    reports = check_parity(engines=engines)
    failed = [report for report in reports if not report.ok]
    batched_runs = 0
    consume_runs = {"batched": 0, "boxed": 0}
    row_fated = {}
    ticks = {"tick_flushes_shared": 0, "tick_runs_cut": 0}
    for report in reports:
        records = [run.execution for run in report.runs]
        modes = {record.engine: record.dispatch_mode for record in records}
        batched_runs += sum(1 for record in records
                            if record.dispatch_mode == "batched")
        for record in records:
            if record.consume_mode is not None:
                consume_runs[record.consume_mode] += 1
        verdict = "ok" if report.ok else "MISMATCH " + ",".join(report.mismatched)
        consumes = {record.engine: record.consume_mode for record in records
                    if record.consume_mode is not None}
        # Rows fated as rows by the per-event loop (a batched run fates its
        # rows in its own sampler).
        row_fated[report.name] = sum(record.rows_fated for record in records
                                     if record.dispatch_mode != "batched")
        shared = sum(record.tick_flushes_shared for record in records)
        cut = sum(record.tick_runs_cut for record in records)
        ticks["tick_flushes_shared"] += shared
        ticks["tick_runs_cut"] += cut
        print(f"{report.name:24s} {verdict}  modes={modes}  "
              f"consume={consumes}  row-fated={row_fated[report.name]}  "
              f"tick-flushes-shared={shared}  tick-runs-cut={cut}")

    if failed:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for report in failed:
            path = args.artifacts / f"parity_{report.name}.json"
            path.write_text(json.dumps(report.diff(), indent=2,
                                       sort_keys=True) + "\n")
            print(f"digest-diff written: {path}")
        print(f"FAIL: {len(failed)}/{len(reports)} scenario(s) mismatched")
        return 1

    if batched_runs == 0:
        print("FAIL: no compared backend ever took its batched dispatch path "
              "— the parity gate would be vacuous")
        return 1

    for mode, count in consume_runs.items():
        if count == 0:
            print(f"FAIL: no compared backend ever reported consume_mode == "
                  f"{mode!r} — that path's parity coverage would be vacuous")
            return 1

    if not ticks["tick_flushes_shared"]:
        print("FAIL: no batched run shared one flush among two or more "
              "TICKs of an instant — that path's parity coverage would be "
              "vacuous")
        return 1
    if not ticks["tick_runs_cut"]:
        print("FAIL: no batched run cut a run of same-instant TICKs short "
              "because a copy was due — the tie stop's parity coverage "
              "would be vacuous")
        return 1

    missing = [name for name in PER_COPY_CASES if name not in row_fated]
    if missing:
        print(f"FAIL: per-copy case(s) {', '.join(missing)} not in the "
              f"battery — the row-path check would be vacuous")
        return 1
    misfated = [name for name in PER_COPY_CASES if row_fated[name]]
    if misfated:
        print(f"FAIL: rows the rule rejects were fated as rows in "
              f"{', '.join(misfated)}")
        return 1
    if not any(row_fated.values()):
        print("FAIL: no per-event run fated a row as a row — the row path's "
              "parity coverage would be vacuous")
        return 1

    print(f"parity OK: {len(reports)} scenarios, "
          f"{batched_runs} batched backend runs, "
          f"{consume_runs['batched']} batched-receiver runs, "
          f"{consume_runs['boxed']} boxed-adapter runs, "
          f"{sum(1 for count in row_fated.values() if count)} cases with "
          f"row-fated per-event runs, {ticks['tick_flushes_shared']} "
          f"shared tick flushes, {ticks['tick_runs_cut']} tick runs cut")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
