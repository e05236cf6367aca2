"""Command-line interface.

Installed as ``repro-urb`` (see ``pyproject.toml``); also runnable as
``python -m repro``.

Sub-commands
------------
``list``
    List the registered experiments.
``components``
    List the registered pluggable components (algorithms, channel families,
    failure-detector setups, workload presets) with their metadata.
``run E3 [--seeds 3] [--quick] [--output FILE]``
    Run one experiment (or ``all``) and print / save its tables and figures.
``demo [--algorithm algorithm2] [--n 5] [--loss 0.3] [--crashes 2]``
    Run a single scenario and print its analysis (a fast way to poke at the
    protocols without writing code).
``sweep --field loss --values 0.0,0.2,0.4 [--seeds 3] [--parallel 4]``
    Declarative scenario sweep through the batch runner, optionally fanned
    out over worker processes.
``explore --strategy random_walk --budget 200 [--parallel 4] [--artifacts D]``
    Adversarial schedule exploration (see :mod:`repro.explore`): search the
    space of admissible schedules for URB property violations, shrinking any
    counterexample to a minimal replayable decision trace.  With ``--store``
    counterexamples are persisted into a campaign result store.
``replay counterexample.json [--full]``
    Re-execute a counterexample artifact and check that it still reproduces
    the recorded violation.
``campaign run/status/query/export/gc``
    Persistent campaigns (see :mod:`repro.campaigns`): run a sweep against a
    content-addressed result store — cells already computed are never
    simulated again, a killed run resumes with ``--resume`` — then query,
    aggregate, export and garbage-collect the stored data.
``campaign serve/work/plan``
    Distributed campaigns (see :mod:`repro.campaigns.distributed`): ``serve``
    writes the lease table for a sweep and coordinates until every cell is
    executed, then merges the worker stores; ``work`` runs one lease-driven
    worker process against a job workdir; ``plan`` estimates wall cost and
    suggests a worker count from stored per-cell timings.
``store merge --into DEST SRC [SRC ...]``
    Idempotent union of result stores by cell hash; semantically conflicting
    cells (a determinism bug) abort the merge loudly.
``obs snapshot/check``
    Observability (see :mod:`repro.obs`): render a metrics snapshot taken
    from a live ``--metrics-port`` server or a ``--metrics-out`` file, and
    evaluate threshold alert rules against one for CI gating.

Observability flags (``--metrics-port PORT``, ``--metrics-out FILE``,
``--timeline-out FILE``) are accepted by the executing verbs — ``demo``,
``sweep``, ``explore``, ``campaign run/serve/work`` — and are strictly
opt-in: without them the metrics registry stays disabled and runs are
bit-identical to an uninstrumented build.

The ``--algorithm`` choices everywhere come from the live algorithm registry,
so protocols registered by plugin modules (imported via ``--plugin``) are
selectable by name.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Union

from . import obs
from .analysis.tables import render_table
from .experiments import registry as experiment_registry
from .experiments.batch import ScenarioSuite, SuiteResult
from .experiments.config import Scenario
from .experiments.common import crash_last
from .experiments.runner import run_scenario
from .network.loss import LossSpec
from .registry import algorithms, all_registries, engines, strategies


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests).

    Built lazily per invocation so that ``choices`` reflect every component
    registered at call time, including third-party plugins.
    """
    parser = argparse.ArgumentParser(
        prog="repro-urb",
        description=(
            "Uniform Reliable Broadcast in anonymous distributed systems with "
            "fair lossy channels — experiment harness."
        ),
    )
    # --plugin is accepted both before and after the subcommand; the values
    # are collected by the position-agnostic pre-scan in main() (a subparser
    # default would clobber top-level values, hence SUPPRESS).
    plugin_parent = argparse.ArgumentParser(add_help=False)
    plugin_parent.add_argument(
        "--plugin", action="append", default=argparse.SUPPRESS, metavar="MODULE",
        help="import MODULE before running (for repro.registry registrations); "
             "repeatable",
    )
    parser.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help=argparse.SUPPRESS,
    )
    # Observability opt-ins shared by every executing verb.  All three
    # default to None == "leave the registry disabled" — the tier-1 parity
    # guarantee is that omitting them costs (nearly) nothing.
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_group = obs_parent.add_argument_group("observability")
    obs_group.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="enable metrics and serve /metrics, /healthz and /snapshot on "
             "127.0.0.1:PORT for the duration of the run (0 picks an "
             "ephemeral port, reported on stderr)")
    obs_group.add_argument(
        "--metrics-out", type=str, default=None, metavar="FILE",
        help="enable metrics and write the final JSON snapshot to FILE "
             "when the command exits")
    obs_group.add_argument(
        "--timeline-out", type=str, default=None, metavar="FILE",
        help="append structured JSON-lines run events (phases, leases, "
             "store traffic) to FILE")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered experiments",
                          parents=[plugin_parent])
    subparsers.add_parser(
        "components",
        help="list every registered component, one table per registry",
        parents=[plugin_parent],
    )

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')",
                                       parents=[plugin_parent])
    run_parser.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    run_parser.add_argument("--seeds", type=int, default=None,
                            help="replications per configuration")
    run_parser.add_argument("--quick", action="store_true",
                            help="smaller grids / fewer seeds")
    run_parser.add_argument("--output", type=str, default=None,
                            help="write the rendered report to this file")

    demo_parser = subparsers.add_parser("demo", help="run a single scenario",
                                        parents=[plugin_parent, obs_parent])
    demo_parser.add_argument("--algorithm", choices=algorithms.names(),
                             default="algorithm2")
    demo_parser.add_argument("--n", type=int, default=5, help="number of processes")
    demo_parser.add_argument("--loss", type=float, default=0.2,
                             help="Bernoulli loss probability")
    demo_parser.add_argument("--crashes", type=int, default=1,
                             help="number of processes crashed at t=2")
    demo_parser.add_argument("--seed", type=int, default=0)
    demo_parser.add_argument("--max-time", type=float, default=150.0)
    demo_parser.add_argument("--engine", choices=engines.names(),
                             default="reference",
                             help="simulation-engine backend (all backends "
                                  "are bit-identical; pick for speed)")

    def sweep_arguments(sub: argparse.ArgumentParser) -> None:
        """The one-field sweep grid shared by ``sweep`` and ``campaign
        run`` / ``serve`` / ``plan``."""
        sub.add_argument("--algorithm", choices=algorithms.names(),
                         default="algorithm2")
        sub.add_argument("--field", default="loss",
                         help="Scenario field to vary (default: loss; 'loss' "
                              "values are Bernoulli probabilities)")
        sub.add_argument("--values", required=True,
                         help="comma-separated grid, e.g. 0.0,0.2,0.4")
        sub.add_argument("--n", type=int, default=5,
                         help="number of processes")
        sub.add_argument("--crashes", type=int, default=0,
                         help="number of processes crashed at t=2")
        sub.add_argument("--seeds", type=int, default=3,
                         help="replications per grid point")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--max-time", type=float, default=150.0)
        sub.add_argument("--engine", choices=engines.names(),
                         default="reference",
                         help="simulation-engine backend (all backends are "
                              "bit-identical; pick for speed)")

    sweep_parser = subparsers.add_parser(
        "sweep", help="sweep one scenario field through the batch runner",
        parents=[plugin_parent, obs_parent])
    sweep_arguments(sweep_parser)
    sweep_parser.add_argument("--parallel", type=int, default=1,
                              help="worker processes (1 = sequential)")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="print one 'completed/total cells' line "
                                   "per finished run (default: a single "
                                   "in-place counter)")

    explore_parser = subparsers.add_parser(
        "explore",
        help="search the schedule space for URB property violations",
        parents=[plugin_parent, obs_parent])
    explore_parser.add_argument("--algorithm", choices=algorithms.names(),
                                default="algorithm1")
    explore_parser.add_argument("--strategy", choices=strategies.names(),
                                default="random_walk")
    explore_parser.add_argument("--budget", type=int, default=200,
                                help="maximum schedules to run (enumerative "
                                     "strategies cap this at their space size)")
    explore_parser.add_argument("--parallel", type=int, default=1,
                                help="worker processes (1 = sequential)")
    explore_parser.add_argument("--n", type=int, default=4,
                                help="number of processes")
    explore_parser.add_argument("--loss", type=float, default=0.0,
                                help="baseline Bernoulli loss probability; "
                                     "only meaningful for strategies that "
                                     "delegate loss to the channels (e.g. "
                                     "crash_points) — decision-driven "
                                     "strategies take --option "
                                     "explore_drop_probability instead")
    explore_parser.add_argument("--crashes", type=int, default=0,
                                help="number of processes crashed at t=2")
    explore_parser.add_argument("--seed", type=int, default=0)
    explore_parser.add_argument("--max-time", type=float, default=150.0)
    explore_parser.add_argument("--no-shrink", action="store_true",
                                help="skip ddmin minimisation of counterexamples")
    explore_parser.add_argument("--artifacts", type=str, default=None,
                                metavar="DIR",
                                help="write counterexample JSON artifacts here")
    explore_parser.add_argument("--store", type=str, default=None,
                                metavar="DIR",
                                help="persist counterexamples as first-class "
                                     "artifacts of the result store at DIR")
    explore_parser.add_argument("--option", action="append", default=[],
                                metavar="KEY=VALUE",
                                help="strategy tunable placed in the scenario "
                                     "metadata (e.g. explore_drop_probability"
                                     "=0.4); repeatable")
    explore_parser.add_argument("--expect-violation", action="store_true",
                                help="invert the exit code: succeed only if a "
                                     "violation is found and its shrunk "
                                     "counterexample replays to the same "
                                     "violation (self-test mode)")

    replay_parser = subparsers.add_parser(
        "replay",
        help="replay a counterexample artifact and verify its violation",
        parents=[plugin_parent])
    replay_parser.add_argument("artifact",
                               help="counterexample JSON written by "
                                    "'explore --artifacts' or 'campaign "
                                    "export --counterexample'")
    replay_parser.add_argument("--full", action="store_true",
                               help="replay the full recorded trace instead "
                                    "of the shrunk one")

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="persistent, resumable sweeps over a content-addressed store",
        parents=[plugin_parent])
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command",
                                                  required=True)

    def store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", required=True, metavar="DIR",
                         help="result store directory")

    crun = campaign_sub.add_parser(
        "run", help="run (or resume) a sweep campaign against the store: "
                    "stored cells are skipped, the rest run in one batch "
                    "pass, each persisted as it finishes",
        parents=[plugin_parent, obs_parent])
    store_argument(crun)
    crun.add_argument("--name", default=None,
                      help="campaign name (default: derived from the sweep)")
    sweep_arguments(crun)
    crun.add_argument("--parallel", type=int, default=1,
                      help="worker processes (1 = sequential)")
    crun.add_argument("--resume", action="store_true",
                      help="continue a previously started campaign of the "
                           "same name (completed cells are never re-run)")
    crun.add_argument("--recompute", action="store_true",
                      help="ignore and overwrite stored cells")
    crun.add_argument("--progress", action="store_true",
                      help="print one 'completed/total cells' line per "
                           "finished cell")

    cstatus = campaign_sub.add_parser(
        "status", help="show campaign completion against the store",
        parents=[plugin_parent])
    store_argument(cstatus)
    cstatus.add_argument("name", nargs="?", default=None,
                         help="campaign to detail (default: list all)")
    cstatus.add_argument("--workdir", default=None, metavar="DIR",
                         help="also show the lease-table progress of the "
                              "distributed job at DIR (completed/leased/"
                              "pending cells, ETA from stored timings)")
    cstatus.add_argument("--watch", action="store_true",
                         help="refresh the status until the campaign (or "
                              "distributed job) completes")
    cstatus.add_argument("--interval", type=float, default=2.0,
                         help="seconds between --watch refreshes")

    cquery = campaign_sub.add_parser(
        "query", help="query stored results (or counterexamples)",
        parents=[plugin_parent])
    store_argument(cquery)
    cquery.add_argument("--algorithm", default=None)
    cquery.add_argument("--loss", type=float, default=None,
                        help="Bernoulli loss probability")
    cquery.add_argument("--n", type=int, default=None, dest="n_processes")
    cquery.add_argument("--seed", type=int, default=None)
    cquery.add_argument("--campaign", default=None)
    cquery.add_argument("--group", default=None)
    cquery.add_argument("--violations-only", action="store_true",
                        help="only cells where a URB property was violated")
    cquery.add_argument("--limit", type=int, default=None)
    cquery.add_argument("--counterexamples", action="store_true",
                        help="list stored counterexample artifacts instead "
                             "of results")

    cexport = campaign_sub.add_parser(
        "export", help="export a campaign (or counterexample) from the store",
        parents=[plugin_parent])
    store_argument(cexport)
    cexport.add_argument("--campaign", default=None,
                         help="campaign to export (JSON report, or CSV when "
                              "--output ends in .csv)")
    cexport.add_argument("--counterexample", default=None, metavar="ID",
                         help="artifact id (or unambiguous schedule hash) of "
                              "a stored counterexample to export as a "
                              "replayable artifact")
    cexport.add_argument("--output", required=True, help="output file")

    cgc = campaign_sub.add_parser(
        "gc", help="compact the store", parents=[plugin_parent])
    store_argument(cgc)
    cgc.add_argument("--drop-campaign", default=None, metavar="NAME",
                     help="delete this campaign's manifest first")
    cgc.add_argument("--drop-unreferenced", action="store_true",
                     help="also delete results referenced by no campaign")

    cserve = campaign_sub.add_parser(
        "serve",
        help="coordinate a distributed campaign: write the lease table, "
             "wait for workers, merge their stores",
        parents=[plugin_parent, obs_parent])
    store_argument(cserve)
    cserve.add_argument("--workdir", required=True, metavar="DIR",
                        help="job directory shared with the workers (holds "
                             "leases.sqlite and the per-worker stores)")
    cserve.add_argument("--name", default=None,
                        help="campaign name (default: derived from the sweep)")
    sweep_arguments(cserve)
    cserve.add_argument("--lease-timeout", type=float, default=60.0,
                        help="seconds a worker may go without heartbeating "
                             "before its lease is reclaimed")
    cserve.add_argument("--range-size", type=int, default=8,
                        help="cells per initial lease range")
    cserve.add_argument("--timeout", type=float, default=None,
                        help="abort if the job is not complete after this "
                             "many seconds (default: wait forever)")
    cserve.add_argument("--poll-interval", type=float, default=0.5,
                        help="seconds between coordinator status polls")
    cserve.add_argument("--progress", action="store_true",
                        help="print one status line per poll (default: an "
                             "in-place counter)")

    cwork = campaign_sub.add_parser(
        "work",
        help="run one lease-driven worker against a distributed job",
        parents=[plugin_parent, obs_parent])
    cwork.add_argument("--workdir", required=True, metavar="DIR",
                       help="job directory written by 'campaign serve'")
    cwork.add_argument("--store-root", default=None, metavar="DIR",
                       help="this worker's private result store (default: "
                            "WORKDIR/workers/<worker-id>/store)")
    cwork.add_argument("--worker-id", default=None,
                       help="stable worker identity (default: <host>-<pid>)")
    cwork.add_argument("--poll-interval", type=float, default=0.2,
                       help="seconds to sleep when nothing is claimable")
    cwork.add_argument("--wait-for-job", type=float, default=0.0,
                       metavar="SECONDS",
                       help="wait up to SECONDS for the lease table to "
                            "appear (lets workers start before 'serve')")

    cplan = campaign_sub.add_parser(
        "plan",
        help="estimate a sweep's wall cost and suggest a worker count "
             "from stored per-cell timings",
        parents=[plugin_parent])
    cplan.add_argument("--store", default=None, metavar="DIR",
                       help="result store supplying per-cell timings "
                            "(default: assume a flat per-cell cost)")
    sweep_arguments(cplan)
    cplan.add_argument("--target-seconds", type=float, default=60.0,
                       help="target wall time the worker suggestion aims for")

    store_parser = subparsers.add_parser(
        "store",
        help="result-store maintenance across stores",
        parents=[plugin_parent])
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)
    smerge = store_sub.add_parser(
        "merge",
        help="merge result stores into one (idempotent union by cell hash)",
        parents=[plugin_parent])
    smerge.add_argument("--into", required=True, metavar="DIR",
                        help="destination store (created if missing)")
    smerge.add_argument("sources", nargs="+", metavar="SRC",
                        help="source store directories")

    obs_parser = subparsers.add_parser(
        "obs",
        help="observability: render metrics snapshots, evaluate alert rules",
        parents=[plugin_parent])
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    osnap = obs_sub.add_parser(
        "snapshot",
        help="render a metrics snapshot from a live run or a file",
        parents=[plugin_parent])
    osnap_source = osnap.add_mutually_exclusive_group(required=True)
    osnap_source.add_argument(
        "--url", default=None,
        help="base URL of a live --metrics-port server, e.g. "
             "http://127.0.0.1:9300 (its /snapshot route is fetched)")
    osnap_source.add_argument(
        "--file", default=None,
        help="JSON snapshot file written by --metrics-out")
    osnap.add_argument("--raw", action="store_true",
                       help="print the raw JSON instead of rendered tables")
    ocheck = obs_sub.add_parser(
        "check",
        help="evaluate threshold alert rules against a snapshot "
             "(exit 1 when any rule fires)",
        parents=[plugin_parent])
    ocheck.add_argument("snapshot",
                        help="JSON snapshot file, or a live server base URL "
                             "when it starts with http:// or https://")
    ocheck.add_argument("--rules", default=None, metavar="FILE",
                        help="JSON rules file (default: built-in rules)")

    trace_parser = subparsers.add_parser(
        "trace",
        help="distributed traces: merge per-process span files into one "
             "tree, export to Chrome tracing",
        parents=[plugin_parent])
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    trace_target_help = (
        "a job workdir (span files are discovered under <workdir>/obs/) "
        "or explicit timeline .jsonl files")
    tview = trace_sub.add_parser(
        "view",
        help="reconstruct the causally-ordered span tree of a campaign",
        parents=[plugin_parent])
    tview.add_argument("targets", nargs="+", metavar="TARGET",
                       help=trace_target_help)
    tview.add_argument("--trace-id", default=None,
                       help="select one trace when several are present "
                            "(default: the one with the most spans)")
    tview.add_argument("--json", action="store_true",
                       help="machine-readable output (tree, latency and "
                            "critical-path sections) instead of text")
    tview.add_argument("--max-children", type=int, default=40,
                       help="children rendered per span in text mode "
                            "(default %(default)s)")
    texport = trace_sub.add_parser(
        "export",
        help="export the merged trace for external viewers",
        parents=[plugin_parent])
    texport.add_argument("targets", nargs="+", metavar="TARGET",
                        help=trace_target_help)
    texport.add_argument("--trace-id", default=None,
                         help="select one trace when several are present")
    texport.add_argument("--format", choices=("chrome",), default="chrome",
                         help="output format: 'chrome' is Chrome "
                              "chrome://tracing / Perfetto JSON")
    texport.add_argument("--output", "-o", default=None, metavar="FILE",
                         help="write to FILE instead of stdout")
    return parser


@contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Enable observability for one CLI command when any obs flag is set.

    ``--metrics-port`` serves live scrapes for the duration of the run,
    ``--metrics-out`` writes the final JSON snapshot when the command
    exits (on success *and* on failure — a crashed run's partial counters
    are exactly what the post-mortem wants), and ``--timeline-out``
    streams structured run events.  Without any of the flags the registry
    stays disabled and this wrapper is a no-op, preserving the
    bit-identical baseline.
    """
    port = getattr(args, "metrics_port", None)
    metrics_out = getattr(args, "metrics_out", None)
    timeline_out = getattr(args, "timeline_out", None)
    if port is None and metrics_out is None and timeline_out is None:
        yield
        return
    obs.enable()
    timeline = previous = server = None
    if timeline_out is not None:
        timeline = obs.Timeline(timeline_out)
        previous = obs.set_timeline(timeline)
    if port is not None:
        server = obs.start_server(port=port)
        print(f"obs: serving http://{server.host}:{server.port}/metrics",
              file=sys.stderr)
    try:
        yield
    finally:
        if server is not None:
            server.shutdown()
        if timeline is not None:
            obs.set_timeline(previous)
            timeline.close()
        if metrics_out is not None:
            output = Path(metrics_out)
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(obs.render_json() + "\n", encoding="utf-8")
            print(f"obs: metrics snapshot written to {output}",
                  file=sys.stderr)


def _load_snapshot(source: str) -> dict[str, Any]:
    """Load a snapshot from a ``--metrics-out`` file or a live server."""
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        url = source.rstrip("/")
        if not url.endswith("/snapshot"):
            url += "/snapshot"
        with urlopen(url, timeout=10.0) as response:
            return json.loads(response.read().decode("utf-8"))
    return json.loads(Path(source).read_text(encoding="utf-8"))


def _obs_snapshot(args: argparse.Namespace) -> int:
    source = args.url if args.url is not None else args.file
    try:
        data = _load_snapshot(source)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load snapshot from {source!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.raw:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    rows = []
    for name, metric in sorted(data.get("metrics", {}).items()):
        for sample in metric.get("samples", ()):
            labels = ",".join(f"{key}={value}" for key, value
                              in sorted(sample.get("labels", {}).items()))
            if metric.get("type") == "histogram":
                count = sample.get("count", 0)
                mean = sample.get("sum", 0.0) / count if count else 0.0
                shown = f"count={count} mean={mean:.4g}"
            else:
                shown = sample.get("value")
            rows.append([name, metric.get("type", "?"), labels, shown])
    if not rows:
        print("(snapshot contains no metrics — was the run started with "
              "--metrics-port or --metrics-out?)")
        return 0
    print(render_table(["metric", "type", "labels", "value"], rows,
                       title=f"Metrics snapshot ({source})"))
    return 0


def _obs_check(args: argparse.Namespace) -> int:
    try:
        data = _load_snapshot(args.snapshot)
        rules = obs.load_rules(args.rules) if args.rules else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = obs.evaluate(data, rules)
    print(report.describe())
    return report.exit_code


def _command_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "snapshot":
        return _obs_snapshot(args)
    if args.obs_command == "check":
        return _obs_check(args)
    print(f"error: unknown obs command {args.obs_command!r}",
          file=sys.stderr)  # pragma: no cover - argparse enforces
    return 2  # pragma: no cover


def _command_list() -> int:
    rows = []
    for experiment_id in experiment_registry.experiment_ids():
        entry = experiment_registry.get_experiment(experiment_id)
        rows.append([entry.EXPERIMENT_ID, entry.TITLE])
    print(render_table(["id", "title"], rows, title="Registered experiments"))
    return 0


def _component_cell(value: Any) -> Any:
    return ("yes" if value else "no") if isinstance(value, bool) else value


def _command_components() -> int:
    """One table per registry, driven entirely by the registry enumeration.

    ``all_registries()`` supplies the registries and their display order;
    each registry's spec class's ``TABLE_COLUMNS`` supplies the columns —
    adding a registry (or a spec column) needs no CLI edit.
    """
    tables = []
    for title, registry in all_registries().items():
        columns = registry.spec_type.TABLE_COLUMNS
        rows = [
            [_component_cell(getattr(spec, field)) for _, field in columns]
            for spec in registry.specs()
        ]
        tables.append(render_table([header for header, _ in columns],
                                   rows, title=title))
    print("\n\n".join(tables))
    return 0


def _command_run(args: argparse.Namespace) -> int:
    if args.experiment.lower() == "all":
        results = experiment_registry.run_all(seeds=args.seeds, quick=args.quick)
    else:
        results = [
            experiment_registry.run_experiment(args.experiment, seeds=args.seeds,
                                               quick=args.quick)
        ]
    text = "\n\n".join(result.render() for result in results)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n(report written to {args.output})")
    return 0


def _base_scenario(args: argparse.Namespace, name: str,
                   loss: float = 0.0) -> Scenario:
    """Scenario shared by the demo and sweep commands: crash-last pattern,
    stop conditions derived from the algorithm spec's quiescence metadata."""
    spec = algorithms.get(args.algorithm)
    return Scenario(
        name=name,
        algorithm=args.algorithm,
        n_processes=args.n,
        seed=args.seed,
        crashes=crash_last(args.n, args.crashes, time=2.0),
        loss=LossSpec.bernoulli(loss) if loss > 0 else LossSpec.none(),
        max_time=args.max_time,
        stop_when_quiescent=spec.supports_quiescence,
        stop_when_all_correct_delivered=not spec.supports_quiescence,
        drain_grace_period=3.0,
        # explore has no --engine flag: a controller forces per-event
        # dispatch anyway, so offering a backend there would be a no-op.
        engine=getattr(args, "engine", "reference"),
    )


def _command_demo(args: argparse.Namespace) -> int:
    if args.crashes >= args.n:
        print("error: at least one process must remain correct", file=sys.stderr)
        return 2
    result = run_scenario(_base_scenario(args, "cli-demo", loss=args.loss))
    print(result.describe())
    summary = result.metrics
    rows = [[k, v] for k, v in sorted(summary.as_dict().items())
            if not isinstance(v, dict)]
    print()
    print(render_table(["metric", "value"], rows, title="Metrics"))
    return 0 if result.all_properties_hold else 1


def _coerce_token(raw: str) -> Any:
    """Coerce a CLI value token: bool (``true``/``false``), int, float, str."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def _parse_sweep_value(field: str, raw: str) -> Any:
    """Parse one ``--values`` token for *field*.

    ``loss`` floats become Bernoulli loss specs; other tokens go through the
    standard coercion cascade (which covers registered workload names for
    ``--field workload``).
    """
    if field == "loss":
        probability = float(raw)
        return LossSpec.bernoulli(probability) if probability > 0 else LossSpec.none()
    return _coerce_token(raw)


def _render_sweep_result(result: SuiteResult) -> str:
    from .campaigns.reporting import GROUP_TABLE_HEADERS, format_group_rows

    rows = format_group_rows(
        result.groups(),
        mean_latency_of=lambda r: r.metrics.mean_latency,
        ok_of=lambda r: r.all_properties_hold,
        quiescent_of=lambda r: r.quiescence.quiescent,
    )
    return render_table(
        list(GROUP_TABLE_HEADERS),
        rows,
        title=f"Sweep ({result.parallel} worker(s), "
              f"{result.elapsed_seconds:.1f}s wall-clock)",
    )


def _progress_printer(args: argparse.Namespace, unit: str = "runs"):
    """The CLI progress callback: verbose one-line-per-completion with
    ``--progress``, an in-place stderr counter otherwise."""
    if getattr(args, "progress", False):
        def verbose(done: int, total: int, item) -> None:
            print(f"{done}/{total} {unit} completed ({item.group})",
                  file=sys.stderr)
        return verbose

    def counter(done: int, total: int, item) -> None:
        print(f"\r{done}/{total} {unit} finished", end="", file=sys.stderr)
    return counter


def _build_sweep_suite(args: argparse.Namespace,
                       name: str) -> Union[ScenarioSuite, str]:
    """The one-field sweep suite shared by ``sweep`` and ``campaign run``.

    Returns the suite, or an error message (the caller prints it and exits
    with status 2).
    """
    if args.crashes >= args.n:
        return "at least one process must remain correct"
    base = _base_scenario(args, name)
    try:
        values = [_parse_sweep_value(args.field, token)
                  for token in args.values.split(",") if token]
    except ValueError as exc:
        return f"bad --values entry for field {args.field!r}: {exc}"
    if not values:
        return "--values contained no usable entries"
    try:
        return (
            ScenarioSuite(f"{name}-{args.field}")
            .add_sweep(base, args.field, values,
                       groups=[f"{args.field}={token}"
                               for token in args.values.split(",") if token])
            .with_seeds(args.seeds)
        )
    except (TypeError, ValueError) as exc:
        return f"cannot build sweep over field {args.field!r}: {exc}"


def _command_sweep(args: argparse.Namespace) -> int:
    suite = _build_sweep_suite(args, f"sweep-{args.algorithm}")
    if isinstance(suite, str):
        print(f"error: {suite}", file=sys.stderr)
        return 2
    result = suite.run(
        parallel=args.parallel,
        progress=_progress_printer(args),
        worker_plugins=tuple(args.plugin),
    )
    if not args.progress:
        print(file=sys.stderr)
    print(_render_sweep_result(result))
    for failure in result.failures:
        print(f"warning: {failure.describe()}", file=sys.stderr)
        if failure.details:
            print(failure.details.rstrip(), file=sys.stderr)
    # Like demo: exit 1 when any run violated the URB properties (or failed
    # to execute), so CI jobs can gate on the sweep outcome.
    all_hold = all(r.all_properties_hold for r in result.results)
    return 0 if result.ok and all_hold else 1


def _parse_option_token(raw: str) -> tuple[str, Any]:
    """Parse one ``--option KEY=VALUE`` token (bool, int, float, then str)."""
    key, separator, value = raw.partition("=")
    if not key or not separator:
        raise ValueError(f"expected KEY=VALUE, got {raw!r}")
    return key, _coerce_token(value)


def _command_explore(args: argparse.Namespace) -> int:
    from .explore import Explorer

    if args.crashes >= args.n:
        print("error: at least one process must remain correct", file=sys.stderr)
        return 2
    if args.loss > 0 and not strategies.get(args.strategy).extra.get(
            "channel_loss", False):
        # Decision-driven strategies never consult the channel loss model,
        # so a baseline loss would be a silent no-op — reject it loudly.
        print(
            f"error: --loss has no effect with strategy {args.strategy!r} "
            "(it decides every copy's fate itself); use "
            "--option explore_drop_probability=... instead",
            file=sys.stderr,
        )
        return 2
    try:
        metadata = dict(_parse_option_token(token) for token in args.option)
    except ValueError as exc:
        print(f"error: bad --option: {exc}", file=sys.stderr)
        return 2
    scenario = _base_scenario(args, f"explore-{args.algorithm}",
                              loss=args.loss).with_(metadata=metadata)
    from .campaigns import ResultStore, StoreError

    store = None
    try:
        if args.store is not None:
            store = ResultStore(args.store)
        explorer = Explorer(
            scenario=scenario,
            strategy=args.strategy,
            budget=args.budget,
            parallel=args.parallel,
            shrink=not args.no_shrink,
            artifacts_dir=None if args.artifacts is None
            else Path(args.artifacts),
            store=store,
        )
        report = explorer.run(
            progress=lambda done, total, item: print(
                f"\r{done}/{total} schedules explored", end="", file=sys.stderr),
        )
    except (ValueError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()
    print(file=sys.stderr)
    print(report.describe())
    for counterexample in report.counterexamples:
        if counterexample.artifact_path is not None:
            print(f"  (artifact written to {counterexample.artifact_path})")
    if args.expect_violation:
        caught = bool(report.counterexamples)
        if not caught:
            print("error: expected a violation but none was found",
                  file=sys.stderr)
            return 1
        if args.no_shrink:
            # Without shrinking there is no replay to verify — only claim
            # what actually happened.
            print("expected violation found (shrinking disabled, replay "
                  "not verified)")
            return 0
        # Shrinking ran: every counterexample must have produced a shrunk
        # trace whose replay reproduced the same violation.  A missing
        # shrunk trace means the sanity replay diverged — exactly the
        # record/replay regression this self-test exists to catch.
        if all(c.shrunk_verified for c in report.counterexamples):
            print("expected violation found (and its shrunk counterexample "
                  "replays to the same violation)")
            return 0
        print("error: expected a violation and found one, but a shrunk "
              "counterexample failed to replay to the same violation",
              file=sys.stderr)
        return 1
    return 0 if report.ok else 1


def _command_replay(args: argparse.Namespace) -> int:
    from .analysis.properties import violation_signature
    from .explore.serialize import load_counterexample
    from .explore.explorer import replay_decisions

    path = Path(args.artifact)
    if not path.exists():
        print(f"error: no such artifact {path}", file=sys.stderr)
        return 2
    try:
        data = load_counterexample(path)
    except (ValueError, KeyError) as exc:
        print(f"error: cannot load counterexample: {exc}", file=sys.stderr)
        return 2
    decisions = data["decisions"]
    which = "full"
    if not args.full and data.get("shrunk_decisions") is not None:
        decisions = data["shrunk_decisions"]
        which = "shrunk"
    simulation, verdict = replay_decisions(data["scenario"], decisions)
    recorded = tuple(data["signature"])
    replayed = violation_signature(verdict)
    print(f"replayed {which} trace ({len(decisions)} decisions) of schedule "
          f"{data['schedule_hash']} on {data['scenario'].describe()}")
    print(simulation.describe())
    print(verdict.describe())
    if replayed == recorded:
        print(f"violation reproduced: {', '.join(recorded) or '<none>'}")
        return 0
    print(
        f"error: replay diverged — artifact records violations "
        f"[{', '.join(recorded)}] but the replay produced "
        f"[{', '.join(replayed)}]",
        file=sys.stderr,
    )
    return 1


def _render_campaign_status(store: "ResultStore") -> str:
    rows = [
        [info.name, info.suite_name, info.done, info.total,
         "complete" if info.complete else "in progress"]
        for info in store.campaigns()
    ]
    return render_table(
        ["campaign", "suite", "done", "cells", "state"],
        rows, title=f"Campaigns in {store.root}",
    )


def _campaign_run(store: "ResultStore", args: argparse.Namespace) -> int:
    from .campaigns import Campaign, campaign_table

    suite = _build_sweep_suite(args, f"campaign-{args.algorithm}")
    if isinstance(suite, str):
        print(f"error: {suite}", file=sys.stderr)
        return 2
    campaign = Campaign(
        store, suite,
        name=args.name,
        parallel=args.parallel,
        worker_plugins=tuple(args.plugin),
    )
    report = campaign.run(
        resume=args.resume,
        recompute=args.recompute,
        progress=_progress_printer(args, unit="cells"),
    )
    if not args.progress:
        print(file=sys.stderr)
    print(report.describe())
    print()
    print(campaign_table(store, report.name).render())
    for failure in report.failures:
        print(f"warning: {failure.describe()}", file=sys.stderr)
        if failure.details:
            print(failure.details.rstrip(), file=sys.stderr)
    rows = campaign.rows()
    all_hold = all(row.all_properties_hold for row in rows if row is not None)
    return 0 if report.complete and all_hold else 1


def _store_mean_wall_time(store: "ResultStore") -> Optional[float]:
    """Mean stored per-cell wall seconds, or ``None`` without timing data."""
    timings = [row.wall_time for row in store.query()
               if row.wall_time is not None]
    return sum(timings) / len(timings) if timings else None


def _lease_status_line(workdir: str,
                       store: "ResultStore") -> tuple[str, bool, int]:
    """One distributed-job progress line (with ETA when timings exist),
    plus whether the job is complete and its completed-cell count."""
    from .campaigns import LeaseTable

    with LeaseTable(workdir) as table:
        status = table.status()
    line = f"job at {workdir}: {status.describe()}"
    mean = _store_mean_wall_time(store)
    remaining = status.total_cells - status.completed_cells
    if not status.complete and remaining > 0 and mean is not None:
        eta = remaining * mean / max(status.active_workers, 1)
        line += f", eta ~{eta:.0f}s"
    return line, status.complete, status.completed_cells


def _campaign_status_once(
        store: "ResultStore",
        args: argparse.Namespace) -> tuple[int, bool, int]:
    """Print the status once; returns ``(exit_code, everything_complete,
    done_cells)`` — the cell count feeds the ``--watch`` rate line."""
    complete = True
    done_cells = 0
    if args.name is None:
        print(_render_campaign_status(store))
        complete = all(info.complete for info in store.campaigns())
        done_cells = sum(info.done for info in store.campaigns())
    else:
        info = store.campaign_info(args.name)
        if info is None:
            print(f"error: unknown campaign {args.name!r} in {store.root}",
                  file=sys.stderr)
            return 2, True, 0
        print(f"campaign {info.name!r} (suite {info.suite_name!r}): "
              f"{info.done}/{info.total} cells computed"
              f"{' — complete' if info.complete else ''}")
        groups: dict[str, list[int]] = {}
        for _position, group, cell_key in store.campaign_cells(args.name):
            groups.setdefault(group, [0, 0])
            groups[group][1] += 1
            if store.contains(cell_key, count=False):
                groups[group][0] += 1
        rows = [[group, f"{done}/{total}"]
                for group, (done, total) in groups.items()]
        print(render_table(["configuration", "done"], rows))
        complete = info.complete
        done_cells = info.done
    if args.workdir is not None:
        from .campaigns import LeaseError

        try:
            line, job_complete, job_done = _lease_status_line(args.workdir,
                                                              store)
        except LeaseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2, True, 0
        print(line)
        federated = _federation_status_line(args.workdir)
        if federated is not None:
            print(federated)
        complete = complete and job_complete
        # During a distributed run the destination store stays empty until
        # the merge, so the lease table carries the live progress.
        done_cells = max(done_cells, job_done)
    return 0, complete, done_cells


def _federation_status_line(workdir: str) -> Optional[str]:
    """Per-worker cell counts from federated metric snapshots, if any.

    Workers flush snapshots into ``<workdir>/obs/<worker_id>/`` when obs
    is enabled; an untraced job has no snapshots and gets no line.
    """
    import time as time_module

    from .obs import federation

    try:
        envelopes = federation.read_snapshots(Path(workdir) / "obs")
    except (OSError, ValueError):
        return None
    if not envelopes:
        return None
    now = time_module.time()
    parts = []
    for worker in sorted(envelopes):
        metrics = envelopes[worker].get("snapshot", {}).get("metrics", {})
        cells = sum(
            sample.get("value", 0.0)
            for sample in metrics.get("repro_worker_cells_total",
                                      {}).get("samples", ()))
        age = now - float(envelopes[worker].get("written_unix", now))
        parts.append(f"{worker} {cells:.0f} cell(s), {age:.0f}s ago")
    return "workers (federated): " + "; ".join(parts)


def _campaign_status(store: "ResultStore", args: argparse.Namespace) -> int:
    import math
    import time as time_module

    previous: Optional[tuple[float, int]] = None
    ewma: Optional[float] = None
    # Time constant of ~5 poll intervals: long enough to smooth jitter,
    # short enough that a late-run straggler phase (rate collapsing while
    # one worker grinds the tail) is visible instead of being averaged
    # away by the fast early ramp, as a since-start mean would do.
    tau = max(5.0 * getattr(args, "interval", 1.0), 1e-6)
    while True:
        now = time_module.monotonic()
        code, complete, done = _campaign_status_once(store, args)
        if args.watch and previous is not None:
            elapsed = now - previous[0]
            delta = done - previous[1]
            if elapsed > 0:
                instant = delta / elapsed
                alpha = 1.0 - math.exp(-elapsed / tau)
                ewma = instant if ewma is None \
                    else ewma + alpha * (instant - ewma)
                print(f"rate: {ewma:.2f} cells/s "
                      f"(EWMA; +{delta} cell(s) in {elapsed:.1f}s)")
        previous = (now, done)
        if not args.watch or code != 0 or complete:
            return code
        time_module.sleep(args.interval)
        print()


def _campaign_query(store: "ResultStore", args: argparse.Namespace) -> int:
    from .campaigns import query_table

    if args.counterexamples:
        ignored = [flag for flag, value in (
            ("--algorithm", args.algorithm), ("--loss", args.loss),
            ("--n", args.n_processes), ("--seed", args.seed),
            ("--campaign", args.campaign), ("--group", args.group),
            ("--limit", args.limit),
        ) if value is not None] + (
            ["--violations-only"] if args.violations_only else []
        )
        if ignored:
            # Result filters do not apply to the artifacts table; refusing
            # beats returning an unfiltered listing that looks filtered.
            print(f"error: {', '.join(ignored)} cannot be combined with "
                  "--counterexamples", file=sys.stderr)
            return 2
        rows = [
            [ce.artifact_id, ce.schedule_hash, ce.strategy, ce.algorithm,
             ", ".join(ce.signature), ce.shrunk_verified]
            for ce in store.counterexamples()
        ]
        print(render_table(
            ["artifact", "schedule", "strategy", "algorithm", "violates",
             "shrunk ok"],
            rows, title=f"Counterexamples in {store.root}",
        ))
        return 0
    filters: dict[str, Any] = {}
    if args.algorithm is not None:
        filters["algorithm"] = args.algorithm
    if args.loss is not None:
        filters["loss"] = args.loss
    if args.n_processes is not None:
        filters["n_processes"] = args.n_processes
    if args.seed is not None:
        filters["seed"] = args.seed
    if args.campaign is not None:
        filters["campaign"] = args.campaign
    if args.group is not None:
        filters["group"] = args.group
    if args.violations_only:
        filters["all_hold"] = False
    try:
        print(query_table(store, limit=args.limit, **filters).render())
    except Exception as exc:  # noqa: BLE001 - user-facing query errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _campaign_export(store: "ResultStore", args: argparse.Namespace) -> int:
    from .campaigns import campaign_report, campaign_table
    from .experiments.export import write_artifact_csv, write_experiment_json

    if (args.campaign is None) == (args.counterexample is None):
        print("error: pass exactly one of --campaign / --counterexample",
              file=sys.stderr)
        return 2
    output = Path(args.output)
    try:
        if args.counterexample is not None:
            store.export_counterexample(args.counterexample, output)
        elif output.suffix.lower() == ".csv":
            write_artifact_csv(campaign_table(store, args.campaign), output)
        else:
            write_experiment_json(campaign_report(store, args.campaign),
                                  output)
    except (KeyError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"exported to {output}")
    return 0


def _campaign_gc(store: "ResultStore", args: argparse.Namespace) -> int:
    if args.drop_campaign is not None:
        try:
            store.delete_campaign(args.drop_campaign)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"dropped campaign {args.drop_campaign!r}")
    stats = store.gc(drop_unreferenced=args.drop_unreferenced)
    print(stats.describe())
    return 0


def _campaign_serve(store: "ResultStore", args: argparse.Namespace) -> int:
    from .campaigns import Coordinator, LeaseError, campaign_table

    suite = _build_sweep_suite(args, f"campaign-{args.algorithm}")
    if isinstance(suite, str):
        print(f"error: {suite}", file=sys.stderr)
        return 2
    coordinator = Coordinator(
        args.workdir, suite,
        name=args.name,
        lease_timeout=args.lease_timeout,
        range_size=args.range_size,
    )
    if args.progress:
        def on_status(status) -> None:
            print(status.describe(), file=sys.stderr)
    else:
        def on_status(status) -> None:
            print(f"\r{status.completed_cells}/{status.total_cells} cells "
                  "completed", end="", file=sys.stderr)
    try:
        report = coordinator.serve(
            store,
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            on_status=on_status,
        )
    except LeaseError as exc:
        print(file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.progress:
        print(file=sys.stderr)
    print(report.describe())
    print()
    print(campaign_table(store, report.name).render())
    rows = store.query(campaign=report.name)
    all_hold = all(row.all_properties_hold for row in rows)
    return 0 if report.status.complete and all_hold else 1


def _campaign_work(args: argparse.Namespace) -> int:
    from .campaigns import LeaseError, run_worker

    def progress(worker_id: str, done: int) -> None:
        print(f"\r{worker_id}: {done} cell(s) processed", end="",
              file=sys.stderr)

    try:
        report = run_worker(
            args.workdir,
            store_root=args.store_root,
            worker_id=args.worker_id,
            poll_interval=args.poll_interval,
            worker_plugins=tuple(args.plugin),
            wait_for_job=args.wait_for_job,
            progress=progress,
        )
    except (LeaseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(file=sys.stderr)
    print(report.describe())
    for error in report.errors:
        print(f"warning: {error}", file=sys.stderr)
    return 0 if not report.errors else 1


def _campaign_plan(args: argparse.Namespace) -> int:
    from .campaigns import StoreError, plan_campaign

    suite = _build_sweep_suite(args, f"campaign-{args.algorithm}")
    if isinstance(suite, str):
        print(f"error: {suite}", file=sys.stderr)
        return 2
    try:
        plan = plan_campaign(suite, args.store,
                             target_seconds=args.target_seconds)
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(plan.describe())
    print()
    print(plan.table().render())
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from .campaigns import MergeConflictError, StoreError, merge_store_paths

    if args.store_command != "merge":  # pragma: no cover - argparse enforces
        print(f"error: unknown store command {args.store_command!r}",
              file=sys.stderr)
        return 2
    try:
        stats = merge_store_paths(args.into, args.sources)
    except MergeConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(stats.describe())
    return 0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * (len(sorted_values) - 1) + 0.5),
                len(sorted_values) - 1)
    return sorted_values[index]


def _command_trace(args: argparse.Namespace) -> int:
    from .obs import spans

    targets = args.targets[0] if len(args.targets) == 1 else args.targets
    try:
        tree = spans.load_trace(targets, trace_id=args.trace_id)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tree.span_count == 0:
        print("error: no span records found (was the job traced? spans "
              "require an enabled obs layer)", file=sys.stderr)
        return 2

    if args.trace_command == "export":
        events = spans.chrome_trace_events(tree)
        body = json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                          indent=2, sort_keys=True)
        if args.output is not None:
            output = Path(args.output)
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(body + "\n", encoding="utf-8")
            print(f"trace: wrote {len(events)} event(s) for trace "
                  f"{tree.trace_id} to {output}")
        else:
            print(body)
        return 0

    cells = tree.cell_spans()
    latencies = sorted(cell.wall_seconds for cell in cells)
    critical = tree.critical_path()
    by_proc: dict[str, list[float]] = {}
    for cell in cells:
        by_proc.setdefault(cell.proc, []).append(cell.wall_seconds)

    if args.json:
        document = {
            "trace_id": tree.trace_id,
            "span_count": tree.span_count,
            "procs": list(tree.procs),
            "orphan_span_ids": [node.span_id for node in tree.orphans],
            "spans": {span_id: node.as_dict()
                      for span_id, node in tree.by_id.items()},
            "cells": {
                "count": len(cells),
                "wall_seconds_total": sum(latencies),
                "wall_seconds_mean":
                    (sum(latencies) / len(latencies)) if latencies else 0.0,
                "wall_seconds_p95": _percentile(latencies, 0.95),
                "by_proc": {proc: {"count": len(values),
                                   "wall_seconds_total": sum(values)}
                            for proc, values in sorted(by_proc.items())},
            },
            "critical_path": [node.span_id for node in critical],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(f"trace {tree.trace_id}: {tree.span_count} span(s) across "
          f"{len(tree.procs)} process(es) ({', '.join(tree.procs)})")
    if tree.orphans:
        print(f"WARNING: {len(tree.orphans)} orphan span(s) — a parent "
              "record is missing (partial files or broken propagation)")
    print()
    print(tree.render(max_children=args.max_children))
    if cells:
        print()
        print(f"cells: {len(cells)} — total {sum(latencies):.3f}s, "
              f"mean {sum(latencies) / len(latencies):.3f}s, "
              f"p95 {_percentile(latencies, 0.95):.3f}s")
        for proc, values in sorted(by_proc.items()):
            print(f"  {proc}: {len(values)} cell(s), "
                  f"{sum(values):.3f}s total")
        slowest = sorted(cells, key=lambda c: c.wall_seconds,
                         reverse=True)[:3]
        for cell in slowest:
            key = str(cell.fields.get("cell_key", ""))[:12]
            print(f"  slowest: {key} on {cell.proc} "
                  f"({cell.wall_seconds:.3f}s)")
    if critical:
        print()
        total = critical[0].wall_seconds
        print(f"critical path ({total:.3f}s at the root):")
        for node in critical:
            share = (node.wall_seconds / total * 100) if total > 0 else 0.0
            print(f"  {node.name} ({node.proc}) {node.wall_seconds:.3f}s "
                  f"[{share:.0f}%]")
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    from .campaigns import LeaseError, ResultStore, StoreError

    # `work` and `plan` manage their own stores (a worker's store lives
    # under the job workdir; a plan may have no store at all).
    if args.campaign_command == "work":
        return _campaign_work(args)
    if args.campaign_command == "plan":
        return _campaign_plan(args)
    try:
        # Read verbs must not silently initialise an empty store at a typo.
        store = ResultStore(args.store,
                            create=args.campaign_command in ("run", "serve"))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "run": _campaign_run,
        "status": _campaign_status,
        "query": _campaign_query,
        "export": _campaign_export,
        "gc": _campaign_gc,
        "serve": _campaign_serve,
    }
    with store:
        try:
            return handlers[args.campaign_command](store, args)
        except (StoreError, LeaseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    # Import plugins before building the parser so their registrations
    # show up in --algorithm choices.
    plugin_args, _ = _PLUGIN_PARSER.parse_known_args(argv)
    for module_name in plugin_args.plugin:
        try:
            importlib.import_module(module_name)
        except ImportError as exc:
            print(f"error: cannot import --plugin {module_name!r}: {exc}",
                  file=sys.stderr)
            return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    # The pre-scan saw --plugin wherever it appeared; make that the value
    # commands consume (subparser parsing may have partially clobbered it).
    args.plugin = plugin_args.plugin
    if args.command == "list":
        return _command_list()
    if args.command == "components":
        return _command_components()
    if args.command == "run":
        return _command_run(args)
    handlers = {
        "demo": _command_demo,
        "sweep": _command_sweep,
        "explore": _command_explore,
        "replay": _command_replay,
        "campaign": _command_campaign,
        "store": _command_store,
        "obs": _command_obs,
        "trace": _command_trace,
    }
    handler = handlers.get(args.command)
    if handler is not None:
        # _obs_session is a no-op unless the verb carries an obs flag.
        with _obs_session(args):
            return handler(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


#: Minimal pre-parser so plugins can extend the registries before the real
#: parser snapshots the registry names into ``choices``.
_PLUGIN_PARSER = argparse.ArgumentParser(add_help=False)
_PLUGIN_PARSER.add_argument("--plugin", action="append", default=[])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
