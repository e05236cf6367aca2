"""End-to-end benchmark of the repo: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--workloads a,b] [--trace 1]

With ``--workload`` this process *is* the measurement: it times set-up,
then runs passes of the workload into fresh scratch state until ``--seconds``
have elapsed, checks every output, prints each metric by name with its unit
and sample count, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` with no wrapper installed; ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics.

Without ``--workload`` it runs the named workloads (default: all) one at a
time, each in a fresh child interpreter so that peak memory is attributable
and no workload warms another's caches, and writes the collected results to
``benchmarks/e2e/out/`` for ``compare.py``.

Closed loop, one client: the benchmark process itself.  Batch work, so
throughput is work per second at the stated size, not a rate under a
latency limit.  Never more than one busy process; ``parallel=1`` everywhere.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: The seed whose simulated statistics are pinned in golden.json.
GOLDEN_SEED = 1234
#: Timed passes made whatever ``--seconds`` says (plain + traced with
#: ``--trace 1``), so every median has at least this many samples.
MIN_PASSES = 3
#: Set-up is repeated so that ``setup_s`` is a median, not one sample.
SETUP_REPEATS = 3
#: Iterations of the host-speed probe, and the seconds they take on the
#: reference box (2 cores, CPython 3.11) in its usual speed state.
SPIN_ROUNDS = 300_000
SPIN_REFERENCE_S = 0.030


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> dict[str, Any]:
    return json.loads((HERE / "golden.json").read_text())


@contextmanager
def scratch_dir() -> Iterator[Path]:
    """A fresh directory for one pass's stores and job dirs, inside the
    checkout (the benchmark writes nowhere else), removed even on failure."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as path:
        yield Path(path)


def spin() -> float:
    """Seconds a fixed pure-Python kernel takes right now: the host's speed."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(SPIN_ROUNDS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - started


class Calibrated:
    """Times a region in *calibrated* seconds.

    The sandbox this benchmark is judged on switches between speed states a
    quarter apart every few seconds (frequency, a neighbour on the sibling
    thread), which no median over one run's passes removes.  The probe
    :func:`spin` runs right before and after the region and the measured
    seconds are scaled by ``SPIN_REFERENCE_S / probe``: what the region would
    have taken with the host in its reference state.  Parent and change are
    scaled by the same rule, so their ratio is what a steady host would show.
    """

    raw = factor = 0.0

    def __enter__(self) -> "Calibrated":
        self._probe = spin()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.raw = time.perf_counter() - self._started
        self.factor = 2.0 * SPIN_REFERENCE_S / (self._probe + spin())

    @property
    def seconds(self) -> float:
        return self.raw * self.factor


def import_program() -> tuple[ModuleType, ModuleType]:
    """Import the program under test from this checkout's ``src/`` and the
    two benchmark modules that depend on it."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"e2e benchmark: no program to measure at {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads
    return spans, workloads


def time_imports() -> list[float]:
    """Calibrated seconds a fresh interpreter needs to start and import the
    program, once per set-up repeat: an import cannot be repeated in this
    process, and work moved to import time must show in ``setup_s``."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import spans, workloads"
    samples = []
    for _ in range(SETUP_REPEATS):
        with Calibrated() as timer:
            subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                           check=True)
        samples.append(timer.seconds)
    return samples


@dataclass
class Outcome:
    """Everything one ``--workload`` run measured."""

    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    #: ``name -> {"value", "unit", "samples"}`` for the reported metric set.
    metrics: dict[str, dict[str, Any]]
    failed_checks: list[str]
    #: Simulated statistics of one pass (identical on every pass).
    stats: dict[str, Any]
    traced_stats: dict[str, Any] = field(default_factory=dict)
    #: Spans of the last traced pass.
    spans: list[tuple] = field(default_factory=list)
    #: ``Calibrated.factor`` of every pass, in order (raw = value / factor).
    speed_factors: list[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        """The one-line JSON result the driver reads."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                        for name, entry in self.metrics.items()},
        })


#: Ledger counts that must repeat exactly for one seed (pinned in golden).
TRACED_STATS = ("engine.events", "vectorized.events", "core.sends",
                "core.urb_deliveries", "core.sim_final_time",
                "network.attempts", "network.dropped",
                "network.forced_deliveries")


#: Per-layer metrics the workloads report themselves (the rest come from
#: the spans): regions they time, callback gaps, explorer report fields.
WORKLOAD_LAYER_METRICS = (
    "store.resume_s", "store.blob_bytes", "batch.cell_p50_ms",
    "batch.cell_p99_ms", "explore.schedules", "explore.unique_share",
    "explore.counterexamples", "explore.mutant_caught",
)


def _plain(value: Any) -> Any:
    """*value* as it reads back from JSON (so it compares with golden)."""
    return json.loads(json.dumps(value))


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, Any]] = None,
    golden: Optional[dict[str, Any]] = None,
    import_samples: Optional[list[float]] = None,
) -> Outcome:
    """Set up, run and check one workload; see the module docs.

    *sizes* overrides the workload's fixed sizes (tests only).  *golden* is
    the parsed golden.json; it is consulted when it pins this seed.
    *import_samples* (:func:`time_imports`) are added to the set-up samples.
    """
    spec = load_spec()
    spans, workloads = import_program()
    workload = workloads.WORKLOADS[name]
    timed_units = {entry["name"] for entry in spec["per_layer"]
                   if entry["unit"] in ("s", "ms", "us")}
    pinned = None
    if golden is not None and golden["seed"] == seed:
        pinned = golden["workloads"][name]

    # ---- set-up: inputs from the seed, a tiny warm-up pass, slow checks ---
    checks: list[tuple[str, bool]] = []
    setup_layer: dict[str, float] = {}
    setup_samples = []
    for import_seconds in import_samples or [0.0] * SETUP_REPEATS:
        with Calibrated() as timer:
            inputs = workload.build(seed, **(sizes or {}))
            with scratch_dir() as workdir:
                warm_checks, setup_layer = workload.warm_up(seed, workdir)
        setup_samples.append(import_seconds + timer.seconds)
        checks.extend(warm_checks)
    units = unit_failures = 0

    # ---- timed passes ----------------------------------------------------
    tracer = spans.Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    throughputs: list[float] = []
    speed_factors: list[float] = []
    layers: list[dict[str, float]] = []
    stats: dict[str, Any] = {}
    traced_stats: dict[str, Any] = {}
    deadline = time.perf_counter() + seconds
    try:
        while True:
            traced = trace and len(plain_walls) > len(traced_walls)
            tracer.reset()
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            # Every pass starts from a collected heap, so that the collector
            # does the same work in each and none inherits another's garbage.
            gc.collect()
            with scratch_dir() as workdir:
                with Calibrated() as timer, tracer.root():
                    result = workload.run_pass(inputs, workdir)
            wall = timer.seconds
            speed_factors.append(timer.factor)
            checks.extend(result.checks)
            units += result.units
            unit_failures += result.unit_failures
            stats = _plain(result.stats)
            if pinned is not None:
                checks.append(("golden.stats", stats == pinned["stats"]))
            if traced:
                traced_walls.append(wall)
                layer = spans.layer_metrics(tracer.spans, tracer.counts)
                layer.update(result.layer)
                for key in timed_units & set(layer):
                    layer[key] *= timer.factor
                layers.append(layer)
                traced_stats = _plain({key: layer[key]
                                       for key in TRACED_STATS})
                if pinned is not None:
                    checks.append(("golden.traced",
                                   traced_stats == pinned["traced"]))
            else:
                plain_walls.append(wall)
                throughputs.append(
                    result.ops / (result.ops_seconds * timer.factor))
            done = len(traced_walls) if trace else len(plain_walls)
            if done >= MIN_PASSES and time.perf_counter() >= deadline:
                break
    finally:
        tracer.uninstall()

    # ---- metrics -----------------------------------------------------------
    units_of = {entry["name"]: entry["unit"]
                for entry in spec["end_to_end"] + spec["per_layer"]}
    measured: dict[str, tuple[float, list[float]]] = {}
    if trace:
        wanted = [entry["name"] for entry in spec["per_layer"]]
        # A layer this workload never enters reads 0: that is the prediction.
        layers = [{**dict.fromkeys(WORKLOAD_LAYER_METRICS, 0.0),
                   **setup_layer, **layer} for layer in layers]
        for key in layers[0]:
            samples = [layer[key] for layer in layers]
            measured[key] = (statistics.median(samples), samples)
        # Each traced pass against the plain pass right before it: neighbours
        # share the host's speed, which two separate medians would not.
        overheads = [(traced - plain) / plain * 100.0
                     for plain, traced in zip(plain_walls, traced_walls)]
        measured["bench.trace_overhead_pct"] = (
            statistics.median(overheads), overheads)
    else:
        wanted = [entry["name"] for entry in spec["end_to_end"]]
        measured = {
            "setup_s": (statistics.median(setup_samples), setup_samples),
            "wall_s": (statistics.median(plain_walls), plain_walls),
            "ops_per_s": (statistics.median(throughputs), throughputs),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, []),
        }
    if set(wanted) != set(measured):
        raise RuntimeError(
            "BENCHMARK.json and the benchmark disagree on the metrics: "
            f"{sorted(set(wanted) ^ set(measured))}")
    failed_checks = sorted({check for check, ok in checks if not ok})
    return Outcome(
        workload=name,
        seed=seed,
        trace=trace,
        attempted=units + len(checks),
        failed=unit_failures + sum(1 for _check, ok in checks if not ok),
        metrics={key: {"value": measured[key][0], "unit": units_of[key],
                       "samples": measured[key][1]} for key in wanted},
        failed_checks=failed_checks,
        stats=stats,
        traced_stats=traced_stats,
        spans=tracer.spans,
        speed_factors=speed_factors,
    )


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #
def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def detail_path(workload: str, seed: int, trace: bool) -> Path:
    return OUT_DIR / f"{workload}.seed{seed}.trace{int(trace)}.json"


def report(outcome: Outcome) -> None:
    """Print every metric by name, then the driver's result line."""
    for name, entry in outcome.metrics.items():
        count = len(entry["samples"]) or 1
        emit(f"{outcome.workload} {name} = {entry['value']:.6g} "
             f"{entry['unit']} (n={count})")
    for check in outcome.failed_checks:
        emit(f"{outcome.workload} FAILED CHECK {check}")
    OUT_DIR.mkdir(exist_ok=True)
    detail_path(outcome.workload, outcome.seed, outcome.trace).write_text(
        json.dumps({
            "workload": outcome.workload,
            "seed": outcome.seed,
            "trace": outcome.trace,
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "failed_checks": outcome.failed_checks,
            "metrics": outcome.metrics,
            "stats": outcome.stats,
            "traced_stats": outcome.traced_stats,
            "speed_factors": outcome.speed_factors,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "cell"],
            "spans": outcome.spans,
        }))
    emit(outcome.result_line())


def run_all(names: list[str], seed: int, seconds: int, trace: bool,
            out: Path) -> int:
    """Run each workload in its own child interpreter; collect to *out*."""
    collected: dict[str, Any] = {"seed": seed, "seconds": seconds,
                                 "workloads": {}}
    failures = []
    for name in names:
        merged: dict[str, Any] = {"metrics": {}, "attempted": 0, "failed": 0}
        for traced in ([False, True] if trace else [False]):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(traced))],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            if child.returncode != 0:
                emit(f"workload {name} (trace={int(traced)}) exited with "
                     f"code {child.returncode}")
                return child.returncode
            detail = json.loads(detail_path(name, seed, traced).read_text())
            merged["metrics"].update(detail["metrics"])
            merged["attempted"] += detail["attempted"]
            merged["failed"] += detail["failed"]
            if not detail["correct"]:
                failures.append(name)
        collected["workloads"][name] = merged
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(collected, indent=1))
    emit(f"results written to {out}")
    if failures:
        emit(f"incorrect outputs on: {', '.join(sorted(set(failures)))}")
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="measure this workload in this process")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads for a full run")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="result file of a full run "
                             "(default: out/run.seed<seed>.json)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        import_program()  # fail before measuring if there is no program
        report(run_workload(args.workload, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace),
                            golden=load_golden(),
                            import_samples=time_imports()))
        return 0
    chosen = args.workloads.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    out = args.out or OUT_DIR / f"run.seed{args.seed}.json"
    return run_all(chosen, args.seed, args.seconds, bool(args.trace), out)


if __name__ == "__main__":
    sys.exit(main())
