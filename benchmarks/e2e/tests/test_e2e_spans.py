"""Span arithmetic and the install/uninstall of the tracing wrappers."""

import importlib
import sys

import spans


def _originals():
    """Every attribute the tracer may replace, as it is right now."""
    found = {}
    for target in spans.METHOD_SPANS.values():
        module_name, _, path = target.partition(":")
        class_name, _, attr = path.partition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        found[target] = cls.__dict__[attr]
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro"):
            for key, value in vars(module).items():
                if callable(value):
                    found[f"{name}:{key}"] = value
    return found


def test_self_time_is_duration_minus_direct_children():
    tree = [
        (spans.ROOT_SPAN, 0, 100, None, None),
        ("runner.scenario", 10, 90, 0, 0),
        ("runner.build", 12, 20, 1, 0),
        ("engine.run", 20, 70, 1, 0),
        ("analysis.properties", 70, 85, 1, 0),
        ("store.put", 90, 98, 0, None),
        ("store.serialise", 91, 93, 5, None),
        ("store.serialise", 94, 97, 5, None),
    ]
    ledger = spans.self_times(tree)
    assert ledger[spans.ROOT_SPAN] == [100 - 80 - 8, 1]
    assert ledger["runner.scenario"] == [80 - 8 - 50 - 15, 1]
    assert ledger["engine.run"] == [50, 1]
    assert ledger["store.put"] == [8 - 2 - 3, 1]
    assert ledger["store.serialise"] == [5, 2]
    assert sum(entry[0] for entry in ledger.values()) == 100


def test_nested_fallback_charges_the_reference_loop():
    # VectorizedEngine.run falling back into SimulationEngine.run.
    tree = [
        (spans.ROOT_SPAN, 0, 1000, None, None),
        ("vectorized.run", 100, 900, 0, 0),
        ("engine.run", 110, 895, 1, 0),
    ]
    ledger = spans.self_times(tree)
    assert ledger["vectorized.run"] == [800 - 785, 1]
    assert ledger["engine.run"] == [785, 1]
    counts = dict.fromkeys(spans.COUNTERS, 0)
    counts.update({"engine.events": 50, "vectorized.events": 50})
    metrics = spans.layer_metrics(tree, counts)
    assert metrics["vectorized.batched_share"] == 0.0
    assert metrics["vectorized.us_per_event"] == 0.0
    assert metrics["engine.us_per_event"] == 785 / 1e3 / 50
    assert metrics["bench.ledger_coverage"] == 0.8


def test_install_and_uninstall_restore_every_callable():
    before = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _originals()
        replaced = [key for key in before if during[key] is not before[key]]
        assert all(target in replaced for target in spans.METHOD_SPANS.values())
        # run_scenario is imported by name into several modules.
        assert "repro.experiments.batch:run_scenario" in replaced
        assert "repro.campaigns.distributed.worker:run_scenario" in replaced
    finally:
        tracer.uninstall()
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert not tracer.installed


def test_wrappers_record_nested_spans_and_cells():
    from repro.experiments import runner

    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root():
            runner.run_scenario(runner.default_scenario(
                "algorithm2", n_processes=3, engine="vectorized"))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names[:3] == [spans.ROOT_SPAN, "runner.scenario", "runner.build"]
    by_name = {span[0]: span for span in tracer.spans}
    # A default scenario records a FULL trace, so the vectorized engine
    # falls back: engine.run nests under vectorized.run, in cell 0.
    fallback = by_name["engine.run"]
    assert tracer.spans[fallback[3]][0] == "vectorized.run"
    assert fallback[4] == 0 and by_name[spans.ROOT_SPAN][4] is None
    assert tracer.counts["engine.events"] == tracer.counts["vectorized.events"]
    assert tracer.counts["vectorized.batched_events"] == 0
    # The simulated statistics are counted once, by the outer run.
    result = runner.run_scenario(runner.default_scenario(
        "algorithm2", n_processes=3))
    assert tracer.counts["core.sends"] == result.metrics.total_sends
