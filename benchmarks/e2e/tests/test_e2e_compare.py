"""compare.py: the verdict table and the exit codes."""

import json

import compare


def _metric(value, samples=(), unit="s"):
    return {"value": value, "unit": unit, "samples": list(samples)}


def test_verdict_table():
    steady = [1.0, 1.01, 0.99, 1.0]
    noisy = [1.0, 1.4, 0.7, 1.0]
    cases = [
        # parent, change, better, bound, verdict
        (_metric(1.0, steady), _metric(1.05, steady), "lower", 0.1, "ok"),
        (_metric(1.0, steady), _metric(1.2, steady), "lower", 0.1, "regressed"),
        (_metric(1.0, steady), _metric(0.5, steady), "lower", 0.1, "ok"),
        (_metric(100.0, steady), _metric(80.0, steady), "higher", 0.1,
         "regressed"),
        (_metric(100.0, steady), _metric(120.0, steady), "higher", 0.1, "ok"),
        (_metric(1.0, noisy), _metric(1.0, steady), "lower", 0.1, "unresolved"),
        # Wide spread, but every sample of the change is better: resolved.
        (_metric(1.0, noisy), _metric(0.5, [0.5, 0.6, 0.4, 0.5]), "lower", 0.1,
         "ok"),
        (_metric(7, unit="count"), _metric(7, unit="count"), "lower", None,
         "ok"),
        (_metric(7, unit="count"), _metric(8, unit="count"), "lower", None,
         "regressed"),
        (_metric(0.5, unit="s"), _metric(5.0, unit="s"), "lower", None, "info"),
    ]
    for parent, change, better, bound, expected in cases:
        assert compare.verdict(parent, change, better=better,
                               bound=bound) == expected, (parent, change)


def _run_file(tmp_path, name, wall, events, seed=1, failed=0):
    path = tmp_path / name
    path.write_text(json.dumps({"seed": seed, "workloads": {"flood_n14": {
        "attempted": 10, "failed": failed, "metrics": {
            "wall_s": _metric(wall, [wall] * 3),
            "engine.events": _metric(events, unit="count"),
        }}}}))
    return str(path)


def test_main_exit_codes(tmp_path, capsys):
    parent = _run_file(tmp_path, "a.json", 1.0, 100)
    assert compare.main([parent, parent]) == 0
    assert "0 regressed" in capsys.readouterr().out
    slower = _run_file(tmp_path, "b.json", 1.5, 100)
    assert compare.main([parent, slower]) == 1
    assert "regressed" in capsys.readouterr().out
    recount = _run_file(tmp_path, "c.json", 1.0, 101)
    assert compare.main([parent, recount]) == 1
    failing = _run_file(tmp_path, "d.json", 1.0, 100, failed=1)
    assert compare.main([parent, failing]) == 1
    other_seed = _run_file(tmp_path, "e.json", 1.0, 100, seed=2)
    assert compare.main([parent, other_seed]) == 2
    assert compare.main([parent]) == 2
