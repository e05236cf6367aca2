"""CLI coverage for the observability opt-ins and the ``obs`` verbs:
``--metrics-out`` / ``--timeline-out`` / ``--metrics-port`` on executing
commands, ``obs snapshot`` rendering and ``obs check`` alert gating."""

from __future__ import annotations

import json
from urllib.request import urlopen

import pytest

from repro import obs
from repro.cli import main


@pytest.fixture(autouse=True)
def clean_registry():
    """CLI runs enable the process-wide registry; isolate every test."""
    obs.reset()
    yield
    obs.reset()
    obs.set_timeline(None)


def demo_args(extra=()):
    return ["demo", "--n", "4", "--loss", "0.1", "--crashes", "1",
            "--max-time", "60", *extra]


class TestMetricsOut:
    def test_demo_writes_snapshot_at_exit(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(demo_args(["--metrics-out", str(out)])) == 0
        assert "metrics snapshot written" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["snapshot_version"] == 1
        runs = data["metrics"]["repro_sim_runs_total"]["samples"]
        assert sum(sample["value"] for sample in runs) == 1

    def test_sweep_snapshot_counts_batch_cells(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["sweep", "--n", "4", "--values", "0.0,0.2",
                     "--seeds", "2", "--max-time", "60",
                     "--metrics-out", str(out)]) == 0
        data = json.loads(out.read_text())
        (sample,) = [
            s for s in data["metrics"]["repro_batch_cells_total"]["samples"]
            if s["labels"] == {"status": "ok"}]
        assert sample["value"] == 4

    def test_campaign_run_snapshot_includes_store_metrics(self, tmp_path):
        out = tmp_path / "metrics.json"
        assert main(["campaign", "run", "--store", str(tmp_path / "store"),
                     "--n", "4", "--values", "0.0", "--seeds", "2",
                     "--max-time", "60", "--metrics-out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert "repro_store_puts_total" in metrics
        assert "repro_campaign_cells_total" in metrics

    def test_without_obs_flags_registry_stays_disabled(self):
        assert main(demo_args()) == 0
        assert not obs.enabled()
        assert obs.REGISTRY.get("repro_sim_runs_total") is None


class TestTimelineOut:
    def test_campaign_run_emits_phases_and_store_traffic(self, tmp_path):
        timeline = tmp_path / "run.jsonl"
        assert main(["campaign", "run", "--store", str(tmp_path / "store"),
                     "--n", "4", "--values", "0.0", "--seeds", "2",
                     "--max-time", "60", "--timeline-out",
                     str(timeline)]) == 0
        events = [json.loads(line)
                  for line in timeline.read_text().splitlines()]
        kinds = {event["kind"] for event in events}
        assert {"phase", "store.miss", "store.put"} <= kinds
        phases = {event["name"] for event in events
                  if event["kind"] == "phase"}
        assert {"expand", "execute", "persist"} <= phases


class TestMetricsPort:
    def test_demo_serves_metrics_while_running(self, tmp_path, capsys):
        # Port 0 binds an ephemeral port, reported on stderr; the server
        # is gone once main() returns, so scrape the final snapshot file
        # and assert the announcement instead of racing the run.
        out = tmp_path / "metrics.json"
        assert main(demo_args(["--metrics-port", "0",
                               "--metrics-out", str(out)])) == 0
        err = capsys.readouterr().err
        assert "obs: serving http://127.0.0.1:" in err
        assert out.exists()

    def test_live_scrape_of_a_standing_server(self):
        obs.enable()
        obs.counter("repro_sim_runs_total", "Completed simulation runs.",
                    ("engine", "dispatch_mode")).inc(
            engine="reference", dispatch_mode="per-event")
        with obs.ObsServer(port=0) as server:
            with urlopen(f"http://127.0.0.1:{server.port}/metrics",
                         timeout=5.0) as response:
                body = response.read().decode("utf-8")
        assert "repro_sim_runs_total" in body


class TestObsVerbs:
    def _write_snapshot(self, tmp_path, reclaims=0):
        obs.enable()
        obs.counter("repro_lease_reclaims_total",
                    "Reclaims.").inc(reclaims)
        path = tmp_path / "snapshot.json"
        path.write_text(obs.render_json() + "\n")
        obs.reset()
        return path

    def test_snapshot_renders_table_from_file(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, reclaims=3)
        assert main(["obs", "snapshot", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_lease_reclaims_total" in out
        assert "Metrics snapshot" in out

    def test_snapshot_raw_prints_json(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path)
        assert main(["obs", "snapshot", "--file", str(path), "--raw"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["snapshot_version"] == 1

    def test_snapshot_from_live_url(self, tmp_path, capsys):
        obs.enable()
        obs.gauge("repro_lease_workers_active", "Workers.").set(2)
        with obs.ObsServer(port=0) as server:
            code = main(["obs", "snapshot",
                         "--url", f"http://127.0.0.1:{server.port}"])
        assert code == 0
        assert "repro_lease_workers_active" in capsys.readouterr().out

    def test_snapshot_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "snapshot", "--file",
                     str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_passes_quiet_snapshot(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, reclaims=0)
        assert main(["obs", "check", str(path)]) == 0
        assert "0 of 5 rule(s) firing" in capsys.readouterr().out

    def test_check_fires_on_reclaim_storm(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, reclaims=100)
        assert main(["obs", "check", str(path)]) == 1
        assert "FIRING" in capsys.readouterr().out

    def test_check_with_custom_rules(self, tmp_path, capsys):
        path = self._write_snapshot(tmp_path, reclaims=1)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{
            "name": "any-reclaim", "metric": "repro_lease_reclaims_total",
            "op": ">", "threshold": 0}]))
        assert main(["obs", "check", str(path),
                     "--rules", str(rules)]) == 1
        assert "any-reclaim" in capsys.readouterr().out


class TestWatchRates:
    def test_status_watch_completes_and_prints_rate(self, tmp_path,
                                                    capsys):
        store = tmp_path / "store"
        assert main(["campaign", "run", "--store", str(store),
                     "--name", "watched", "--n", "4", "--values", "0.0",
                     "--seeds", "2", "--max-time", "60"]) == 0
        capsys.readouterr()
        # The campaign is already complete: --watch prints one status,
        # one rate line, and returns immediately.
        assert main(["campaign", "status", "--store", str(store),
                     "watched", "--watch", "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "rate:" not in out or "cells/s" in out
