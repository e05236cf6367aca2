"""CLI coverage for the ``campaign`` verb family, ``replay`` and the
``sweep --progress`` satellite."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_args(store, extra=()):
    return [
        "campaign", "run", "--store", str(store), "--name", "cli-camp",
        "--algorithm", "algorithm2", "--n", "4", "--values", "0.0,0.2",
        "--seeds", "2", "--max-time", "60",
        *extra,
    ]


@pytest.fixture()
def populated_store(tmp_path):
    store = tmp_path / "store"
    assert main(run_args(store)) == 0
    return store


class TestCampaignRunCli:
    def test_run_then_resume_reports_zero_executed(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(run_args(store)) == 0
        first = capsys.readouterr().out
        assert "0 cached, 4 executed" in first
        assert "configuration" in first  # the aggregate table rendered

        assert main(run_args(store, ["--resume"])) == 0
        second = capsys.readouterr().out
        assert "4 cached, 0 executed" in second
        # The aggregate tables of the fresh and resumed runs are identical.
        table = lambda text: text[text.index("configuration"):]  # noqa: E731
        assert table(first) == table(second)

    def test_reusing_a_name_without_resume_fails(self, capsys,
                                                 populated_store):
        assert main(run_args(populated_store)) == 2
        assert "resume" in capsys.readouterr().err

    def test_progress_prints_cell_lines(self, capsys, tmp_path):
        assert main(run_args(tmp_path / "store", ["--progress"])) == 0
        err = capsys.readouterr().err
        assert "1/4 cells completed" in err
        assert "4/4 cells completed" in err


class TestCampaignStatusQueryExportGc:
    def test_status_lists_and_details(self, capsys, populated_store):
        assert main(["campaign", "status", "--store",
                     str(populated_store)]) == 0
        listing = capsys.readouterr().out
        assert "cli-camp" in listing and "complete" in listing
        assert main(["campaign", "status", "--store", str(populated_store),
                     "cli-camp"]) == 0
        detail = capsys.readouterr().out
        assert "4/4 cells computed" in detail
        assert "loss=0.2" in detail

    def test_status_on_missing_store_fails_without_creating_it(
            self, capsys, tmp_path):
        missing = tmp_path / "nowhere"
        assert main(["campaign", "status", "--store", str(missing)]) == 2
        assert "no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_counterexamples_rejects_result_filters(self, capsys,
                                                    populated_store):
        assert main(["campaign", "query", "--store", str(populated_store),
                     "--counterexamples", "--algorithm", "algorithm2"]) == 2
        assert "--counterexamples" in capsys.readouterr().err

    def test_store_path_that_is_a_file_fails_cleanly(self, capsys, tmp_path):
        target = tmp_path / "storefile"
        target.write_text("x")
        assert main(run_args(target)) == 2
        assert "cannot use" in capsys.readouterr().err

    def test_query_filters_rows(self, capsys, populated_store):
        assert main(["campaign", "query", "--store", str(populated_store),
                     "--loss", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "2 row(s)" in output
        assert main(["campaign", "query", "--store", str(populated_store),
                     "--campaign", "cli-camp", "--group", "loss=0.0"]) == 0
        output = capsys.readouterr().out
        assert "2 row(s)" in output
        assert main(["campaign", "query", "--store", str(populated_store),
                     "--violations-only"]) == 0
        assert "0 row(s)" in capsys.readouterr().out

    def test_export_json_and_csv(self, capsys, populated_store, tmp_path):
        json_out = tmp_path / "campaign.json"
        assert main(["campaign", "export", "--store", str(populated_store),
                     "--campaign", "cli-camp", "--output",
                     str(json_out)]) == 0
        data = json.loads(json_out.read_text())
        assert data["experiment_id"] == "campaign:cli-camp"
        assert data["artifacts"][0]["headers"][0] == "configuration"

        csv_out = tmp_path / "campaign.csv"
        assert main(["campaign", "export", "--store", str(populated_store),
                     "--campaign", "cli-camp", "--output", str(csv_out)]) == 0
        assert csv_out.read_text().startswith("configuration,")

    def test_export_requires_exactly_one_target(self, capsys,
                                                populated_store, tmp_path):
        assert main(["campaign", "export", "--store", str(populated_store),
                     "--output", str(tmp_path / "x.json")]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_gc_reports_and_drop_campaign_frees_cells(self, capsys,
                                                      populated_store):
        assert main(["campaign", "gc", "--store", str(populated_store)]) == 0
        assert "dropped 0 unreferenced" in capsys.readouterr().out
        assert main(["campaign", "gc", "--store", str(populated_store),
                     "--drop-campaign", "cli-camp",
                     "--drop-unreferenced"]) == 0
        output = capsys.readouterr().out
        assert "dropped campaign 'cli-camp'" in output
        assert "dropped 4 unreferenced result(s)" in output


class TestDistributedCli:
    def test_serve_with_cli_worker_merges_and_reports(self, capsys, tmp_path):
        import threading

        workdir = tmp_path / "job"
        store = tmp_path / "merged"
        worker = threading.Thread(target=main, args=([
            "campaign", "work", "--workdir", str(workdir),
            "--worker-id", "cli-w0", "--poll-interval", "0.05",
            "--wait-for-job", "30",
        ],))
        worker.start()
        try:
            code = main([
                "campaign", "serve", "--store", str(store),
                "--workdir", str(workdir), "--name", "cli-dist",
                "--algorithm", "algorithm2", "--n", "4",
                "--values", "0.0,0.2", "--seeds", "2", "--max-time", "60",
                "--lease-timeout", "30", "--timeout", "120",
                "--poll-interval", "0.1",
            ])
        finally:
            worker.join(timeout=120)
        output = capsys.readouterr().out
        assert code == 0
        assert "4/4 cells completed" in output
        assert "4 cell(s) copied" in output
        assert "configuration" in output  # the aggregate table rendered
        assert "worker cli-w0: 4 cell(s) executed" in output

        # The merged store and the lease table agree in `status --workdir`.
        assert main(["campaign", "status", "--store", str(store),
                     "cli-dist", "--workdir", str(workdir)]) == 0
        status = capsys.readouterr().out
        assert "4/4 cells computed" in status
        assert "0 leased, 0 pending" in status

        # A plan against the merged store sees every cell as stored.
        assert main(["campaign", "plan", "--store", str(store),
                     "--algorithm", "algorithm2", "--n", "4",
                     "--values", "0.0,0.2", "--seeds", "2",
                     "--max-time", "60"]) == 0
        plan = capsys.readouterr().out
        assert "4 already stored" in plan
        assert "no workers needed" in plan

    def test_work_without_a_job_fails(self, capsys, tmp_path):
        assert main(["campaign", "work", "--workdir",
                     str(tmp_path / "absent")]) == 2
        assert "no distributed job" in capsys.readouterr().err

    def test_plan_without_store_uses_assumed_costs(self, capsys):
        assert main(["campaign", "plan", "--algorithm", "algorithm2",
                     "--n", "4", "--values", "0.0,0.2", "--seeds", "2",
                     "--max-time", "60"]) == 0
        output = capsys.readouterr().out
        assert "assumed" in output
        assert "suggested workers" in output

    def test_serve_names_failed_cells_and_exits_non_zero(
            self, capsys, tmp_path, monkeypatch):
        import threading

        from repro.campaigns.distributed import worker as worker_module

        def raises(scenario):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(worker_module, "run_scenario", raises)
        workdir = tmp_path / "job"
        worker = threading.Thread(target=main, args=([
            "campaign", "work", "--workdir", str(workdir),
            "--worker-id", "cli-w0", "--poll-interval", "0.05",
            "--wait-for-job", "30",
        ],))
        worker.start()
        try:
            code = main([
                "campaign", "serve", "--store", str(tmp_path / "merged"),
                "--workdir", str(workdir), "--name", "cli-fail",
                "--algorithm", "algorithm2", "--n", "4",
                "--values", "0.0,0.2", "--seeds", "1", "--max-time", "60",
                "--lease-timeout", "0.5", "--timeout", "60",
                "--poll-interval", "0.1",
            ])
        finally:
            worker.join(timeout=60)
        err = capsys.readouterr().err
        assert code == 1
        assert "2 cell(s) failed" in err
        assert "cell 0 (" in err and "cell 1 (" in err
        assert "cell exploded" in err


class TestStoreMergeCli:
    def test_merge_unions_stores_and_is_idempotent(self, capsys, tmp_path):
        a, b, dest = tmp_path / "a", tmp_path / "b", tmp_path / "dest"
        assert main(["campaign", "run", "--store", str(a), "--name", "ca",
                     "--n", "4", "--values", "0.0", "--seeds", "2",
                     "--max-time", "60"]) == 0
        assert main(["campaign", "run", "--store", str(b), "--name", "cb",
                     "--n", "4", "--values", "0.2", "--seeds", "2",
                     "--max-time", "60"]) == 0
        capsys.readouterr()
        assert main(["store", "merge", "--into", str(dest),
                     str(a), str(b)]) == 0
        assert "4 cell(s) copied" in capsys.readouterr().out
        assert main(["store", "merge", "--into", str(dest),
                     str(a), str(b)]) == 0
        assert "0 cell(s) copied, 4 already present" in \
            capsys.readouterr().out
        # Both campaign manifests travelled with their cells.
        assert main(["campaign", "status", "--store", str(dest)]) == 0
        listing = capsys.readouterr().out
        assert "ca" in listing and "cb" in listing

    def test_merge_missing_source_fails(self, capsys, tmp_path):
        assert main(["store", "merge", "--into", str(tmp_path / "dest"),
                     str(tmp_path / "absent")]) == 2
        assert "no result store" in capsys.readouterr().err


class TestReplayCli:
    @pytest.fixture()
    def artifact(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        code = main([
            "explore", "--algorithm", "algorithm1_noretx",
            "--strategy", "random_walk", "--budget", "25", "--n", "4",
            "--max-time", "60", "--artifacts", str(artifacts),
        ])
        assert code == 1  # violations found
        written = sorted(artifacts.glob("counterexample_*.json"))
        assert written
        return written[0]

    def test_replay_reproduces_the_recorded_violation(self, capsys, artifact):
        assert main(["replay", str(artifact)]) == 0
        output = capsys.readouterr().out
        assert "replayed shrunk trace" in output
        assert "violation reproduced" in output

    def test_replay_full_trace(self, capsys, artifact):
        assert main(["replay", str(artifact), "--full"]) == 0
        output = capsys.readouterr().out
        assert "replayed full trace" in output
        assert "violation reproduced" in output

    def test_missing_artifact_is_an_error(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "absent.json")]) == 2
        assert "no such artifact" in capsys.readouterr().err

    def test_tampered_artifact_detects_divergence(self, capsys, artifact,
                                                  tmp_path):
        data = json.loads(artifact.read_text())
        # Claim a violation set the replay cannot reproduce.
        data["signature"] = ["Uniform Integrity"]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert main(["replay", str(tampered)]) == 1
        assert "replay diverged" in capsys.readouterr().err


class TestExploreStoreIntegration:
    def test_explore_persists_counterexamples_into_the_store(
            self, capsys, tmp_path):
        store = tmp_path / "store"
        code = main([
            "explore", "--algorithm", "algorithm1_noretx",
            "--strategy", "random_walk", "--budget", "25", "--n", "4",
            "--max-time", "60", "--no-shrink", "--store", str(store),
        ])
        assert code == 1
        capsys.readouterr()
        assert main(["campaign", "query", "--store", str(store),
                     "--counterexamples"]) == 0
        output = capsys.readouterr().out
        assert "algorithm1_noretx" in output
        assert "random_walk" in output

    def test_stored_counterexample_exports_and_replays(self, capsys,
                                                       tmp_path):
        store = tmp_path / "store"
        code = main([
            "explore", "--algorithm", "algorithm1_noretx",
            "--strategy", "random_walk", "--budget", "25", "--n", "4",
            "--max-time", "60", "--store", str(store),
        ])
        assert code == 1
        capsys.readouterr()
        from repro.campaigns import ResultStore

        with ResultStore(store, create=False) as handle:
            schedule_hash = handle.counterexamples()[0].schedule_hash
        exported = tmp_path / "exported.json"
        assert main(["campaign", "export", "--store", str(store),
                     "--counterexample", schedule_hash,
                     "--output", str(exported)]) == 0
        capsys.readouterr()
        assert main(["replay", str(exported)]) == 0
        assert "violation reproduced" in capsys.readouterr().out


class TestSweepProgressCli:
    def test_sweep_progress_prints_completed_totals(self, capsys):
        code = main([
            "sweep", "--algorithm", "algorithm2", "--n", "4",
            "--values", "0.0,0.2", "--seeds", "1", "--max-time", "60",
            "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "1/2 runs completed" in captured.err
        assert "2/2 runs completed" in captured.err
