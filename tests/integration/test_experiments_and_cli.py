"""Integration tests for the experiment registry, the experiment modules
(run in quick mode) and the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main
from repro.experiments import registry
from repro.experiments.report import ExperimentResult


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        ids = registry.experiment_ids()
        assert ids == [f"E{k}" for k in range(1, 11)]

    def test_lookup_is_case_insensitive_and_tolerant(self):
        assert registry.get_experiment("e3").EXPERIMENT_ID == "E3"
        assert registry.get_experiment("3").EXPERIMENT_ID == "E3"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            registry.get_experiment("E99")

    def test_unknown_experiment_lists_the_valid_ids(self):
        with pytest.raises(KeyError, match="E1, E2, .*E10"):
            registry.get_experiment("E0")

    def test_run_experiment_calls_the_module_run(self, monkeypatch):
        module = registry.get_experiment("E4")
        calls = []
        monkeypatch.setattr(module, "run",
                            lambda **kwargs: calls.append(kwargs) or "ran")
        assert registry.run_experiment("e4", seeds=2, quick=True) == "ran"
        assert calls == [{"seeds": 2, "quick": True}]

    def test_entries_have_titles_and_modules(self):
        for experiment_id in registry.experiment_ids():
            module = registry.get_experiment(experiment_id)
            assert module.EXPERIMENT_ID == experiment_id
            assert module.TITLE
            assert module.__name__.startswith("repro.experiments.")


#: SHA-256 of what each experiment rendered (quick, one seed) while it still
#: ran its seeds through ``replicate``, per-seed loops or one suite per
#: series: declaring each as one suite moved no scenario, seed or digit.
RENDERED_BEFORE_SUITES = {
    "E1": "14dbc7e4515eafaf83aeeb18ca933f9459f6d368bccd52001b6f6cf5763bdc60",
    "E2": "711b74f9c0aee973cf08ddb88b4a7013f5b4302fdab0c6a1517e9682cc8c9c0f",
    "E3": "b2c8135770c71a9ff54df16cd002b740ac771c2e7fe2f215b80bb98337b727de",
    "E4": "9d9f5560b1c8001576affdd42dadf04615d7b5cfbd0f59758b4ae86702ca1278",
    "E5": "3fd2ffdc6cc96cdf73dd9765380b78af303a252d0778e11a5462db2221ac4261",
    "E6": "d61294b36851dd16b5131e7bddde16ffc6cb7e13082b2774a6660c51e3dbf778",
    "E7": "8a63c5c3801df559400425e50c773613106f5821ab7ca1f28330a9b66d08d7aa",
    "E8": "45ed88aa10f6c1cc9aaea0e22b9425aa8664a39649dc25be62373d1b122544d8",
    "E9": "b3c53f2f937b92485f4a99419dc028e7024ddb75f214bc8270ef5438ffb627b2",
    "E10": "0cbba2e3def0364fd45f0dab1f4993850557e95f7725fb3a4ac604f844b1743c",
}


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
class TestEveryExperimentQuick:
    def test_runs_and_renders(self, experiment_id):
        result = registry.run_experiment(experiment_id, quick=True, seeds=1)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert result.artifacts, "every experiment must produce artifacts"
        for artifact in result.artifacts:
            assert artifact.rows, f"{artifact.name} has no rows"
            assert len(artifact.headers) == len(artifact.rows[0])
        text = result.render()
        assert experiment_id in text
        assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
                == RENDERED_BEFORE_SUITES[experiment_id])


class TestExperimentExpectations:
    """Shape checks on the headline results (quick mode, single seed)."""

    def test_e1_every_configuration_satisfies_urb(self):
        result = registry.run_experiment("E1", quick=True)
        table = result.artifacts[0]
        runs = table.column("runs")
        for column in ("validity ok", "agreement ok", "integrity ok"):
            assert table.column(column) == runs

    def test_e3_algorithm1_sends_keep_growing_and_algorithm2_flattens(self):
        result = registry.run_experiment("E3", quick=True)
        figure = result.artifact("Figure 2 — cumulative sends over time")
        a1 = figure.column("algorithm1 cumulative sends")
        a2 = figure.column("algorithm2 cumulative sends")
        # Algorithm 1 keeps climbing over the last half of the run.
        assert a1[-1] > a1[len(a1) // 2] * 1.5
        # Algorithm 2 is flat over the last half of the run.
        assert a2[-1] == pytest.approx(a2[len(a2) // 2])

    def test_e6_sub_majority_violates_and_majority_blocks(self):
        result = registry.run_experiment("E6", quick=True)
        table = result.artifacts[0]
        violations = table.column("uniform agreement violations")
        blocked = table.column("runs blocked (no delivery)")
        assert violations[0] > 0          # sub-majority row
        assert violations[1] == 0         # proper-majority row
        assert blocked[1] > 0

    def test_e8_algorithm2_delivers_beyond_majority(self):
        result = registry.run_experiment("E8", quick=True)
        table = result.artifacts[0]
        rows = table.rows
        for row in rows:
            algorithm, k, has_majority = row[0], row[1], row[2]
            delivered = row[4]
            if algorithm == "algorithm2":
                assert delivered == row[3]
            if algorithm == "algorithm1" and not has_majority:
                assert delivered == 0

    def test_run_all_subset(self):
        results = registry.run_all(quick=True, seeds=1, ids=["E6", "E9"])
        assert [r.experiment_id for r in results] == ["E6", "E9"]


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E3", "--quick"])
        assert args.command == "run"
        assert args.experiment == "E3"
        assert args.quick

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_run_command_prints_tables(self, capsys):
        assert main(["run", "E6", "--quick", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_run_command_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["run", "E6", "--quick", "--seeds", "1",
                     "--output", str(target)]) == 0
        capsys.readouterr()
        assert "Table 2" in target.read_text()

    def test_demo_command_success(self, capsys):
        code = main(["demo", "--algorithm", "algorithm2", "--n", "4",
                     "--loss", "0.2", "--crashes", "1", "--max-time", "80"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Validity: OK" in out

    def test_demo_command_rejects_all_crashed(self, capsys):
        code = main(["demo", "--n", "3", "--crashes", "3"])
        assert code == 2

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401
