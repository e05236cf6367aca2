"""Integration tests for repository-level artefacts: the EXPERIMENTS.md
generator script and the presence/consistency of the documentation files."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
WALL_CLOCK = re.compile(r"\(wall-clock [0-9.]+s\)")


class TestGenerateExperimentsScript:
    def test_default_run_reproduces_committed_report(self, tmp_path):
        """A default-seed regeneration matches ``EXPERIMENTS.md`` byte for
        byte, each ``(wall-clock …s)`` masked."""
        output = tmp_path / "EXPERIMENTS.md"
        completed = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "scripts" / "generate_experiments_md.py"),
                "--output", str(output),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr

        def masked(text: str) -> str:
            return WALL_CLOCK.sub("(wall-clock …s)", text)

        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert masked(output.read_text(encoding="utf-8")) == masked(committed)


class TestDocumentationFiles:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / name).exists(), f"{name} is missing"

    def test_design_lists_every_experiment(self):
        design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for experiment_id in (f"E{k}" for k in range(1, 11)):
            assert re.search(rf"\b{experiment_id}\b", design), (
                f"DESIGN.md does not mention experiment {experiment_id}"
            )

    def test_experiments_md_contains_measured_tables(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert "Table 1" in experiments
        assert "Figure 2" in experiments
        assert "```text" in experiments

    def test_readme_mentions_examples_that_exist(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for example in (REPO_ROOT / "examples").glob("*.py"):
            assert example.name in readme, (
                f"README.md does not mention examples/{example.name}"
            )

    def test_every_example_is_runnable_python(self):
        for example in EXAMPLES:
            source = example.read_text(encoding="utf-8")
            compile(source, str(example), "exec")
            assert '__main__' in source

    @pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
    def test_example_runs_to_exit_zero(self, example):
        """Each example runs to exit 0 as its docstring says to run it."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        completed = subprocess.run(
            [sys.executable, str(example)], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, (
            f"examples/{example.name} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
