"""Each experiment E1–E10 is one suite run once, and its cells hash.

An experiment declares every cell in one ``ScenarioSuite`` and runs it with
one ``BatchRunner`` pass.  Every cell has a campaign content address and
rebuilds from its canonical form, so a later change can move the
experiments onto the result store without touching a scenario.
"""

import hashlib

import pytest

import repro
import repro.experiments
from repro.campaigns.hashing import scenario_cell_key
from repro.cli import main
from repro.experiments import registry
from repro.experiments.batch import BatchRunner
from repro.experiments.config import Scenario
from repro.experiments.runner import build_workload
from repro.explore.serialize import scenario_from_dict, scenario_to_dict
from repro.simulation.rng import RandomSource
from repro.workloads.generators import SingleBroadcast, UniformStream


@pytest.fixture
def passes(monkeypatch):
    """The items of every ``BatchRunner.run`` call, one tuple per pass."""
    recorded = []
    original = BatchRunner.run

    def spy(self, suite):
        result = original(self, suite)
        recorded.append(result.items)
        return result

    monkeypatch.setattr(BatchRunner, "run", spy)
    return recorded


#: SHA-256 (16 hex) of each experiment's sorted quick cell keys: a change to
#: the canonical form that re-keys a stored cell fails here.
CELL_KEY_DIGESTS = {
    "E1": "de4b1ac64436fd1b",
    "E2": "1a0d1a971f8317b7",
    "E3": "7f7d1b76e415bbe1",
    "E4": "1cfb9294843fb5f6",
    "E5": "1b86f9625b7a3892",
    "E6": "c45f0d3a15f3603c",
    "E7": "8c022537a245c29d",
    "E8": "87952b4ed47fd48b",
    "E9": "bffa45373d198d46",
    "E10": "fd6b394e48899408",
}


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
def test_one_pass_per_experiment(experiment_id, passes):
    registry.run_experiment(experiment_id, quick=True, seeds=1)
    assert len(passes) == 1
    cells = [item.scenario for item in passes[0]]
    assert cells
    keys = [scenario_cell_key(scenario) for scenario in cells]
    assert len(set(keys)) == len(keys)
    digest = hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()
    assert digest[:16] == CELL_KEY_DIGESTS[experiment_id]
    for scenario in cells:
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


@pytest.mark.parametrize("preset, inline", [
    ("two_senders", UniformStream(2, senders=(0, 1), interval=1.0)),
    (None, SingleBroadcast(sender=0, time=0.0)),
])
def test_presets_match_the_inline_workloads_they_replace(preset, inline):
    for seed in range(3):
        scenario = Scenario(workload=preset, n_processes=5, seed=seed)
        built = build_workload(scenario, RandomSource(seed))
        assert list(built) == list(inline)


@pytest.mark.parametrize("experiment_id", registry.experiment_ids())
def test_every_group_runs_each_seed_once(experiment_id, passes):
    """With ``seeds=2`` each group holds two runs of one configuration, at
    its base seed and the next (E6 and E9 at seeds 0 and 1, as they
    always ran)."""
    registry.run_experiment(experiment_id, quick=True, seeds=2)
    groups = {}
    for item in passes[0]:
        groups.setdefault(item.group, []).append(item.scenario)
    for scenarios in groups.values():
        first, second = scenarios
        assert second.seed == first.seed + 1
        assert second.with_seed(first.seed) == first


def test_e10_rows_are_its_groups_in_declaration_order(passes):
    result = registry.run_experiment("E10", quick=True, seeds=1)
    groups = list(dict.fromkeys(item.group for item in passes[0]))
    assert result.artifacts[0].column("ablation") == groups


def test_components_lists_the_two_senders_preset(capsys):
    assert main(["components"]) == 0
    assert "two_senders" in capsys.readouterr().out


@pytest.mark.parametrize("module", [repro, repro.experiments])
def test_one_way_to_run_many_scenarios(module):
    for name in ("replicate", "run_scenarios"):
        assert not hasattr(module, name)
    assert not hasattr(repro.experiments.SuiteResult, "group_stats")
