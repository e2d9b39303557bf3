"""``repro-experiment list`` — the scenario-matrix listing.

The listing is generated from the conformance registry and the
defence/detection registries at call time, so this suite is the guard
that the CLI, the matrix, and the registries stay one source of truth
(a scenario or defence added to the code shows up here without a docs
edit).
"""

import pytest

from repro.baselines.registry import DEFENCES, EXTRA_DEFENCES
from repro.detection import DETECTORS, RESPONSES
from repro.experiments import cli


@pytest.fixture(scope="module")
def listing() -> str:
    return cli.scenario_matrix_text()


def test_list_command_prints_matrix(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "conformance scenario matrix" in out


def test_matrix_names_every_scenario_family(listing):
    scenarios = cli._load_conformance_scenarios()
    assert scenarios is not None
    attack_names = (
        set(scenarios.SCENARIOS)
        - set(scenarios.DETECTION_SCENARIOS)
        - set(scenarios.STORAGE_SCENARIOS)
    )
    for family in {name.rpartition("__")[0] for name in attack_names}:
        assert family in listing
    assert f"{len(scenarios.SCENARIOS)} pinned scenarios" in listing


def test_matrix_lists_detection_scenarios_as_pairings(listing):
    """detect__* names are detector x response pairings, not
    attack x defence cells — they must appear in their own block, by
    full name, not as bogus matrix rows with empty defence columns."""
    scenarios = cli._load_conformance_scenarios()
    for name in scenarios.DETECTION_SCENARIOS:
        assert name in listing
    matrix_block = listing.split("detection scenarios")[0]
    assert "detect__" not in matrix_block


def test_matrix_lists_storage_scenarios_in_their_own_block(listing):
    """lsm__* names are standalone-filter workloads — their own block
    after the detection pairings, never matrix rows."""
    scenarios = cli._load_conformance_scenarios()
    for name in scenarios.STORAGE_SCENARIOS:
        assert name in listing
    matrix_block = listing.split("detection scenarios")[0]
    assert "lsm__" not in matrix_block


def test_matrix_names_registries_and_experiments(listing):
    for defence in (*DEFENCES, *EXTRA_DEFENCES):
        assert defence in listing
    for name in DETECTORS:
        assert name in listing
    for name in RESPONSES:
        assert name in listing
    for experiment in cli.EXPERIMENTS:
        assert experiment in listing


def test_experiment_argument_still_required_without_list(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
