"""Chaos soak: seeded trials recover and audit green; runs are reproducible."""

import pytest

from repro.config import Constants
from repro.errors import ParameterError
from repro.resilience.chaos import chaos_soak, render_soak_summary
from repro.scenarios import ScenarioParams

CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def test_balanced_soak_is_green():
    report = chaos_soak(
        "balanced",
        trials=4,
        seed=3,
        faults_per_trial=3,
        params=ScenarioParams(n=18, batches=12, batch_size=5),
        constants=CONSTANTS,
    )
    assert report.ok, report.render()
    assert report.trials == 4
    assert report.faults_fired > 0
    assert report.stats.batches == report.batches


@pytest.mark.parametrize("structure", ["coreness", "density"])
def test_ladder_soak_is_green(structure):
    report = chaos_soak(
        structure,
        trials=2,
        seed=5,
        faults_per_trial=2,
        params=ScenarioParams(n=16, batches=10, batch_size=4),
        constants=CONSTANTS,
    )
    assert report.ok, report.render()
    assert report.faults_fired > 0


def test_soak_is_deterministic():
    kwargs = dict(
        trials=3,
        seed=11,
        faults_per_trial=2,
        params=ScenarioParams(n=16, batches=10, batch_size=4),
        constants=CONSTANTS,
    )
    a = chaos_soak("balanced", **kwargs)
    b = chaos_soak("balanced", **kwargs)
    assert a.stats.counts == b.stats.counts
    assert a.faults_fired == b.faults_fired
    assert a.findings == b.findings


def test_unknown_structure_rejected():
    with pytest.raises(ParameterError, match="unknown structure"):
        chaos_soak("btree", trials=1, constants=CONSTANTS)


def test_summary_renders():
    report = chaos_soak(
        "balanced",
        trials=1,
        seed=0,
        params=ScenarioParams(n=12, batches=6, batch_size=4),
        constants=CONSTANTS,
    )
    table = render_soak_summary([report])
    assert "balanced" in table and "verdict" in table
