"""Payloads written while the storage layout was selectable still load.

Until the per-edge treap layout was removed, checkpoints, snapshots and
differential-harness artifacts recorded a ``"substrate"`` key (``"treap"``
by default).  Existing service data directories and verify artifacts
carry that key, so restore and replay must ignore it rather than reject
it.  The fixture under ``fixtures/pre_flat/`` was written by that older
code, together with what it answered and charged when it read the same
files back (``expected.json``); the current code must reproduce both
exactly.
"""

import json
import pathlib
import shutil

from repro.resilience.checkpoint import from_json as snapshot_from_json
from repro.instrument.work_depth import CostModel
from repro.resilience.checkpoint import restore_checkpoint
from repro.service.state import TenantConfig, TenantShard
from repro.verify.artifact import read_artifact, replay_artifact
from repro.verify.differential import RunnerConfig

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "pre_flat"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text())
TENANT_CONFIG = TenantConfig(n=20, eps=0.8, seed=3, mode="both")


def _answers(snap):
    return {
        "epoch": snap.epoch,
        "live_edges": snap.live_edges,
        "coreness": {str(v): c for v, c in sorted(snap.coreness.items())},
        "max_coreness": snap.max_coreness,
        "density": snap.density,
        "arboricity": snap.arboricity,
        "max_outdegree": snap.max_outdegree,
        "out_neighbors": {str(v): list(nb) for v, nb in snap.out_neighbors.items()},
    }


def test_fixture_carries_the_old_key():
    checkpoint = json.loads((FIXTURE / "tenant" / "checkpoint.json").read_text())
    for payload in checkpoint["structures"].values():
        assert payload["substrate"] == "treap"
    assert json.loads((FIXTURE / "balanced_snapshot.json").read_text())["substrate"] == "treap"


def test_tenant_directory_reopens_identically(tmp_path):
    """Checkpoint restore plus WAL-suffix replay of an old tenant."""
    directory = tmp_path / "legacy"
    shutil.copytree(FIXTURE / "tenant", directory)
    shard = TenantShard("legacy", directory, TENANT_CONFIG, checkpoint_every=4)
    try:
        assert _answers(shard.snapshot) == EXPECTED["tenant"]["answers"]
        assert (shard.cm.work, shard.cm.depth) == (
            EXPECTED["tenant"]["work"],
            EXPECTED["tenant"]["depth"],
        )
    finally:
        shard.close(seal=False)


def test_checkpoint_payloads_restore_identically():
    checkpoint = json.loads((FIXTURE / "tenant" / "checkpoint.json").read_text())
    for kind, payload in checkpoint["structures"].items():
        expected = EXPECTED["checkpoint_structures"][kind]
        cm = CostModel()
        st = restore_checkpoint(payload, cm=cm)
        assert (cm.work, cm.depth) == (expected["work"], expected["depth"])
        if kind == "coreness":
            estimates = {str(v): c for v, c in sorted(st.estimates().items())}
            assert estimates == expected["estimates"]
        else:
            assert st.density_estimate() == expected["density"]
            assert st.max_outdegree() == expected["max_outdegree"]


def test_balanced_snapshot_restores_identically():
    cm = CostModel()
    st = snapshot_from_json((FIXTURE / "balanced_snapshot.json").read_text(), cm=cm)
    expected = EXPECTED["balanced_snapshot"]
    assert (cm.work, cm.depth) == (expected["work"], expected["depth"])
    assert sorted(list(a) for a in st.arcs()) == expected["arcs"]
    assert {str(v): lvl for v, lvl in sorted(st.level.items())} == expected["levels"]


def test_diff_artifact_replays_green():
    """The old panel, ``flat`` and ``rung-skip`` members included, replays
    without divergence."""
    configs = read_artifact(FIXTURE / "diff_artifact.json")["configs"]
    assert {c["substrate"] for c in configs} == {"treap", "flat"}
    assert [c["name"] for c in configs if c["rung_skip"]] == ["rung-skip"]
    assert [RunnerConfig.from_dict(c).name for c in configs] == [
        "serial",
        "telemetry",
        "flat",
        "rung-skip",
        "chaos-recovered",
    ]
    reproduced, report = replay_artifact(FIXTURE / "diff_artifact.json")
    assert not reproduced, report
    assert report.startswith("differential replay [GREEN]")
    assert "cost[rung-skip]" in report
