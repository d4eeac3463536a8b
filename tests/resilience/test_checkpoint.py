"""Ladder-wide checkpoints: exact roundtrip, validation of bad payloads."""

import json

import pytest

from repro.core.balanced import BalancedOrientation
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.errors import BatchError
from repro.resilience import checkpoint as cp
from repro.resilience.guard import capture

EDGES = [
    (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3),
    (3, 4), (2, 4), (4, 5), (0, 5), (1, 5), (2, 5),
]


def _ladder(cls):
    st = cls(12, eps=0.35, seed=4)
    st.insert_batch(EDGES[:8])
    st.delete_batch(EDGES[2:5])
    return st


def _malformed(target, mutate):
    """A payload whose balanced state (``target="balanced"``) or busiest
    coreness rung state (``target="rung"``) went through ``mutate``."""
    if target == "balanced":
        st = BalancedOrientation(3)
        st.insert_batch(EDGES[:8])
        return mutate(cp.checkpoint(st))
    payload = cp.checkpoint(_ladder(CorenessDecomposition))
    rung = max(payload["rungs"], key=lambda r: len(r["inner"]["arcs"]))
    assert rung["inner"]["arcs"]
    rung["inner"] = mutate(rung["inner"])
    return payload


def _without(state, key):
    return {k: v for k, v in state.items() if k != key}


def _arc0(state, field, value):
    arc = list(state["arcs"][0])
    arc[field] = value
    return {**state, "arcs": [arc, *state["arcs"][1:]]}


def _level0(state, value):
    v = next(iter(state["levels"]))
    return {**state, "levels": {**state["levels"], v: value(state["levels"][v])}}


# (id, mutation of one orientation state, expected BatchError message).
# The string/float/bool perturbations keep int() of the field unchanged,
# so a loose int() parse would accept them silently.
MALFORMED = [
    ("not-a-mapping", lambda s: [1, 2, 3], "must be a mapping"),
    ("missing-arcs", lambda s: _without(s, "arcs"), "missing key 'arcs'"),
    ("missing-levels", lambda s: _without(s, "levels"), "missing key 'levels'"),
    ("bad-arc-shape", lambda s: {**s, "arcs": [[0, 1]]}, "arc #0 must be"),
    ("non-integer-arc-field", lambda s: _arc0(s, 1, "x"), "arc #0 field"),
    ("string-arc-field", lambda s: _arc0(s, 0, str(s["arcs"][0][0])), "arc #0 field"),
    ("float-arc-field", lambda s: _arc0(s, 0, s["arcs"][0][0] + 0.4), "arc #0 field"),
    ("bool-arc-field", lambda s: _arc0(s, 2, False), "arc #0 field"),
    ("self-loop", lambda s: _arc0(s, 1, s["arcs"][0][0]), "self-loop"),
    ("repeated-arc", lambda s: {**s, "arcs": [*s["arcs"], s["arcs"][0]]}, "repeats arc"),
    ("bad-levels-shape", lambda s: {**s, "levels": [1, 2]}, "'levels' must be"),
    ("fractional-level", lambda s: _level0(s, lambda lvl: lvl + 0.7), "level of"),
    ("bool-level", lambda s: _level0(s, lambda lvl: True), "level of"),
]


@pytest.mark.parametrize("cls", [CorenessDecomposition, DensityEstimator])
class TestLadderRoundtrip:
    def test_roundtrip_is_canonical(self, cls):
        st = _ladder(cls)
        restored = cp.from_json(cp.to_json(st))
        assert cp.checkpoint(st) == cp.checkpoint(restored)
        restored.check_invariants()

    def test_restored_structure_keeps_answering(self, cls):
        st = _ladder(cls)
        restored = cp.from_json(cp.to_json(st))
        st.insert_batch(EDGES[8:])
        restored.insert_batch(EDGES[8:])
        assert cp.checkpoint(st) == cp.checkpoint(restored)
        if cls is CorenessDecomposition:
            assert st.estimates() == restored.estimates()
        else:
            assert st.density_estimate() == restored.density_estimate()
            assert st.max_outdegree() == restored.max_outdegree()

    def test_payload_is_json_plain(self, cls):
        payload = cp.checkpoint(_ladder(cls))
        assert json.loads(json.dumps(payload)) == payload


def test_balanced_roundtrip():
    st = BalancedOrientation(3)
    st.insert_batch(EDGES[:8])
    restored = cp.from_json(cp.to_json(st))
    assert capture(st)["tail_of"] == capture(restored)["tail_of"]
    assert restored.H == st.H


class TestValidation:
    def test_not_json(self):
        with pytest.raises(BatchError, match="not valid JSON"):
            cp.from_json("{truncated")

    def test_not_a_mapping(self):
        with pytest.raises(BatchError, match="must be a mapping"):
            cp.restore_checkpoint([1, 2, 3])

    def test_unknown_type(self):
        with pytest.raises(BatchError, match="unknown checkpoint type"):
            cp.restore_checkpoint({"type": "mystery"})

    def test_missing_keys(self):
        with pytest.raises(BatchError, match="missing key"):
            cp.restore_checkpoint({"type": "coreness", "n": 5})

    def test_bad_constants(self):
        payload = cp.checkpoint(_ladder(CorenessDecomposition))
        payload["constants"] = {"no_such_field": 1}
        with pytest.raises(BatchError, match="constants are malformed"):
            cp.restore_checkpoint(payload)

    def test_rung_count_mismatch(self):
        payload = cp.checkpoint(_ladder(CorenessDecomposition))
        payload["rungs"] = payload["rungs"][:-1]
        with pytest.raises(BatchError, match="rungs"):
            cp.restore_checkpoint(payload)

    @pytest.mark.parametrize(
        "target, mutate, match",
        [
            pytest.param(target, mutate, match, id=f"{target}-{name}")
            for name, mutate, match in MALFORMED
            for target in ("balanced", "rung")
        ]
        + [
            pytest.param(
                "balanced",
                lambda s: {**s, "H": "tall"},
                "H must be an integer",
                id="balanced-non-integer-h",
            )
        ],
    )
    def test_malformed(self, target, mutate, match):
        with pytest.raises(BatchError, match=match):
            cp.restore_checkpoint(_malformed(target, mutate))

    def test_cannot_checkpoint_unknown(self):
        with pytest.raises(BatchError, match="cannot checkpoint"):
            cp.checkpoint(object())

    def test_bucket_regime_roundtrip_and_bad_index(self):
        from repro.config import Constants

        cheap = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
        st = DensityEstimator(40, eps=0.5, seed=4, constants=cheap)
        assert any(r.regime == "buckets" for r in st.rungs)
        st.insert_batch(EDGES)
        restored = cp.restore_checkpoint(cp.checkpoint(st))
        assert cp.checkpoint(st) == cp.checkpoint(restored)
        payload = cp.checkpoint(st)
        for rung_state in payload["rungs"]:
            if "buckets" in rung_state:
                rung_state["buckets"]["999999"] = {"arcs": [], "levels": {}}
                with pytest.raises(BatchError, match="outside"):
                    cp.restore_checkpoint(payload)
                return
        raise AssertionError("no bucket-regime rung found")
