"""Golden accounting pin for the default ladders.

Replays a small fixed seeded stream (the E22 tiny trace: a planted dense
block plus a sparse periphery, inserted then deleted in batches of 12)
through a default :class:`CorenessDecomposition` and
:class:`DensityEstimator` sharing one cost model, and asserts the exact
model work, depth, counters and a digest of every per-batch answer.

Any refactor of the dispatch path must leave these constants untouched;
a change here means the cost model or an answer moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import Constants
from repro.core import CorenessDecomposition, DensityEstimator
from repro.graphs import generators as gen
from repro.graphs import streams
from repro.instrument import CostModel

N, BLOCK, PERIPHERY, BATCH, SEED, EPS = 24, 6, 40, 12, 22, 0.35
CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)

ANSWERS_SHA256 = "b9c5daebef36a6489995dbd45d25f89ee207efb013d5da13d3a71e991b5339e9"

GOLDEN = {
    "default": (
        {},
        9234655,
        391099,
        {
            "delete_batches": 110,
            "delete_bundles": 721,
            "drop_games": 1080,
            "drop_phases": 495,
            "insert_batches": 110,
            "insert_bundle_rounds": 1080,
            "push_games": 721,
            "push_phases": 1181,
            "reversals": 1441,
        },
    ),
    "rung_skip": (
        {"rung_skip": True},
        4916091,
        335669,
        {
            "delete_batches": 60,
            "delete_bundles": 501,
            "drop_games": 745,
            "drop_phases": 345,
            "insert_batches": 60,
            "insert_bundle_rounds": 745,
            "ladder_rungs_skipped": 100,
            "push_games": 501,
            "push_phases": 838,
            "reversals": 1021,
        },
    ),
}


def _replay(**kwargs):
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.8, out_edges=PERIPHERY, seed=SEED)
    ops = streams.insert_then_delete(edges, BATCH, seed=SEED)
    cm = CostModel()
    core = CorenessDecomposition(
        N, eps=EPS, cm=cm, constants=CONSTANTS, seed=SEED, **kwargs
    )
    dens = DensityEstimator(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=SEED, **kwargs)
    answers = []
    for op in ops:
        for st in (core, dens):
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
        answers.append((sorted(core.estimates().items()), dens.density_estimate()))
    return cm, hashlib.sha256(repr(answers).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_accounting(name):
    kwargs, work, depth, counters = GOLDEN[name]
    cm, digest = _replay(**kwargs)
    assert cm.work == work
    assert cm.depth == depth
    assert dict(cm.counters) == counters
    assert digest == ANSWERS_SHA256
