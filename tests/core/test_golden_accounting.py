"""Golden accounting pins for the default ladders.

The first pin replays a small fixed seeded stream (the E22 tiny trace: a
planted dense block plus a sparse periphery, inserted then deleted in
batches of 12) through a default :class:`CorenessDecomposition` and
:class:`DensityEstimator` sharing one cost model, and asserts the exact
model work, depth, counters and a digest of every per-batch answer.

The second pins the *per-batch* cost of a degree spike.  Totals alone
would not notice an amortizing optimization that defers rung work and
replays it later: the totals stay put while one batch pays for many.
The paper's bounds are worst-case per batch, so each spike batch's own
(work, depth) is pinned.

Any refactor of the dispatch path must leave these constants untouched;
a change here means the cost model or an answer moved.
"""

from __future__ import annotations

import hashlib

from repro.config import Constants
from repro.core import CorenessDecomposition, DensityEstimator
from repro.graphs import generators as gen
from repro.graphs import streams
from repro.instrument import CostModel

N, BLOCK, PERIPHERY, BATCH, SEED, EPS = 24, 6, 40, 12, 22, 0.35
CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)

ANSWERS_SHA256 = "b9c5daebef36a6489995dbd45d25f89ee207efb013d5da13d3a71e991b5339e9"

WORK, DEPTH = 9234655, 391099
COUNTERS = {
    "delete_batches": 110,
    "delete_bundles": 721,
    "drop_games": 1080,
    "drop_phases": 495,
    "insert_batches": 110,
    "insert_bundle_rounds": 1080,
    "push_games": 721,
    "push_phases": 1181,
    "reversals": 1441,
}

#: (work, depth) of each 16-edge star batch of the spike stream.
SPIKE_BATCHES = [
    (3085080, 126550),
    (2734439, 40835),
    (2719500, 39496),
    (2722693, 38151),
    (2211746, 36697),
]


def test_golden_accounting():
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.8, out_edges=PERIPHERY, seed=SEED)
    ops = streams.insert_then_delete(edges, BATCH, seed=SEED)
    cm = CostModel()
    core = CorenessDecomposition(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=SEED)
    dens = DensityEstimator(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=SEED)
    answers = []
    for op in ops:
        for st in (core, dens):
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
        answers.append((sorted(core.estimates().items()), dens.density_estimate()))
    assert cm.work == WORK
    assert cm.depth == DEPTH
    assert dict(cm.counters) == COUNTERS
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == ANSWERS_SHA256


def test_spike_batches_pay_their_own_cost():
    """A sparse prefix (max degree 3), then a 77-edge star in 16-edge batches.

    The prefix is a 200-cycle plus chords ``(i, i+100)`` for even ``i``,
    inserted 4 edges at a time; the star is ``(0, j)`` for ``j`` in
    ``2..199``, ``j != 100``.  Every rung runs on every batch, so the first
    star batch costs about what the later ones do.
    """
    n = 200
    prefix = [(i, (i + 1) % n) for i in range(n)]
    prefix += [(i, i + 100) for i in range(0, 100, 2)]
    star = [(0, j) for j in range(2, n) if j != 100][:77]
    cm = CostModel()
    core = CorenessDecomposition(n, cm=cm)
    for k in range(0, len(prefix), 4):
        core.insert_batch(prefix[k:k + 4])
    spikes = []
    for k in range(0, len(star), 16):
        work, depth = cm.work, cm.depth
        core.insert_batch(star[k:k + 16])
        spikes.append((cm.work - work, cm.depth - depth))
    assert spikes == SPIKE_BATCHES
