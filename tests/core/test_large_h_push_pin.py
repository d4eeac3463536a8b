"""Per-batch accounting pin for the deletion game at a large inner H.

The golden pin (``test_golden_accounting.py``) runs the default ladders at
small sizes, where H stays low and the token-pushing game's rank rounds
``1..H`` are mostly occupied.  Under Corollary 5.4 duplication the inner
H is large while out-degrees stay far below it, so most rank rounds of a
phase probe every active vertex and find nothing.  This pin drives a
K-duplicated structure with inner H = 64 through an insert-then-delete
stream and asserts each delete batch's own (work, depth) and the final
counters, so a change to how those empty rounds are charged (or skipped)
cannot hide inside unchanged totals.
"""

from __future__ import annotations

from repro.core import DuplicatedBalanced
from repro.graphs import generators as gen
from repro.graphs import streams
from repro.instrument import CostModel

INNER_H, K, N, BLOCK, PERIPHERY, BATCH, SEED = 64, 8, 24, 12, 30, 4, 5

WORK, DEPTH = 2739062, 1139942
COUNTERS = {
    "delete_batches": 22,
    "delete_bundles": 191,
    "drop_games": 298,
    "drop_phases": 177,
    "insert_batches": 22,
    "insert_bundle_rounds": 298,
    "push_games": 191,
    "push_phases": 375,
    "reversals": 475,
}

#: (work, depth) of each delete batch, in stream order.
DELETE_BATCHES = [
    (110490, 39600),
    (125170, 44925),
    (100675, 34950),
    (122445, 43585),
    (109505, 39290),
    (116220, 51610),
    (118125, 55645),
    (97310, 42210),
    (95550, 43170),
    (93435, 31690),
    (99005, 36270),
    (74305, 23740),
    (106510, 46765),
    (83080, 28350),
    (107195, 48195),
    (117485, 52140),
    (100595, 48185),
    (84090, 31585),
    (85745, 33645),
    (70495, 21390),
    (52400, 6535),
    (26200, 6535),
]


def test_large_h_delete_batches_pinned():
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.9, out_edges=PERIPHERY, seed=SEED)
    ops = streams.insert_then_delete(edges, BATCH, seed=SEED)
    cm = CostModel()
    d = DuplicatedBalanced(inner_H=INNER_H, K=K, cm=cm, n_hint=N)
    per_batch = []
    for op in ops:
        if op.kind == "insert":
            d.insert_batch(op.edges)
            continue
        before = cm.snapshot()
        d.delete_batch(op.edges)
        delta = cm.snapshot() - before
        per_batch.append((delta.work, delta.depth))
        d.check_invariants()
    assert per_batch == DELETE_BATCHES
    assert (cm.work, cm.depth) == (WORK, DEPTH)
    assert dict(cm.counters) == COUNTERS
    assert d.inner.num_arcs() == 0
