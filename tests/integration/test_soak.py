"""Soak tests: larger instances, longer streams, full invariant audits.

These run at the top of the scale budgeted for CI (~10s total); they are
the closest thing to the paper's "polynomial-length run" setting.
"""

import random

from repro.core import BalancedOrientation
from repro.config import Constants
from repro.graphs import DynamicGraph, generators as gen, streams
from repro.verify import audit_orientation, replay_audit


SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def test_soak_large_ba_graph_lifecycle():
    n, edges = gen.barabasi_albert(400, 3, seed=60)
    st = BalancedOrientation(H=6)
    g = DynamicGraph(n)
    for i in range(0, len(edges), 120):
        batch = edges[i : i + 120]
        st.insert_batch(batch)
        g.insert_batch(batch)
    assert audit_orientation(st, g).ok
    doomed = list(edges)
    random.Random(61).shuffle(doomed)
    for i in range(0, len(doomed), 150):
        batch = doomed[i : i + 150]
        st.delete_batch(batch)
        g.delete_batch(batch)
    assert audit_orientation(st, g).ok
    assert st.num_arcs() == 0


def test_soak_long_churn_replay_audit():
    ops = streams.churn(120, steps=150, batch_size=15, seed=62)
    report = replay_audit(ops, H=5, constants=SMALL, audit_every=10)
    assert report.ok, report.render()


def test_soak_rmat_with_low_h():
    n, edges = gen.rmat(8, 500, seed=63)
    st = BalancedOrientation(H=3)
    for i in range(0, len(edges), 100):
        st.insert_batch(edges[i : i + 100])
    st.check_invariants()
    st.delete_batch(edges[: len(edges) // 2])
    st.check_invariants()


def test_soak_sawtooth_marathon():
    st = BalancedOrientation(H=4)
    for op in streams.sawtooth_clique(8, repeats=10, small_batch=3):
        if op.kind == "insert":
            st.insert_batch(op.edges)
        else:
            st.delete_batch(op.edges)
    st.check_invariants()
    assert st.num_arcs() == 0
