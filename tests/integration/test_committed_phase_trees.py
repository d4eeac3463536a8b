"""The committed E21 phase tree, node for node.

``BENCH_e21_phase_breakdown.json`` records, for every span path of the E21
stream (a mixed insert/delete stream through the default coreness ladder),
the work attributed to that path, its self work and its span count.  The
golden pin checks model totals only, so a charge that moves from one phase
to another -- say from ``game.push.ranks`` to ``game.push.phase`` -- keeps
it green.  This test replays E21's full-size stream under the tracer and
asserts every path's ``work``, ``self_work`` and ``count`` against the
committed file, so such a move fails here.  Walls are not compared.
"""

from __future__ import annotations

import json
import pathlib

from repro.config import Constants
from repro.core import CorenessDecomposition
from repro.graphs import generators as gen
from repro.graphs import streams
from repro.instrument import CostModel, Tracer, trace
from repro.instrument.export import phase_shares

BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_e21_phase_breakdown.json"
KEYS = ("work", "self_work", "count")


def _replay_e21():
    committed = json.loads(BENCH.read_text())
    n, m, batch, eps = (committed[k] for k in ("n", "m", "batch_size", "eps"))
    constants = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
    _, edges = gen.erdos_renyi(n, m, seed=21)
    cm = CostModel()
    cd = CorenessDecomposition(n, eps=eps, cm=cm, constants=constants, seed=21)
    tracer = Tracer(cm)
    with trace.tracing(tracer):
        for i, op in enumerate(streams.insert_then_delete(edges, batch, seed=21)):
            with trace.span("batch", detail={"index": i, "kind": op.kind}):
                if op.kind == "insert":
                    cd.insert_batch(op.edges)
                else:
                    cd.delete_batch(op.edges)
    return committed, cm, phase_shares(tracer.root)


def test_e21_phase_tree_matches_committed():
    committed, cm, shares = _replay_e21()
    assert cm.work == committed["total_work"]
    assert cm.depth == committed["total_depth"]
    expected = {
        path: tuple(node[k] for k in KEYS)
        for path, node in committed["phase_shares"].items()
    }
    got = {path: tuple(node[k] for k in KEYS) for path, node in shares.items()}
    assert sorted(got) == sorted(expected)
    mismatched = {p: (got[p], expected[p]) for p in expected if got[p] != expected[p]}
    assert not mismatched, mismatched
