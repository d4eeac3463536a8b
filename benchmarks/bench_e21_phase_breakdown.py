"""E21 — where the work goes: phase-tree breakdown of a mixed stream.

The telemetry subsystem (docs/OBSERVABILITY.md) attributes every unit of
cost-model work to a phase of the span taxonomy — ladder rung, token
game, settlement — with an exactness guarantee: the per-phase self-work
column sums to the cost model's total, and arming the tracer changes no
charge (work/depth are bit-identical with telemetry on or off).  This
experiment profiles a mixed insert/delete stream through the full
coreness ladder and reports the top phases by work share.

``REPRO_E21_TINY=1`` shrinks the stream for CI smoke runs.
"""

from __future__ import annotations

import os

from repro.core import CorenessDecomposition
from repro.graphs import generators as gen, streams
from repro.instrument import CostModel, render_table
from repro.instrument.export import phase_shares

from common import CONSTANTS, EPS, drive_traced, Experiment, write_bench

if os.environ.get("REPRO_E21_TINY"):
    N, M, BATCH = 24, 80, 12
else:
    N, M, BATCH = 48, 240, 24
TOP_ROWS = 10


def measure():
    """(series, phase-tree root, cost model, wall) for the canonical stream."""
    from repro.instrument import wallclock

    _, edges = gen.erdos_renyi(N, M, seed=21)
    cm = CostModel()
    cd = CorenessDecomposition(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=21)
    ops = streams.insert_then_delete(edges, BATCH, seed=21)
    t0 = wallclock.monotonic()
    series, tree = drive_traced(cd, ops, cm)
    wall = wallclock.monotonic() - t0
    return series, tree, cm, wall


def measure_disarmed():
    """The identical stream with telemetry off (the bit-identity control)."""
    _, edges = gen.erdos_renyi(N, M, seed=21)
    cm = CostModel()
    cd = CorenessDecomposition(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=21)
    for op in streams.insert_then_delete(edges, BATCH, seed=21):
        if op.kind == "insert":
            cd.insert_batch(op.edges)
        else:
            cd.delete_batch(op.edges)
    return cm


def _aggregate_by_name(tree) -> dict[str, tuple[int, int]]:
    """Span name -> (self work summed over all instances, count)."""
    out: dict[str, tuple[int, int]] = {}
    for _path, node in tree.walk():
        w, c = out.get(node.name, (0, 0))
        out[node.name] = (w + node.self_work(), c + node.count)
    return out


def run_experiment() -> Experiment:
    series, tree, _cm, _wall = measure()
    by_name = _aggregate_by_name(tree)
    total = tree.work
    rows = [
        (name, work, f"{100.0 * work / total:.1f}%", count)
        for name, (work, count) in sorted(by_name.items(), key=lambda kv: -kv[1][0])
        if work > 0
    ][:TOP_ROWS]
    table = render_table(["phase (self work)", "work", "share", "spans"], rows)
    write_bench(
        "e21_phase_breakdown", series, tree,
        extra={
            "n": N, "m": M, "batch_size": BATCH, "eps": EPS,
        },
    )
    games = sum(w for n_, (w, _c) in by_name.items() if n_.startswith("game."))
    return Experiment(
        exp_id="E21",
        title="phase-tree work breakdown (telemetry subsystem)",
        claim=(
            "phase-scoped spans attribute every unit of work exactly: "
            "per-phase self work sums to the cost model's total, and arming "
            "the tracer perturbs no charge"
        ),
        table=table,
        conclusion=(
            f"the {len(by_name)} distinct phases account for every one of the "
            f"{total} work units (sum check exact); the token games take "
            f"{100.0 * games / total:.0f}% of the stream — the inner "
            "drop/push machinery of Sections 4.1-4.2 is where the paper's "
            "H-degree polynomials live, which is what E5/E6 probe."
        ),
    )


def test_e21_phase_work_sums_to_total():
    _series, tree, cm, _wall = measure()
    assert tree.work == cm.work
    assert tree.total_self_work() == tree.work
    shares = phase_shares(tree)
    assert abs(sum(s["self_share"] for s in shares.values()) - 1.0) < 1e-9


def test_e21_bit_identical_when_armed():
    _series, _tree, cm_armed, _wall = measure()
    cm_bare = measure_disarmed()
    assert cm_armed.work == cm_bare.work
    assert cm_armed.depth == cm_bare.depth
    assert dict(cm_armed.counters) == dict(cm_bare.counters)


def test_e21_games_dominate_dispatch():
    _series, tree, _cm, _wall = measure()
    by_name = _aggregate_by_name(tree)
    games = sum(w for n, (w, _c) in by_name.items() if n.startswith("game."))
    assert games > 0.2 * tree.work


def test_e21_wallclock(benchmark):
    benchmark.pedantic(lambda: measure(), rounds=2, iterations=1)


if __name__ == "__main__":
    print(run_experiment().render())
