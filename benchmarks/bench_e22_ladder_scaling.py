"""E22 — ladder sharding: the Brent projection of the rung sweep.

The ladder's rungs are independent (that independence *is* Theorems
1.1/1.2's parallelism), so every rung sweep runs as one cost-model
parallel region and the Brent bound projects its W/D parallelism
(docs/PERFORMANCE.md).  This experiment drives a skewed stream — a
planted dense block that saturates the low rungs plus a sparse periphery
that leaves the tall rungs untouched — through the default
configuration, which runs every rung on every batch, and projects the
totals onto ``P`` processors.

Absolute wall-clock numbers are hardware-noisy; the reproduction targets
are the model totals and the projection built on them.
``REPRO_E22_TINY=1`` shrinks the trace for
CI smoke runs.
"""

from __future__ import annotations

import os

from repro.core import CorenessDecomposition, DensityEstimator
from repro.graphs import generators as gen, streams
from repro.instrument import (
    BatchTimer,
    CostModel,
    Tracer,
    parallelism,
    project,
    render_table,
    trace,
    wallclock,
)

from common import CONSTANTS, EPS, Experiment, write_bench

TINY = bool(os.environ.get("REPRO_E22_TINY"))
if TINY:
    N, BLOCK, PERIPHERY, BATCH = 24, 6, 40, 12
else:
    N, BLOCK, PERIPHERY, BATCH = 56, 12, 150, 24
PROCESSORS = [1, 4, 16, 64]  # Brent projection processor counts


def _trace():
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.8, out_edges=PERIPHERY, seed=22)
    return streams.insert_then_delete(edges, BATCH, seed=22)


def measure(traced: bool = False):
    """Drive both ladders through the stream; return the observables.

    ``traced=True`` arms a phase tracer (telemetry never perturbs the
    cost model, so a traced run stays bit-comparable) and returns the
    aggregated span tree for the BENCH phase-share block.
    """
    ops = _trace()
    cm = CostModel()
    core = CorenessDecomposition(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22)
    dens = DensityEstimator(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22)
    timer = BatchTimer(cm)
    tracer = Tracer(cm) if traced else None
    ctx = trace.tracing(tracer) if traced else _null()
    t0 = wallclock.monotonic()
    with ctx:
        for i, op in enumerate(ops):
            with trace.span("batch", detail={"index": i, "kind": op.kind}):
                with timer.batch(op.kind, op.size):
                    for st in (core, dens):
                        if op.kind == "insert":
                            st.insert_batch(op.edges)
                        else:
                            st.delete_batch(op.edges)
    wall = wallclock.monotonic() - t0
    answers = (core.estimates(), core.max_estimate(), dens.density_estimate())
    return {
        "work": cm.work,
        "depth": cm.depth,
        "counters": dict(cm.counters),
        "wall": wall,
        "answers": answers,
        "series": timer.series,
        "tree": tracer.root if tracer is not None else None,
    }


def _null():
    import contextlib

    return contextlib.nullcontext()


def run_experiment() -> Experiment:
    base = measure(traced=True)
    work, depth = base["work"], base["depth"]
    worst = max(base["series"].records, key=lambda r: r.work)
    rows = [
        (pt.processors, f"{pt.time_upper:.0f}", f"{pt.speedup_lower:.1f}x")
        for pt in project(work, depth, PROCESSORS)
    ]
    table = render_table(["P", "Brent T_P (<=)", "speedup (>=)"], rows)
    write_bench(
        "e22_ladder_scaling",
        base["series"],
        tree=base["tree"],
        extra={
            "configs": {
                "serial": {
                    "work": work,
                    "depth": depth,
                    "wall_seconds": base["wall"],
                },
            },
        },
    )
    return Experiment(
        exp_id="E22",
        title="ladder sharding — Brent projection of the rung sweep",
        claim=(
            "the ladder's rungs are independent, so each sweep's depth is "
            "the max over rungs and the Brent bound T_P <= W/P + D projects "
            "its W/D parallelism onto P processors"
        ),
        table=table,
        conclusion=(
            f"both ladders over {len(base['series'].records)} batches total "
            f"W = {work} model work at D = {depth} depth, so "
            f"W/D = {parallelism(work, depth):.1f} and the projection "
            f"flattens once P passes it ({base['wall']:.2f}s wall, one "
            f"process).  Every rung runs on every batch, so each batch "
            f"pays its own cost: the heaviest batch is {worst.work} work / "
            f"{worst.depth} depth, with no replay of earlier batches."
        ),
    )


def test_e22_wallclock(benchmark):
    benchmark.pedantic(lambda: measure(), rounds=1, iterations=1)


if __name__ == "__main__":
    print(run_experiment().render())
