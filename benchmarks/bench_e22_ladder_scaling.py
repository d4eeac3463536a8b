"""E22 — ladder sharding: rung-skip filtering.

The ladder's rungs are independent (that independence *is* Theorems
1.1/1.2's parallelism), so every rung sweep runs as one cost-model
parallel region and the Brent bound projects its W/D parallelism
(docs/PERFORMANCE.md).  This experiment drives a skewed stream — a
planted dense block that saturates the low rungs plus a sparse periphery
that leaves the tall rungs untouched — through two configurations:

* **serial** — the default configuration; the baseline.
* **skip** — rung-skip filtering; tall rungs whose hint sits above the
  degree bound defer updates, cutting *model work* without changing any
  answer (asserted below).

Absolute wall-clock numbers are hardware-noisy; the reproduction targets
are the invariant (answer-preservation) and the work/skip shapes.
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
P = 16  # Brent projection processor count


def _trace():
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.8, out_edges=PERIPHERY, seed=22)
    return streams.insert_then_delete(edges, BATCH, seed=22)


def measure(rung_skip: bool = False, traced: bool = False):
    """Drive both ladders through one configuration; return the observables.

    ``traced=True`` arms a phase tracer (telemetry never perturbs the
    cost model, so a traced run stays bit-comparable) and returns the
    aggregated span tree for the BENCH phase-share block.
    """
    ops = _trace()
    cm = CostModel()
    core = CorenessDecomposition(
        N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22,
        rung_skip=rung_skip,
    )
    dens = DensityEstimator(
        N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22,
        rung_skip=rung_skip,
    )
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
        "skipped": cm.counters.get("ladder_rungs_skipped", 0),
        "wall": wall,
        "answers": answers,
        "series": timer.series,
        "tree": tracer.root if tracer is not None else None,
    }


def _null():
    import contextlib

    return contextlib.nullcontext()


CONFIGS = [
    ("serial", dict(traced=True)),
    ("skip", dict(rung_skip=True)),
]


def run_experiment() -> Experiment:
    runs = {name: measure(**kw) for name, kw in CONFIGS}
    base = runs["serial"]
    rows = []
    for name, _ in CONFIGS:
        r = runs[name]
        t16 = project(r["work"], r["depth"], [P])[0].time_upper
        rows.append(
            (
                name,
                r["work"],
                f"{r['work'] / base['work']:.2f}x",
                r["depth"],
                r["skipped"],
                f"{parallelism(r['work'], r['depth']):.1f}",
                f"{t16:.0f}",
                f"{r['wall']:.2f}s",
            )
        )
    table = render_table(
        ["config", "model work", "vs serial", "depth", "rungs skipped",
         "W/D", f"Brent T_{P} (<=)", "wall"],
        rows,
    )
    # the contract this subsystem is built on
    assert base["answers"] == runs["skip"]["answers"], (
        "rung-skip must not change any query answer"
    )
    write_bench(
        "e22_ladder_scaling",
        base["series"],
        tree=base["tree"],
        extra={
            "configs": {
                name: {
                    "work": runs[name]["work"],
                    "depth": runs[name]["depth"],
                    "rungs_skipped": runs[name]["skipped"],
                    "wall_seconds": runs[name]["wall"],
                }
                for name, _ in CONFIGS
            },
        },
    )
    saved = 1.0 - runs["skip"]["work"] / base["work"]
    return Experiment(
        exp_id="E22",
        title="ladder sharding — rung-skip",
        claim=(
            "the ladder's rungs are independent, so each sweep's depth is "
            "the max over rungs and the Brent bound projects its W/D "
            "parallelism, and provably-unaffected rungs can be skipped without changing "
            "any answer"
        ),
        table=table,
        conclusion=(
            f"the Brent bound projects the sweep's W/D parallelism from the "
            f"model totals.  Rung-skip filtering removes "
            f"{100 * saved:.0f}% of the model work on this skewed trace "
            f"({runs['skip']['skipped']} rung-batches deferred) with "
            f"byte-identical query answers (asserted) — the filtering is "
            f"pure savings, not approximation."
        ),
    )


def test_e22_skip_reduces_work_and_preserves_answers():
    plain = measure()
    skip = measure(rung_skip=True)
    assert skip["work"] < plain["work"]
    assert skip["skipped"] > 0
    assert skip["answers"] == plain["answers"]


def test_e22_wallclock(benchmark):
    benchmark.pedantic(lambda: measure(), rounds=1, iterations=1)


if __name__ == "__main__":
    print(run_experiment().render())
