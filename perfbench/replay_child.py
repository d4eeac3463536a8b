"""The process hosting the library for ``replay-planted``.

Usage: ``python3 replay_child.py MODE JSON`` with MODE one of

* ``setup``   -- build the default ladders, print ``ready``, exit;
* ``replay``  -- build them, print ``ready``, warm up on a throwaway pair,
  then replay the run's ``planted_dense`` cycles through
  ``insert_then_delete`` (reading ``estimates()`` and
  ``density_estimate()`` after every batch) and print one JSON result line;
* ``restore`` -- restore both ladders from a checkpoint file and print
  their answers as one JSON line.

Running in its own interpreter keeps the benchmark's own memory and
imports out of the set-up time and the peak-RSS figure.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from common import require_source

mono = time.perf_counter


def run_order(seed: int, cycles: int) -> list[int]:
    """The cycles a run replays: members ``0..cycles-1`` of a fixed pool,
    in an order the seed picks."""
    order = list(range(cycles))
    random.Random(seed).shuffle(order)
    return order


def cycle_stream(member: int, p: dict):
    """Pool member ``member``: the planted graph, inserted then deleted,
    with the vertex labels, the insertion order (so which edges share a
    batch) and the deletion order drawn from the member's number."""
    from repro.graphs import generators, streams

    n, edges = generators.planted_dense(p["n"], block=p["block"],
                                        out_edges=p["out_edges"], seed=0)
    rng = random.Random(member)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(min(label[u], label[v]), max(label[u], label[v])) for u, v in edges]
    rng.shuffle(edges)
    return streams.insert_then_delete(edges, p["batch"], seed=rng)


def answers(cd, de) -> dict:
    return {"coreness": {str(v): c for v, c in cd.estimates().items()},
            "density": de.density_estimate()}


def traced(job: dict):
    """The installed tracer when the job asks for one, else None."""
    if not job.get("trace"):
        return None
    from layers import LayerTracer, install

    tracer = LayerTracer()
    install(tracer)
    return tracer


def replay(job: dict) -> dict:
    from repro.core import CorenessDecomposition, DensityEstimator
    from repro.resilience import checkpoint

    p = job["p"]
    tracer = traced(job)
    cd, de = CorenessDecomposition(p["n"]), DensityEstimator(p["n"])
    print("ready", flush=True)

    # warm-up, untimed: the insert half of a throwaway cycle on a throwaway
    # pair, so first-call costs and heap growth stay out of the figures
    wcd, wde = CorenessDecomposition(p["n"]), DensityEstimator(p["n"])
    for op in cycle_stream(-1, p):
        if op.kind != "insert":
            break
        wcd.insert_batch(op.edges)
        wde.insert_batch(op.edges)
    del wcd, wde

    batches, walls = [], []
    loop_wall, edges = 0.0, 0
    saved_answers = None
    if tracer is not None:
        tracer.reset()
    for member in run_order(job["seed"], job["cycles"]):
        ops = cycle_stream(member, p)
        for i, op in enumerate(ops):
            t = mono()
            getattr(cd, f"{op.kind}_batch")(op.edges)
            getattr(de, f"{op.kind}_batch")(op.edges)
            est, dens = cd.estimates(), de.density_estimate()
            dt = mono() - t
            walls.append(1e3 * dt)
            loop_wall += dt
            edges += len(op.edges)
            batches.append({"coreness": {str(v): c for v, c in est.items()},
                            "density": dens})
            if saved_answers is None and ops[i + 1:i + 2] and ops[i + 1].kind == "delete":
                # the restart image, taken at the densest point (not timed)
                with open(job["checkpoint"], "w") as fh:
                    json.dump({"coreness": checkpoint.checkpoint(cd),
                               "density": checkpoint.checkpoint(de)}, fh)
                saved_answers = answers(cd, de)
    result = {
        "cycles": job["cycles"],
        "walls_ms": walls,
        "loop_wall": loop_wall,
        "batches": batches,
        "edges": edges,
        "model_work": cd.cm.work + de.cm.work,
        "model_depth": cd.cm.depth + de.cm.depth,
        "checkpoint_answers": saved_answers,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.snapshot()
    return result


def restore(job: dict) -> dict:
    from repro.resilience import checkpoint

    tracer = traced(job)
    with open(job["checkpoint"]) as fh:
        saved = json.load(fh)
    cd = checkpoint.restore_checkpoint(saved["coreness"])
    de = checkpoint.restore_checkpoint(saved["density"])
    result = answers(cd, de)
    if tracer is not None:
        result["layers"] = tracer.snapshot()
    return result


def main(argv: list[str]) -> int:
    mode, job = argv[0], json.loads(argv[1])
    require_source()
    if mode == "setup":
        from repro.core import CorenessDecomposition, DensityEstimator

        CorenessDecomposition(job["p"]["n"]), DensityEstimator(job["p"]["n"])
        print("ready", flush=True)
        return 0
    result = replay(job) if mode == "replay" else restore(job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
