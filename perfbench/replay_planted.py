"""``replay-planted``: the library alone -- ladders, token games, storage.

A child interpreter builds ``CorenessDecomposition(32)`` and
``DensityEstimator(32)`` with default arguments and replays
``planted_dense(32, block=8, out_edges=40)`` through ``insert_then_delete``
in batches of 2 (about 62 batches a cycle), reading ``estimates()`` and
``density_estimate()`` after every batch.  After an untimed warm-up a run
replays one cycle per 6 s of ``--seconds`` (a cycle takes 4-8 s on the
reference machine; five cycles, about 310 batches, at 30 s), and a faster
or slower program does the same work.  The cycles come from a fixed
pool: every member has the same graph shape and its own labels and
orders, and the seed picks the order in which the run replays them.  The
labels decide which edges the rungs' hash-based samplers keep, and one
fresh draw per seed moved a cycle's cost by 10-15%; with a fixed pool
the seed cannot move the figures, only the machine can.  The dense block
loads the small-H duplicated rungs and the delete half gives a real
tail.  No WAL, no recovery manager, no service: an audit, WAL
or service change must leave this workload unchanged.  Its restart is the
library's own: a checkpoint taken at the densest point of the first cycle,
restored in a fresh interpreter.  Answers are judged after the clock stops
against the exact peeling coreness (E1's slack band) and the exact
densest-subgraph density (E7's band).
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

from common import (HERE, Ledger, Outcome, child_env, density_ok, fingerprint,
                    fresh_dir, median, mono, pct)
from replay_child import cycle_stream, run_order

SCALES = {
    "full": dict(n=32, block=8, out_edges=40, batch=2, cycle_s=6.0, setups=5),
    "tiny": dict(n=16, block=5, out_edges=10, batch=3, cycle_s=0.5, setups=1),
}
#: E1's slack band for core >= 2 (E7's density band is common.density_ok)
CORE_BAND = (0.15, 5.0)


def spawn(reaper, mode: str, job: dict) -> tuple[subprocess.Popen, float, str]:
    """Start a child; returns it, the seconds until its first line (``ready``,
    or for ``restore`` the result) and that line."""
    t = mono()
    proc = reaper.add(subprocess.Popen(
        [sys.executable, str(HERE / "replay_child.py"), mode, json.dumps(job)],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    ))
    first = proc.stdout.readline()
    if not first:
        proc.wait()
        raise RuntimeError(f"replay child ({mode}) exited with {proc.returncode}")
    return proc, mono() - t, first


def finish(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    proc.wait(timeout=120)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"replay child exited with {proc.returncode}")
    return json.loads(line)


def replay_pass(reaper, seed: int, seconds: float, p: dict, trace: bool) -> dict[str, Any]:
    work = fresh_dir("replay")
    cycles = max(2, round(seconds / p["cycle_s"]))
    job = dict(p=p, seed=seed, trace=trace, cycles=cycles,
               checkpoint=str(work / "checkpoint.json"))
    setups = []
    for _ in range(p["setups"] - 1):
        proc, took, _ = spawn(reaper, "setup", job)
        proc.wait(timeout=120)
        setups.append(took)
    proc, took, _ = spawn(reaper, "replay", job)
    setups.append(took)
    result = finish(proc)
    restore, recover_s, line = spawn(reaper, "restore", job)
    restore.wait(timeout=120)
    result.update(setups=setups, recover_s=recover_s, restored=json.loads(line),
                  checkpoint_bytes=(work / "checkpoint.json").stat().st_size)
    return result


def judge(result: dict, seed: int, p: dict, inject: bool) -> Ledger:
    """Exact oracles per batch, off the timed path."""
    from repro.baselines import core_numbers, exact_density
    from repro.graphs import DynamicGraph

    ledger = Ledger()
    batches = result["batches"]
    if inject:
        batches[0]["density"] = -1.0
    k = 0
    for member in run_order(seed, result["cycles"]):
        graph = DynamicGraph(p["n"])
        for op in cycle_stream(member, p):
            getattr(graph, f"{op.kind}_batch")(op.edges)
            got = batches[k]
            k += 1
            core = core_numbers(graph)
            ok = all(
                CORE_BAND[0] <= got["coreness"].get(str(v), 0.0) / c <= CORE_BAND[1]
                for v, c in core.items() if c >= 2
            ) and density_ok(got["density"], exact_density(graph))
            ledger.check(ok, f"cycle {member} batch answers outside the bands")
    ledger.check(k == len(batches), "batch count mismatch")
    ledger.check(all(result["restored"][key] == result["checkpoint_answers"][key]
                     for key in ("coreness", "density")),
                 "restored ladders answer differently from the checkpointed ones")
    return ledger


def run(reaper, seed: int, seconds: float, scale: str, inject: bool,
        traced: bool = False) -> tuple[Outcome, dict]:
    p = SCALES[scale]
    result = replay_pass(reaper, seed, seconds, p, traced)
    ledger = judge(result, seed, p, inject)
    walls = result["walls_ms"]
    metrics = {
        "setup_s": (median(result["setups"]), "s"),
        "edges_per_s": (result["edges"] / result["loop_wall"], "edges/s"),
        "latency_p50_ms": (pct(walls, 50), "ms"),
        "latency_tail_ms": (pct(walls, 90), "ms"),
        "peak_rss_mb": (result["rss_mb"], "MiB"),
    }
    notes = [
        f"cycles: {result['cycles']}, batches: {len(walls)}, edge updates: "
        f"{result['edges']}, model work/depth: {result['model_work']}/"
        f"{result['model_depth']}",
        f"batch_p50_ms = {pct(walls, 50):.3f} ms, batch_p90_ms = {pct(walls, 90):.3f} ms "
        "(latency_p50_ms / latency_tail_ms)",
        f"replay_edges_per_s = {result['edges'] / result['loop_wall']:.3f} edges/s "
        "(edges_per_s)",
        f"recover_s = {result['recover_s']:.3f} s (checkpoint restore in a fresh "
        "interpreter)",
    ]
    inputs = [op.edges for member in run_order(seed, result["cycles"])
              for op in cycle_stream(member, p)]
    return Outcome(metrics, ledger, notes, fingerprint(inputs)), dict(result=result)
