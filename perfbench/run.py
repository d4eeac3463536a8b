"""The repository's benchmark: three seeded workloads on the default config.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ingest-churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``ingest-churn``   -- service write path, then ``kill -9`` and recovery;
* ``replay-planted`` -- the library ladders alone, in a child interpreter;
* ``query-heavy``    -- open-loop reads under a trickle of writes.

It passes the program no substrate, executor or constants setting, so it
always measures the defaults.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced (the
layer wrappers of ``layers.py``), each for half of ``--seconds``, with
the same inputs, checks that both
give the same answers and model work/depth, and prints the per-layer
metrics.  The last line of output is one JSON object; the exit code is 1
when any answer was wrong (``error_ratio`` > 0) or the traced run failed
its coverage bar, and 2 when there is no program source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import WORK, Ledger, Outcome, Reaper, require_source

WORKLOADS = ("ingest-churn", "replay-planted", "query-heavy")
#: no run may take longer than this (the contract allows 180 s)
DEADLINE_S = 175


def untraced(name: str, reaper: Reaper, args) -> tuple[Outcome, dict]:
    import ingest_churn
    import query_heavy
    import replay_planted

    module = {"ingest-churn": ingest_churn, "replay-planted": replay_planted,
              "query-heavy": query_heavy}[name]
    return module.run(reaper, args.seed, args.seconds, args.scale,
                      args.inject_wrong_answer)


def same_model_cost(ledger: Ledger, dump: dict, oracle) -> tuple[int, int]:
    """The traced server's ladder model cost must equal the untraced serial
    replay's for the ladders that replay keeps; returns the server's total."""
    counts = dump["counts"]
    traced_cost = tuple(sum(counts.get(f"{ladder}.{part}", 0) for ladder in oracle.ladders)
                        for part in ("work", "depth"))
    ledger.check(traced_cost == (oracle.model_work, oracle.model_depth),
                 f"traced model work/depth {traced_cost} != untraced replay "
                 f"{(oracle.model_work, oracle.model_depth)}")
    return dump["model_work"], dump["model_depth"]


def traced(name: str, reaper: Reaper, args) -> Outcome:
    """Untraced pass, traced pass on the same inputs, identity checks,
    per-layer table."""
    import ingest_churn
    import perlayer
    import query_heavy
    import replay_planted

    # each pass measures half the run, so a traced run takes about as long
    # as an untraced one
    args = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    base, bx = untraced(name, reaper, args)
    ledger = Ledger()
    ledger.merge(base.ledger)
    given: dict[str, float] = {}
    if name == "ingest-churn":
        raw = bx["raw"]
        out, tx = ingest_churn.run(reaper, args.seed, args.seconds, args.scale, False,
                                   traced=True)
        dumps = tx["raw"]["dumps"]
        model = same_model_cost(ledger, dumps[0], tx["oracle"])
        ledger.check(tx["raw"]["finals"] == raw["finals"],
                     "traced final answers differ from untraced")
        overhead = tx["raw"]["writer_wall"] / raw["writer_wall"] - 1
        given.update(bx["service"])
        given.update({"loadgen.lag_p99_ms": bx["reader"]["lag_p99_ms"],
                      "loadgen.backlog_max": bx["reader"]["backlog_max"],
                      "wal.bytes_per_batch": raw["wal_bytes"] / raw["count"],
                      "checkpoint.bytes": raw["ckpt_bytes"]})
    elif name == "query-heavy":
        raw = bx["raw"]
        out, tx = query_heavy.run(reaper, args.seed, args.seconds, args.scale, False,
                                  traced=True, prepared=bx["prepared"])
        dumps = tx["raw"]["dumps"]
        model = same_model_cost(ledger, dumps[0], tx["oracle"])
        ledger.check(tx["raw"]["finals"] == raw["finals"],
                     "traced final answers differ from untraced")
        overhead = tx["raw"]["preload_wall"] / raw["preload_wall"] - 1
        batches = len(raw["acks"])
        given.update(bx["service"])
        given.update({"loadgen.lag_p99_ms": bx["reader"]["lag_p99_ms"],
                      "loadgen.backlog_max": bx["reader"]["backlog_max"],
                      "wal.bytes_per_batch": raw["wal_bytes"] / batches,
                      "checkpoint.bytes": raw["ckpt_bytes"]})
    else:
        res = bx["result"]
        out, tx = replay_planted.run(reaper, args.seed, args.seconds, args.scale, False,
                                     traced=True)
        tres = tx["result"]
        model = (tres["model_work"], tres["model_depth"])
        ledger.check(model == (res["model_work"], res["model_depth"]),
                     f"traced model work/depth {model} != untraced")
        ledger.check(tres["batches"] == res["batches"],
                     "traced answers differ from untraced")
        overhead = tres["loop_wall"] / res["loop_wall"] - 1
        dumps = [tres["layers"], tres["restored"]["layers"]]
        given["checkpoint.bytes"] = res["checkpoint_bytes"]
    ledger.merge(out.ledger)
    merged = perlayer.merge_dumps(dumps)
    given.update({"core.model_work": model[0], "core.model_depth": model[1],
                  "trace.overhead_pct": 100.0 * overhead})
    metrics = perlayer.table(merged, given)
    cov = metrics["trace.coverage"][0]
    ledger.check(cov >= perlayer.MIN_COVERAGE,
                 f"trace.coverage {cov:.3f} below {perlayer.MIN_COVERAGE}")
    notes = base.notes + [f"traced pass: {note}" for note in out.notes[:1]]
    return Outcome(metrics, ledger, notes, base.fingerprint)


def report(name: str, outcome: Outcome) -> None:
    print(f"== {name}  (inputs {outcome.fingerprint})")
    for note in outcome.notes:
        print(f"   {note}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"   {metric:28s} {value:14.4f} {unit}")
    led = outcome.ledger
    ratio = led.failed / led.attempted if led.attempted else 1.0
    print(f"   {'error_ratio':28s} {ratio:14.6f} ratio  "
          f"({led.failed} failed of {led.attempted} operations)")
    for reason in led.reasons:
        print(f"   FAILED: {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke tests")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="falsify one recorded answer before judging "
                             "(checks that the checker counts it)")
    args = parser.parse_args(argv)
    require_source()

    names = WORKLOADS if args.workload == "all" else (args.workload,)

    def timeout(_sig, _frame):
        raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s per workload")

    signal.signal(signal.SIGALRM, timeout)
    # a terminated run still ends the processes it started (``finally`` below)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    signal.alarm(DEADLINE_S * len(names))
    reaper = Reaper()
    try:
        outcomes = {}
        for name in names:
            if args.trace:
                outcomes[name] = traced(name, reaper, args)
            else:
                outcomes[name] = untraced(name, reaper, args)[0]
            report(name, outcomes[name])
    finally:
        signal.alarm(0)
        reaper.close()
        for path in WORK.glob(f"*-{os.getpid()}"):
            shutil.rmtree(path, ignore_errors=True)

    attempted = sum(o.ledger.attempted for o in outcomes.values())
    failed = sum(o.ledger.failed for o in outcomes.values())
    metrics = {}
    for name, outcome in outcomes.items():
        for metric, (value, unit) in outcome.metrics.items():
            key = metric if len(outcomes) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
