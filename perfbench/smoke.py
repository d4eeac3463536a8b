"""Smoke tests for the benchmark itself, at tiny scale (a few minutes).

Run from the root of a checkout: ``python3 perfbench/smoke.py``.  For
every workload it checks that

1. an untraced run passes its correctness checks on two seeds, prints
   every end-to-end metric, and the two seeds generate different inputs
   (no input is pinned to one seed);
2. a run with one recorded answer deliberately falsified exits 1 and
   counts the falsified answer as a failed operation;
3. a traced run passes (same answers and model work/depth as the
   untraced pass, coverage at least 0.9) and prints every per-layer
   metric;

and that in a directory holding only ``BENCHMARK.json`` and this
directory -- no program source -- the benchmark exits non-zero without
printing a result.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from common import HERE, ROOT, WORK

WORKLOADS = ("ingest-churn", "replay-planted", "query-heavy")


def bench(*args: str, cwd=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "2", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok: bool, what: str, output: str = "") -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)
            print(output[-3000:])

    for name in WORKLOADS:
        tiny = ("--workload", name, "--scale", "tiny")
        fingerprints = []
        for seed in ("1", "2"):
            code, result, out = bench(*tiny, "--seed", seed, "--trace", "0")
            expect(code == 0 and result is not None and result["correct"]
                   and set(result["metrics"]) == end_to_end,
                   f"{name} seed {seed}: correct, every end-to-end metric", out)
            found = re.search(r"\(inputs (\w+)\)", out)
            fingerprints.append(found.group(1) if found else None)
        expect(fingerprints[0] != fingerprints[1],
               f"{name}: seeds 1 and 2 generate different inputs")
        code, result, out = bench(*tiny, "--seed", "1", "--trace", "0",
                                  "--inject-wrong-answer")
        expect(code == 1 and result is not None and result["failed"] >= 1,
               f"{name}: a falsified answer is counted in error_ratio", out)
        code, result, out = bench(*tiny, "--seed", "3", "--trace", "1")
        expect(code == 0 and result is not None and set(result["metrics"]) == per_layer,
               f"{name}: traced run passes and prints every per-layer metric", out)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, out = bench("--workload", "ingest-churn", "--seed", "1",
                              "--trace", "0", cwd=bare)
    expect(code != 0 and result is None,
           "without program source: non-zero exit, no result", out)
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
