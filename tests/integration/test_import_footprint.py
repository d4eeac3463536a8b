"""Importing the library, the CLI or the metrics endpoint loads neither
numpy nor ``http.server``.

The paper's structures need sorted sets, hashing and sorting, so nothing
on the import path is numeric; the Prometheus endpoint
(``repro.instrument.live``) is imported only where ``--live`` or
``--serve-metrics`` uses it, and speaks HTTP over ``socketserver``.
Each check runs in a fresh interpreter: this process has long since
imported numpy through hypothesis or scipy.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
HEAVY = ("numpy", "http.server")


def _loaded_after(module: str) -> list[str]:
    code = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {list(HEAVY)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["repro.core", "repro.cli", "repro.instrument.live"])
def test_import_leaves_heavy_modules_out(module):
    assert _loaded_after(module) == []


def test_pram_exports_no_numeric_reductions():
    import repro.pram

    for name in ("scan", "reduce_sum", "reduce_max"):
        assert name not in repro.pram.__all__
        assert not hasattr(repro.pram, name)
