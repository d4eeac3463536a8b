"""perfbench's layer tracer still finds every name it wraps.

``perfbench/layers.py`` monkeypatches library entry points by name
(``RecoveryManager.apply``, ``recovery.capture``, ``TraceWriter.append``,
``state.recover_trace``, ...).  A rename in ``src/`` breaks the traced
benchmark run; installing the tracer surfaces that in a fraction of a
second.  It runs in a subprocess so the patches never leak into this
test process.
"""

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_layer_tracer_installs_on_current_tree():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")]),
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import layers; layers.install(layers.LayerTracer())",
        ],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_token_game_wrappers_see_every_game(monkeypatch):
    # perfbench wraps the games on the tokens module, so balanced.py must
    # look them up there at call time, not bind them once at import
    from repro.core import BalancedOrientation, tokens

    calls = []
    for name in ("run_drop_game", "run_push_game"):
        game = getattr(tokens, name)

        def wrapped(*args, _game=game, _name=name):
            calls.append(_name)
            return _game(*args)

        monkeypatch.setattr(tokens, name, wrapped)
    st = BalancedOrientation(H=2)
    st.insert_batch([(0, 1), (0, 2), (1, 2)])
    st.delete_batch([(0, 1), (0, 2)])
    assert set(calls) == {"run_drop_game", "run_push_game"}
