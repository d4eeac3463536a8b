"""The state codec: logical, JSON-able checkpoints of every structure.

This module is the one place that encodes, validates and restores
orientation state.  The logical state of a ``BALANCED(H)`` is its
oriented arc set plus the recorded levels; a ``"balanced"`` checkpoint is
that state plus ``H``.  A ladder checkpoint (Theorems 1.1/1.2) records
the *construction parameters* (n, eps, seed, h_max, constants) plus, per
rung, the logical state of every inner balanced orientation.  Restoring a
ladder builds a fresh one from the parameters — which deterministically
reproduces the rung skeleton, regimes, duplication factors and sampler
seeds — and then files each inner state back through
``BalancedOrientation._rebuild``, the re-file funnel guard rollback and
``bulk.from_graph`` also use.  Restoring is O(m H log n), the cost of filing
every arc once.

Together with the write-ahead trace log
(:class:`~repro.graphs.tracefile.TraceWriter`), restart becomes
*restore checkpoint + replay the trace suffix*; the service tenant
(:class:`~repro.service.state.TenantShard`) packages both.

Every orientation state, balanced or rung, goes through one strict
decoder.  Malformed or truncated payloads — the kind a torn write or a
stale file produces — surface as :class:`~repro.errors.BatchError` (or
:class:`~repro.errors.ParameterError` for a bad H) with a message that
names the offending field, never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Optional

from ..config import Constants
from ..errors import BatchError
from ..graphs.graph import norm_edge
from ..instrument.work_depth import CostModel


def _balanced_state(bal: Any) -> dict[str, Any]:
    """Logical (arcs, levels) of one orientation — JSON-able."""
    return {
        "arcs": [list(a) for a in sorted(bal.arcs())],
        "levels": {str(v): lvl for v, lvl in sorted(bal.level.items()) if lvl},
    }


def _checked_int(value: Any, what: str) -> int:
    """``value`` as an int; a bool, string or non-integral float is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise BatchError(f"checkpoint {what} must be an integer, got {value!r}")


def _load_balanced_state(
    bal: Any, state: Any
) -> tuple[dict[tuple[int, int, int], int], dict[int, int]]:
    """Validate a saved (arcs, levels) state and file it into ``bal``.

    Returns the decoded ``(tail_of, levels)`` so a caller can charge for
    the filing it asked for.
    """
    if not isinstance(state, dict):
        raise BatchError(f"checkpoint state must be a mapping, got {type(state).__name__}")
    for key in ("arcs", "levels"):
        if key not in state:
            raise BatchError(f"checkpoint state missing key {key!r}")
    if not isinstance(state["arcs"], (list, tuple)):
        raise BatchError("checkpoint 'arcs' must be a list of (tail, head, copy)")
    if not isinstance(state["levels"], dict):
        raise BatchError("checkpoint 'levels' must be a vertex -> level mapping")
    levels: dict[int, int] = {}
    for v, lvl in state["levels"].items():
        try:  # JSON object keys are strings
            vertex = int(v) if isinstance(v, str) else _checked_int(v, "level vertex")
        except ValueError as exc:
            raise BatchError(f"checkpoint level vertex must be an integer, got {v!r}") from exc
        levels[vertex] = _checked_int(lvl, f"level of {v}")
    tail_of: dict[tuple[int, int, int], int] = {}
    for i, entry in enumerate(state["arcs"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise BatchError(
                f"checkpoint arc #{i} must be a (tail, head, copy) triple, got {entry!r}"
            )
        tail, head, copy = (_checked_int(x, f"arc #{i} field") for x in entry)
        if tail == head:
            raise BatchError(f"checkpoint arc ({tail}, {head}, {copy}) is a self-loop")
        a, b = norm_edge(tail, head)
        if (a, b, copy) in tail_of:
            raise BatchError(f"checkpoint state repeats arc {(a, b, copy)}")
        tail_of[(a, b, copy)] = tail
    bal._rebuild(tail_of, levels)
    return tail_of, levels


# -- checkpoint (structure -> payload) ----------------------------------------


def checkpoint(st: Any) -> dict[str, Any]:
    """A JSON-able checkpoint payload for any supported structure."""
    from ..core.balanced import BalancedOrientation
    from ..core.coreness import CorenessDecomposition
    from ..core.density import DensityEstimator

    if isinstance(st, BalancedOrientation):
        # unlike a rung's, a balanced payload keeps the zero level of every
        # vertex with an (emptied) out-set: len(level) sizes the log n of
        # every later charge, so dropping them would change restored costs
        levels = {str(v): lvl for v, lvl in sorted(st.level.items()) if lvl or v in st.out}
        return {"type": "balanced", "H": st.H, **_balanced_state(st), "levels": levels}
    if isinstance(st, (CorenessDecomposition, DensityEstimator)):
        kind = "coreness" if isinstance(st, CorenessDecomposition) else "density"
        payload: dict[str, Any] = {
            "type": kind,
            "n": st.n,
            "eps": st.eps,
            "seed": st.seed,
            "h_max": st.h_max,
            "constants": asdict(st.constants),
            "rungs": [_rung_state(rung) for rung in st.rungs],
        }
        if kind == "coreness":
            payload["touched"] = sorted(st._touched)
        return payload
    raise BatchError(f"cannot checkpoint {type(st).__name__}")


def _rung_state(rung: Any) -> dict[str, Any]:
    if hasattr(rung, "bal"):  # FixedHCorenessEstimator
        inner = rung.dup.inner if rung.dup is not None else rung.bal
        return {"inner": _balanced_state(inner)}
    # FixedHDensityGuard
    state: dict[str, Any] = {
        "changed": [list(e) for e in sorted(rung.changed_edges)],
    }
    if rung.dup is not None:
        state["dup"] = _balanced_state(rung.dup.inner)
    else:
        state["buckets"] = {
            str(i): _balanced_state(bucket) for i, bucket in rung._buckets.items()
        }
    return state


# -- restore (payload -> structure) -------------------------------------------


def restore_checkpoint(payload: dict[str, Any], cm: Optional[CostModel] = None) -> Any:
    """Rebuild a structure from a :func:`checkpoint` payload and verify it.

    A payload without a ``"type"`` but with an ``"H"`` is a balanced one
    (the format single-orientation snapshots were written in).  Unknown
    keys are ignored, so payloads written while the storage layout was
    selectable (they carry a ``"substrate"`` tag) still load.
    """
    if not isinstance(payload, dict):
        raise BatchError("checkpoint payload must be a mapping")
    kind = payload.get("type", "balanced" if "H" in payload else None)
    if kind == "balanced":
        from ..core.balanced import BalancedOrientation

        if "H" not in payload:
            raise BatchError("checkpoint missing key 'H'")
        bal = BalancedOrientation(_checked_int(payload["H"], "H"), cm=cm)
        tail_of, levels = _load_balanced_state(bal, payload)
        # the restore loop: one filing per arc plus the level pre-seed
        bal.cm.charge(work=len(tail_of) + len(levels) + 1, depth=1)
        bal.check_invariants()
        return bal
    if kind not in ("coreness", "density"):
        raise BatchError(f"unknown checkpoint type {kind!r}")
    for key in ("n", "eps", "seed", "constants", "rungs"):
        if key not in payload:
            raise BatchError(f"checkpoint missing key {key!r}")
    try:
        constants = Constants(**dict(payload["constants"]))
    except TypeError as exc:
        raise BatchError(f"checkpoint constants are malformed: {exc}") from exc

    from ..core.coreness import CorenessDecomposition
    from ..core.density import DensityEstimator

    cls = CorenessDecomposition if kind == "coreness" else DensityEstimator
    st = cls(
        int(payload["n"]),
        eps=float(payload["eps"]),
        cm=cm,
        constants=constants,
        seed=int(payload["seed"]),
        h_max=payload.get("h_max"),
    )
    rungs = payload["rungs"]
    if len(rungs) != len(st.rungs):
        raise BatchError(
            f"checkpoint has {len(rungs)} rungs but the ladder rebuilt with "
            f"{len(st.rungs)} — parameters and checkpoint disagree"
        )
    for rung, state in zip(st.rungs, rungs):
        _load_rung_state(rung, state)
    if kind == "coreness":
        st._touched = {int(v) for v in payload.get("touched", [])}
    st.check_invariants()
    return st


def _load_rung_state(rung: Any, state: dict[str, Any]) -> None:
    if not isinstance(state, dict):
        raise BatchError("checkpoint rung entry must be a mapping")
    if hasattr(rung, "bal"):  # coreness rung
        if "inner" not in state:
            raise BatchError("coreness rung state missing 'inner'")
        inner = rung.dup.inner if rung.dup is not None else rung.bal
        _load_balanced_state(inner, state["inner"])
        return
    # density rung
    try:
        rung.changed_edges = {
            norm_edge(int(a), int(b)) for a, b in state.get("changed", [])
        }
    except (TypeError, ValueError) as exc:
        raise BatchError(f"density rung 'changed' is malformed: {exc}") from exc
    if rung.dup is not None:
        if "dup" not in state:
            raise BatchError("duplication-regime rung state missing 'dup'")
        _load_balanced_state(rung.dup.inner, state["dup"])
    else:
        buckets = state.get("buckets")
        if not isinstance(buckets, dict):
            raise BatchError("bucket-regime rung state missing 'buckets'")
        rung._buckets = {}
        for key, bucket_state in buckets.items():
            try:
                index = int(key)
            except (TypeError, ValueError) as exc:
                raise BatchError(f"bucket index {key!r} is not an int") from exc
            if not (0 <= index < rung.T):
                raise BatchError(f"bucket index {index} outside [0, {rung.T})")
            _load_balanced_state(rung._bucket(index), bucket_state)


# -- JSON helpers -------------------------------------------------------------


def to_json(st: Any) -> str:
    """Serialise a structure checkpoint to a JSON string."""
    return json.dumps(checkpoint(st))


def from_json(text: str, cm: Optional[CostModel] = None) -> Any:
    """Rebuild a structure from :func:`to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BatchError(f"checkpoint is not valid JSON: {exc}") from exc
    return restore_checkpoint(payload, cm=cm)
