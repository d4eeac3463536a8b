"""Checkpointing for the balanced-orientation structure.

A production dynamic service needs to survive restarts without replaying
the whole update history.  A snapshot captures the *logical* state of
``BALANCED(H)`` — the oriented arc set and the recorded levels — and
``restore`` rebuilds the full indexed structure (out-sets, ranks,
in-index buckets) from it directly, bypassing the token games.  Restoring
is O(m H log n), the cost of filing every arc once.

JSON helpers are included so checkpoints can live in files; tests verify
the roundtrip is exact (same orientation, same levels, invariants green,
and updates continue correctly afterwards).  Malformed or truncated
snapshots — the kind a torn write or a stale file produces — are rejected
with :class:`~repro.errors.BatchError` (shape/content problems) or
:class:`~repro.errors.ParameterError` (bad H) carrying a message that
names the offending field, never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..config import DEFAULT_CONSTANTS, Constants
from ..errors import BatchError, InvariantViolation
from ..instrument.work_depth import CostModel
from .balanced import BalancedOrientation


def snapshot(st: BalancedOrientation) -> dict[str, Any]:
    """Capture the logical state (arcs + levels + H)."""
    return {
        "H": st.H,
        "arcs": sorted(st.arcs()),
        "levels": {v: lvl for v, lvl in sorted(st.level.items()) if lvl or v in st.out},
    }


def _checked_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise BatchError(f"snapshot {what} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise BatchError(f"snapshot {what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise BatchError(f"snapshot {what} must be an integer, got {value!r}") from exc


def _checked_snapshot(snap: Any) -> tuple[int, list[tuple[int, int, int]], dict[int, int]]:
    """Validate a snapshot mapping; raise BatchError naming what is wrong."""
    if not isinstance(snap, dict):
        raise BatchError(f"snapshot must be a mapping, got {type(snap).__name__}")
    for key in ("H", "arcs", "levels"):
        if key not in snap:
            raise BatchError(f"snapshot missing key {key!r}")
    H = _checked_int(snap["H"], "H")
    if not isinstance(snap["arcs"], (list, tuple)):
        raise BatchError("snapshot 'arcs' must be a list of (tail, head, copy)")
    arcs: list[tuple[int, int, int]] = []
    for i, entry in enumerate(snap["arcs"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise BatchError(
                f"snapshot arc #{i} must be a (tail, head, copy) triple, "
                f"got {entry!r}"
            )
        arcs.append(tuple(_checked_int(x, f"arc #{i} field") for x in entry))
    if not isinstance(snap["levels"], dict):
        raise BatchError("snapshot 'levels' must be a vertex -> level mapping")
    levels: dict[int, int] = {}
    for v, lvl in snap["levels"].items():
        levels[_checked_int(v, "level vertex")] = _checked_int(lvl, f"level of {v}")
    return H, arcs, levels


def restore(
    snap: dict[str, Any],
    cm: Optional[CostModel] = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> BalancedOrientation:
    """Rebuild a structure from a snapshot and verify its invariants.

    Keys other than ``H``/``arcs``/``levels`` are ignored: snapshots
    written while the storage layout was selectable also carry a
    ``"substrate"`` tag, which names no logical state.
    """
    H, arcs, levels = _checked_snapshot(snap)
    st = BalancedOrientation(H, cm=cm, constants=constants)
    # Pre-seeding the recorded levels makes every _arc_add file its
    # in-index entry under the final level bucket immediately.
    st.level = levels
    # the restore loop: one filing per arc plus the level pre-seed
    st.cm.charge(work=len(arcs) + len(levels) + 1, depth=1)
    for tail, head, copy in arcs:
        if tail == head:
            raise BatchError(f"snapshot arc ({tail}, {head}, {copy}) is a self-loop")
        st._arc_add(tail, head, copy)
    try:
        st.check_invariants()
    except InvariantViolation as exc:
        raise InvariantViolation(f"snapshot is not a valid state: {exc}") from exc
    return st


def to_json(st: BalancedOrientation) -> str:
    """Serialise a structure snapshot to a JSON string."""
    snap = snapshot(st)
    return json.dumps(
        {
            "H": snap["H"],
            "arcs": [list(a) for a in snap["arcs"]],
            "levels": {str(v): lvl for v, lvl in snap["levels"].items()},
        }
    )


def from_json(
    payload: str,
    cm: Optional[CostModel] = None,
    constants: Constants = DEFAULT_CONSTANTS,
) -> BalancedOrientation:
    """Rebuild a validated :class:`BalancedOrientation` from :func:`to_json` output."""
    try:
        raw = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise BatchError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise BatchError(f"snapshot must be a JSON object, got {type(raw).__name__}")
    snap = {
        "H": raw.get("H"),
        "arcs": [
            tuple(a) if isinstance(a, (list, tuple)) else a
            for a in raw.get("arcs", ())
        ]
        if isinstance(raw.get("arcs"), (list, tuple))
        else raw.get("arcs"),
        "levels": raw.get("levels"),
    }
    for key in ("H", "arcs", "levels"):
        if snap[key] is None:
            raise BatchError(f"snapshot missing key {key!r}")
    return restore(snap, cm=cm, constants=constants)
