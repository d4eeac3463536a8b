"""Guarded batch application — strong exception safety for batches.

A batch that dies half-way through a token game leaves ``BALANCED(H)``
with frozen levels, leftover vertex labels and a half-flipped arc set.
:func:`guarded` makes every batch atomic: it captures a *logical snapshot*
(the arc/level/label dictionaries — O(m) dict copies, no out-set or index
state) before the batch and, if anything raises, rebuilds the structure
in place from the snapshot through ``BalancedOrientation._rebuild``, the
same re-file funnel checkpoint restore uses.  After a rollback the
structure is logically identical to its pre-batch state and
``check_invariants()`` passes; the exception is then re-raised for the
caller (typically the :class:`~repro.resilience.recovery.RecoveryManager`)
to handle.

This module imports nothing from :mod:`repro.core`; :func:`capture` and
:func:`rollback` dispatch on structural attributes instead of types:

========================  =========================================
attribute fingerprint     structure
========================  =========================================
``tail_of``               ``BalancedOrientation``
``inner``                 ``DuplicatedBalanced``
``_buckets``              ``FixedHDensityGuard`` (either regime)
``bal``                   ``FixedHCorenessEstimator`` (either regime)
``rungs``                 ``CorenessDecomposition`` / ``DensityEstimator``
``guard``                 ``LowOutDegree``
========================  =========================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from ..errors import ParameterError

Snapshot = dict[str, Any]


# -- capture ------------------------------------------------------------------


def capture(st: Any) -> Snapshot:
    """Logical pre-batch snapshot of any supported dynamic structure."""
    if hasattr(st, "tail_of"):  # BalancedOrientation
        cm = getattr(st, "cm", None)
        if cm is not None:
            # snapshotting is a parallel copy of the logical dictionaries
            cm.charge(work=len(st.tail_of) + len(st.level) + 1, depth=1)
        return {
            "kind": "balanced",
            "tail_of": dict(st.tail_of),
            "level": dict(st.level),
            "vertex_label": dict(st.vertex_label),
            "journals": (
                list(st.last_reversed),
                list(st.last_inserted),
                list(st.last_deleted),
                dict(st.last_relevelled),
            ),
        }
    if hasattr(st, "inner"):  # DuplicatedBalanced
        return {"kind": "duplicated", "inner": capture(st.inner)}
    if hasattr(st, "_buckets"):  # FixedHDensityGuard
        return {
            "kind": "density_guard",
            "changed": set(st.changed_edges),
            "dup": capture(st.dup) if st.dup is not None else None,
            "buckets": {i: capture(b) for i, b in st._buckets.items()},
        }
    if hasattr(st, "bal"):  # FixedHCorenessEstimator
        return {
            "kind": "coreness_fixed",
            "inner": capture(st.dup if st.dup is not None else st.bal),
        }
    if hasattr(st, "rungs"):  # CorenessDecomposition / DensityEstimator
        return {
            "kind": "ladder",
            "rungs": [capture(rung) for rung in st.rungs],
            "touched": set(st._touched) if hasattr(st, "_touched") else None,
        }
    if hasattr(st, "guard"):  # LowOutDegree
        return {
            "kind": "lowoutdegree",
            "guard": capture(st.guard),
            "tail": dict(st._tail),
            "out": {v: set(heads) for v, heads in st._out.items()},
            "d_ins": dict(st.d_ins.items()),
            "d_del": dict(st.d_del.items()),
        }
    raise ParameterError(
        f"cannot capture {type(st).__name__}: not a known dynamic structure"
    )


# -- rollback -----------------------------------------------------------------


def rollback(st: Any, snap: Snapshot) -> None:
    """Rebuild ``st`` in place so it is logically equal to ``snap``."""
    kind = snap["kind"]
    if kind == "balanced":
        st._rebuild(snap["tail_of"], snap["level"], snap["vertex_label"])
        reversed_, inserted, deleted, relevelled = snap["journals"]
        st.last_reversed = list(reversed_)
        st.last_inserted = list(inserted)
        st.last_deleted = list(deleted)
        st.last_relevelled = dict(relevelled)
    elif kind == "duplicated":
        rollback(st.inner, snap["inner"])
    elif kind == "density_guard":
        st.changed_edges = set(snap["changed"])
        if snap["dup"] is not None:
            rollback(st.dup, snap["dup"])
        st._buckets = {}
        for i, bucket_snap in snap["buckets"].items():
            rollback(st._bucket(i), bucket_snap)
    elif kind == "coreness_fixed":
        rollback(st.dup if st.dup is not None else st.bal, snap["inner"])
    elif kind == "ladder":
        for rung, rung_snap in zip(st.rungs, snap["rungs"]):
            rollback(rung, rung_snap)
        if snap["touched"] is not None:
            st._touched = set(snap["touched"])
        if hasattr(st, "_reset_query_caches"):
            # memoised answers may describe the failed batch's state
            st._reset_query_caches()
    elif kind == "lowoutdegree":
        rollback(st.guard, snap["guard"])
        st._tail = dict(snap["tail"])
        st._out = {v: set(heads) for v, heads in snap["out"].items()}
        st.d_ins = _rebuild_table(st, snap["d_ins"])
        st.d_del = _rebuild_table(st, snap["d_del"])
    else:  # pragma: no cover - capture() only emits the kinds above
        raise ParameterError(f"unknown snapshot kind {kind!r}")


def _rebuild_table(st: Any, items: dict) -> Any:
    from ..hashtable.batch_table import BatchHashTable

    table = BatchHashTable(cm=st.cm)
    if items:
        table.batch_set(items.items())
    return table


# -- the transaction ----------------------------------------------------------


@contextmanager
def guarded(st: Any) -> Iterator[Snapshot]:
    """Run a batch transactionally: on any exception, roll back and re-raise.

    Usage::

        with guarded(structure):
            structure.insert_batch(edges)

    On normal exit the snapshot is simply dropped.  On exception the
    structure is rebuilt from the snapshot (strong exception safety), a
    ``guard_rollbacks`` counter is bumped on its cost model, and the
    original exception propagates.
    """
    snap = capture(st)
    try:
        yield snap
    except BaseException:
        rollback(st, snap)
        cm = getattr(st, "cm", None)
        if cm is not None:
            cm.count("guard_rollbacks")
        raise
