"""Deterministic ddmin trace shrinking — minimal repros from failing streams.

A differential or chaos failure on a 200-batch stream is unreadable; the
same failure on two batches is a bug report.  :func:`minimize_stream`
takes a failing stream plus a *predicate* (``True`` iff the candidate
stream still fails) and shrinks it with Zeller's delta-debugging
algorithm at two granularities:

1. **batch ddmin** — drop whole :class:`~repro.graphs.streams.BatchOp`
   entries, coarse to fine;
2. **edge ddmin** — within each surviving batch, drop individual edges.

Dropping operations can invalidate a stream (a delete of an edge whose
insert was dropped, an insert of an edge that is now still live), so
every candidate passes through :func:`repair_stream` before the
predicate sees it: dead deletes and duplicate inserts are removed and
empty batches dropped.  Repair is order-preserving and idempotent, and
repaired candidates are cached so the predicate never runs twice on the
same stream.

Everything here is deterministic — same input stream and predicate,
same minimal repro — which is what makes the CI artifact upload and
``repro verify --replay`` round-trip meaningful.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..graphs.streams import BatchOp
from ..instrument import trace as _trace

Predicate = Callable[[list[BatchOp]], bool]


def repair_stream(ops: Sequence[BatchOp]) -> list[BatchOp]:
    """Make a candidate stream valid: inserts absent, deletes present.

    Walks the stream with a running live-edge set, dropping insert edges
    that are already live and delete edges that are not; batches left
    empty vanish.  Valid streams come back unchanged (same BatchOp
    objects), so ``repair_stream(repair_stream(x)) == repair_stream(x)``.
    """
    live: set = set()
    out: list[BatchOp] = []
    for op in ops:
        if op.kind == "insert":
            kept = tuple(e for e in op.edges if e not in live)
            live.update(kept)
        else:
            kept = tuple(e for e in op.edges if e in live)
            live.difference_update(kept)
        if kept:
            out.append(op if kept == op.edges else BatchOp(op.kind, kept))
    return out


def _stream_key(ops: Sequence[BatchOp]) -> tuple:
    return tuple((op.kind, op.edges) for op in ops)


class _CachedPredicate:
    """Repairs candidates and memoises predicate calls by stream value."""

    def __init__(self, predicate: Predicate):
        self._predicate = predicate
        self._seen: dict[tuple, bool] = {}

    def __call__(self, ops: Sequence[BatchOp]) -> bool:
        repaired = repair_stream(ops)
        key = _stream_key(repaired)
        if key not in self._seen:
            self._seen[key] = bool(self._predicate(repaired))
        return self._seen[key]


def _ddmin(items: list, fails: Callable[[list], bool]) -> list:
    """Zeller's ddmin: a minimal failing sublist of ``items``.

    ``fails`` must already hold on ``items``; the result is 1-minimal in
    the classic sense (no single chunk at the finest granularity can be
    removed without the failure disappearing).
    """
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        starts = range(0, len(items), chunk)
        reduced = False
        # try each subset (one chunk alone), then each complement
        for s in starts:
            subset = items[s : s + chunk]
            if len(subset) < len(items) and fails(subset):
                items = subset
                n = 2
                reduced = True
                break
        if reduced:
            continue
        for s in starts:
            complement = items[:s] + items[s + chunk :]
            if complement and len(complement) < len(items) and fails(complement):
                items = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if reduced:
            continue
        if n >= len(items):
            break
        n = min(len(items), n * 2)
    return items


def minimize_stream(ops: Sequence[BatchOp], predicate: Predicate) -> list[BatchOp]:
    """Shrink a failing stream to a (repaired) minimal repro.

    ``predicate(candidate)`` must return True iff the candidate still
    exhibits the failure; it is only ever called on valid (repaired)
    streams.  Raises ``ValueError`` if the input stream itself does not
    fail — a minimizer that "succeeds" on a passing stream would mint
    empty repro artifacts.
    """
    check = _CachedPredicate(predicate)
    seed = repair_stream(ops)
    if not check(seed):
        raise ValueError("input stream does not fail the predicate; nothing to minimize")
    with _trace.span("verify.minimize", detail={"batches": len(seed)}):
        batches = _ddmin(list(seed), check)
        batches = _shrink_edges(repair_stream(batches), check)
    assert check(batches), "minimized stream stopped failing"  # ddmin invariant
    return repair_stream(batches)


def _shrink_edges(batches: list[BatchOp], check: _CachedPredicate) -> list[BatchOp]:
    """Edge-level ddmin inside each batch, front to back."""
    i = 0
    while i < len(batches):
        op = batches[i]
        if op.size > 1:
            def fails_with(edges: list, _i=i, _op=op) -> bool:
                if not edges:
                    return False
                candidate = list(batches)
                candidate[_i] = BatchOp(_op.kind, tuple(edges))
                return check(candidate)

            kept = _ddmin(list(op.edges), fails_with)
            batches[i] = BatchOp(op.kind, tuple(kept))
            # a slimmer insert can strand later deletes; re-repair and
            # restart edge-shrinking at the same logical position
            repaired = repair_stream(batches)
            if _stream_key(repaired) != _stream_key(batches):
                batches = repaired
                continue
        i += 1
    return batches
