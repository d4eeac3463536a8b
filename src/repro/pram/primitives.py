"""Classic PRAM primitives with work/depth accounting.

These are the textbook building blocks [Ble96] the paper's algorithms lean
on implicitly: packing/filtering, winner selection among concurrent
proposals (the CRCW "arbitrary write" used by the token games), semisorting
(grouping by key) and elementwise maps.  Each is *charged* its standard
PRAM cost through the cost model.

Charged costs (CRCW PRAM):

=============  ==================  ============
primitive      work                depth
=============  ==================  ============
pack           O(n)                O(log n)
arbitrary_winners  O(n)            O(1)
semisort       O(n)                O(log n)  (deterministic variant)
=============  ==================  ============
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence, TypeVar

from ..instrument.work_depth import CostModel

T = TypeVar("T")


def _log2ceil(n: int) -> int:
    return max(1, int(math.ceil(math.log2(max(n, 2)))))


def _charge_linear_log(cm: Optional[CostModel], n: int) -> None:
    if cm is not None and n:
        cm.charge(work=n, depth=_log2ceil(n))


def pack(items: Sequence[T], flags: Sequence[bool], cm: Optional[CostModel] = None) -> list[T]:
    """Keep ``items[i]`` where ``flags[i]`` — the PRAM filter/pack primitive."""
    if len(items) != len(flags):
        raise ValueError("items and flags must have equal length")
    _charge_linear_log(cm, len(items))
    return [item for item, keep in zip(items, flags) if keep]


def arbitrary_winners(
    proposals: Iterable[tuple[Hashable, T]], cm: Optional[CostModel] = None
) -> dict[Hashable, T]:
    """Resolve concurrent proposals: one arbitrary winner per target.

    Models the CRCW "arbitrary write" the token games use ("for each vertex
    that received at least one proposal, accept any of them").  Determinism:
    the *first* proposal per target in iteration order wins, so callers that
    need reproducibility sort first (the paper sorts lexicographically —
    see Lemma 4.14/4.16; use :func:`repro.pram.sorting.parallel_sort`).

    Charged O(n) work, O(1) depth — a concurrent-write round.
    """
    proposals = list(proposals)
    if cm is not None and proposals:
        cm.charge(work=len(proposals), depth=1)
    winners: dict[Hashable, T] = {}
    for target, payload in proposals:
        if target not in winners:
            winners[target] = payload
    return winners


def semisort(
    pairs: Iterable[tuple[Hashable, T]], cm: Optional[CostModel] = None
) -> dict[Hashable, list[T]]:
    """Group values by key (parallel semisort).

    Charged at the deterministic bound O(n) work / O(log n) depth the paper
    can afford everywhere it groups (it always follows a sort anyway).
    """
    pairs = list(pairs)
    _charge_linear_log(cm, len(pairs))
    groups: dict[Hashable, list[T]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def parallel_map(
    items: Sequence[T], fn: Callable[[T], Any], cm: Optional[CostModel] = None
) -> list[Any]:
    """Apply ``fn`` elementwise as one parallel step of unit-cost branches.

    For non-unit-cost bodies use :meth:`CostModel.pfor`, which measures each
    branch; this fast path charges O(n) work, O(1) depth.
    """
    if cm is not None and items:
        cm.charge(work=len(items), depth=1)
    return [fn(item) for item in items]
