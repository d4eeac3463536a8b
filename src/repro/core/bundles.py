"""Token-bundle construction (Sections 4.2.2 and 4.3.2).

* :func:`extract_token_bundle` — the ``ExtractTokenBundle`` procedure:
  every pending inserted edge proposes a token at its lower-out-degree
  endpoint; each vertex accepts one proposal (CRCW arbitrary write after a
  lexicographic sort, as in Lemma 4.16); accepted edges leave the pending
  set oriented from the accepting vertex toward the higher one, which
  yields exactly the Definition 4.6 conditions (distinct tails,
  ``d+(tail) <= d+(head)``).
* :func:`partition_deletion_tokens` — splits per-vertex deletion token
  counts (each <= H after the free deletions) into at most H bundles of
  distinct vertices (Definition 4.17), round-robin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..instrument import trace as _trace
from ..pram.primitives import arbitrary_winners
from ..pram.sorting import parallel_sort
from ..resilience import faults as _faults

if TYPE_CHECKING:  # balanced.py imports this module
    from .balanced import BalancedOrientation


def extract_token_bundle(
    st: BalancedOrientation, pending: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Extract one token bundle from ``pending`` (mutates ``pending``).

    Returns directed bundle arcs ``(tail, head, copy)``.
    """
    if _trace.ACTIVE is None:
        return _extract_token_bundle(st, pending)
    with _trace.span("bundles.extract", detail={"pending": len(pending)}):
        return _extract_token_bundle(st, pending)


def _extract_token_bundle(
    st: BalancedOrientation, pending: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    if _faults.ACTIVE is not None:
        _faults.ACTIVE.fire("bundles.extract", st)
    level_get = st.level.get
    proposals: list[tuple[int, tuple[int, int, int]]] = []
    for u, v, c in pending:
        du, dv = level_get(u, 0), level_get(v, 0)
        cand = u if (du, u) <= (dv, v) else v
        proposals.append((cand, (u, v, c)))
    st.cm.tick(len(pending))  # one sequential step per proposal
    proposals = parallel_sort(proposals, cm=st.cm)
    winners = arbitrary_winners(proposals, cm=st.cm)
    bundle: list[tuple[int, int, int]] = []
    taken: set[tuple[int, int, int]] = set()
    for cand in sorted(winners):
        u, v, c = winners[cand]
        head = v if cand == u else u
        bundle.append((cand, head, c))
        taken.add((u, v, c))
    pending[:] = [e for e in pending if e not in taken]
    return bundle


def partition_deletion_tokens(tokens: dict[int, int]) -> list[list[int]]:
    """Round-robin the token multiset into bundles of distinct vertices."""
    if _trace.ACTIVE is None:
        return _partition_deletion_tokens(tokens)
    with _trace.span("bundles.partition", detail={"tokens": len(tokens)}):
        return _partition_deletion_tokens(tokens)


def _partition_deletion_tokens(tokens: dict[int, int]) -> list[list[int]]:
    if _faults.ACTIVE is not None:
        _faults.ACTIVE.fire("bundles.partition")
    if not tokens:
        return []
    rounds = max(tokens.values())
    return [sorted(v for v, count in tokens.items() if count > j) for j in range(rounds)]
