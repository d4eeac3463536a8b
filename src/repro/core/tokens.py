"""The token games (Sections 4.2.1 and 4.3.1).

Friend-module of :class:`~repro.core.balanced.BalancedOrientation`: both
games mutate the structure through its arc and level helpers, so every
charged re-file happens in one audited code path.

Token-dropping (insertions)
---------------------------
Bundle arcs are added with levels frozen; each tail holds one token (a
pending out-degree increment).  Per phase, every occupied vertex ``v`` with
``level(v) < H`` scans its <= H out-arcs for an empty vertex one level
down, proposes, and each proposed vertex accepts one proposal (CRCW
arbitrary-write); accepted arcs flip and the tokens drop.  The game halts
within O(H^3) phases (Lemma 4.8); settlement bumps every resting token's
vertex level by one.

Token-pushing (deletions)
-------------------------
Tokens are pending out-degree *decrements* on distinct vertices (the arcs
are already gone).  Per phase, every occupied vertex gets the label
``2*[in S] + [occupied]``, which its out-arcs of rank <= H carry (the
in-index reads it, and each arc's rank, at probe time, so nothing is
re-filed);
then rank rounds ``i = 1..H`` move tokens up along in-arcs of exact rank
``i`` whose tail has label 0 and truncated level exactly one higher.
Rounds in which no such arc exists are skipped and charged in bulk:
they send nothing, so they change nothing.  They are followed by the
truncated-rank ``H+1`` round whose received tokens are *transparent*
(absorbed immediately: removing an out-arc beyond rank ``H`` cannot change
``min(H, d+)``, the paper's dummy-vertex interpretation).  Halts within
O(H^3) phases (Lemma 4.18); settlement subtracts each vertex's absorbed
token count from its level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..errors import ConvergenceError
from ..instrument import trace as _trace
from ..pram.primitives import arbitrary_winners
from ..pram.sorting import parallel_sort
from ..resilience import faults as _faults

if TYPE_CHECKING:  # balanced.py imports this module
    from .balanced import BalancedOrientation


def run_drop_game(st: BalancedOrientation, bundle: list[tuple[int, int, int]]) -> None:
    """Insert one token bundle (Definition 4.6) and settle it."""
    if not bundle:
        return
    if _trace.ACTIVE is None:
        _run_drop_game(st, bundle)
        return
    with _trace.span("game.drop", detail={"tokens": len(bundle)}):
        _run_drop_game(st, bundle)


def _run_drop_game(st: BalancedOrientation, bundle: list[tuple[int, int, int]]) -> None:
    H = st.H
    # 1. add bundle arcs; levels stay frozen (Lemma 4.14 step one)
    with st.cm.parallel() as region:
        for u, v, c in bundle:
            with region.branch():
                st._arc_add(u, v, c)
                st.last_inserted.append((u, v, c))
    token: set[int] = {u for u, _v, _c in bundle}
    if len(token) != len(bundle):
        raise AssertionError("token bundle tails are not distinct (Def. 4.6)")

    bound = st.constants.phase_safety * (H + 1) ** 3 + st.constants.convergence_slack
    phases = 0
    while True:
        phases += 1
        if phases > bound:
            raise ConvergenceError(
                f"token-dropping exceeded {bound} phases (Lemma 4.8 bound)"
            )
        with _trace.span("game.drop.phase"):
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("tokens.drop.phase", st)
            frontier = sorted(v for v in token if st.level.get(v, 0) < H)
            proposals: list[tuple[int, tuple[int, int]]] = []
            # One tick per scanned arc, one branch per frontier vertex:
            # work = total arcs scanned, depth = the deepest single scan.
            # Charged in aggregate (identical fold to per-branch ticks) —
            # this scan runs millions of times and the per-branch frames
            # dominated its wall-clock.
            level_get = st.level.get
            out_get = st.out.get
            scanned_total = 0
            scanned_max = 0
            for v in frontier:
                lv = level_get(v, 0)
                outset = out_get(v)
                if outset is None:
                    continue
                scanned = 0
                for head, copy in outset:  # <= H arcs while v is occupied
                    scanned += 1
                    if head not in token and level_get(head, 0) == lv - 1:
                        proposals.append((head, (v, copy)))
                        break
                scanned_total += scanned
                if scanned > scanned_max:
                    scanned_max = scanned
            st.cm.charge(work=scanned_total, depth=scanned_max)
            if not proposals:
                break
            proposals = parallel_sort(proposals, cm=st.cm)
            winners = arbitrary_winners(proposals, cm=st.cm)
            with st.cm.parallel() as region:
                for w in sorted(winners):
                    v, copy = winners[w]
                    with region.branch():
                        st._flip(v, w, copy)  # the token drops from v to w
                        token.discard(v)
                        token.add(w)
        st.cm.count("drop_phases")

    # settlement (Lemma 4.14 closing step): resting tokens become +1 level
    with _trace.span("game.drop.settle"):
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("tokens.drop.settle", st)
        with st.cm.parallel() as region:
            for v in sorted(token):
                with region.branch():
                    st._set_level(v, st.level.get(v, 0) + 1)
    st.cm.count("drop_games")


def run_push_game(st: BalancedOrientation, bundle: Iterable[int]) -> None:
    """Settle one deletion token bundle (Definition 4.17)."""
    token: set[int] = set(bundle)
    if not token:
        return
    if _trace.ACTIVE is None:
        _run_push_game(st, token)
        return
    with _trace.span("game.push", detail={"tokens": len(token)}):
        _run_push_game(st, token)


def _run_push_game(st: BalancedOrientation, token: set[int]) -> None:
    H = st.H
    pending_dec: dict[int, int] = {v: 1 for v in token}
    labeled: set[int] = set()

    bound = st.constants.phase_safety * (H + 1) ** 3 + st.constants.convergence_slack
    phases = 0
    while True:
        phases += 1
        if phases > bound:
            raise ConvergenceError(
                f"token-pushing exceeded {bound} phases (Lemma 4.18 bound)"
            )
        with _trace.span("game.push.phase"):
            if _faults.ACTIVE is not None:
                _faults.ACTIVE.fire("tokens.push.phase", st)
            S = {v for v in token if st.level.get(v, 0) < H}
            # phase-start labels: 2*[in S] + [occupied] on every occupied vertex
            stale = sorted(labeled - token)
            with st.cm.parallel() as region:
                for u in stale:
                    with region.branch():
                        st._apply_vertex_label(u, 0)
                for u in sorted(token):
                    with region.branch():
                        st._apply_vertex_label(u, 2 * (u in S) + 1)
            labeled = set(token)
            moved = False
            # S is frozen for the whole phase; sort it once, not per round
            S_sorted = sorted(S)

            with _trace.span("game.push.ranks"):
                inx_get = st.inx.get
                labels, out, level = st.vertex_label, st.out, st.level
                level_get = level.get
                # Every rank round probes each vertex of S still holding its
                # token, one charged BST probe per branch with no mutations
                # inside the region: probes*logn work at logn depth, charged
                # in aggregate (bit-identical to per-branch charges).
                active = [v for v in S_sorted if v in token]
                i = 1
                while active and i <= H:
                    # Rounds that send nothing change nothing, so jump to the
                    # next round r at which some active v has an unlabelled
                    # in-arc, and charge the skipped rounds' probes in bulk.
                    r = H + 1
                    for v in active:
                        index = inx_get(v)
                        if index is not None:
                            found = index.next_rank(
                                i, r - 1, level_get(v, 0) + 1, labels, level, out, v, H
                            )
                            if found is not None:
                                r = found
                    logn = st.logn
                    if r > i:
                        st.cm.charge(
                            work=(r - i) * len(active) * logn, depth=(r - i) * logn
                        )
                    if r > H:
                        break
                    sends: list[tuple[int, tuple[int, int]]] = []
                    for v in active:
                        index = inx_get(v)
                        if index is None:
                            continue
                        wkey = index.any_at(r, level_get(v, 0) + 1, labels, level, out, v, H)
                        if wkey is not None:
                            sends.append((v, wkey))
                    st.cm.charge(work=len(active) * logn, depth=logn)
                    # canonical order: each v sends at most once, so sorting makes
                    # the flip sequence a pure function of the phase's input.
                    for v, (w, copy) in sorted(sends):
                        st._flip(w, v, copy)  # arc (w -> v) becomes (v -> w)
                        token.discard(v)
                        pending_dec[v] = pending_dec.get(v, 0) - 1
                        pending_dec[w] = pending_dec.get(w, 0) + 1
                        st._apply_vertex_label(v, 2)  # still in frozen S, token gone
                        # Transparency is decided by the *receiver's* residual
                        # out-degree, not by which arc carried the token: while w
                        # still has >= H live out-arcs, its settlement decrement
                        # keeps min(H, d+(w)) = H — invisible to the truncated
                        # invariant, so the token is absorbed and w stays open
                        # (this is the same budget the paper's tr = H+1 rule
                        # enforces; see DESIGN.md "deviation D1").  The strict flag
                        # reverts to the paper's literal rule for ablation E15.
                        if st.constants.strict_paper_transparency or len(st.out.get(w, ())) < H:
                            token.add(w)
                            st._apply_vertex_label(w, 1)  # w not in S, now occupied
                            labeled.add(w)
                        moved = True
                    # the senders left the active set, and the flips and
                    # labels changed what the probes see: recompute before
                    # the next search
                    active = [v for v in S_sorted if v in token]
                    i = r + 1

            # truncated-rank H+1 round: transparent tokens
            with _trace.span("game.push.truncated"):
                sends = []
                # same aggregate fold as the rank rounds above
                probes = 0
                for v in S_sorted:
                    if v not in token or st.level.get(v, 0) != H - 1:
                        continue
                    probes += 1
                    tindex = st.inx.get(v)
                    if tindex is None:
                        continue
                    twkey = tindex.any_truncated(H, st.level, st.out, v, H)
                    if twkey is not None:
                        sends.append((v, twkey))
                if probes:
                    logn = st.logn
                    st.cm.charge(work=probes * logn, depth=logn)
                for v, (w, copy) in sorted(sends):
                    st._flip(w, v, copy)
                    token.discard(v)
                    pending_dec[v] = pending_dec.get(v, 0) - 1
                    pending_dec[w] = pending_dec.get(w, 0) + 1  # absorbed, not occupied
                    st._apply_vertex_label(v, 2)
                    moved = True

        st.cm.count("push_phases")
        if not moved:
            break

    # clear all labels (end of Lemma 4.23's phase simulation)
    with st.cm.parallel() as region:
        for u in sorted(labeled):
            with region.branch():
                st._apply_vertex_label(u, 0)

    # settlement: every absorbed token is one out-degree decrement
    with _trace.span("game.push.settle"):
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.fire("tokens.push.settle", st)
        with st.cm.parallel() as region:
            for v in sorted(pending_dec):
                dec = pending_dec[v]
                if dec == 0:
                    continue
                if dec < 0:
                    raise AssertionError("negative pending decrement")
                with region.branch():
                    st._set_level(v, st.level.get(v, 0) - dec)
    st.cm.count("push_games")
