"""Unit tests for the ranked out-set and the incoming-edge index."""

import random

import pytest

from repro.core import BalancedOrientation
from repro.core.inindex import InIndex
from repro.core.levels import levkey
from repro.core.outset import OutSet
from repro.graphs import streams


class TestOutSet:
    def test_rank_is_one_indexed(self):
        s = OutSet()
        s.add((5, 0))
        s.add((2, 0))
        assert s.rank((2, 0)) == 1
        assert s.rank((5, 0)) == 2

    def test_add_duplicate_raises(self):
        s = OutSet()
        s.add((1, 0))
        with pytest.raises(AssertionError):
            s.add((1, 0))

    def test_remove_absent_raises(self):
        with pytest.raises(AssertionError):
            OutSet().remove((1, 0))

    def test_rank_of_absent_raises(self):
        with pytest.raises(AssertionError):
            OutSet().rank((1, 0))

    def test_copies_are_distinct_keys(self):
        s = OutSet()
        s.add((7, 0))
        s.add((7, 1))
        assert len(s) == 2
        s.remove((7, 0))
        assert (7, 1) in s and (7, 0) not in s


    def test_add_and_remove_return_the_rank(self):
        rng = random.Random(7)
        s = OutSet()
        keys = [(rng.randrange(30), rng.randrange(2)) for _ in range(60)]
        for key in keys:
            if key not in s:
                assert s.add(key) == s.rank(key)
        for key in keys:
            if key in s:
                rank = s.rank(key)
                assert s.remove(key) == rank


HEAD = 100  # the vertex whose in-index the unit tests probe
H = 8


def outsets(ranks):
    """Out-sets in which tail ``(w, copy)``'s arc to HEAD has ``rank``."""
    out = {}
    for (w, copy), rank in ranks.items():
        s = out.setdefault(w, OutSet())
        for filler in range(rank - 1):
            if (filler, 0) not in s:
                s.add((filler, 0))
        s.add((HEAD, copy))
    return out


class TestInIndex:
    def test_add_lookup(self):
        ix = InIndex()
        out = outsets({(3, 0): 1})
        ix.add((3, 0))
        level = {3: 4}
        assert ix.any_at(1, 4, {}, level, out, HEAD, H) == (3, 0)
        assert ix.any_at(1, 5, {}, level, out, HEAD, H) is None
        assert ix.any_at(2, 4, {}, level, out, HEAD, H) is None
        assert ix.any_at(1, 4, {3: 1}, level, out, HEAD, H) is None

    def test_remove(self):
        ix = InIndex()
        out = outsets({(3, 0): 1})
        ix.add((3, 0))
        ix.remove((3, 0))
        assert ix.any_at(1, 4, {}, {3: 4}, out, HEAD, H) is None
        assert len(ix) == 0

    def test_remove_wrong_slot_raises(self):
        # another copy of the same tail is a different entry
        ix = InIndex()
        ix.add((3, 0))
        with pytest.raises(AssertionError):
            ix.remove((3, 1))

    def test_double_add_raises(self):
        ix = InIndex()
        ix.add((3, 0))
        with pytest.raises(AssertionError):
            ix.add((3, 0))

    def test_level_is_read_at_probe_time(self):
        # a relevel of the tail moves nothing in the index
        ix = InIndex()
        out = outsets({(3, 0): 2})
        ix.add((3, 0))
        level = {3: 4}
        assert ix.any_at(2, 4, {}, level, out, HEAD, H) == (3, 0)
        level[3] = 5
        assert ix.any_at(2, 4, {}, level, out, HEAD, H) is None
        assert ix.any_at(2, 5, {}, level, out, HEAD, H) == (3, 0)
        # levels are compared truncated at H
        level[3] = H + 3
        assert ix.any_at(2, H, {}, level, out, HEAD, H) == (3, 0)
        assert len(ix) == 1

    def test_any_truncated_scans_labels(self):
        # arcs beyond rank H carry label 0, so labels are not consulted
        ix = InIndex()
        out = outsets({(2, 0): H, (3, 0): H + 1, (4, 0): H + 3})
        for tail in out:
            ix.add((tail, 0))
        level = {w: 5 for w in out}
        assert ix.any_truncated(5, level, out, HEAD, H) == (3, 0)
        assert ix.any_truncated(4, level, out, HEAD, H) is None
        ix.remove((3, 0))
        assert ix.any_truncated(5, level, out, HEAD, H) == (4, 0)
        ix.remove((4, 0))
        assert ix.any_truncated(5, level, out, HEAD, H) is None

    def test_rank_is_read_at_probe_time(self):
        # a rank shift in the tail's out-set moves nothing in the index
        ix = InIndex()
        out = outsets({(3, 0): 1})
        ix.add((3, 0))
        level = {3: 4}
        out[3].add((HEAD - 1, 0))
        assert ix.any_at(1, 4, {}, level, out, HEAD, H) is None
        assert ix.any_at(2, 4, {}, level, out, HEAD, H) == (3, 0)
        for filler in range(H):
            out[3].add((filler, 1))
        assert ix.any_at(H + 1, 4, {}, level, out, HEAD, H) == (3, 0)
        assert ix.any_truncated(4, level, out, HEAD, H) == (3, 0)

    def test_entries_roundtrip(self):
        ix = InIndex()
        data = [(2, 1), (1, 0), (2, 0)]
        for tail in data:
            ix.add(tail)
        assert list(ix) == sorted(data)
        assert (2, 1) in ix and (3, 1) not in ix
        assert len(ix) == 3

    def test_any_at_skips_labelled_minimum(self):
        ix = InIndex()
        out = outsets({(5, 1): 1, (2, 0): 1, (3, 0): 1})
        for tail in [(5, 1), (2, 0), (3, 0)]:
            ix.add(tail)
        level = {w: 4 for w in out}
        assert ix.any_at(1, 4, {}, level, out, HEAD, H) == (2, 0)
        assert ix.any_at(1, 4, {2: 2}, level, out, HEAD, H) == (3, 0)
        assert ix.any_at(1, 4, {2: 1, 3: 3}, level, out, HEAD, H) == (5, 1)
        assert ix.any_at(1, 4, {2: 1, 3: 3, 5: 2}, level, out, HEAD, H) is None

    def test_next_rank(self):
        ix = InIndex()
        out = outsets({(7, 0): 2, (8, 0): 5, (9, 0): 3})
        for tail in out:
            ix.add((tail, 0))
        level = {7: 4, 8: 4, 9: 5}
        assert ix.next_rank(1, H, 4, {}, level, out, HEAD, H) == 2
        assert ix.next_rank(1, H, 4, {7: 2}, level, out, HEAD, H) == 5
        assert ix.next_rank(3, H, 4, {}, level, out, HEAD, H) == 5
        assert ix.next_rank(1, 4, 4, {7: 2}, level, out, HEAD, H) is None
        assert ix.next_rank(1, H, 6, {}, level, out, HEAD, H) is None


class TestProbesMatchOutSets:
    """Every probe answer equals a brute-force scan of the out-sets."""

    @staticmethod
    def in_arcs(st):
        """head -> sorted [(tail key, truncated level, truncated rank)]."""
        arcs = {}
        for w, outset in st.out.items():
            lev = levkey(st.level.get(w, 0), st.H)
            for rank, (head, copy) in enumerate(outset, 1):
                tr = min(rank, st.H + 1)
                arcs.setdefault(head, []).append(((w, copy), lev, tr))
        return {head: sorted(found) for head, found in arcs.items()}

    def check_probes(self, st, labels, rng):
        H = st.H
        for head, found in self.in_arcs(st).items():
            index = st.inx[head]
            for lev in range(H + 1):
                at = [(t, tr) for t, lv, tr in found if lv == lev]
                free = [(t, tr) for t, tr in at if not labels.get(t[0])]
                for tr in range(1, H + 2):
                    expected = min((t for t, r in free if r == tr), default=None)
                    got = index.any_at(tr, lev, labels, st.level, st.out, head, H)
                    assert got == expected
                lo = rng.randint(1, H)
                hi = rng.randint(lo, H + 1)
                expected = min((r for _t, r in free if lo <= r <= hi), default=None)
                got = index.next_rank(lo, hi, lev, labels, st.level, st.out, head, H)
                assert got == expected
                expected = min((t for t, r in at if r > H), default=None)
                assert index.any_truncated(lev, st.level, st.out, head, H) == expected

    @pytest.mark.parametrize("H", [2, 4, 8])
    def test_random_streams(self, H):
        rng = random.Random(1000 + H)
        n = 22
        st = BalancedOrientation(H=H)
        ranked_beyond_h = False
        for op in streams.churn(n, 40, 10, insert_bias=0.85, seed=H):
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
            ranked_beyond_h |= max(st.level.values()) > H
            for _ in range(2):
                labels = {v: rng.randint(1, 3) for v in range(n) if rng.random() < 0.4}
                self.check_probes(st, labels, rng)
        assert ranked_beyond_h
