"""Unit tests for the ranked out-set and the incoming-edge index."""

import pytest

from repro.core.inindex import InIndex
from repro.core.outset import OutSet


class TestOutSet:
    def test_rank_is_one_indexed(self):
        s = OutSet()
        s.add((5, 0))
        s.add((2, 0))
        assert s.rank((2, 0)) == 1
        assert s.rank((5, 0)) == 2

    def test_select_inverse_of_rank(self):
        s = OutSet()
        for key in [(9, 0), (1, 1), (1, 0), (4, 2)]:
            s.add(key)
        for pos in range(1, 5):
            assert s.rank(s.select(pos)) == pos

    def test_select_out_of_range_names_the_rank_passed(self):
        s = OutSet()
        for h in (1, 2, 3):
            s.add((h, 0))
        with pytest.raises(IndexError, match=r"select\(4\) on set of size 3"):
            s.select(4)
        with pytest.raises(IndexError, match=r"select\(0\) on set of size 3"):
            s.select(0)

    def test_first(self):
        s = OutSet()
        for h in (30, 10, 20):
            s.add((h, 0))
        assert s.first(2) == [(10, 0), (20, 0)]
        assert s.first(99) == [(10, 0), (20, 0), (30, 0)]

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


class TestInIndex:
    def test_add_lookup(self):
        ix = InIndex()
        ix.add((3, 0), tr=1, lev=4)
        assert ix.any_at(1, 4, {}) == (3, 0)
        assert ix.any_at(1, 5, {}) is None
        assert ix.any_at(2, 4, {}) is None
        assert ix.any_at(1, 4, {3: 1}) is None

    def test_remove(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.remove((3, 0), 1, 4)
        assert ix.any_at(1, 4, {}) is None
        assert len(ix) == 0

    def test_remove_wrong_slot_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        with pytest.raises(AssertionError):
            ix.remove((3, 0), 2, 4)

    def test_double_add_raises(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        with pytest.raises(AssertionError):
            ix.add((3, 0), 1, 4)

    def test_move(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.move((3, 0), (1, 4), (2, 5))
        assert ix.any_at(1, 4, {}) is None
        assert ix.any_at(2, 5, {}) == (3, 0)

    def test_move_identity_is_noop(self):
        ix = InIndex()
        ix.add((3, 0), 1, 4)
        ix.move((3, 0), (1, 4), (1, 4))
        assert ix.any_at(1, 4, {}) == (3, 0)

    def test_any_truncated_scans_labels(self):
        # arcs beyond rank H carry label 0, so labels are not consulted
        ix = InIndex()
        ix.add((3, 0), tr=6, lev=5)
        assert ix.any_truncated(6, 5) == (3, 0)
        assert ix.any_truncated(6, 4) is None

    def test_entries_roundtrip(self):
        ix = InIndex()
        data = [((1, 0), 1, 2), ((2, 0), 3, 4), ((2, 1), 3, 4)]
        for tail, tr, lev in data:
            ix.add(tail, tr, lev)
        assert sorted(ix.entries()) == sorted(data)
        assert len(ix) == 3

    def test_any_at_skips_labelled_minimum(self):
        ix = InIndex()
        for tail in [(5, 1), (2, 0), (3, 0)]:
            ix.add(tail, 1, 4)
        assert ix.any_at(1, 4, {}) == (2, 0)
        assert ix.any_at(1, 4, {2: 2}) == (3, 0)
        assert ix.any_at(1, 4, {2: 1, 3: 3}) == (5, 1)
        assert ix.any_at(1, 4, {2: 1, 3: 3, 5: 2}) is None

    def test_next_rank(self):
        ix = InIndex()
        ix.add((7, 0), 2, 4)
        ix.add((8, 0), 5, 4)
        ix.add((9, 0), 3, 5)
        assert ix.next_rank(1, 10, 4, {}) == 2
        assert ix.next_rank(1, 10, 4, {7: 2}) == 5
        assert ix.next_rank(3, 10, 4, {}) == 5
        assert ix.next_rank(1, 4, 4, {7: 2}) is None
        assert ix.next_rank(1, 10, 6, {}) is None
