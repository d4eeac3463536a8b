"""Tests for the PRAM primitives (pack, winners, semisort, sort, map)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import CostModel
from repro.pram import (
    arbitrary_winners,
    pack,
    parallel_map,
    parallel_sort,
    semisort,
)


class TestPack:
    def test_filters_by_flags(self):
        assert pack(["a", "b", "c"], [True, False, True]) == ["a", "c"]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pack([1], [True, False])


class TestArbitraryWinners:
    def test_one_winner_per_target(self):
        winners = arbitrary_winners([(1, "x"), (1, "y"), (2, "z")])
        assert winners == {1: "x", 2: "z"}

    def test_first_wins_after_sort(self):
        proposals = sorted([(2, "b"), (1, "q"), (1, "a")])
        assert arbitrary_winners(proposals) == {1: "a", 2: "b"}

    def test_empty(self):
        assert arbitrary_winners([]) == {}

    def test_depth_constant(self):
        cm = CostModel()
        arbitrary_winners([(i % 3, i) for i in range(30)], cm)
        assert cm.depth == 1
        assert cm.work == 30


class TestSemisort:
    def test_groups(self):
        groups = semisort([("a", 1), ("b", 2), ("a", 3)])
        assert groups == {"a": [1, 3], "b": [2]}

    def test_preserves_order_within_group(self):
        groups = semisort([(0, i) for i in range(5)])
        assert groups[0] == list(range(5))


class TestSortAndMap:
    def test_parallel_sort(self):
        assert parallel_sort([3, 1, 2]) == [1, 2, 3]

    def test_parallel_sort_key(self):
        assert parallel_sort(["bb", "a"], key=len) == ["a", "bb"]

    def test_sort_charges_nlogn(self):
        cm = CostModel()
        parallel_sort(list(range(64)), cm=cm)
        assert cm.work == 64 * 6
        assert cm.depth == 6

    def test_parallel_map(self):
        cm = CostModel()
        assert parallel_map([1, 2], lambda x: x * 10, cm) == [10, 20]
        assert cm.depth == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers())))
def test_hypothesis_winners_subset_of_proposals(props):
    winners = arbitrary_winners(props)
    assert set(winners.items()) <= set((t, p) for t, p in props)
    assert set(winners) == {t for t, _ in props}
