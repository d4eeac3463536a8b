"""``BalancedOrientation.logn`` tracks the vertex set wherever it changes.

``logn`` is the [PP01] per-element rate every arc and label charge reads.
It is an attribute refreshed where the vertex set can grow or be
replaced, so each of those places is checked against the formula.
"""

import math

import pytest

from repro.core import BalancedOrientation
from repro.core.bulk import from_graph
from repro.resilience import guarded
from repro.resilience.checkpoint import checkpoint, restore_checkpoint


def expected_logn(st: BalancedOrientation) -> int:
    return max(1, math.ceil(math.log2(max(st._n_hint, len(st.level)))))


def star(n: int) -> list[tuple[int, int]]:
    return [(0, v) for v in range(1, n)]


class TestLognTracksTheVertexSet:
    def test_fresh_structure(self):
        st = BalancedOrientation(H=2, n_hint=2)
        assert st.logn == expected_logn(st) == 1

    def test_arc_add_on_new_vertices(self):
        st = BalancedOrientation(H=2, n_hint=2)
        seen = set()
        for v in range(1, 20):
            st._arc_add(v, v + 100, 0)  # both endpoints new
            assert st.logn == expected_logn(st)
            seen.add(st.logn)
        st._arc_add(1, 2, 0)  # both endpoints known
        assert st.logn == expected_logn(st)
        assert len(seen) > 3  # the rate did move as the set grew

    def test_set_level_on_a_new_vertex(self):
        st = BalancedOrientation(H=2, n_hint=2)
        st.insert_batch([(0, 1)])
        assert st.logn == 1
        st._set_level(7, 0)
        assert len(st.level) == 3
        assert st.logn == expected_logn(st) == 2

    def test_guard_rollback(self):
        st = BalancedOrientation(H=2, n_hint=2)
        st.insert_batch([(0, 1), (1, 2)])
        before = st.logn
        with pytest.raises(RuntimeError):
            with guarded(st):
                st.insert_batch([(10 + i, 11 + i) for i in range(0, 20, 2)])
                assert st.logn > before
                raise RuntimeError("abort the batch")
        # the rollback dropped the new vertices: logn falls back with them
        assert len(st.level) == 3
        assert st.logn == expected_logn(st) == before

    def test_checkpoint_restore(self):
        st = BalancedOrientation(H=3)
        st.insert_batch(star(40) + [(1, 2), (2, 3)])
        st.delete_batch([(1, 2)])
        restored = restore_checkpoint(checkpoint(st))
        assert restored.logn == expected_logn(restored)
        assert restored.logn == st.logn

    def test_bulk_from_graph(self):
        st = from_graph(star(100) + [(1, 2)], H=3)
        assert len(st.level) == 100
        assert st.logn == expected_logn(st) == 7
