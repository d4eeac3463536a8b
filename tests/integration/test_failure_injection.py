"""Failure injection: corrupted state must be *detected*, not absorbed.

The check_invariants() methods are the library's safety net; these tests
prove the net actually catches each class of corruption (a checker that
always passes would be worse than none).
"""

import pytest

from repro.core import BalancedOrientation
from repro.errors import ConvergenceError, InvariantViolation, ParameterError
from repro.graphs import generators as gen


def build(H=4, seed=0):
    n, edges = gen.erdos_renyi(20, 50, seed=seed)
    st = BalancedOrientation(H=H)
    st.insert_batch(edges)
    return st


class TestCorruptionDetected:
    def test_level_corruption(self):
        st = build()
        v = next(iter(st.level))
        st.level[v] += 1
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_balance_corruption(self):
        st = build(H=3)
        # force an artificial imbalance: bump a tail's level way up
        tail, head, copy = next(iter(st.arcs()))
        outset = st.out[tail]
        st.level[tail] = st.level.get(head, 0) + 10
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_stray_index_entry(self):
        st = build()
        st._inx(0).add((99, 0), 2)
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_stray_entry_in_place_of_a_missing_one(self):
        # same entry count, and the stray sits at its (absent) tail's level
        st = build()
        head, index = next((h, ix) for h, ix in st.inx.items() if len(ix) > 0)
        tail, lev = next(iter(index.entries()))
        index.remove(tail, lev)
        index.add((99, 0), st._stored_lev(99))
        with pytest.raises(InvariantViolation, match="stray in-index entry"):
            st.check_invariants()

    def test_missing_index_entry(self):
        st = build()
        head, index = next((h, ix) for h, ix in st.inx.items() if len(ix) > 0)
        tail, lev = next(iter(index.entries()))
        index.remove(tail, lev)
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_wrong_filing_slot(self):
        st = build()
        head, index = next((h, ix) for h, ix in st.inx.items() if len(ix) > 0)
        tail, lev = next(iter(index.entries()))
        index.move(tail, lev, lev + 1)
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_leftover_label(self):
        st = build()
        st.vertex_label[0] = 2
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_tail_map_corruption(self):
        st = build()
        (a, b, c), tail = next(iter(st.tail_of.items()))
        st.tail_of[(a, b, c)] = b if tail == a else a
        with pytest.raises(InvariantViolation):
            st.check_invariants()


class TestLocalAuditCatchesFiling:
    """``check_batch`` audits the level filing of what the batch touched;
    ``check_invariants`` words the same fault the same way."""

    def touched_arc(self, st):
        """A journaled arc, in its current orientation, and its in-index."""
        tail, head, copy = st.last_inserted[0]
        tail, head = st.orientation_of(tail, head, copy)
        return (tail, copy), st.inx[head], st._stored_lev(tail)

    def test_touched_arc_at_wrong_level(self):
        st = build()
        tkey, index, lev = self.touched_arc(st)
        index.move(tkey, lev, lev + 1)
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_batch("insert", [])
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_invariants()

    def test_touched_arc_missing(self):
        st = build()
        tkey, index, lev = self.touched_arc(st)
        index.remove(tkey, lev)
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_batch("insert", [])
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_invariants()

    def test_relevelled_tail_left_at_its_old_level(self):
        # the fault a skipped _set_level move would leave: an out-arc the
        # batch did not journal, still filed at its tail's old level
        from repro.core.levels import levkey
        from repro.graphs.streams import churn

        st = BalancedOrientation(H=4)
        for op in churn(20, 40, 6, seed=3):
            getattr(st, f"{op.kind}_batch")(op.edges)
            journaled = {
                (t, h, c)
                for journal in (st.last_reversed, st.last_inserted, st.last_deleted)
                for a, b, c in journal
                for t, h in [(a, b), (b, a)]
            }
            stale = [
                (v, head, copy, old)
                for v, old in sorted(st.last_relevelled.items())
                if levkey(st.level[v], st.H) != old
                for head, copy in st.out.get(v, ())
                if (v, head, copy) not in journaled
            ]
            if stale:
                break
        else:
            pytest.fail("no relevelled tail with an unjournaled out-arc")
        st.check_batch(op.kind, op.edges)
        v, head, copy, old = stale[0]
        st.inx[head].move((v, copy), st._stored_lev(v), old)
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_batch(op.kind, op.edges)
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_invariants()

    def test_journaled_arc_of_a_tail_whose_level_held(self):
        # only the journal reaches this arc: its tail is not relevelled
        from repro.core.levels import levkey

        st = BalancedOrientation(H=2)
        n, edges = gen.clique(12)
        st.insert_batch(edges[:40])
        for u, v in edges[40:]:
            st.insert_batch([(u, v)])
            tail, head = st.orientation_of(u, v)
            old = st.last_relevelled.get(tail)
            if old is None or old == levkey(st.level[tail], st.H):
                break
        else:
            pytest.fail("every inserted arc's tail was relevelled")
        st.check_batch("insert", [(u, v)])
        lev = st._stored_lev(tail)
        st.inx[head].move((tail, 0), lev, lev - 1)
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_batch("insert", [(u, v)])
        with pytest.raises(InvariantViolation, match="not filed at expected level"):
            st.check_invariants()


class TestConvergenceGuards:
    def test_phase_guard_raises_not_hangs(self):
        from repro.config import Constants

        # a pathological safety factor of 0 forces the guard to fire
        st = BalancedOrientation(H=3, constants=Constants(phase_safety=0, bundle_safety=0))
        n, edges = gen.clique(10)
        with pytest.raises(ConvergenceError):
            st.insert_batch(edges)


class TestParameterValidation:
    def test_bad_eps_everywhere(self):
        from repro.core import CorenessDecomposition, DensityEstimator, FixedHCorenessEstimator

        with pytest.raises(ParameterError):
            FixedHCorenessEstimator(H=2, eps=0.0, n=8)
        with pytest.raises(ParameterError):
            CorenessDecomposition(8, eps=1.5)
        with pytest.raises(ParameterError):
            DensityEstimator(8, eps=-0.1)

    def test_bad_height(self):
        from repro.core import FixedHDensityGuard

        with pytest.raises(ParameterError):
            FixedHDensityGuard(H=0, eps=0.3, n=8)

    def test_constants_B_validation(self):
        from repro.config import Constants

        with pytest.raises(ParameterError):
            Constants().B(0, 0.3)
        with pytest.raises(ParameterError):
            Constants().B(10, 2.0)
