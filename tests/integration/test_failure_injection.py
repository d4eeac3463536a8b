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
        st._inx(0).add((99, 0))
        with pytest.raises(InvariantViolation):
            st.check_invariants()

    def test_stray_entry_in_place_of_a_missing_one(self):
        # same entry count, so only the per-entry check can see it
        st = build()
        head, index = next((h, ix) for h, ix in st.inx.items() if len(ix) > 0)
        index.remove(next(iter(index)))
        index.add((99, 0))
        with pytest.raises(InvariantViolation, match="stray in-index entry"):
            st.check_invariants()

    def test_missing_index_entry(self):
        st = build()
        head, index = next((h, ix) for h, ix in st.inx.items() if len(ix) > 0)
        index.remove(next(iter(index)))
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
    """``check_batch`` audits the in-index filing of what the batch touched;
    ``check_invariants`` words the same fault the same way."""

    def test_touched_arc_missing(self):
        st = build()
        tail, head, copy = st.last_inserted[0]
        tail, head = st.orientation_of(tail, head, copy)
        st.inx[head].remove((tail, copy))
        with pytest.raises(InvariantViolation, match="not filed in"):
            st.check_batch("insert", [])
        with pytest.raises(InvariantViolation, match="not filed in"):
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
