"""Property test: snapshot/restore is exact under arbitrary schedules."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BalancedOrientation
from repro.graphs.graph import norm_edge
from repro.resilience import checkpoint as cp


@st.composite
def schedules(draw):
    n = draw(st.integers(4, 14))
    steps = draw(st.integers(1, 6))
    live: set = set()
    ops = []
    for _ in range(steps):
        if draw(st.booleans()) or not live:
            fresh = set()
            for _ in range(18):
                u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                if u != v:
                    e = norm_edge(u, v)
                    if e not in live and e not in fresh:
                        fresh.add(e)
                if len(fresh) >= 6:
                    break
            if fresh:
                live |= fresh
                ops.append(("insert", tuple(sorted(fresh))))
        else:
            pool = sorted(live)
            k = draw(st.integers(1, len(pool)))
            victims = tuple(pool[:k])
            live -= set(victims)
            ops.append(("delete", victims))
    return ops


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(schedules(), st.integers(1, 6))
def test_snapshot_roundtrip_exact_after_any_schedule(ops, H):
    st_ = BalancedOrientation(H=H)
    for kind, edges in ops:
        if kind == "insert":
            st_.insert_batch(edges)
        else:
            st_.delete_batch(edges)
    recovered = cp.restore_checkpoint(cp.checkpoint(st_))
    assert sorted(st_.arcs()) == sorted(recovered.arcs())
    recovered.check_invariants()
    # JSON path agrees too
    redecoded = cp.from_json(cp.to_json(st_))
    assert sorted(redecoded.arcs()) == sorted(st_.arcs())


@settings(max_examples=20, deadline=None)
@given(schedules())
def test_restored_structure_continues_identically(ops):
    """Replaying the same suffix on original vs restored gives equal arcs
    (the implementation is fully deterministic)."""
    if len(ops) < 2:
        return
    split = len(ops) // 2
    a = BalancedOrientation(H=4)
    for kind, edges in ops[:split]:
        (a.insert_batch if kind == "insert" else a.delete_batch)(edges)
    b = cp.restore_checkpoint(cp.checkpoint(a))
    for kind, edges in ops[split:]:
        (a.insert_batch if kind == "insert" else a.delete_batch)(edges)
        (b.insert_batch if kind == "insert" else b.delete_batch)(edges)
    assert sorted(a.arcs()) == sorted(b.arcs())
    b.check_invariants()
