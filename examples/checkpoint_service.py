"""Scenario: a long-running orientation service with checkpoint/restore.

A dynamic-graph service that maintains a low out-degree orientation must
survive restarts without replaying weeks of updates.  This example runs a
churn workload, checkpoints the BALANCED(H) structure to JSON mid-stream,
"crashes", restores from the checkpoint, replays only the tail of the
trace, and proves the recovered structure is byte-for-byte equivalent to
one that never crashed — then audits both with the deep verifier.

Run:  python examples/checkpoint_service.py
"""

import tempfile
import pathlib

from repro.core import BalancedOrientation
from repro.core.stats import orientation_stats
from repro.graphs import DynamicGraph, streams
from repro.resilience.checkpoint import from_json, to_json
from repro.verify import audit_orientation


def apply(st, graph, op):
    if op.kind == "insert":
        st.insert_batch(op.edges)
        graph.insert_batch(op.edges)
    else:
        st.delete_batch(op.edges)
        graph.delete_batch(op.edges)


def main() -> None:
    H = 5
    ops = streams.churn(50, steps=60, batch_size=10, seed=23)
    half = len(ops) // 2

    # --- the service runs... -------------------------------------------------
    service = BalancedOrientation(H=H)
    graph = DynamicGraph(0)
    for op in ops[:half]:
        apply(service, graph, op)

    checkpoint = to_json(service)
    ckpt_path = pathlib.Path(tempfile.gettempdir()) / "balanced_checkpoint.json"
    ckpt_path.write_text(checkpoint)
    print(f"checkpoint after {half} batches: {len(checkpoint)} bytes -> {ckpt_path}")
    print(orientation_stats(service).render())

    # --- ...crashes, and a fresh process restores ------------------------------
    recovered = from_json(ckpt_path.read_text())
    print("\nrestored from checkpoint; invariants verified on load")

    # --- both worlds replay the tail ------------------------------------------
    graph2 = graph.copy()
    for op in ops[half:]:
        apply(service, graph, op)      # the world without a crash
        recovered_graph = graph2       # alias for clarity
        if op.kind == "insert":
            recovered.insert_batch(op.edges)
            recovered_graph.insert_batch(op.edges)
        else:
            recovered.delete_batch(op.edges)
            recovered_graph.delete_batch(op.edges)

    same_edges = sorted(service.arcs()) == sorted(recovered.arcs())
    print(f"\nafter replaying the tail: identical arc sets: {same_edges}")

    for name, st, g in (("uninterrupted", service, graph), ("recovered", recovered, graph2)):
        report = audit_orientation(st, g)
        print(f"{name:>14}: {report.render()}")

    print("\n" + orientation_stats(recovered).render())


if __name__ == "__main__":
    main()
