"""Deep cross-verification against exact oracles — the audit layer.

``check_invariants()`` methods verify *internal* consistency; this module
verifies structures against *external* ground truth:

* :func:`audit_invariants` — any structure's ``check_invariants()``,
  reported rather than raised;
* :func:`audit_orientation` — a BALANCED(H) structure against the graph
  it is supposed to orient (its invariants hold, edge sets equal);
* :func:`audit_coreness` — estimator output against exact peeling, with
  the Theorem 5.1/1.1 band scaled by configurable slack;
* :func:`audit_density` — the density ladder against the exact flow
  oracle and the flow-optimal orientation;
* :func:`replay_audit` — replays a batch stream through BALANCED(H),
  auditing after every batch; the fault-free reference of a chaos
  trial's final verdict (:mod:`repro.verify.differential`).

Every function returns an :class:`AuditReport`; ``ok`` is False with a
list of findings rather than raising, so operators can log everything.

The differential layer on top of these absolute audits lives in
:mod:`repro.verify.differential` (docs/VERIFICATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..graphs.streams import BatchOp

#: How many example violations each finding embeds before summarising.
SAMPLE_LIMIT = 3


@dataclass
class AuditReport:
    """Accumulated invariant-audit findings; ``ok`` iff none."""

    subject: str
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: str) -> None:
        self.findings.append(finding)

    def merge(self, other: "AuditReport") -> None:
        self.findings.extend(f"{other.subject}: {f}" for f in other.findings)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        lines = [f"[{status}] {self.subject}"]
        lines.extend(f"  - {f}" for f in self.findings)
        return "\n".join(lines)


def audit_invariants(st, subject: str) -> AuditReport:
    """A structure's ``check_invariants()`` as a report: any exception it
    raises is one finding."""
    report = AuditReport(subject)
    try:
        st.check_invariants()
    except Exception as exc:
        report.add(f"internal invariant broken: {exc}")
    return report


def audit_orientation(st, graph) -> AuditReport:
    """BALANCED(H) vs the ground-truth graph: its ``check_invariants()``
    (the between-batch invariants of DESIGN.md §5, which imply every arc is
    H-balanced and the levels sum to the arc count) plus edge-set
    equality with ``graph``."""
    report = audit_invariants(st, f"BALANCED({st.H})")
    ours = {(a, b) for (a, b, _c) in st.tail_of}
    if ours != graph.edges:
        missing = graph.edges - ours
        extra = ours - graph.edges
        if missing:
            report.add(f"{len(missing)} graph edges absent (e.g. {sorted(missing)[:SAMPLE_LIMIT]})")
        if extra:
            report.add(f"{len(extra)} phantom edges (e.g. {sorted(extra)[:SAMPLE_LIMIT]})")
    return report


def audit_coreness(
    decomposition,
    graph,
    lower: float = 0.1,
    upper: float = 6.0,
    min_core: int = 2,
) -> AuditReport:
    """Estimates vs exact peeling, within [lower, upper] x core."""
    from ..baselines.exact_kcore import core_numbers

    report = AuditReport("coreness band")
    exact = core_numbers(graph)
    for v in sorted(graph.touched_vertices()):
        c = exact.get(v, 0)
        if c < min_core:
            continue
        est = decomposition.estimate(v)
        if not (lower * c <= est <= upper * c):
            report.add(f"vertex {v}: core={c}, estimate={est:.2f} outside band")
    return report


def audit_density(
    estimator,
    graph,
    lower: float = 0.3,
    upper: float = 3.0,
    orientation_factor: float = 3.0,
) -> AuditReport:
    """Density estimate and orientation vs the exact flow oracles."""
    from ..baselines.exact_density import exact_density
    from ..baselines.exact_orientation import min_max_outdegree

    report = AuditReport("density band")
    rho = exact_density(graph)
    est = estimator.density_estimate()
    if rho > 0.5 and not (lower * rho <= est <= max(2.0, upper * rho)):
        report.add(f"rho={rho:.2f}, estimate={est:.2f} outside band")
    if graph.m:
        dstar, _ = min_max_outdegree(graph)
        maxout = estimator.max_outdegree()
        if maxout > orientation_factor * dstar + 1:
            report.add(
                f"orientation max d+ {maxout} vs flow optimum {dstar}"
            )
    return report


def replay_audit(
    ops: Sequence[BatchOp],
    H: int,
    constants=None,
    audit_every: int = 1,
) -> AuditReport:
    """Replay a stream through BALANCED(H), auditing the orientation
    against the ground-truth graph after every ``audit_every``-th batch.

    The coreness/density band audits run through the differential panel
    instead (``run_diff(kind="ladders", deep_every=K)``).
    """
    from ..config import DEFAULT_CONSTANTS
    from ..core.balanced import BalancedOrientation
    from ..graphs.graph import DynamicGraph

    report = AuditReport("stream replay")
    graph = DynamicGraph(0)
    st = BalancedOrientation(H, constants=constants or DEFAULT_CONSTANTS)
    for i, op in enumerate(ops):
        if op.kind == "insert":
            graph.insert_batch(op.edges)
            st.insert_batch(op.edges)
        else:
            graph.delete_batch(op.edges)
            st.delete_batch(op.edges)
        if audit_every and i % audit_every == 0:
            sub = audit_orientation(st, graph)
            if not sub.ok:
                sub.subject += f" (batch {i})"
                report.merge(sub)
    return report
