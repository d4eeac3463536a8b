"""REP-DT: determinism taint — unordered values must not reach answers.

The correctness story of the reproduction rests on the differential
panel: every execution configuration must produce *identical* answers.
Python breaks that silently whenever iteration order over a ``set`` (or
an ``id()``/``hash()`` identity) leaks into a returned value or into a
comparison key — the answer then depends on hash seeding and memory
layout, which differ across processes and runs.

The per-function label propagation lives in
:mod:`repro.analysis.project` (``_TaintAnalysis``): sources are
unordered-set iteration, ``set.pop()``, and ``id()``/``hash()``;
sanitizers (``sorted``, ``parallel_sort``, ``min``/``max``/``sum``/
``len``) strip labels; sinks are public returns and ``key=`` arguments.
This checker emits the per-function results and resolves the *deferred*
sinks — iteration over a call result — against the callee's
whole-program ``returns_unordered`` fact, which is what makes the family
interprocedural: ``for v in self._dirty_vertices():`` only taints when
the helper actually returns a set.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from ..project import ModuleSummary, ProjectChecker


class DeterminismTaintChecker(ProjectChecker):
    """Unordered-iteration and identity values must not reach answers."""

    rules = {
        "REP-DT001": (
            "value derived from unordered set/dict iteration flows into a "
            "returned answer — order depends on hash seeding"
        ),
        "REP-DT002": (
            "id()/hash() identity value flows into a returned answer or "
            "comparison key — not reproducible across processes"
        ),
    }

    def run(self) -> Iterable[tuple[ModuleSummary, Finding]]:
        for summary, fs in self.project.all_functions():
            for tf in fs.taint_findings:
                yield summary, Finding(summary.path, tf.line, tf.rule, tf.message)
            for pending in fs.taint_pending:
                callee = self.project.resolve_call(
                    fs, fs.calls[pending.call_idx]
                )
                if callee is None or not callee.returns_unordered:
                    continue
                yield summary, Finding(
                    summary.path,
                    pending.line,
                    "REP-DT001",
                    pending.message
                    + f" ('{callee.qualname}' returns an unordered set)",
                )
