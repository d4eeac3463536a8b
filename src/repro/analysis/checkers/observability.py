"""Observability checker (rules REP-O001..REP-O003).

The phase-tree attribution of :mod:`repro.instrument.telemetry` only
aggregates if every instrumentation site spells its span name exactly as
registered in :data:`repro.instrument.trace.SPAN_TAXONOMY` — an armed
strict tracer rejects unknown names at runtime, but the hot paths are
disarmed by default, so a typo would ship silently and only explode (or
fragment the tree) the first time someone profiles.  This checker closes
that gap statically in the cost-scoped packages:

* **REP-O001** — a ``span(...)`` call whose literal name is not in the
  registered taxonomy: register it (``register_span``) or fix the typo.
* **REP-O002** — a ``span(...)`` call whose name is not a string literal:
  dynamic names defeat both this check and the aggregation-by-name
  design; thread the variability through ``attrs``/``detail`` instead.

One more rule guards the wall-clock observatory, *everywhere* (not just
the cost scope) except inside ``instrument/`` itself:

* **REP-O003** — a direct ``time.time()`` / ``time.monotonic()`` /
  ``time.perf_counter()`` (or the ``from time import ...`` spellings)
  outside ``repro/instrument/``.  All wall-clock reads must route
  through the Tracer clock — :func:`repro.instrument.wallclock.
  monotonic` — so ``FakeClock`` tests and frozen-time harnesses see
  every timing site, and so epoch-vs-monotonic mixups cannot creep into
  the overhead ledger.
"""

from __future__ import annotations

import ast
import re

from ...instrument.trace import SPAN_TAXONOMY
from ..walker import Checker, attribute_chain

#: receiver spellings that make an ``x.span(...)`` call a tracing span.
_SPAN_RECEIVERS = frozenset({"trace", "_trace", "tracer"})

#: ``time`` module functions that read a wall/CPU clock directly.
_CLOCK_FUNCS = frozenset(
    {
        "time",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)


def _is_span_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "span"
    if isinstance(func, ast.Attribute) and func.attr == "span":
        chain = attribute_chain(func.value)
        return bool(chain) and chain[-1] in _SPAN_RECEIVERS
    return False


class ObservabilityChecker(Checker):
    """Span names from the taxonomy; wall-clock reads through the Tracer clock."""

    rules = {
        "REP-O001": "span name is not in the registered taxonomy",
        "REP-O002": "span name is not a string literal",
        "REP-O003": "direct time.* clock read outside instrument/ — use "
                    "repro.instrument.wallclock.monotonic (the Tracer clock)",
    }

    def run(self):
        self._check_spans = self.ctx.in_cost_scope
        # the clock module itself (and its tests' fixtures) must read the
        # real clock; everything else routes through it.
        parts = re.split(r"[\\/]", self.ctx.path)
        self._check_clock = "instrument" not in parts
        #: local aliases bound by ``from time import monotonic [as m]``.
        self._time_aliases: dict[str, str] = {}
        self.visit(self.ctx.tree)
        return self.findings

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name in _CLOCK_FUNCS:
                    self._time_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def _clock_read(self, node: ast.Call) -> str | None:
        """The ``time.<func>`` name this call reads, if it is one."""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _CLOCK_FUNCS:
            chain = attribute_chain(func.value)
            if chain == ["time"]:
                return f"time.{func.attr}"
        if isinstance(func, ast.Name) and func.id in self._time_aliases:
            return f"time.{self._time_aliases[func.id]}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self._check_spans and _is_span_call(node) and node.args:
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                self.emit(
                    node,
                    "REP-O002",
                    "span name must be a string literal so the taxonomy can "
                    "be checked statically — put per-call variability in "
                    "attrs/detail, not the name",
                )
            elif name_arg.value not in SPAN_TAXONOMY:
                self.emit(
                    node,
                    "REP-O001",
                    f"span name {name_arg.value!r} is not in SPAN_TAXONOMY "
                    "(docs/OBSERVABILITY.md) — register_span() it or fix "
                    "the typo",
                )
        if self._check_clock:
            read = self._clock_read(node)
            if read is not None:
                self.emit(
                    node,
                    "REP-O003",
                    f"{read}() bypasses the Tracer clock — route the read "
                    "through repro.instrument.wallclock.monotonic so mocked "
                    "clocks and the overhead ledger see it",
                )
        self.generic_visit(node)


__all__ = ["ObservabilityChecker"]
