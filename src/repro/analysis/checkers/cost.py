"""Cost-accounting checker (rules REP-C001..REP-C003).

The paper's worst-case work/depth theorems are only measurable because
every mutation in the structure layer threads the
:class:`~repro.instrument.work_depth.CostModel` (DESIGN.md §6).  This
checker enforces that discipline statically in the cost-scoped packages
(``core/``, ``hashtable/``):

* **REP-C001** — a public function that (transitively) mutates structure
  state, in a class or signature that carries a cost model, but whose call
  chain never charges it: the mutation path is invisible to the work/depth
  accounting.
* **REP-C002** — a ``cm``/``cost_model`` parameter that is accepted but
  never read, stored, or forwarded: dead accounting plumbing that makes
  callers *believe* the work is counted.
* **REP-C003** — a loop that mutates structure state with no charge inside
  the loop body, in a function that never charges outside the loop either:
  per-element work the model cannot see.  (Batch-granularity charges made
  before/after the loop — the [PP01]/[GMV91] idiom — silence this rule.)

Intra-module delegation is resolved through the call-graph fixpoint in
:class:`~repro.analysis.walker.ModuleAnalysis`, so ``insert_batch`` ->
``_insert_arcs`` -> ``_arc_add`` (which charges) is clean by construction.
"""

from __future__ import annotations

import ast

from ..walker import (
    CM_NAMES,
    Checker,
    FunctionInfo,
    forwards_cm,
    is_charge_call,
    is_state_mutation,
)


class CostAccountingChecker(Checker):
    """Every mutation path must charge the cost model."""

    rules = {
        "REP-C001": "public mutating function never charges the cost model",
        "REP-C002": "cost-model parameter accepted but never used",
        "REP-C003": "mutating loop with no cost-model charge in scope",
    }

    def run(self):
        if not self.ctx.in_cost_scope:
            return self.findings
        analysis = self.ctx.analysis
        for info in analysis.functions.values():
            self._check_function(info)
        return self.findings

    # -- per-function rules ---------------------------------------------------

    def _check_function(self, info: FunctionInfo) -> None:
        cm_params = info.params & CM_NAMES
        has_cm = bool(cm_params) or self.ctx.analysis.class_has_cm(info.cls)

        if cm_params and not self._uses_cm_param(info, cm_params):
            self.emit(
                info.node,
                "REP-C002",
                f"'{info.qualname}' accepts {sorted(cm_params)[0]!r} but never "
                "charges, stores, or forwards it — callers believe this work "
                "is accounted",
            )

        if not has_cm:
            # classes without a cost model (OutSet, InIndex, ...) are charged
            # by their enclosing structure at the paper's lemma granularity.
            return

        if info.is_public and info.mutates and not info.charges:
            self.emit(
                info.node,
                "REP-C001",
                f"'{info.qualname}' mutates structure state but its call "
                "chain never charges the cost model (tick/charge/count or "
                "cm= forwarding)",
            )

        self._check_loops(info)

    def _uses_cm_param(self, info: FunctionInfo, cm_params: set[str]) -> bool:
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Name) and sub.id in cm_params:
                return True
        return False

    # -- loop rule ------------------------------------------------------------

    def _check_loops(self, info: FunctionInfo) -> None:
        loops = [
            sub
            for sub in ast.walk(info.node)
            if isinstance(sub, (ast.For, ast.While))
        ]
        if not loops:
            return
        for loop in loops:
            if not self._body_mutates(loop, info):
                continue
            if self._body_charges(loop, info):
                continue
            if self._charges_outside(info, loop):
                continue
            self.emit(
                loop,
                "REP-C003",
                f"loop in '{info.qualname}' mutates structure state with no "
                "tick/charge inside and none elsewhere in the function — "
                "this work is invisible to the work/depth model",
            )

    def _body_mutates(self, loop: ast.AST, info: FunctionInfo) -> bool:
        analysis = self.ctx.analysis
        for sub in ast.walk(loop):
            if is_state_mutation(sub, info.params):
                return True
            if isinstance(sub, ast.Call):
                qual = self._resolve_call(sub, info)
                if qual is not None:
                    target = analysis.functions.get(qual)
                    if target is not None and target.mutates:
                        return True
        return False

    def _body_charges(self, loop: ast.AST, info: FunctionInfo) -> bool:
        analysis = self.ctx.analysis
        for sub in ast.walk(loop):
            if isinstance(sub, ast.Call):
                if is_charge_call(sub) or forwards_cm(sub):
                    return True
                qual = self._resolve_call(sub, info)
                if qual is not None and analysis.call_chain_charges(qual):
                    return True
        return False

    def _charges_outside(self, info: FunctionInfo, loop: ast.AST) -> bool:
        """A direct or delegated charge anywhere in the function outside
        the flagged loop (batch-granularity accounting)."""
        inside = {id(sub) for sub in ast.walk(loop)}
        analysis = self.ctx.analysis
        for sub in ast.walk(info.node):
            if id(sub) in inside or not isinstance(sub, ast.Call):
                continue
            if is_charge_call(sub) or forwards_cm(sub):
                return True
            qual = self._resolve_call(sub, info)
            if qual is not None and analysis.call_chain_charges(qual):
                return True
        return False

    def _resolve_call(self, call: ast.Call, info: FunctionInfo) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and info.cls is not None
        ):
            return f"{info.cls.name}.{func.attr}"
        return None


__all__ = ["CostAccountingChecker"]
