"""Shared AST machinery for the reprolint checkers.

One :class:`ModuleContext` per file holds the parsed tree, the
``# reprolint: disable=`` suppression map, and a lazily-built
:class:`ModuleAnalysis` — a per-function summary (does it charge the cost
model?  does it mutate structure state?) with intra-module call-graph
propagation, so a public entry point that delegates to a private helper
inherits the helper's charging behaviour.

Checkers are plugins: each is an :class:`ast.NodeVisitor` subclass of
:class:`Checker` declaring its rule ids, instantiated per module and run
over the shared tree.  Findings carry (file, line, rule, message) and are
filtered against the suppression map by the engine.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .findings import Finding

#: attribute names under which a cost model travels (`cm` parameter,
#: ``self.cm`` / ``self._cm`` attributes, explicit ``cost_model``).
CM_NAMES = frozenset({"cm", "_cm", "cost_model"})

#: CostModel methods that record work/depth (DESIGN.md §6).
CHARGE_METHODS = frozenset({"tick", "charge", "count", "pfor"})

#: method names that mutate their receiver's state.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "batch_delete",
        "batch_insert",
        "batch_set",
        "clear",
        "delete",
        "discard",
        "extend",
        "insert",
        "move",
        "pop",
        "popleft",
        "remove",
        "set",
        "setdefault",
        "update",
        "difference_update",
        "intersection_update",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable"
    r"(?:=(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*))?"
)


def parse_suppressions(source: str, tree: ast.Module) -> dict[int, set[str]]:
    """Map line number -> suppressed rule ids ({"all"} disables every rule).

    A suppression on a ``def``/``class`` line covers its whole body.
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            spec = match.group("rules")
            if spec is None:
                rules = {"all"}
            else:
                rules = {r.strip() for r in spec.split(",") if r.strip()}
                rules = rules or {"all"}
            out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass
    if not out:
        return out
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        rules = out.get(node.lineno)
        if not rules:
            continue
        end = getattr(node, "end_lineno", node.lineno) or node.lineno
        for line in range(node.lineno, end + 1):
            out.setdefault(line, set()).update(rules)
    return out


def rule_matches(rule: str, patterns: Iterable[str]) -> bool:
    """Prefix semantics shared by --select and inline suppressions."""
    return any(rule == p or rule.startswith(p) for p in patterns)


def is_suppressed(suppressions: dict[int, set[str]], line: int, rule: str) -> bool:
    """Does the suppression map silence ``rule`` on ``line``?"""
    rules = suppressions.get(line)
    if not rules:
        return False
    # family prefixes suppress too: disable=REP-D covers REP-D001/DT001
    return "all" in rules or rule_matches(rule, rules)


def attribute_chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for anything not a pure chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def is_cm_expr(node: ast.AST) -> bool:
    """Does this expression look like a cost model (``cm``, ``self.cm``...)?"""
    chain = attribute_chain(node)
    return bool(chain) and chain[-1] in CM_NAMES


def is_charge_call(node: ast.Call) -> bool:
    """``cm.tick`` / ``self.cm.charge`` / ``st.cm.count`` / ``cm.pfor``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in CHARGE_METHODS
        and is_cm_expr(func.value)
    )


def forwards_cm(node: ast.Call) -> bool:
    """Does the call hand a cost model to a callee (delegated accounting)?

    Matches ``f(..., cm=self.cm)`` keywords and positional arguments that
    are themselves cost-model expressions, e.g. ``Sub(n, self.cm)``.
    """
    for kw in node.keywords:
        if kw.arg in CM_NAMES:
            return True
    return any(is_cm_expr(arg) for arg in node.args)


def _is_state_target(node: ast.AST, params: frozenset[str]) -> bool:
    """A store that outlives the call: ``self.<...>`` or through a parameter."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_is_state_target(e, params) for e in node.elts)
    if not isinstance(node, (ast.Attribute, ast.Subscript)):
        return False
    root = node
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        root = root.value
    return isinstance(root, ast.Name) and (root.id == "self" or root.id in params)


def is_state_mutation(node: ast.AST, params: frozenset[str]) -> bool:
    """Statement/expression that mutates self- or parameter-reachable state."""
    if isinstance(node, ast.Assign):
        return any(_is_state_target(t, params) for t in node.targets)
    if isinstance(node, ast.AugAssign):
        return _is_state_target(node.target, params)
    if isinstance(node, ast.AnnAssign):
        return node.value is not None and _is_state_target(node.target, params)
    if isinstance(node, ast.Delete):
        return any(_is_state_target(t, params) for t in node.targets)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            recv = func.value
            root = recv
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            return isinstance(root, ast.Name) and (
                root.id == "self" or root.id in params
            )
    return False


@dataclass
class FunctionInfo:
    """Per-function summary used by the cost checker."""

    node: ast.FunctionDef
    qualname: str
    cls: Optional[ast.ClassDef]
    params: frozenset[str]
    direct_charge: bool = False
    direct_mutate: bool = False
    callees: set[str] = field(default_factory=set)
    charges: bool = False  # after call-graph fixpoint
    mutates: bool = False  # after call-graph fixpoint

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        return not self.node.name.startswith("_")


class ModuleAnalysis:
    """Intra-module function summaries with call-graph propagation."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self._collect(tree)
        self._propagate()

    # -- collection ---------------------------------------------------------

    def _collect(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(item, cls=node)

    def _add_function(self, node, cls: Optional[ast.ClassDef]) -> None:
        qual = f"{cls.name}.{node.name}" if cls else node.name
        args = node.args
        params = frozenset(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg != "self"
        )
        info = FunctionInfo(node=node, qualname=qual, cls=cls, params=params)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                if is_charge_call(sub) or forwards_cm(sub):
                    info.direct_charge = True
                func = sub.func
                if isinstance(func, ast.Name):
                    info.callees.add(func.id)
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and cls is not None
                ):
                    info.callees.add(f"{cls.name}.{func.attr}")
            if is_state_mutation(sub, info.params):
                info.direct_mutate = True
        self.functions[qual] = info

    # -- fixpoint -----------------------------------------------------------

    def _propagate(self) -> None:
        for info in self.functions.values():
            info.charges = info.direct_charge
            info.mutates = info.direct_mutate
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                for callee in info.callees:
                    target = self.functions.get(callee)
                    if target is None:
                        continue
                    if target.charges and not info.charges:
                        info.charges = True
                        changed = True
                    if target.mutates and not info.mutates:
                        info.mutates = True
                        changed = True

    # -- queries ------------------------------------------------------------

    def class_has_cm(self, cls: Optional[ast.ClassDef]) -> bool:
        """Does the class carry a cost model (``self.cm`` / ``cm=`` param)?"""
        if cls is None:
            return False
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = self.functions.get(f"{cls.name}.{item.name}")
            if info and info.params & CM_NAMES:
                return True
            for sub in ast.walk(item):
                if (
                    isinstance(sub, (ast.Assign, ast.AnnAssign))
                    and is_cm_expr(
                        sub.targets[0]
                        if isinstance(sub, ast.Assign)
                        else sub.target
                    )
                ):
                    return True
        return False

    def call_chain_charges(self, qual: str) -> bool:
        info = self.functions.get(qual)
        return bool(info and info.charges)


class ModuleContext:
    """Everything the checkers need to know about one source file."""

    def __init__(self, path: str, source: str, in_cost_scope: bool = True):
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.suppressions = parse_suppressions(source, self.tree)
        self._analysis: Optional[ModuleAnalysis] = None
        #: whether the cost (REP-C*) and span (REP-O001/O002) rules apply.
        self.in_cost_scope = in_cost_scope

    @property
    def analysis(self) -> ModuleAnalysis:
        if self._analysis is None:
            self._analysis = ModuleAnalysis(self.tree)
        return self._analysis

    def is_suppressed(self, finding: Finding) -> bool:
        return is_suppressed(self.suppressions, finding.line, finding.rule)


class Checker(ast.NodeVisitor):
    """Base class for reprolint checker plugins.

    Subclasses declare ``rules`` (id -> one-line description) and emit
    findings via :meth:`emit` while visiting the shared tree.
    """

    #: rule id -> human description; populated by subclasses.
    rules: dict[str, str] = {}

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.ctx.path, getattr(node, "lineno", 1), rule, message)
        )

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings
