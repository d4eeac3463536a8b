"""Whole-program model for reprolint: summaries, symbols, call graph.

Per-file checkers see one AST at a time; the interprocedural rule
families (REP-CF / REP-X / REP-DT) need to see *across* files.
The bridge is the :class:`ModuleSummary` — an AST-free digest of one
module produced by :func:`summarize_module`:

* the module's import map, top-level bindings and class facts
  (self-attributes, attribute constructor types, base classes),
* one :class:`FunctionSummary` per function: call sites with resolution
  descriptors, a flattened control-flow graph with per-block
  charge/mutation facts, determinism-taint results, ``guarded()``
  regions, global writes and parameter mutations.

The whole-program phase — symbol resolution, the ``may_charge``/
``may_mutate`` call-graph fixpoints, capture-capability — runs over the
summaries of every linted file.

:class:`ProjectContext` owns the resolution logic.  Call descriptors are
resolved through import maps, class attribute types (``self.x =
ClassName(...)``) and local constructor types, degrading to *unresolved*
(lenient: unresolved callees neither charge nor mutate) when Python's
dynamism wins.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .cfg import build_cfg
from .walker import (
    CM_NAMES,
    MUTATOR_METHODS,
    attribute_chain,
    forwards_cm,
    is_charge_call,
    is_cm_expr,
    is_state_mutation,
    is_suppressed,
    parse_suppressions,
)

#: the attribute fingerprints ``resilience/guard.py:capture`` dispatches on;
#: a structure is snapshot-capable iff it (or a base) binds one of these.
CAPTURE_FINGERPRINTS = frozenset(
    {"tail_of", "inner", "_buckets", "bal", "rungs", "guard"}
)

#: callables whose output is order-canonical (stop taint propagation).
SANITIZERS = frozenset(
    {"sorted", "parallel_sort", "min", "max", "sum", "len", "frozenset_sorted"}
)

#: container methods through which taint accumulates into the receiver.
_ACCUMULATORS = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault", "update"}
)

#: call descriptor kinds (see CallSite.kind).
_BARE, _SELF, _ATTR, _OPAQUE = "bare", "self", "attr", "opaque"


# ---------------------------------------------------------------------------
# summary dataclasses (plain data, no AST nodes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression, with enough context to resolve it later."""

    kind: str  # "bare" | "self" | "attr" | "opaque"
    chain: tuple[str, ...]  # full attribute chain ("self","dup","insert_batch")
    name: str  # called function/method name
    line: int
    forwards_cm: bool = False
    is_charge: bool = False


@dataclass
class BlockSummary:
    """CFG basic block reduced to the facts path queries need."""

    succs: tuple[int, ...]
    direct_charge: bool
    mutation_lines: tuple[int, ...]
    call_idxs: tuple[int, ...]


@dataclass
class GuardedRegion:
    """One ``with guarded(target):`` region and its write set."""

    line: int
    target_kind: str  # "name" | "self" | "self_attr" | "other"
    target: str  # variable / attribute name ("" for self/other)
    type_hint: Optional[str]  # class expr string when locally inferable
    alien_writes: tuple[tuple[str, int], ...]  # (root description, line)


@dataclass
class TaintFinding:
    """A determinism-taint result computed per-file, emitted project-side."""

    line: int
    rule: str
    message: str


@dataclass
class TaintPending:
    """A would-be REP-DT001 whose source is a call — needs the callee."""

    call_idx: int
    line: int
    message: str


@dataclass
class FunctionSummary:
    """Everything the project phase needs to know about one function."""

    name: str
    qualname: str
    cls: Optional[str]
    lineno: int
    is_public: bool
    params: tuple[str, ...]
    calls: list[CallSite] = field(default_factory=list)
    blocks: list[BlockSummary] = field(default_factory=list)
    entry: int = 0
    exit: int = 1
    direct_charge: bool = False
    direct_mutate: bool = False
    var_types: dict[str, str] = field(default_factory=dict)
    returns_unordered: bool = False
    guarded_regions: list[GuardedRegion] = field(default_factory=list)
    taint_findings: list[TaintFinding] = field(default_factory=list)
    taint_pending: list[TaintPending] = field(default_factory=list)
    # filled by the project fixpoints:
    may_charge: bool = False
    may_mutate: bool = False
    module: str = ""


@dataclass
class ClassSummary:
    """Class facts: bases, bound self-attributes, attribute types."""

    name: str
    lineno: int
    bases: tuple[str, ...] = ()
    attrs: frozenset = frozenset()
    attr_types: dict[str, str] = field(default_factory=dict)
    has_cm: bool = False


@dataclass
class ModuleSummary:
    """AST-free digest of one module."""

    path: str
    module_name: str
    in_cost_scope: bool = True
    imports: dict[str, tuple] = field(default_factory=dict)
    module_bindings: frozenset = frozenset()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    suppressions: dict[int, set] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# module name derivation
# ---------------------------------------------------------------------------


def module_name_for(path: str) -> tuple[str, bool]:
    """Dotted module name for a file, walking up through ``__init__.py``.

    Returns ``(name, is_package)``.  Files outside any package get their
    bare stem as the module name.
    """
    import os

    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: list[str] = []
    is_package = stem == "__init__"
    if not is_package:
        parts.append(stem)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
        if not pkg:
            break
    parts.reverse()
    return ".".join(parts) if parts else stem, is_package


def _resolve_relative(module_name: str, is_package: bool, level: int,
                      target: Optional[str]) -> str:
    """Absolute module a ``from ...X import Y`` refers to."""
    if level == 0:
        return target or ""
    parts = module_name.split(".") if module_name else []
    if not is_package and parts:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[: len(parts) - drop] if drop <= len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


# ---------------------------------------------------------------------------
# per-function fact extraction
# ---------------------------------------------------------------------------


def _call_site(call: ast.Call, cls_name: Optional[str]) -> CallSite:
    func = call.func
    fcm = forwards_cm(call)
    charge = is_charge_call(call)
    if isinstance(func, ast.Name):
        return CallSite(_BARE, (func.id,), func.id, call.lineno, fcm, charge)
    chain = attribute_chain(func)
    if chain:
        tup = tuple(chain)
        if chain[0] == "self" and len(chain) == 2 and cls_name:
            return CallSite(_SELF, tup, chain[-1], call.lineno, fcm, charge)
        return CallSite(_ATTR, tup, chain[-1], call.lineno, fcm, charge)
    name = func.attr if isinstance(func, ast.Attribute) else ""
    return CallSite(_OPAQUE, (), name, call.lineno, fcm, charge)


def _type_expr(value: ast.AST) -> Optional[str]:
    """``ClassName(...)`` / ``mod.ClassName(...)`` -> dotted string."""
    if not isinstance(value, ast.Call):
        return None
    chain = attribute_chain(value.func)
    if not chain:
        return None
    if not chain[-1][:1].isupper():  # heuristic: constructors are CapWords
        return None
    return ".".join(chain)


def _flat_names(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, (ast.Tuple, ast.List)):
        out: set[str] = set()
        for elt in node.elts:
            out |= _flat_names(elt)
        return out
    if isinstance(node, ast.Starred):
        return _flat_names(node.value)
    return set()


def _cm_guard_test_ids(node: ast.AST) -> set[int]:
    """``id()``s of ``if <cm-expr> [is [not] None]:`` tests guarding a charge.

    ``if self._cm is not None: self._cm.charge(...)`` is the sanctioned
    idiom for optionally-attached cost models; the cm-less path cannot
    charge by definition, so the test block counts as charging.
    """
    out: set[int] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.If):
            continue
        test = sub.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            expr = test.left
        elif isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            expr = test.operand
        else:
            expr = test
        if not is_cm_expr(expr):
            continue
        if any(
            isinstance(c, ast.Call) and (is_charge_call(c) or forwards_cm(c))
            for c in ast.walk(sub)
        ):
            out.add(id(test))
    return out


class _FunctionSummarizer:
    """Extract every per-function fact in a handful of AST walks."""

    def __init__(
        self,
        node: ast.AST,
        cls: Optional[str],
        module_bindings: frozenset,
    ) -> None:
        self.node = node
        self.cls = cls
        self.module_bindings = module_bindings
        args = node.args
        self.params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg != "self"
        )

    def run(self) -> FunctionSummary:
        node = self.node
        qual = f"{self.cls}.{node.name}" if self.cls else node.name
        fs = FunctionSummary(
            name=node.name,
            qualname=qual,
            cls=self.cls,
            lineno=node.lineno,
            is_public=not node.name.startswith("_"),
            params=self.params,
        )
        self._collect_var_types(fs)
        self._collect_cfg(fs)
        self._collect_returns(fs)
        self._collect_guarded(fs)
        _TaintAnalysis(self, fs).run()
        return fs

    # -- types ---------------------------------------------------------------

    def _collect_var_types(self, fs: FunctionSummary) -> None:
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name):
                    type_expr = _type_expr(sub.value)
                    if type_expr:
                        fs.var_types[target.id] = type_expr
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if isinstance(item.optional_vars, ast.Name):
                        type_expr = _type_expr(item.context_expr)
                        if type_expr:
                            fs.var_types[item.optional_vars.id] = type_expr

    # -- CFG + call sites ----------------------------------------------------

    def _collect_cfg(self, fs: FunctionSummary) -> None:
        cfg = build_cfg(self.node)
        params = frozenset(self.params)
        guard_tests = _cm_guard_test_ids(self.node)
        for block in cfg.blocks:
            direct_charge = False
            mutation_lines: list[int] = []
            call_idxs: list[int] = []
            for stmt in block.stmts:
                if id(stmt) in guard_tests:
                    # `if <cm> is not None: <charge>` — the charge-if-
                    # attached idiom; every path crosses the test block,
                    # so accounting is as complete as it can be.
                    direct_charge = True
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        site = _call_site(sub, self.cls)
                        if site.is_charge or site.forwards_cm:
                            direct_charge = True
                        call_idxs.append(len(fs.calls))
                        fs.calls.append(site)
                    if is_state_mutation(sub, params):
                        mutation_lines.append(getattr(sub, "lineno", 0))
            fs.blocks.append(
                BlockSummary(
                    succs=tuple(sorted(block.succs)),
                    direct_charge=direct_charge,
                    mutation_lines=tuple(mutation_lines),
                    call_idxs=tuple(call_idxs),
                )
            )
        fs.entry, fs.exit = cfg.entry, cfg.exit
        fs.direct_charge = any(b.direct_charge for b in fs.blocks)
        fs.direct_mutate = any(b.mutation_lines for b in fs.blocks)

    def _collect_returns(self, fs: FunctionSummary) -> None:
        unordered = False
        set_locals = _set_typed_locals(self.node)
        for sub in ast.walk(self.node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not self.node:
                    continue
            if isinstance(sub, ast.Return) and sub.value is not None:
                if _is_unordered_expr(sub.value, set_locals):
                    unordered = True
        fs.returns_unordered = unordered

    # -- REP-X facts ---------------------------------------------------------

    def _collect_guarded(self, fs: FunctionSummary) -> None:
        for sub in ast.walk(self.node):
            if not isinstance(sub, (ast.With, ast.AsyncWith)):
                continue
            for item in sub.items:
                call = item.context_expr
                if not (
                    isinstance(call, ast.Call)
                    and (
                        (isinstance(call.func, ast.Name) and call.func.id == "guarded")
                        or (
                            isinstance(call.func, ast.Attribute)
                            and call.func.attr == "guarded"
                        )
                    )
                    and call.args
                ):
                    continue
                fs.guarded_regions.append(self._summarize_region(sub, call.args[0], fs))

    def _summarize_region(
        self, region: ast.With, target: ast.expr, fs: FunctionSummary
    ) -> GuardedRegion:
        kind, name, hint = "other", "", None
        allowed_roots: set[str] = set()
        if isinstance(target, ast.Name):
            if target.id == "self":
                kind, hint = "self", "self"
            else:
                kind, name = "name", target.id
                hint = fs.var_types.get(target.id)
            allowed_roots.add(target.id)
        elif isinstance(target, ast.Attribute):
            chain = attribute_chain(target)
            if chain and chain[0] == "self" and len(chain) == 2:
                kind, name = "self_attr", chain[1]
            allowed_roots.add("self")  # writes through self.<attr> checked below
        # names bound inside the region are region-local scratch
        region_locals = _local_names_in(region)
        loop_vars: set[str] = set()
        for sub in ast.walk(region):
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                loop_vars |= _flat_names(sub.target)
        alien: list[tuple[str, int]] = []
        target_attr = name if kind == "self_attr" else None
        for sub in ast.walk(region):
            root_desc = _mutation_root(sub, frozenset(self.params))
            if root_desc is None:
                continue
            root, attr, line = root_desc
            if root in region_locals or root in loop_vars:
                continue
            # only frame-escaping state matters: locals die with the frame
            # when the exception propagates, so rollback coverage is moot.
            if not (
                root == "self"
                or root in self.params
                or root in self.module_bindings
            ):
                continue
            if kind == "name" and root == name:
                continue
            if kind == "self" and root == "self":
                continue
            if kind == "self_attr" and root == "self" and attr == target_attr:
                continue
            if kind == "other":
                continue  # cannot judge an unresolvable target — stay lenient
            pretty = root if attr is None else f"{root}.{attr}"
            alien.append((pretty, line))
        return GuardedRegion(
            line=region.lineno,
            target_kind=kind,
            target=name,
            type_hint=hint,
            alien_writes=tuple(sorted(set(alien))),
        )

def _local_names_in(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for t in sub.targets:
                out |= {n for n in _flat_names(t)}
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    out |= _flat_names(item.optional_vars)
    return out


def _mutation_root(
    sub: ast.AST, params: frozenset
) -> Optional[tuple[str, Optional[str], int]]:
    """(root, attr-under-self, line) of a state mutation, else None."""
    if not is_state_mutation(sub, params | {"__any__"}):
        # is_state_mutation needs the roots to be self or params; redo the
        # root extraction permissively so *any* named root is examined.
        pass
    targets: list[ast.expr] = []
    if isinstance(sub, ast.Assign):
        targets = [t for t in sub.targets]
    elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
        targets = [sub.target]
    elif isinstance(sub, ast.Delete):
        targets = list(sub.targets)
    elif isinstance(sub, ast.Call):
        func = sub.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            targets = [func.value]
        else:
            return None
    else:
        return None
    for target in targets:
        if isinstance(target, ast.Name):
            if isinstance(sub, ast.Call):
                # a mutator call on a bare name mutates the object it names
                return target.id, None, getattr(sub, "lineno", 0)
            continue  # plain local rebinding is not a state mutation
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            continue
        chain_node = target
        while isinstance(chain_node, (ast.Attribute, ast.Subscript)):
            chain_node = chain_node.value
        if isinstance(chain_node, ast.Name):
            root = chain_node.id
            attr = None
            if root == "self":
                node2 = target
                parts: list[str] = []
                while isinstance(node2, (ast.Attribute, ast.Subscript)):
                    if isinstance(node2, ast.Attribute):
                        parts.append(node2.attr)
                    node2 = node2.value
                attr = parts[-1] if parts else None
            return root, attr, getattr(sub, "lineno", 0)
    return None


# ---------------------------------------------------------------------------
# determinism taint (per-function, call edges resolved project-side)
# ---------------------------------------------------------------------------


def _is_syntactic_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_typed_locals(fn: ast.AST) -> set[str]:
    assigned: dict[str, bool] = {}
    for sub in ast.walk(fn):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(sub, ast.Assign):
            targets, value = sub.targets, sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets, value = [sub.target], sub.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            is_set = _is_syntactic_set(value)
            prior = assigned.get(target.id)
            assigned[target.id] = is_set if prior is None else (prior and is_set)
    return {name for name, is_set in assigned.items() if is_set}


def _is_unordered_expr(expr: ast.AST, set_locals: set[str]) -> bool:
    if _is_syntactic_set(expr):
        return True
    return isinstance(expr, ast.Name) and expr.id in set_locals


class _TaintAnalysis:
    """Flow-insensitive determinism taint within one function.

    Labels: ``("set", site)`` for unordered set iteration, ``("id",
    site)`` for ``id()``/``hash()`` identity values, ``("call", site)``
    for iteration over a call result (resolved project-side against the
    callee's ``returns_unordered``).
    """

    def __init__(self, owner: _FunctionSummarizer, fs: FunctionSummary) -> None:
        self.owner = owner
        self.fs = fs
        self.node = owner.node
        self.set_locals = _set_typed_locals(self.node)
        #: name -> set of labels
        self.taints: dict[str, set] = {}
        #: site id -> (kind, line, call site index or None)
        self.sites: dict[int, tuple] = {}
        #: (kind, ast node id) -> site id, so re-visiting the same source
        #: expression yields the *same* label and the fixpoint terminates.
        self._site_ids: dict[tuple, int] = {}

    # -- label plumbing ------------------------------------------------------

    def _site(self, kind: str, node: ast.AST, call_idx: Optional[int] = None) -> int:
        key = (kind, id(node))
        sid = self._site_ids.get(key)
        if sid is None:
            sid = len(self.sites)
            self.sites[sid] = (kind, getattr(node, "lineno", 0), call_idx)
            self._site_ids[key] = sid
        return sid

    def _add(self, name: str, label: tuple) -> bool:
        bucket = self.taints.setdefault(name, set())
        if label in bucket:
            return False
        bucket.add(label)
        return True

    def _expr_labels(self, expr: ast.AST) -> set:
        """Labels carried by an expression, honouring sanitizers and
        fresh sources (comprehension over a set, direct id() call)."""
        labels: set = set()
        for sub in self._walk_unsanitized(expr):
            if isinstance(sub, ast.Name) and sub.id in self.taints:
                labels |= self.taints[sub.id]
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                if sub.func.id in ("id", "hash"):
                    labels.add(("id", self._site("id", sub)))
            elif isinstance(sub, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                                  ast.DictComp)):
                for gen in sub.generators:
                    if _is_unordered_expr(gen.iter, self.set_locals):
                        labels.add(("set", self._site("set", gen.iter)))
        return labels

    def _walk_unsanitized(self, expr: ast.AST) -> Iterable[ast.AST]:
        stack = [expr]
        while stack:
            sub = stack.pop()
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in SANITIZERS
            ):
                # the call result is order-canonical; don't descend, but a
                # key= that depends on identity still poisons the order.
                for kw in sub.keywords:
                    if kw.arg == "key":
                        self._check_key(kw.value, sub)
                continue
            yield sub
            for child in ast.iter_child_nodes(sub):
                stack.append(child)

    # -- the analysis --------------------------------------------------------

    def run(self) -> None:
        self._seed_loops()
        self._propagate()
        self._sink_returns()
        self._sink_keys()

    def _call_idx_for(self, call: ast.Call) -> Optional[int]:
        """Index of ``call`` in ``fs.calls`` by (name, line) match."""
        chain = attribute_chain(call.func)
        name = (
            call.func.id
            if isinstance(call.func, ast.Name)
            else (chain[-1] if chain else None)
        )
        if name is None:
            return None
        for idx, site in enumerate(self.fs.calls):
            if site.name == name and site.line == call.lineno:
                return idx
        return None

    def _seed_loops(self) -> None:
        for sub in ast.walk(self.node):
            iters: list[tuple[ast.expr, set[str]]] = []
            if isinstance(sub, (ast.For, ast.AsyncFor)):
                iters.append((sub.iter, _flat_names(sub.target)))
            elif isinstance(sub, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                                  ast.DictComp)):
                for gen in sub.generators:
                    iters.append((gen.iter, _flat_names(gen.target)))
            for iter_expr, targets in iters:
                if _is_unordered_expr(iter_expr, self.set_locals):
                    sid = self._site("set", iter_expr)
                    for t in targets:
                        self._add(t, ("set", sid))
                elif isinstance(iter_expr, ast.Call):
                    func = iter_expr.func
                    fname = (
                        func.id
                        if isinstance(func, ast.Name)
                        else getattr(func, "attr", None)
                    )
                    if fname in SANITIZERS or fname is None:
                        continue
                    call_idx = self._call_idx_for(iter_expr)
                    if call_idx is not None:
                        sid = self._site("call", iter_expr, call_idx)
                        for t in targets:
                            self._add(t, ("call", sid))
            # set.pop() is an arbitrary-element draw
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                func = sub.value.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "pop"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.set_locals
                    and not sub.value.args
                ):
                    sid = self._site("set", sub.value)
                    for t in sub.targets:
                        for name in _flat_names(t):
                            self._add(name, ("set", sid))

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            for sub in ast.walk(self.node):
                targets: list[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, ast.AugAssign):
                    targets, value = [sub.target], sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets, value = [sub.target], sub.value
                elif isinstance(sub, ast.Call):
                    # accumulation taints the container: out.append(tainted)
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _ACCUMULATORS
                        and isinstance(func.value, ast.Name)
                    ):
                        labels = set()
                        for arg in sub.args:
                            labels |= self._expr_labels(arg)
                        for label in labels:
                            if self._add(func.value.id, label):
                                changed = True
                    continue
                if value is None:
                    continue
                labels = self._expr_labels(value)
                if not labels:
                    continue
                for target in targets:
                    names = _flat_names(target)
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        names = {target.value.id}  # out[k] = tainted
                    for name in names:
                        for label in labels:
                            if self._add(name, label):
                                changed = True

    def _sink_returns(self) -> None:
        if not self.fs.is_public:
            return
        for sub in ast.walk(self.node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not self.node:
                    continue
            if not (isinstance(sub, ast.Return) and sub.value is not None):
                continue
            labels = self._expr_labels(sub.value)
            if _is_unordered_expr(sub.value, self.set_locals):
                continue  # returning the set itself is fine; order unexposed
            for kind, sid in sorted(labels):
                _, line, call_idx = self.sites[sid]
                if kind == "set":
                    self.fs.taint_findings.append(
                        TaintFinding(
                            line=line,
                            rule="REP-DT001",
                            message=(
                                f"value derived from unordered set iteration "
                                f"(line {line}) flows into the answer "
                                f"'{self.fs.qualname}' returns — wrap the "
                                "iterable in sorted(...)"
                            ),
                        )
                    )
                elif kind == "id":
                    self.fs.taint_findings.append(
                        TaintFinding(
                            line=line,
                            rule="REP-DT002",
                            message=(
                                f"id()/hash() identity value (line {line}) "
                                f"flows into the answer '{self.fs.qualname}' "
                                "returns — identity is fresh per process and "
                                "not replayable"
                            ),
                        )
                    )
                elif kind == "call" and call_idx is not None:
                    self.fs.taint_pending.append(
                        TaintPending(
                            call_idx=call_idx,
                            line=line,
                            message=(
                                f"iteration over an unordered result (line "
                                f"{line}) flows into the answer "
                                f"'{self.fs.qualname}' returns — wrap the "
                                "call in sorted(...)"
                            ),
                        )
                    )

    def _sink_keys(self) -> None:
        for sub in ast.walk(self.node):
            if not isinstance(sub, ast.Call):
                continue
            fname = (
                sub.func.id
                if isinstance(sub.func, ast.Name)
                else getattr(sub.func, "attr", None)
            )
            if fname not in ("sorted", "min", "max", "sort"):
                continue
            for kw in sub.keywords:
                if kw.arg == "key":
                    self._check_key(kw.value, sub)

    def _check_key(self, key_expr: ast.AST, call: ast.Call) -> None:
        poisoned = False
        for sub in ast.walk(key_expr):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                if sub.func.id in ("id", "hash"):
                    poisoned = True
            elif isinstance(sub, ast.Name) and any(
                lab[0] == "id" for lab in self.taints.get(sub.id, ())
            ):
                poisoned = True
        if poisoned:
            line = call.lineno
            if not any(
                f.rule == "REP-DT002" and f.line == line
                for f in self.fs.taint_findings
            ):
                self.fs.taint_findings.append(
                    TaintFinding(
                        line=line,
                        rule="REP-DT002",
                        message=(
                            "comparison key depends on id()/hash() identity "
                            "— tie-breaking becomes memory-layout-dependent; "
                            "key on stable vertex data instead"
                        ),
                    )
                )


# ---------------------------------------------------------------------------
# module summarization
# ---------------------------------------------------------------------------


def summarize_module(
    path: str,
    source: str,
    tree: Optional[ast.Module] = None,
    *,
    display_path: Optional[str] = None,
    in_cost_scope: bool = True,
) -> ModuleSummary:
    """Build the AST-free whole-program digest of one module."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    module_name, is_package = module_name_for(path)
    summary = ModuleSummary(
        path=display_path or path,
        module_name=module_name,
        in_cost_scope=in_cost_scope,
        suppressions=parse_suppressions(source, tree),
    )
    bindings: set[str] = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                key = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                summary.imports[key] = ("module", target)
                bindings.add(key)
        elif isinstance(stmt, ast.ImportFrom):
            base = _resolve_relative(
                module_name, is_package, stmt.level, stmt.module
            )
            for alias in stmt.names:
                key = alias.asname or alias.name
                summary.imports[key] = ("symbol", base, alias.name)
                bindings.add(key)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                bindings |= _flat_names(target)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            bindings.add(stmt.target.id)
    summary.module_bindings = frozenset(bindings)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fs = _FunctionSummarizer(stmt, None, summary.module_bindings).run()
            fs.module = module_name
            summary.functions[fs.qualname] = fs
        elif isinstance(stmt, ast.ClassDef):
            summary.classes[stmt.name] = _summarize_class(
                stmt, summary, module_name
            )
    return summary


def _summarize_class(
    node: ast.ClassDef, summary: ModuleSummary, module_name: str
) -> ClassSummary:
    bases: list[str] = []
    for base in node.bases:
        chain = attribute_chain(base)
        if chain:
            bases.append(".".join(chain))
    attrs: set[str] = set()
    attr_types: dict[str, str] = {}
    has_cm = False
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            attrs.add(item.target.id)
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        fs = _FunctionSummarizer(item, node.name, summary.module_bindings).run()
        fs.module = module_name
        summary.functions[fs.qualname] = fs
        if set(fs.params) & CM_NAMES:
            has_cm = True
        for sub in ast.walk(item):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
                value = getattr(sub, "value", None)
            for target in targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    attrs.add(target.attr)
                    if value is not None:
                        type_expr = _type_expr(value)
                        if type_expr:
                            attr_types[target.attr] = type_expr
    if attrs & CM_NAMES:
        has_cm = True
    return ClassSummary(
        name=node.name,
        lineno=node.lineno,
        bases=tuple(bases),
        attrs=frozenset(attrs),
        attr_types=attr_types,
        has_cm=has_cm,
    )


# ---------------------------------------------------------------------------
# the whole-program context
# ---------------------------------------------------------------------------


class ProjectContext:
    """Symbol table + call graph over every linted module's summary."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module_name] = summary
        self._capture_cache: dict[tuple[str, str], Optional[bool]] = {}
        self._run_fixpoints()

    # -- symbol resolution ---------------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _depth: int = 0
    ) -> Optional[tuple[str, str, Any]]:
        """Resolve ``name`` as seen from ``module``.

        Returns ``("func", modname, FunctionSummary)``, ``("class",
        modname, ClassSummary)``, ``("module", modname, ModuleSummary)``
        or None.
        """
        if _depth > 8:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        if name in summary.functions and "." not in name:
            return ("func", module, summary.functions[name])
        if name in summary.classes:
            return ("class", module, summary.classes[name])
        if name in summary.imports:
            ref = summary.imports[name]
            if ref[0] == "module":
                target = ref[1]
                if target in self.modules:
                    return ("module", target, self.modules[target])
                return None
            _, base, symbol = ref
            resolved = self.resolve_symbol(base, symbol, _depth + 1)
            if resolved is not None:
                return resolved
            submodule = f"{base}.{symbol}" if base else symbol
            if submodule in self.modules:
                return ("module", submodule, self.modules[submodule])
        return None

    def _resolve_dotted(
        self, module: str, chain: tuple[str, ...]
    ) -> Optional[tuple[str, str, Any]]:
        """Resolve ``a.b.c`` (without the final call name) from ``module``."""
        if not chain:
            return None
        current = self.resolve_symbol(module, chain[0])
        for part in chain[1:]:
            if current is None:
                return None
            kind, modname, obj = current
            if kind == "module":
                current = self.resolve_symbol(modname, part)
                if current is None and f"{modname}.{part}" in self.modules:
                    current = (
                        "module",
                        f"{modname}.{part}",
                        self.modules[f"{modname}.{part}"],
                    )
            elif kind == "class":
                method = self._find_method(modname, obj, part)
                current = ("func", modname, method) if method else None
            else:
                return None
        return current

    def _find_method(
        self, modname: str, cls: ClassSummary, name: str, _depth: int = 0
    ) -> Optional[FunctionSummary]:
        if _depth > 8:
            return None
        summary = self.modules.get(modname)
        if summary is not None:
            fs = summary.functions.get(f"{cls.name}.{name}")
            if fs is not None:
                return fs
        for base_expr in cls.bases:
            base = self._resolve_class_expr(modname, base_expr)
            if base is None:
                continue
            base_mod, base_cls = base
            found = self._find_method(base_mod, base_cls, name, _depth + 1)
            if found is not None:
                return found
        return None

    def _resolve_class_expr(
        self, module: str, expr: str
    ) -> Optional[tuple[str, ClassSummary]]:
        parts = tuple(expr.split("."))
        if len(parts) == 1:
            resolved = self.resolve_symbol(module, parts[0])
        else:
            resolved = self._resolve_dotted(module, parts)
        if resolved is not None and resolved[0] == "class":
            return resolved[1], resolved[2]
        return None

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self, fs: FunctionSummary, site: CallSite
    ) -> Optional[FunctionSummary]:
        """The callee summary of a call site, or None when unresolvable."""
        module = fs.module
        if site.kind == _BARE:
            resolved = self.resolve_symbol(module, site.name)
            if resolved is None:
                return None
            kind, modname, obj = resolved
            if kind == "func":
                return obj
            if kind == "class":
                return self._find_method(modname, obj, "__init__")
            return None
        if site.kind == _SELF:
            if fs.cls is None:
                return None
            summary = self.modules.get(module)
            cls = summary.classes.get(fs.cls) if summary else None
            if cls is None:
                return None
            return self._find_method(module, cls, site.name)
        if site.kind == _ATTR:
            chain = site.chain
            # self.<attr>.<method>() through the attribute's constructor type
            if chain[0] == "self" and fs.cls is not None and len(chain) == 3:
                summary = self.modules.get(module)
                cls = summary.classes.get(fs.cls) if summary else None
                type_expr = cls.attr_types.get(chain[1]) if cls else None
                if type_expr:
                    target = self._resolve_class_expr(module, type_expr)
                    if target:
                        return self._find_method(target[0], target[1], chain[2])
                return None
            # local_var.<method>() through the local constructor type
            if chain[0] in fs.var_types and len(chain) == 2:
                target = self._resolve_class_expr(module, fs.var_types[chain[0]])
                if target:
                    return self._find_method(target[0], target[1], chain[1])
            # module alias chain: mod.sub.func()
            resolved = self._resolve_dotted(module, chain[:-1])
            if resolved is not None:
                kind, modname, obj = resolved
                if kind == "module":
                    final = self.resolve_symbol(modname, chain[-1])
                    if final is not None and final[0] == "func":
                        return final[2]
                    if final is not None and final[0] == "class":
                        return self._find_method(final[1], final[2], "__init__")
                elif kind == "class":
                    return self._find_method(modname, obj, chain[-1])
            return None
        return None

    # -- fixpoints -----------------------------------------------------------

    def _run_fixpoints(self) -> None:
        funcs = [
            fs for summary in self.modules.values()
            for fs in summary.functions.values()
        ]
        for fs in funcs:
            fs.may_charge = fs.direct_charge
            fs.may_mutate = fs.direct_mutate
        changed = True
        while changed:
            changed = False
            for fs in funcs:
                if fs.may_charge and fs.may_mutate:
                    continue
                for site in fs.calls:
                    callee = self.resolve_call(fs, site)
                    if callee is None:
                        continue
                    if callee.may_charge and not fs.may_charge:
                        fs.may_charge = True
                        changed = True
                    if callee.may_mutate and not fs.may_mutate:
                        fs.may_mutate = True
                        changed = True

    # -- class queries -------------------------------------------------------

    def class_has_cm(self, module: str, cls_name: str, _depth: int = 0) -> bool:
        if _depth > 8:
            return False
        summary = self.modules.get(module)
        cls = summary.classes.get(cls_name) if summary else None
        if cls is None:
            return False
        if cls.has_cm:
            return True
        for base_expr in cls.bases:
            base = self._resolve_class_expr(module, base_expr)
            if base and self.class_has_cm(base[0], base[1].name, _depth + 1):
                return True
        return False

    def capture_capable(self, module: str, cls_name: str) -> Optional[bool]:
        """Can ``guard.capture`` snapshot instances of this class?

        None when the class is not resolvable inside the project.
        """
        key = (module, cls_name)
        if key in self._capture_cache:
            return self._capture_cache[key]
        result = self._capture_capable(module, cls_name, 0)
        # an unresolvable class stays None on every later query too: a
        # class defined outside the linted paths is unknown, not uncapturable
        self._capture_cache[key] = result
        return result

    def _capture_capable(
        self, module: str, cls_name: str, depth: int
    ) -> Optional[bool]:
        if depth > 8:
            return None
        resolved = self._resolve_class_expr(module, cls_name)
        if resolved is None:
            return None
        modname, cls = resolved
        if cls.attrs & CAPTURE_FINGERPRINTS:
            return True
        for base_expr in cls.bases:
            base_ok = self._capture_capable(modname, base_expr, depth + 1)
            if base_ok:
                return True
        return False

    # -- iteration helpers ---------------------------------------------------

    def all_functions(self) -> Iterable[tuple[ModuleSummary, FunctionSummary]]:
        for summary in self.modules.values():
            for fs in summary.functions.values():
                yield summary, fs

    def is_suppressed(self, summary: ModuleSummary, line: int, rule: str) -> bool:
        return is_suppressed(summary.suppressions, line, rule)


class ProjectChecker:
    """Base class for whole-program checker plugins.

    Subclasses declare ``rules`` and implement :meth:`run`, returning
    ``(summary, Finding)`` pairs so the engine can apply the right
    module's suppression map.
    """

    rules: dict[str, str] = {}

    def __init__(self, project: ProjectContext) -> None:
        self.project = project

    def run(self):  # pragma: no cover - interface
        raise NotImplementedError


__all__ = [
    "CAPTURE_FINGERPRINTS",
    "BlockSummary",
    "CallSite",
    "ClassSummary",
    "FunctionSummary",
    "GuardedRegion",
    "ModuleSummary",
    "ProjectChecker",
    "ProjectContext",
    "TaintFinding",
    "TaintPending",
    "module_name_for",
    "summarize_module",
]
