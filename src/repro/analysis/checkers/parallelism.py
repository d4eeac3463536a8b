"""Parallelism checker (rule REP-P001).

The ladder's rungs are *independent* structures — that independence is the
whole parallelism story of Theorems 1.1/1.2, and the executor protocol
(:mod:`repro.pram.executor`, docs/PERFORMANCE.md) is its single audited
funnel: rung updates become :class:`~repro.pram.executor.RungTask` items
handed to ``executor.run_structures``, which wraps each one in a cost-model
branch of one parallel region.  A bare

    for rung in self.rungs:
        rung.insert_batch(edges)

re-serialises the sweep's accounting and records the wrong depth
(sequential sum instead of branch max).  This checker flags such
loops statically in the cost-scoped packages:

* **REP-P001** — a ``for`` loop iterating over a ``rungs`` collection whose
  body calls a batch-mutation method (``insert_batch`` / ``delete_batch``
  / ``update_batch`` / ``apply_ops``): route it through the executor.

Read-only sweeps (``check_invariants``, snapshot capture) and index loops
that merely *build* tasks are fine and not flagged.  A deliberately
sequential loop would carry an inline ``# reprolint: disable=REP-P001``
with its justification; no code in ``src/`` needs one.

A second rule polices the *per-iteration cost* of those same hot loops
(docs/PERFORMANCE.md, the storage-layout story):

* **REP-P002** — a per-edge loop (iterating ``edges`` / ``arcs`` /
  per-edge journals, or unpacking ``for u, v in ...``) whose body
  allocates a fresh Python object per iteration: a class construction
  (``Node()``, ``_Node(...)``), a bare ``set()`` / ``dict()`` /
  ``list()`` constructor, or ``d.setdefault(k, <constructor>)`` growth.
  One small object per edge puts the allocator on the hot path — at
  E21/E22 scale a per-edge tree node per stored arc dominated the sweep,
  which is why the orientation keeps per-edge state in contiguous
  per-vertex slabs (``core/outset.py``, ``core/inindex.py``).  Accepted
  batch-local sites carry justifications in ``.reprolint-baseline.json``;
  *new* hot loops should batch their allocation outside the loop or use
  the slab layout.

Raising paths are exempt (an exception constructor in a ``raise`` is not
a steady-state allocation), as are loops that only *collect* results
into a pre-existing container.
"""

from __future__ import annotations

import ast
import re

from ..walker import Checker, attribute_chain

#: batch-mutation methods that must flow through the executor protocol.
_BATCH_METHODS = frozenset(
    {"insert_batch", "delete_batch", "update_batch", "apply_ops"}
)

#: iterable names that mark a loop as per-edge (REP-P002).
_EDGE_ITERABLES = frozenset(
    {"edges", "arcs", "insertions", "deletions", "last_reversed",
     "changed_edges", "batch"}
)

#: builtin constructors whose call in a per-edge loop allocates per item.
_CONTAINER_BUILTINS = frozenset({"set", "dict", "list"})

#: CamelCase (optionally underscore-private) class-construction pattern.
_CLASS_NAME = re.compile(r"^_?[A-Z][A-Za-z0-9]*$")

#: single-item mutation entry points — called once per edge by contract,
#: so an allocation in their body is a per-edge allocation even though
#: the edge loop lives in the caller.
_PER_ITEM_METHODS = frozenset({"add", "insert", "remove", "delete", "move"})


def _iterates_rungs(iter_node: ast.AST) -> bool:
    """Does the loop's iterable mention a ``rungs`` collection?

    Matches ``self.rungs``, ``st.rungs``, ``enumerate(self.rungs)``,
    ``zip(self.rungs, ...)``, ``range(len(self.rungs))`` — any expression
    with a ``rungs`` attribute or name anywhere inside it.
    """
    for sub in ast.walk(iter_node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rungs":
            return True
        if isinstance(sub, ast.Name) and sub.id == "rungs":
            return True
    return False


def _batch_call_in(body: list[ast.stmt]) -> ast.Call | None:
    """The first direct batch-mutation method call in the loop body."""
    for stmt in body:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _BATCH_METHODS
            ):
                return sub
    return None


def _is_edge_loop(node: ast.For) -> bool:
    """Is this a per-edge loop?  (The iterable names an edge collection.)"""
    for sub in ast.walk(node.iter):
        if isinstance(sub, ast.Attribute) and sub.attr in _EDGE_ITERABLES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _EDGE_ITERABLES:
            return True
    return False


def _raise_lines(body: list[ast.stmt]) -> set[int]:
    """Line spans of ``raise`` statements (error-path exemption)."""
    lines: set[int] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise):
                end = getattr(sub, "end_lineno", sub.lineno) or sub.lineno
                lines.update(range(sub.lineno, end + 1))
    return lines


def _is_fresh_container(node: ast.expr) -> bool:
    """Does evaluating this expression allocate a fresh container?"""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and (
            node.func.id in _CONTAINER_BUILTINS
            or bool(_CLASS_NAME.match(node.func.id))
        )
    )


def _alloc_in(body: list[ast.stmt]) -> tuple[ast.AST, str] | None:
    """The first per-item allocation in a hot-path body."""
    skip = _raise_lines(body)
    for stmt in body:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call) or sub.lineno in skip:
                continue
            func = sub.func
            if isinstance(func, ast.Name):
                if func.id in _CONTAINER_BUILTINS:
                    return sub, f"fresh {func.id}() per item"
                if _CLASS_NAME.match(func.id) and not func.id.endswith(
                    ("Error", "Violation", "Exception", "Warning")
                ):
                    return sub, f"constructs {func.id} per item"
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "setdefault"
                and len(sub.args) >= 2
                and _is_fresh_container(sub.args[1])
            ):
                return sub, "setdefault() grows a fresh container per item"
    return None


class ParallelismChecker(Checker):
    """Ladder rung sweeps must route through the executor protocol."""

    rules = {
        "REP-P001": "rung update loop bypasses the executor protocol",
        "REP-P002": "per-edge Python-object allocation in a hot loop",
    }

    def run(self):
        if not getattr(self.ctx, "in_cost_scope", True):
            return self.findings
        self.visit(self.ctx.tree)
        return self.findings

    def visit_For(self, node: ast.For) -> None:
        if _iterates_rungs(node.iter):
            call = _batch_call_in(node.body)
            if call is not None:
                method = call.func.attr  # type: ignore[union-attr]
                self.emit(
                    node,
                    "REP-P001",
                    f"loop over rungs calls {method!r} directly — build "
                    "RungTask items and hand them to executor."
                    "run_structures so the depth accounting stays a "
                    "branch max "
                    "(docs/PERFORMANCE.md)",
                )
        elif _is_edge_loop(node):
            alloc = _alloc_in(node.body)
            if alloc is not None:
                call, what = alloc
                self.emit(
                    call,
                    "REP-P002",
                    f"per-edge loop {what} — one object per edge puts "
                    "the allocator on the hot path; hoist the allocation "
                    "out of the loop or keep the state in contiguous "
                    "per-vertex slabs (docs/PERFORMANCE.md)",
                )
        self.generic_visit(node)

    # async structures do not exist in this codebase, but the rule is the
    # same if one ever appears.
    visit_AsyncFor = visit_For

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in _PER_ITEM_METHODS and node.args.args:
            # top-level statements only: loops inside the body are the
            # For visitor's job, and an allocation under a loop is not
            # necessarily once-per-call.
            flat = [s for s in node.body if not isinstance(s, (ast.For, ast.While))]
            alloc = _alloc_in(flat)
            if alloc is not None:
                call, what = alloc
                self.emit(
                    call,
                    "REP-P002",
                    f"per-item mutation {node.name}() {what} — this entry "
                    "point runs once per edge, so the allocation is "
                    "per-edge; hoist it or keep the state in contiguous "
                    "per-vertex slabs (docs/PERFORMANCE.md)",
                )
        self.generic_visit(node)


__all__ = ["ParallelismChecker"]
