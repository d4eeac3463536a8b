"""The thin span API — the telemetry layer's hot-path entry point.

Mirrors the design of :mod:`repro.resilience.faults`.  While no tracer
is armed, a ``with span(...):`` site costs three Python calls and no
allocation: :func:`span` reads ``ACTIVE``, returns the shared :data:`NULL`
span, and the ``with`` enters and exits it.  The per-phase spans of the
token games pay that, because the committed phase trees pin their form.
The function-level spans (``game.drop``, ``game.push``,
``balanced.insert``, ``balanced.delete``, ``bundles.extract``,
``bundles.partition``) test ``ACTIVE is None`` at the call site first, so
disarmed they cost that one global read and build no ``detail`` dict.
Neither form touches the cost model.  Arming a
:class:`~repro.instrument.telemetry.Tracer` (via :func:`tracing`) turns
the same sites into nestable spans that snapshot the cost model's
innermost frame on entry/exit and attribute the work/depth delta to a
phase tree.

Span names come from the registered :data:`SPAN_TAXONOMY` — the
game → round → rung vocabulary of docs/OBSERVABILITY.md.  A typo'd name
would silently fragment attribution, so armed tracers reject unknown
names at runtime and reprolint's REP-O rules reject them statically in
``src/repro/core/``.

Spans never touch the :class:`~repro.instrument.work_depth.CostModel`
(they only *read* it), so work/depth counters are bit-identical whether
telemetry is armed or not — a property the test suite asserts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..errors import ParameterError

#: Registered span names (name -> one-line description).  The taxonomy is
#: hierarchical by dotted prefix: ``game.drop.phase`` is a round inside a
#: ``game.drop`` game inside whatever batch/rung span encloses it.
SPAN_TAXONOMY: dict[str, str] = {
    "run": "whole replay/profiling session (the implicit tracer root)",
    "batch": "one trace batch applied to every maintained structure",
    "structure": "one structure's share of a batch (attr: structure=name)",
    "ladder.rung": "one fixed-H rung of the (1+eps)^i ladder (attr: H)",
    "balanced.insert": "BalancedOrientation insert path (bundles + games)",
    "balanced.delete": "BalancedOrientation delete path (frees + games)",
    "balanced.free": "free insertions/deletions at saturated endpoints",
    "bundles.extract": "ExtractTokenBundle proposal round (Lemma 4.16)",
    "bundles.partition": "deletion-token partitioning (Definition 4.17)",
    "game.drop": "one token-dropping game (Section 4.2.1)",
    "game.drop.phase": "one token-dropping phase (scan/propose/flip)",
    "game.drop.settle": "insert settlement (resting tokens become levels)",
    "game.push": "one token-pushing game (Section 4.3.1)",
    "game.push.phase": "one token-pushing phase (labels + all rounds)",
    "game.push.ranks": "rank rounds i = 1..H of a pushing phase",
    "game.push.truncated": "truncated-rank H+1 round (transparent tokens)",
    "game.push.settle": "delete settlement (absorbed tokens decrement)",
    "pram.map": "executor sweep over independent structures (attr: backend)",
    "recovery.apply": "RecoveryManager.apply of one batch",
    "verify.diff": "one differential replay across the config panel",
    "verify.config": "one config's share of a differential batch (attr: config)",
    "verify.audit": "deep exact-oracle audit of coreness/density bands",
    "verify.minimize": "ddmin shrinking of a failing stream",
    "scenario.stream": "drain of one adversarial scenario stream (attr: scenario)",
    "scenario.spill": "out-of-core spill of a scenario stream to a tracefile",
}


def register_span(name: str, description: str) -> None:
    """Add a span name to the taxonomy (idempotent; tooling/extensions)."""
    if not name or not all(part for part in name.split(".")):
        raise ParameterError(f"malformed span name {name!r}")
    SPAN_TAXONOMY.setdefault(name, description)


class NullSpan:
    """The disarmed span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


#: The shared no-op span returned by :func:`span` while disarmed.
NULL = NullSpan()

#: The armed tracer, or None.  A site that tests it before calling
#: :func:`span` pays only this global read while disarmed.
ACTIVE: Optional[Any] = None


def span(name: str, detail: Optional[dict] = None, **attrs: Any):
    """Open a phase span (a context manager) on the armed tracer.

    ``attrs`` become part of the phase-tree aggregation key (use them for
    low-cardinality dimensions like a rung height); ``detail`` is carried
    on the emitted event only (use it for per-instance values like a
    batch index that must not fragment the tree).
    """
    tracer = ACTIVE
    if tracer is None:
        return NULL
    return tracer.span(name, detail=detail, **attrs)


def event(name: str, **fields: Any) -> None:
    """Emit a point event (no duration) to the armed tracer's sinks."""
    tracer = ACTIVE
    if tracer is not None:
        tracer.event(name, **fields)


@contextmanager
def tracing(tracer: Any) -> Iterator[Any]:
    """Arm ``tracer`` for the duration of the block (re-entrant safe).

    Arm between batches only: the tracer baselines the cost model's root
    totals on entry, and the exactness of the phase-tree sum relies on no
    parallel region being open at arm/disarm time.
    """
    global ACTIVE
    previous = ACTIVE
    tracer.arm()
    ACTIVE = tracer
    try:
        yield tracer
    finally:
        ACTIVE = previous
        tracer.disarm()


__all__ = [
    "ACTIVE",
    "NULL",
    "NullSpan",
    "SPAN_TAXONOMY",
    "event",
    "register_span",
    "span",
    "tracing",
]
