"""Phase-scoped tracing and the process-wide metrics registry.

Two halves, both zero-dependency:

* :class:`Tracer` — the armed end of the :mod:`repro.instrument.trace`
  span API.  Each span probes the cost model's innermost frame on entry
  and exit (:meth:`CostModel.frame_probe`) and attributes the work/depth
  delta to a node of a *phase tree* keyed by (span name, attrs).  Sibling
  instances of the same phase aggregate, so a 40-batch run produces one
  ``game.drop.phase`` node with ``count=...`` rather than thousands of
  rows.  Every span exit (and every point :func:`~repro.instrument.trace.
  event`) is also emitted to the tracer's sinks — e.g. a JSON-lines file
  (:class:`~repro.instrument.export.JsonlSink`).

* :class:`MetricsRegistry` — named counters, gauges and log-scale
  histograms with optional labels, exposable as Prometheus text
  (:func:`~repro.instrument.export.prometheus_text`).  The module-level
  :data:`REGISTRY` is the process-wide default; per-batch counter deltas
  and recovery-tier outcomes mirror into it (see ``metrics.BatchTimer``
  and ``metrics.RecoveryStats``).

Invariants the tests pin down:

* Tracing never mutates the cost model — work/depth/counters are
  bit-identical with telemetry armed or disarmed.
* At disarm time the tracer's root node holds the exact cost-model delta
  since arming, and at every node ``self_work() + sum(child work)`` equals
  the node's inclusive work — so per-phase work sums to the total.
* The span stack unwinds correctly through exceptions (a guarded rollback
  mid-phase leaves the tracer consistent and re-armable).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..errors import ParameterError
from . import trace as _trace
from . import wallclock as _wallclock
from .work_depth import CostModel

# --------------------------------------------------------------------------
# phase tree
# --------------------------------------------------------------------------

#: Aggregation key of a phase-tree child: (span name, sorted attr items).
NodeKey = tuple[str, tuple[tuple[str, Any], ...]]


@dataclass
class SpanNode:
    """One aggregated phase of the tree (all spans sharing name + attrs)."""

    name: str
    attrs: tuple[tuple[str, Any], ...] = ()
    count: int = 0
    work: int = 0
    depth: int = 0
    wall: float = 0.0
    children: dict[NodeKey, "SpanNode"] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Display label: ``name[k=v, ...]``."""
        if not self.attrs:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.attrs)
        return f"{self.name}[{inner}]"

    def child(self, name: str, attrs: tuple[tuple[str, Any], ...]) -> "SpanNode":
        """The (created-on-demand) aggregation node for a sub-phase."""
        key: NodeKey = (name, attrs)
        node = self.children.get(key)
        if node is None:
            node = SpanNode(name, attrs)
            self.children[key] = node
        return node

    def self_work(self) -> int:
        """Inclusive work minus the work attributed to sub-phases."""
        return self.work - sum(c.work for c in self.children.values())

    def self_depth(self) -> int:
        """Inclusive depth minus sub-phase depths (may be < 0: parallel
        siblings *max* their depths into the parent, they do not sum)."""
        return self.depth - sum(c.depth for c in self.children.values())

    def walk(self, _prefix: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], "SpanNode"]]:
        """Yield ``(path, node)`` pairs depth-first (path ends in label)."""
        path = _prefix + (self.label,)
        yield path, self
        for key in sorted(self.children, key=lambda k: (k[0], str(k[1]))):
            yield from self.children[key].walk(path)

    def total_self_work(self) -> int:
        """Sum of ``self_work`` over the whole subtree (== ``self.work``)."""
        return sum(node.self_work() for _path, node in self.walk())

    def find(self, name: str) -> list["SpanNode"]:
        """All descendant nodes (including self) with the given span name."""
        return [node for _path, node in self.walk() if node.name == name]


class _Span:
    """One live (open) span; allocated only while a tracer is armed."""

    __slots__ = ("tracer", "node", "detail", "frame", "work0", "depth0", "t0")

    def __init__(self, tracer: "Tracer", node: SpanNode, detail: Optional[dict]) -> None:
        self.tracer = tracer
        self.node = node
        self.detail = detail

    def __enter__(self) -> SpanNode:
        tracer = self.tracer
        tracer._stack.append(self.node)
        self.frame, self.work0, self.depth0 = tracer.cm.frame_probe()
        self.t0 = tracer.clock()
        return self.node

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self.tracer
        wall = tracer.clock() - self.t0
        frame, work1, depth1 = tracer.cm.frame_probe()
        if frame == self.frame:
            work, depth = work1 - self.work0, depth1 - self.depth0
        else:
            # the span straddled a region or branch boundary (unreachable
            # through well-nested `with` blocks) — attribute nothing, but
            # record that attribution lost data rather than corrupting the tree.
            work = depth = 0
            tracer.frame_mismatches += 1
        popped = tracer._stack.pop()
        if popped is not self.node:
            tracer.frame_mismatches += 1
        node = self.node
        node.count += 1
        node.work += work
        node.depth += depth
        node.wall += wall
        registry = tracer.registry
        if registry is not None:
            registry.counter("repro_spans_total", span=node.name).inc()
            registry.counter(
                "repro_span_seconds_total", span=node.name
            ).inc(max(0.0, wall))
        if tracer.sinks:
            ev: dict[str, Any] = {
                "type": "span",
                "name": node.name,
                "path": [n.label for n in tracer._stack[1:]] + [node.label],
                "work": work,
                "depth": depth,
                "wall": wall,
                "error": exc_type is not None,
            }
            if node.attrs:
                ev["attrs"] = dict(node.attrs)
            if self.detail:
                ev["detail"] = dict(self.detail)
            tracer._emit(ev)
        return False


class Tracer:
    """Phase-scoped span collector bound to one :class:`CostModel`.

    Arm it with :func:`repro.instrument.trace.tracing`; instrumented code
    reaches it through the module-level ``trace.span`` / ``trace.event``
    functions.  ``strict`` (the default) rejects span names outside the
    registered taxonomy so typos cannot silently fragment attribution.

    ``clock`` defaults to the process-wide mockable monotonic clock
    (:func:`repro.instrument.wallclock.monotonic`) — the *Tracer clock*
    reprolint's REP-O003 routes all wall-clock reads through.  With a
    ``registry`` attached, every span exit also publishes
    ``repro_spans_total{span=}`` / ``repro_span_seconds_total{span=}``,
    which is what the live dashboard's "hottest spans" panel reads.
    Neither wall timing nor publishing ever touches the cost model.
    """

    def __init__(
        self,
        cm: CostModel,
        *,
        strict: bool = True,
        sinks: tuple[Callable[[dict], None], ...] | list = (),
        clock: Callable[[], float] = _wallclock.monotonic,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.cm = cm
        self.strict = strict
        self.sinks: list[Callable[[dict], None]] = list(sinks)
        self.clock = clock
        self.registry = registry
        self.root = SpanNode("run")
        self._stack: list[SpanNode] = [self.root]
        self._base_work = 0
        self._base_depth = 0
        self._t_armed = 0.0
        self._seq = 0
        self.frame_mismatches = 0

    # -- the span/event surface (called through trace.span/trace.event) ----

    def span(self, name: str, detail: Optional[dict] = None, **attrs: Any) -> _Span:
        """Open one phase span; see :func:`repro.instrument.trace.span`."""
        if self.strict and name not in _trace.SPAN_TAXONOMY:
            raise ParameterError(
                f"span name {name!r} is not in the registered taxonomy "
                "(docs/OBSERVABILITY.md); register_span() it or fix the typo"
            )
        parent = self._stack[-1]
        node = parent.child(name, tuple(sorted(attrs.items())))
        return _Span(self, node, detail)

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event to the sinks (no tree attribution)."""
        ev = {"type": "event", "name": name}
        ev.update(fields)
        self._emit(ev)

    def _emit(self, ev: dict) -> None:
        self._seq += 1
        ev["seq"] = self._seq
        for sink in self.sinks:
            sink(ev)

    # -- arming (driven by trace.tracing) -----------------------------------

    def arm(self) -> None:
        """Baseline the cost model's root totals (call between batches)."""
        self._base_work = self.cm.work
        self._base_depth = self.cm.depth
        self._t_armed = self.clock()

    def disarm(self) -> None:
        """Fold the since-arming cost-model delta into the root node."""
        self.root.count += 1
        self.root.work += self.cm.work - self._base_work
        self.root.depth += self.cm.depth - self._base_depth
        self.root.wall += self.clock() - self._t_armed
        if self._stack[-1] is not self.root:
            # an exception tore down the arming block with spans open; the
            # context managers have already unwound their nodes, so just
            # reset the stack for the next arming.
            self._stack = [self.root]

    @property
    def open_spans(self) -> int:
        """How many spans are currently open (0 between batches)."""
        return len(self._stack) - 1


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Label items, sorted — the identity of one child within a metric family.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ParameterError(f"bad metric label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ParameterError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the value by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """A log-scale (powers-of-two) histogram of non-negative observations.

    Bucket ``e`` counts observations in ``(2^(e-1), 2^e]`` for any integer
    ``e`` — *negative exponents included*, so sub-second wall-clock
    durations resolve into meaningful buckets (8 ms lands in ``e = -6``)
    instead of collapsing into a single catch-all.  Everything at or
    below ``2^MIN_EXP`` (~1 ns), including exact zeros, lands in the
    ``MIN_EXP`` floor bucket.  The factor-2 resolution over many orders
    of magnitude at O(log range) memory matches the multiplicative
    spreads the paper's bounds talk in.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "count", "sum", "min", "max")

    #: floor exponent: observations <= 2**MIN_EXP share one bucket.
    MIN_EXP = -30

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation (negative values are rejected)."""
        if value < 0:
            raise ParameterError(f"histogram {self.name}: negative value {value}")
        if value <= 2.0**self.MIN_EXP:
            exp = self.MIN_EXP
        else:
            exp = math.ceil(math.log2(value))
            # float rounding near exact powers of two: keep the invariant
            # value <= 2**exp with the smallest such exp.
            while 2.0**exp < value:
                exp += 1
            while exp > self.MIN_EXP and 2.0 ** (exp - 1) >= value:
                exp -= 1
        self.buckets[exp] = self.buckets.get(exp, 0) + 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, q: float) -> float:
        """Upper bucket bound below which >= q% of observations fall."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * q / 100.0)
        seen = 0
        for exp in sorted(self.buckets):
            seen += self.buckets[exp]
            if seen >= target:
                return 2.0**exp
        return 2.0 ** max(self.buckets)


class MetricsRegistry:
    """Process-wide home for counters, gauges, and histograms.

    Metrics are identified by (name, labels); asking again returns the
    same instrument, asking with a different kind raises.  ``clear()``
    resets the registry (tests, and the CLI between runs).
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric family (idempotent)."""
        if not _NAME_RE.match(name):
            raise ParameterError(f"bad metric name {name!r}")
        self._help[name] = help_text

    def help_of(self, name: str) -> Optional[str]:
        """The registered help text of ``name`` (None if never described)."""
        return self._help.get(name)

    def _get(self, kind: str, name: str, labels: dict[str, Any]):
        if not _NAME_RE.match(name):
            raise ParameterError(f"bad metric name {name!r}")
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ParameterError(
                f"metric {name!r} already registered as a {known}, not a {kind}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._KINDS[kind](name, key[1])
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        return self._get("histogram", name, labels)

    def collect(self) -> list[Any]:
        """Every registered instrument, sorted by (name, labels)."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dump: name -> list of {labels, kind, value...}."""
        out: dict[str, Any] = {}
        for metric in self.collect():
            entry: dict[str, Any] = {
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            if metric.kind == "histogram":
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    buckets={str(e): c for e, c in sorted(metric.buckets.items())},
                )
            else:
                entry["value"] = metric.value
            out.setdefault(metric.name, []).append(entry)
        return out

    def clear(self) -> None:
        """Drop every instrument (a fresh process-wide slate)."""
        self._metrics.clear()
        self._kinds.clear()
        self._help.clear()


#: The process-wide default registry (the CLI and the batch timer publish
#: here; tests that need isolation construct their own or ``clear()`` it).
REGISTRY = MetricsRegistry()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "SpanNode",
    "Tracer",
]
