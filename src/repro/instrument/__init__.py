"""Instrumentation: cost model, Brent projections, metrics, telemetry.

* :mod:`.work_depth` — the simulated-PRAM work/depth :class:`CostModel`.
* :mod:`.brent` — Brent-bound runtime projections.
* :mod:`.metrics` — per-batch records, summaries, table rendering.
* :mod:`.trace` / :mod:`.telemetry` / :mod:`.export` — the observability
  layer (docs/OBSERVABILITY.md): phase-scoped spans attributing cost-model
  deltas to a game → round → rung tree, a process-wide metrics registry,
  and JSONL / Prometheus / fixed-width-report / BENCH-json sinks.
* :mod:`.wallclock` / :mod:`.live` — the wall-clock observatory: the
  process-wide mockable Tracer clock, and the live terminal dashboard /
  Prometheus HTTP endpoint (``repro run --live``).  :mod:`.live` is not
  re-exported here: it loads ``http.server``, so import it from
  ``repro.instrument.live`` where it is used.
"""

from .brent import BrentPoint, parallelism, project, saturation_processors
from .export import (
    JsonlSink,
    bench_payload,
    parse_prometheus,
    phase_shares,
    prometheus_text,
    read_jsonl,
    render_phase_tree,
    validate_bench_payload,
    write_bench_json,
)
from .metrics import (
    BatchRecord,
    BatchTimer,
    RecoveryStats,
    Series,
    render_series,
    render_table,
)
from .telemetry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanNode,
    Tracer,
)
from .trace import SPAN_TAXONOMY, register_span, span, tracing
from .wallclock import FakeClock, mocked_clock, monotonic
from .work_depth import CostModel, NullCostModel, ParallelRegion, Snapshot

__all__ = [
    "BatchRecord",
    "BatchTimer",
    "BrentPoint",
    "CostModel",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullCostModel",
    "ParallelRegion",
    "REGISTRY",
    "RecoveryStats",
    "SPAN_TAXONOMY",
    "Series",
    "Snapshot",
    "SpanNode",
    "Tracer",
    "bench_payload",
    "mocked_clock",
    "monotonic",
    "parallelism",
    "parse_prometheus",
    "phase_shares",
    "project",
    "prometheus_text",
    "read_jsonl",
    "register_span",
    "render_phase_tree",
    "render_series",
    "render_table",
    "saturation_processors",
    "span",
    "tracing",
    "validate_bench_payload",
    "write_bench_json",
]
