"""Telemetry sinks and machine-readable perf export.

Three output formats, all dependency-free:

* **JSON-lines event log** — :class:`JsonlSink` appends one JSON object
  per span exit / point event; :func:`read_jsonl` round-trips it.
* **Prometheus text exposition** — :func:`prometheus_text` renders a
  :class:`~repro.instrument.telemetry.MetricsRegistry`;
  :func:`parse_prometheus` parses the sample lines back (round-trip
  tested, and handy for scraping BENCH artefacts in CI).
* **Fixed-width phase-tree report** — :func:`render_phase_tree` renders a
  :class:`~repro.instrument.telemetry.SpanNode` tree the way
  EXPERIMENTS.md renders its tables; :func:`phase_shares` flattens the
  same tree into ``path -> share-of-total-work`` fractions.

:func:`bench_payload` + :func:`write_bench_json` produce the
``BENCH_<name>.json`` perf-trajectory files (work/edge percentiles,
depth, wall-clock, phase shares); :func:`validate_bench_payload` is the
CI gate that keeps their schema honest.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Optional, Sequence

from ..errors import ParameterError
from .metrics import Series
from .telemetry import MetricsRegistry, SpanNode

# --------------------------------------------------------------------------
# JSON-lines event sink
# --------------------------------------------------------------------------


class JsonlSink:
    """A tracer sink writing one JSON object per line to ``path``.

    Usable as a context manager; events are written with sorted keys so
    logs diff cleanly across runs.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.events_written = 0

    def __call__(self, event: dict) -> None:
        """Append one event (the tracer-sink protocol)."""
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(path: str | pathlib.Path) -> list[dict]:
    """Parse a JSON-lines event log back into a list of dicts."""
    out: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ParameterError(f"{path}:{lineno}: bad JSONL line: {exc}") from exc
    return out


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


_METRIC_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_METRIC_NAME_BAD_CHAR = re.compile(r"[^a-zA-Z0-9_:]")

#: default ``# HELP`` text for the metric families the library publishes
#: (a registry ``describe()`` overrides these; unknown families fall back
#: to a generated one-liner so every family still gets a HELP line).
METRIC_HELP: dict[str, str] = {
    "repro_batches_total": "processed trace batches by kind",
    "repro_work_total": "cost-model work units charged",
    "repro_depth_total": "cost-model depth units charged",
    "repro_last_batch_size": "edge updates in the most recent batch",
    "repro_batch_work_per_edge": "per-batch work per edge update (log2 buckets)",
    "repro_batch_depth": "per-batch cost-model depth (log2 buckets)",
    "repro_batch_wall_seconds": "per-batch wall-clock seconds (log2 buckets)",
    "repro_recovery_batches_total": "batches resolved per recovery tier",
    "repro_scenario_batches_total": "adversarial scenario batches emitted",
    "repro_scenario_edge_updates_total": "adversarial scenario edge updates emitted",
    "repro_scenario_live_edges": "live edges of the scenario stream",
    "repro_spans_total": "telemetry span exits by span name",
    "repro_span_seconds_total": "wall-clock seconds inside spans by name",
}


def _fmt_labels(labels: Sequence[tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # HELP lines escape only backslash and newline (the exposition spec).
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _safe_name(name: str) -> str:
    """Escape a metric family name into the exposition grammar.

    Registry names are validated at registration, so this only matters
    for foreign registries rendered through this function — invalid
    characters become ``_`` rather than producing an unscrapable page.
    """
    if _METRIC_NAME_OK.match(name):
        return name
    name = _METRIC_NAME_BAD_CHAR.sub("_", name) or "_"
    if name[0].isdigit():
        name = "_" + name
    return name


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Every metric family gets exactly one ``# HELP`` and one ``# TYPE``
    line, emitted before its first sample (children of a labelled family
    share them).  Help text comes from ``registry.describe()``, falling
    back to :data:`METRIC_HELP` and then a generated one-liner; family
    names are escaped into the exposition grammar and label values are
    quote-escaped.  Histograms expand into cumulative ``_bucket{le=...}``
    samples plus ``_sum`` and ``_count``, exactly like a client library
    would.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for metric in registry.collect():
        name = _safe_name(metric.name)
        if metric.name not in seen:
            seen.add(metric.name)
            help_text = (
                registry.help_of(metric.name)
                or METRIC_HELP.get(metric.name)
                or f"{metric.name} ({metric.kind})"
            )
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {metric.kind}")
        if metric.kind == "histogram":
            cumulative = 0
            for exp in sorted(metric.buckets):
                cumulative += metric.buckets[exp]
                le = _fmt_labels(list(metric.labels) + [("le", repr(2.0**exp))])
                lines.append(f"{name}_bucket{le} {cumulative}")
            inf = _fmt_labels(list(metric.labels) + [("le", "+Inf")])
            lines.append(f"{name}_bucket{inf} {metric.count}")
            lines.append(f"{name}_sum{_fmt_labels(metric.labels)} {_num(metric.sum)}")
            lines.append(f"{name}_count{_fmt_labels(metric.labels)} {metric.count}")
        else:
            lines.append(f"{name}{_fmt_labels(metric.labels)} {_num(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition-format sample lines into {(name, labels): value}.

    Comment/TYPE lines are skipped.  Supports the subset
    :func:`prometheus_text` emits (no exemplars, no timestamps) — enough
    for a faithful round-trip in tests and CI checks.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ParameterError(f"bad exposition line: {raw!r}")
        labels: list[tuple[str, str]] = []
        if "{" in name_part:
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            for item in _split_labels(label_blob):
                k, _, v = item.partition("=")
                labels.append((k, _unescape(v.strip('"'))))
        else:
            name = name_part
        out[(name, tuple(labels))] = float(value_part)
    return out


def _split_labels(blob: str) -> list[str]:
    items, buf, in_quotes = [], [], False
    for ch in blob:
        if ch == '"' and (not buf or buf[-1] != "\\"):
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        items.append("".join(buf))
    return [i for i in (item.strip() for item in items) if i]


def _unescape(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


# --------------------------------------------------------------------------
# phase-tree report
# --------------------------------------------------------------------------


def render_phase_tree(root: SpanNode, *, min_share: float = 0.0) -> str:
    """Render a span tree as the fixed-width report EXPERIMENTS.md embeds.

    One row per phase, indented by depth; ``share`` is the phase's
    inclusive work as a fraction of the root's.  Nodes with children get
    an explicit ``(self)`` row so the work column always sums exactly to
    the total — nothing is hidden inside parents.  ``min_share`` prunes
    rows (never the ``(self)`` accounting rows) below a work fraction.
    """
    total = root.work or 1
    rows: list[tuple[str, int, int, float, int]] = []

    def visit(node: SpanNode, indent: int) -> None:
        rows.append(
            (("  " * indent) + node.label, node.work, node.depth, node.wall, node.count)
        )
        kids = [
            node.children[k]
            for k in sorted(node.children, key=lambda k: -node.children[k].work)
        ]
        shown = [c for c in kids if c.work / total >= min_share]
        for child in shown:
            visit(child, indent + 1)
        hidden = len(kids) - len(shown)
        if kids:
            self_w = node.self_work()
            label = "(self)" if not hidden else f"(self + {hidden} pruned)"
            pruned_w = sum(c.work for c in kids if c not in shown)
            pruned_d = sum(c.depth for c in kids if c not in shown)
            pruned_t = sum(c.wall for c in kids if c not in shown)
            rows.append(
                (
                    ("  " * (indent + 1)) + label,
                    self_w + pruned_w,
                    max(0, node.self_depth()) + pruned_d,
                    pruned_t,
                    node.count,
                )
            )

    visit(root, 0)
    headers = ["phase", "work", "share", "depth", "wall s", "count"]
    table_rows = [
        [label, work, f"{100.0 * work / total:.1f}%", depth, f"{wall:.3f}", count]
        for label, work, depth, wall, count in rows
    ]
    widths = [len(h) for h in headers]
    cells = [[str(c) for c in row] for row in table_rows]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = [
        "  ".join(h.ljust(w) if i == 0 else h.rjust(w) for i, (h, w) in enumerate(zip(headers, widths)))
    ]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append(
            "  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths)))
        )
    return "\n".join(lines)


def phase_shares(root: SpanNode) -> dict[str, dict[str, float]]:
    """Flatten a span tree into ``"a/b/c" -> {work, share, depth, wall,
    count, self_work, self_share}`` (shares are fractions of root work)."""
    total = root.work or 1
    out: dict[str, dict[str, float]] = {}
    for path, node in root.walk():
        key = "/".join(path)
        out[key] = {
            "work": node.work,
            "share": node.work / total,
            "self_work": node.self_work(),
            "self_share": node.self_work() / total,
            "depth": node.depth,
            "wall": node.wall,
            "count": node.count,
        }
    return out


# --------------------------------------------------------------------------
# BENCH_<name>.json perf trajectory
# --------------------------------------------------------------------------

#: Keys every BENCH file must carry — the CI schema gate.
REQUIRED_BENCH_KEYS: tuple[str, ...] = (
    "name",
    "batches",
    "edge_updates",
    "total_work",
    "total_depth",
    "wall_seconds",
    "work_per_edge",
    "depth",
    "phase_shares",
)

#: Required sub-keys of the two percentile blocks.
REQUIRED_WPE_KEYS: tuple[str, ...] = ("mean", "p50", "p90", "p99", "max")
REQUIRED_DEPTH_KEYS: tuple[str, ...] = ("mean", "p50", "p99", "max")


def bench_payload(
    name: str,
    series: Series,
    tree: Optional[SpanNode] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Build the machine-readable perf summary of one measured run."""
    payload: dict[str, Any] = {
        "name": name,
        "batches": len(series.records),
        "edge_updates": series.total_edges(),
        "total_work": series.total_work(),
        "total_depth": sum(r.depth for r in series.records),
        "wall_seconds": sum(r.wall_seconds for r in series.records),
        "work_per_edge": {
            "mean": series.mean_work_per_edge(),
            "p50": series.percentile_work_per_edge(50),
            "p90": series.percentile_work_per_edge(90),
            "p99": series.percentile_work_per_edge(99),
            "max": series.max_work_per_edge(),
        },
        "depth": {
            "mean": series.mean_depth(),
            "p50": series.percentile_depth(50),
            "p99": series.percentile_depth(99),
            "max": series.max_depth(),
        },
        "phase_shares": phase_shares(tree) if tree is not None else {},
    }
    if extra:
        payload.update(extra)
    return payload


#: A BENCH ``name`` becomes ``BENCH_<name>.json``, so it must be a plain file
#: stem: no path separators, no leading dot.
BENCH_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def validate_bench_payload(payload: Any) -> list[str]:
    """Schema check for one BENCH payload; returns the problems found."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, not a dict"]
    for key in REQUIRED_BENCH_KEYS:
        if key not in payload:
            problems.append(f"missing required key {key!r}")
    wpe = payload.get("work_per_edge")
    if isinstance(wpe, dict):
        problems += [
            f"work_per_edge missing {k!r}" for k in REQUIRED_WPE_KEYS if k not in wpe
        ]
    elif "work_per_edge" in payload:
        problems.append("work_per_edge is not a dict")
    depth = payload.get("depth")
    if isinstance(depth, dict):
        problems += [
            f"depth missing {k!r}" for k in REQUIRED_DEPTH_KEYS if k not in depth
        ]
    elif "depth" in payload:
        problems.append("depth is not a dict")
    if "phase_shares" in payload and not isinstance(payload["phase_shares"], dict):
        problems.append("phase_shares is not a dict")
    name = payload.get("name")
    if "name" in payload and not (isinstance(name, str) and BENCH_NAME.fullmatch(name)):
        problems.append(f"name {name!r} is not a plain file stem")
    return problems


def write_bench_json(
    directory: str | pathlib.Path, payload: dict[str, Any]
) -> pathlib.Path:
    """Validate and write ``BENCH_<name>.json`` under ``directory``."""
    problems = validate_bench_payload(payload)
    if problems:
        raise ParameterError("invalid BENCH payload: " + "; ".join(problems))
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{payload['name']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "BENCH_NAME",
    "JsonlSink",
    "METRIC_HELP",
    "REQUIRED_BENCH_KEYS",
    "REQUIRED_DEPTH_KEYS",
    "REQUIRED_WPE_KEYS",
    "bench_payload",
    "parse_prometheus",
    "phase_shares",
    "prometheus_text",
    "read_jsonl",
    "render_phase_tree",
    "validate_bench_payload",
    "write_bench_json",
]
