"""The per-layer metric table: names, units, and how each is derived.

Rows come from three sources: the tracing wrappers (:mod:`layers`; busy
self-time per layer, merged over every traced process of a run), the
service's own ``--serve-metrics`` histograms scraped from outside, and
the load generator.  A row whose layer a workload never enters reads 0.
``_s`` rows are busy self-time, except the ones in :data:`INCLUSIVE`,
which include the layers they call.
"""

from __future__ import annotations

from typing import Any, Optional

from common import median

#: (name, unit, better) of every per-layer metric, in print order
PER_LAYER: list[tuple[str, str, str]] = [
    ("service.query_rtt_ms", "ms", "lower"),
    ("service.query_handler_ms", "ms", "lower"),
    ("service.query_wait_ms", "ms", "lower"),
    ("service.ingest_ack_ms", "ms", "lower"),
    ("service.apply_ms", "ms", "lower"),
    ("service.commit_wait_ms", "ms", "lower"),
    ("service.rejects", "count", "lower"),
    ("service.internal_errors", "count", "lower"),
    ("service.handler_s", "s", "lower"),
    ("service.handler_calls", "count", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("state.validate_s", "s", "lower"),
    ("state.validate_calls", "count", "lower"),
    ("state.accept_s", "s", "lower"),
    ("state.accept_calls", "count", "lower"),
    ("state.apply_s", "s", "lower"),
    ("state.apply_calls", "count", "lower"),
    ("state.snapshot_s", "s", "lower"),
    ("state.checkpoint_s", "s", "lower"),
    ("state.checkpoint_calls", "count", "lower"),
    ("state.open_s", "s", "lower"),
    ("state.open_calls", "count", "lower"),
    ("state.queries_per_snapshot", "ratio", "higher"),
    ("wal.append_s", "s", "lower"),
    ("wal.append_calls", "count", "lower"),
    ("wal.bytes_per_batch", "bytes", "lower"),
    ("wal.recover_s", "s", "lower"),
    ("wal.recover_calls", "count", "lower"),
    ("recovery.apply_s", "s", "lower"),
    ("recovery.apply_calls", "count", "lower"),
    ("recovery.audit_s", "s", "lower"),
    ("recovery.audit_calls", "count", "lower"),
    ("recovery.audit_share", "ratio", "lower"),
    ("recovery.guard_s", "s", "lower"),
    ("recovery.guard_calls", "count", "lower"),
    ("recovery.escalations", "count", "lower"),
    ("checkpoint.serialize_s", "s", "lower"),
    ("checkpoint.serialize_calls", "count", "lower"),
    ("checkpoint.restore_s", "s", "lower"),
    ("checkpoint.restore_calls", "count", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("core.coreness_s", "s", "lower"),
    ("core.coreness_calls", "count", "lower"),
    ("core.density_s", "s", "lower"),
    ("core.density_calls", "count", "lower"),
    ("core.query_s", "s", "lower"),
    ("core.query_calls", "count", "lower"),
    ("core.rung_s", "s", "lower"),
    ("core.rung_ms_max", "ms", "lower"),
    ("core.duplicated_share", "ratio", "lower"),
    ("core.model_work", "count", "lower"),
    ("core.model_depth", "count", "lower"),
    ("tokens.push_s", "s", "lower"),
    ("tokens.push_calls", "count", "lower"),
    ("tokens.drop_s", "s", "lower"),
    ("tokens.drop_calls", "count", "lower"),
    ("tokens.games", "count", "lower"),
    ("executor.dispatch_s", "s", "lower"),
    ("executor.dispatch_calls", "count", "lower"),
    ("executor.tasks", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
]

#: layers whose ``_s`` row is inclusive busy time, not self-time
INCLUSIVE = {"state.apply", "recovery.apply", "core.coreness", "core.density",
             "core.query"}

#: the honesty bar: attributed self-time / process CPU time
MIN_COVERAGE = 0.9


def merge_dumps(dumps: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum the layer totals of several traced processes of one run."""
    out: dict[str, Any] = {"self_s": {}, "incl_s": {}, "calls": {}, "counts": {},
                           "probe_s": {}, "rung_ms_max": [], "cpu_s": 0.0}
    for dump in dumps:
        for key in ("self_s", "incl_s", "calls", "counts", "probe_s"):
            for name, value in dump[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["rung_ms_max"].extend(dump["rung_ms_max"])
        out["cpu_s"] += dump["cpu_s"]
    return out


def coverage(traced: dict[str, Any]) -> float:
    return sum(traced["self_s"].values()) / max(traced["cpu_s"], 1e-9)


def service_rows(before: Optional[dict[str, float]], after: dict[str, float],
                 rtt_mean_ms: float, commit_mean_ms: float) -> dict[str, float]:
    """``service.*`` rows from two scrapes of the untraced server."""
    before = before or {}

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def mean_ms(family: str) -> float:
        count = delta(f"{family}_count")
        return 1e3 * delta(f"{family}_sum") / count if count else 0.0

    handler = mean_ms("repro_service_query_seconds")
    ack = mean_ms("repro_service_ingest_seconds")
    apply = mean_ms("repro_service_apply_seconds")
    snapshots = delta("repro_service_batches_applied_total")
    return {
        "service.query_rtt_ms": rtt_mean_ms,
        "service.query_handler_ms": handler,
        "service.query_wait_ms": max(0.0, rtt_mean_ms - handler) if rtt_mean_ms else 0.0,
        "service.ingest_ack_ms": ack,
        "service.apply_ms": apply,
        "service.commit_wait_ms": (max(0.0, commit_mean_ms - ack - apply)
                                   if commit_mean_ms else 0.0),
        "service.rejects": after.get("repro_service_rejects_total", 0.0),
        "service.internal_errors": after.get("repro_service_internal_errors_total", 0.0),
        "state.queries_per_snapshot": (delta("repro_service_queries_total") / snapshots
                                       if snapshots else 0.0),
    }


def table(traced: dict[str, Any], given: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, from the traced totals plus ``given`` rows
    (service scrape, load generator, files on disk, model cost, overhead)."""
    self_s, incl_s, calls = traced["self_s"], traced["incl_s"], traced["calls"]
    probe, counts = traced["probe_s"], traced["counts"]
    values: dict[str, float] = {}
    for name, unit, _better in PER_LAYER:
        layer, _, suffix = name.rpartition("_")
        if suffix == "s" and unit == "s":
            source = incl_s if layer in INCLUSIVE else self_s
            values[name] = source.get(layer, 0.0)
        elif suffix == "calls":
            values[name] = calls.get(layer, 0)
    values["service.handler_s"] = self_s.get("service.handler", 0.0)
    values["state.snapshot_s"] = self_s.get("state.apply", 0.0)
    audit, apply = incl_s.get("recovery.audit", 0.0), incl_s.get("recovery.apply", 0.0)
    values["recovery.audit_share"] = audit / apply if apply else 0.0
    values["recovery.escalations"] = counts.get("recovery.escalations", 0)
    rung = probe.get("core.rung", 0.0)
    values["core.duplicated_share"] = probe.get("core.duplicated", 0.0) / rung if rung else 0.0
    values["core.rung_ms_max"] = median(traced["rung_ms_max"])
    values["tokens.games"] = calls.get("tokens.push", 0) + calls.get("tokens.drop", 0)
    values["executor.tasks"] = counts.get("executor.tasks", 0)
    values["trace.coverage"] = coverage(traced)
    values.update(given)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}
