"""A scenario stream, measured as it is drained.

Every verdict on a scenario runs through the one verdict machine,
:func:`~repro.verify.differential.run_diff`: ``repro verify --scenario
NAME`` replays :func:`measured_stream` through the differential panel,
and ``repro verify --scenario NAME --faults F`` runs seeded
fault-injection trials (:func:`~repro.resilience.chaos.chaos_soak` with
``stream_kinds=[NAME]``), each replaying the scenario's stream re-seeded
per trial.  Per-scenario workload counters land in the process-wide
MetricsRegistry via :class:`~repro.instrument.metrics.ScenarioStats`.
"""

from __future__ import annotations

from ..graphs.streams import BatchOp
from ..instrument import trace as _trace
from ..instrument.metrics import ScenarioStats
from .registry import ScenarioParams, get_scenario


def measured_stream(name: str, params: ScenarioParams) -> tuple[list[BatchOp], ScenarioStats]:
    """Materialise one scenario stream, accounting it as it is drained.

    Verdict runs replay the stream many times (panel configs, ddmin
    probes), so at verdict scales the list is the right call — the
    out-of-core path (``repro generate --scenario``, E23) drains the
    lazy stream straight to disk instead and never comes through here.
    """
    stats = ScenarioStats(scenario=name)
    ops: list[BatchOp] = []
    with _trace.span("scenario.stream", scenario=name):
        for op in get_scenario(name).stream(params):
            stats.observe(op.kind, op.size)
            ops.append(op)
    return ops, stats
