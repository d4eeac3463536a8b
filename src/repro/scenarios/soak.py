"""Every scenario as a first-class soak target.

One :func:`soak_scenario` call takes a registered adversary through the
two verdict machines the repo already trusts:

* **chaos** — seeded fault-injection trials over the scenario's stream
  via :func:`~repro.resilience.chaos.chaos_soak` (tiered recovery,
  post-recovery audits, optional ddmin minimization + repro artifacts),
  with the BALANCED(H) trials built at the scenario's *suggested* —
  possibly deliberately wrong — height hint;
* **diff** — the full three-config differential panel
  (:func:`~repro.verify.differential.run_diff`) replaying the identical
  stream, with periodic exact-oracle deep audits.

Both judge the same seeded stream, so a red verdict names the scenario,
the seed and the failing machinery — and the chaos side ships a
replayable minimized artifact.  Per-scenario workload counters land in
the process-wide MetricsRegistry via
:class:`~repro.instrument.metrics.ScenarioStats`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..graphs.streams import BatchOp
from ..instrument import trace as _trace
from ..instrument.metrics import ScenarioStats, render_table
from ..resilience.chaos import ChaosReport, chaos_soak
from ..verify.differential import DiffReport, run_diff
from .registry import (
    ScenarioParams,
    get_scenario,
    params_for,
    scenario_names,
    suggested_height,
)

SOAK_MODES = ("chaos", "diff", "both")


@dataclass
class ScenarioSoakReport:
    """Aggregate verdict of one scenario's soak."""

    scenario: str
    scale: str
    params: ScenarioParams
    stats: ScenarioStats
    suggested_H: int
    chaos: Optional[ChaosReport] = None
    diff: Optional[DiffReport] = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.chaos is not None and not self.chaos.ok:
            return False
        if self.diff is not None and not self.diff.ok:
            return False
        return True

    def render(self) -> str:
        verdict = "GREEN" if self.ok else "RED"
        lines = [
            f"scenario [{self.scenario} @ {self.scale}]: {verdict} — "
            f"{self.stats.batches} batches, {self.stats.edge_updates} edge "
            f"updates, max {self.stats.max_live_edges} live edges, "
            f"H hint {self.suggested_H}",
        ]
        if self.chaos is not None:
            lines.append(self.chaos.render())
        if self.diff is not None:
            lines.append(self.diff.render())
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _measured_stream(name: str, params: ScenarioParams) -> tuple[list[BatchOp], ScenarioStats]:
    """Materialise one scenario stream, accounting it as it is drained.

    Soak targets replay the stream many times (trials, panel configs,
    ddmin probes), so at soak scales the list is the right call — the
    out-of-core path (``repro scenarios --trace-out``, E23) drains the
    lazy stream straight to disk instead and never comes through here.
    """
    scenario = get_scenario(name)
    stats = ScenarioStats(scenario=name)
    ops: list[BatchOp] = []
    with _trace.span("scenario.stream", scenario=name):
        for op in scenario.stream(params):
            stats.observe(op.kind, op.size)
            ops.append(op)
    return ops, stats


def soak_scenario(
    name: str,
    *,
    scale: str = "ci",
    seed: int = 0,
    mode: str = "both",
    structure: str = "balanced",
    trials: int = 3,
    faults_per_trial: int = 2,
    deep_every: int = 0,
    eps: float = 0.35,
    constants: Constants = DEFAULT_CONSTANTS,
    minimize: bool = False,
    artifact_dir: Optional[str | pathlib.Path] = None,
    params: Optional[ScenarioParams] = None,
) -> ScenarioSoakReport:
    """Soak one adversarial scenario; returns the aggregate verdict.

    ``mode`` picks the machinery: ``chaos`` (fault injection under the
    adversarial load), ``diff`` (three-config differential panel), or
    ``both``.  Chaos trials rotate only this scenario's stream
    (``stream_kinds=[name]``) and BALANCED trials run at the scenario's
    suggested height hint — for ``hint-misestimation`` that hint is
    wrong by ``params.hint_factor``, by design.  Fully deterministic
    under ``(name, scale, seed)``.
    """
    if mode not in SOAK_MODES:
        raise ValueError(f"unknown soak mode {mode!r}; expected {SOAK_MODES}")
    p = params if params is not None else params_for(scale, seed=seed)
    ops, stats = _measured_stream(name, p)
    H = suggested_height(name, p)
    report = ScenarioSoakReport(
        scenario=name,
        scale=scale,
        params=p,
        stats=stats,
        suggested_H=H,
    )
    with _trace.span("scenario.soak", scenario=name, detail={"mode": mode}):
        if mode in ("chaos", "both"):
            report.chaos = chaos_soak(
                structure,
                trials=trials,
                seed=seed,
                n=p.n,
                batches=p.batches,
                batch_size=p.batch_size,
                faults_per_trial=faults_per_trial,
                H=H,
                eps=eps,
                constants=constants,
                minimize=minimize or artifact_dir is not None,
                artifact_dir=artifact_dir,
                stream_kinds=[name],
            )
        if mode in ("diff", "both"):
            report.diff = run_diff(
                ops,
                eps=eps,
                constants=constants,
                seed=seed,
                n=p.n,
                deep_every=deep_every,
            )
    return report


def soak_all(
    names: Optional[Sequence[str]] = None, **kwargs: object
) -> list[ScenarioSoakReport]:
    """Soak every (or the named) catalog scenario; one report each."""
    return [
        soak_scenario(name, **kwargs)  # type: ignore[arg-type]
        for name in (names if names is not None else scenario_names())
    ]


def render_scenario_summary(reports: Sequence[ScenarioSoakReport]) -> str:
    """The E23/CI one-table view over several scenario soaks."""
    rows = []
    for r in reports:
        tiers = r.chaos.stats.counts if r.chaos is not None else {}
        rows.append(
            [
                r.scenario,
                r.stats.batches,
                r.stats.edge_updates,
                r.stats.max_live_edges,
                r.suggested_H,
                r.chaos.faults_fired if r.chaos is not None else "-",
                tiers.get("rollback", 0),
                tiers.get("checkpoint", 0),
                tiers.get("rebuild", 0),
                ("GREEN" if r.chaos.ok else "RED") if r.chaos is not None else "-",
                ("GREEN" if r.diff.ok else "RED") if r.diff is not None else "-",
            ]
        )
    return render_table(
        [
            "scenario",
            "batches",
            "edges",
            "max live",
            "H hint",
            "faults",
            "t1",
            "t2",
            "t3",
            "chaos",
            "diff",
        ],
        rows,
    )
