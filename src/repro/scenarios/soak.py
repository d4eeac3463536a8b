"""Every scenario as a first-class soak target.

One :func:`soak_scenario` call takes a registered adversary through the
one verdict machine, :func:`~repro.verify.differential.run_diff`, twice:

* **chaos** — seeded fault-injection trials
  (:func:`~repro.resilience.chaos.chaos_soak`), each a one-member panel
  with tiered recovery, post-recovery audits and optional ddmin
  minimization + repro artifacts.  Trial ``t`` replays the scenario's
  stream under ``replace(params, seed=trial_seed)``, so the scale's
  window and any caller-supplied params hold, and BALANCED(H) is built
  at the scenario's *suggested* — possibly deliberately wrong — height
  hint;
* **diff** — the full three-config differential panel replaying the
  scenario's stream under ``params`` itself, with periodic exact-oracle
  deep audits.

Both draw from the same scenario and params (the chaos side re-seeds
per trial), so a red verdict names the scenario, the seed and the
failing machinery — and the chaos side ships a replayable minimized
artifact.  Per-scenario workload counters land in the process-wide
MetricsRegistry via :class:`~repro.instrument.metrics.ScenarioStats`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..graphs.streams import BatchOp
from ..instrument import trace as _trace
from ..instrument.metrics import ScenarioStats, render_table
from ..verify.differential import DiffReport, run_diff
from .registry import (
    ScenarioParams,
    get_scenario,
    params_for,
    suggested_height,
)

if TYPE_CHECKING:
    from ..resilience.chaos import ChaosReport

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
    ``both``.  Chaos trials replay only this scenario's stream
    (``stream_kinds=[name]``) under ``params`` re-seeded per trial, and
    build BALANCED(H) at the scenario's suggested height hint — for
    ``hint-misestimation`` that hint is wrong by ``params.hint_factor``,
    by design.  ``eps`` sizes the diff side's ladders; BALANCED(H) has
    no ``eps``.  Fully deterministic under ``(name, scale, seed)``.
    """
    from ..resilience.chaos import chaos_soak

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
                "balanced",
                trials=trials,
                seed=seed,
                params=p,
                faults_per_trial=faults_per_trial,
                H=H,
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
