"""Chaos soak harness — randomized fault injection over replayed streams.

One *trial* = one structure, one update stream, one seeded fault plan.
A trial is a one-member differential panel
(:func:`~repro.verify.differential.run_diff`): the member applies the
stream through a :class:`~repro.resilience.recovery.RecoveryManager`
while faults fire at the instrumented sites, and is then judged by the
panel's final verdict for recovered members:

* the managed structure's invariants and (for an orientation) its arc
  set against the ground-truth graph;
* a fault-free :func:`~repro.verify.audits.replay_audit` of the
  committed batches (orientation trials);
* the coreness/density approximation bands against the exact oracles
  (ladder trials).

The soak aggregates the per-trial
:class:`~repro.instrument.metrics.RecoveryStats` scoreboards into a
:class:`ChaosReport`; ``report.ok`` means every injected fault was
recovered and every audit came back green.  Everything is seeded — a
failing ``(structure, seed, trial)`` triple replays exactly.  Given
``artifact_dir``, every failing trial's stream is shrunk with the
panel's ddmin minimizer and written as a replayable ``"diff"`` artifact
(``repro verify --replay``).  ``repro verify --faults F`` is the CLI.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..graphs.graph import norm_edge
from ..graphs.streams import BatchOp, churn, insert_then_delete, sliding_window
from ..instrument.metrics import RecoveryStats, render_table
from ..scenarios.registry import ScenarioParams, scenario_stream
from ..verify.artifact import minimize_repro
from ..verify.differential import RunnerConfig, run_diff
from .faults import SITES, FaultInjector

_STREAM_KINDS = ("churn", "insert_then_delete", "sliding_window")

#: The generated stream shape of ``repro verify``: vertices, batches,
#: batch size.
DEFAULT_STREAM = ScenarioParams(n=24, batches=20, batch_size=6)


@dataclass
class ChaosReport:
    """Aggregate outcome of a chaos soak."""

    structure: str
    trials: int = 0
    batches: int = 0
    faults_planned: int = 0
    faults_fired: int = 0
    stats: RecoveryStats = field(default_factory=RecoveryStats)
    findings: list[str] = field(default_factory=list)
    repros: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"chaos soak [{self.structure}]: "
            f"{'GREEN' if self.ok else 'RED'} — "
            f"{self.trials} trials, {self.batches} batches, "
            f"{self.faults_fired}/{self.faults_planned} planned faults fired",
            self.stats.render(),
        ]
        if self.findings:
            lines.append("findings:")
            lines.extend(f"  - {finding}" for finding in self.findings)
        if self.repros:
            lines.append("minimized repros:")
            lines.extend(f"  - {path}" for path in self.repros)
        return "\n".join(lines)


def _random_edges(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    attempts = 0
    while len(edges) < count and attempts < 50 * count + 100:
        attempts += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(norm_edge(u, v))
    return sorted(edges)


def make_stream(kind: str, params: ScenarioParams) -> list[BatchOp]:
    """Build one trial stream: a legacy shape or any registered scenario.

    ``kind`` is one of the uniform-random legacy shapes
    (:data:`_STREAM_KINDS`), which read ``n``, ``batches``,
    ``batch_size`` and ``seed`` from ``params``, or a name from the
    adversarial scenario catalog (:mod:`repro.scenarios.registry`),
    which reads all of ``params``.  Deterministic under ``params``.
    """
    rng = random.Random(params.seed)
    n, batches, batch_size = params.n, params.batches, params.batch_size
    if kind == "churn":
        return churn(n, batches, batch_size, seed=rng)
    if kind in ("insert_then_delete", "sliding_window"):
        edges = _random_edges(rng, n, max(1, (batches * batch_size) // 2))
        if kind == "insert_then_delete":
            return insert_then_delete(edges, batch_size, seed=rng)
        return sliding_window(edges, window=2, batch_size=batch_size)
    return list(scenario_stream(kind, params))


def chaos_soak(
    structure: str = "balanced",
    *,
    trials: int = 10,
    seed: int = 0,
    params: ScenarioParams = DEFAULT_STREAM,
    faults_per_trial: int = 2,
    H: int = 4,
    audit_every: int = 1,
    constants: Constants = DEFAULT_CONSTANTS,
    sites: Optional[Sequence[str]] = None,
    artifact_dir: Optional[str | pathlib.Path] = None,
    stream_kinds: Optional[Sequence[str]] = None,
) -> ChaosReport:
    """Run ``trials`` seeded fault-injection trials; fully deterministic.

    Trial ``t`` draws its stream from ``replace(params, seed=trial_seed)``
    with ``trial_seed = seed * 7919 + t``; the stream shape rotates per
    trial through ``stream_kinds`` — by default churn /
    insert-then-delete / sliding-window, so inserts, deletes and mixed
    workloads all see faults; any registered adversarial scenario name
    (:mod:`repro.scenarios`) can stand in, which is how ``repro verify
    --scenario NAME --faults F`` runs.  The fault plan is seeded with
    ``trial_seed ^ 0x5EED``.  Given ``artifact_dir``, every failing
    trial's stream is shrunk to a minimal repro, written there as a
    replayable artifact and listed in ``report.repros``.
    """
    report = ChaosReport(structure=structure)
    site_pool = tuple(sites) if sites is not None else tuple(sorted(SITES))
    kinds = tuple(stream_kinds) if stream_kinds else _STREAM_KINDS
    for trial in range(trials):
        trial_seed = seed * 7919 + trial
        kind = kinds[trial % len(kinds)]
        ops = make_stream(kind, replace(params, seed=trial_seed))
        injector_seed = trial_seed ^ 0x5EED
        plan = FaultInjector.plan(
            seed=injector_seed, count=faults_per_trial, sites=site_pool
        ).specs
        member = RunnerConfig(
            "chaos",
            recovery=True,
            faults=tuple((s.site, s.hit, s.action) for s in plan),
            cost_class=None,
            injector_seed=injector_seed,
            audit_every=audit_every,
        )
        run = dict(
            kind=structure,
            H=H,
            seed=trial_seed,
            n=params.n,
            deep_every=1,
        )
        diff = run_diff(ops, configs=[member], constants=constants, **run)
        stats = diff.recovery[member.name]
        report.trials += 1
        report.batches += stats.batches
        report.stats.merge(stats)
        report.faults_planned += len(plan)
        report.faults_fired += diff.faults_fired.get(member.name, 0)
        if diff.ok:
            continue
        tag = f"trial {trial} ({kind}, seed {trial_seed})"
        report.findings.extend(f"{tag}: {d.render()}" for d in diff.divergences)
        if artifact_dir is not None:
            path = pathlib.Path(artifact_dir) / f"repro_{structure}_{kind}_trial{trial}.json"
            minimal, written = minimize_repro(
                ops, diff, path, configs=[member], constants=constants, **run
            )
            report.findings.append(
                f"trial {trial}: minimized to {len(minimal)} batch(es), "
                f"{sum(op.size for op in minimal)} edge(s)"
            )
            report.repros.append(str(written))
    return report


def render_soak_summary(reports: Sequence[ChaosReport]) -> str:
    """One table over several structure soaks (the E20 report format)."""
    rows = []
    for r in reports:
        rows.append(
            [
                r.structure,
                r.trials,
                r.batches,
                r.faults_fired,
                r.stats.counts.get("rollback", 0),
                r.stats.counts.get("checkpoint", 0),
                r.stats.counts.get("rebuild", 0),
                "GREEN" if r.ok else "RED",
            ]
        )
    return render_table(
        [
            "structure",
            "trials",
            "batches",
            "faults",
            "t1 rollback",
            "t2 checkpoint",
            "t3 rebuild",
            "verdict",
        ],
        rows,
    )
