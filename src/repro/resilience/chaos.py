"""Chaos soak harness — randomized fault injection over replayed streams.

One *trial* = one structure, one generated update stream, one seeded
:class:`~repro.resilience.faults.FaultInjector` plan.  The stream is
applied through a :class:`~repro.resilience.recovery.RecoveryManager`
while faults fire at the instrumented sites; afterwards the trial is
judged by the full post-recovery audits:

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
failing ``(structure, seed, trial)`` triple replays exactly.

The trial body is factored out as :func:`run_trial` so the verify
subsystem can re-run it verbatim: ``chaos_soak(minimize=True)`` shrinks
every failing trial's stream with the ddmin minimizer
(:mod:`repro.verify.minimize`) and, given ``artifact_dir``, writes a
replayable repro artifact per failure (``repro verify --replay``).
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..core.balanced import BalancedOrientation
from ..core.coreness import CorenessDecomposition
from ..core.density import DensityEstimator
from ..errors import ParameterError, RecoveryError
from ..graphs.graph import norm_edge
from ..graphs.streams import BatchOp, churn, insert_then_delete, sliding_window
from ..instrument.metrics import RecoveryStats, render_table
from ..verify.audits import audit_coreness, audit_density, replay_audit
from .faults import SITES, FaultInjector, FaultSpec, injecting
from .recovery import RecoveryManager

STRUCTURES = ("balanced", "coreness", "density")
_STREAM_KINDS = ("churn", "insert_then_delete", "sliding_window")


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


def make_stream(
    kind: str, n: int, batches: int, batch_size: int, seed: int
) -> list[BatchOp]:
    """Build one trial stream: a legacy shape or any registered scenario.

    ``kind`` is one of the uniform-random legacy shapes
    (:data:`_STREAM_KINDS`) or a name from the adversarial scenario
    catalog (:mod:`repro.scenarios.registry`) — so every soak entry
    point (chaos trials, E20, ``repro scenarios``) draws workloads from
    one dispatcher.  Deterministic under ``seed``.
    """
    rng = random.Random(seed)
    if kind == "churn":
        return churn(n, batches, batch_size, seed=rng)
    if kind in ("insert_then_delete", "sliding_window"):
        edges = _random_edges(rng, n, max(1, (batches * batch_size) // 2))
        if kind == "insert_then_delete":
            return insert_then_delete(edges, batch_size, seed=rng)
        return sliding_window(edges, window=2, batch_size=batch_size)
    from ..scenarios.registry import ScenarioParams, scenario_stream

    params = ScenarioParams(
        n=max(n, 8), batches=batches, batch_size=batch_size, seed=seed
    )
    return list(scenario_stream(kind, params))


def _make_structure(
    structure: str, n: int, H: int, eps: float, seed: int, constants: Constants
):
    if structure == "balanced":
        return BalancedOrientation(H, constants=constants)
    if structure == "coreness":
        return CorenessDecomposition(n, eps=eps, constants=constants, seed=seed)
    if structure == "density":
        return DensityEstimator(n, eps=eps, constants=constants, seed=seed)
    raise ParameterError(
        f"unknown structure {structure!r}; expected one of {STRUCTURES}"
    )


def run_trial(
    structure: str,
    ops: Sequence[BatchOp],
    injector: FaultInjector,
    *,
    n: int,
    H: int = 4,
    eps: float = 0.35,
    checkpoint_every: int = 5,
    audit_every: int = 1,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    deep_audit: bool = True,
    tag: str = "trial",
) -> tuple[list[str], RecoveryManager]:
    """One chaos trial, start to verdict: build, inject, recover, audit.

    Returns the findings (empty means the trial is green) and the
    :class:`RecoveryManager` for its stats.  Deterministic given
    ``(structure, ops, injector specs+seed, params)`` — the minimizer and
    ``repro verify --replay`` both rely on re-running this verbatim.
    """
    st = _make_structure(structure, n, H, eps, seed, constants)
    manager = RecoveryManager(
        st, checkpoint_every=checkpoint_every, audit_every=audit_every
    )
    findings: list[str] = []
    with injecting(injector):
        for op in ops:
            try:
                manager.apply(op)
            except RecoveryError as exc:
                findings.append(f"{tag}: unrecovered batch: {exc}")
                break
    # the manager applies ``ops`` in order from a fresh structure, so its
    # commit count is exactly the committed prefix
    committed = ops[: manager.applied]
    findings.extend(_trial_findings(manager, committed, tag, H, deep_audit))
    return findings, manager


def minimize_trial(
    structure: str,
    ops: Sequence[BatchOp],
    fault_specs: Sequence[tuple[str, int, str]],
    *,
    injector_seed: int,
    n: int,
    H: int = 4,
    eps: float = 0.35,
    checkpoint_every: int = 5,
    audit_every: int = 1,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    deep_audit: bool = True,
) -> list[BatchOp]:
    """ddmin-shrink a failing trial's stream; the fault plan is replayed
    fresh (same specs, same seed) against every candidate."""
    from ..verify.minimize import minimize_stream

    def still_fails(candidate: list[BatchOp]) -> bool:
        probe = FaultInjector(
            [FaultSpec(site=s, hit=h, action=a) for s, h, a in fault_specs],
            seed=injector_seed,
        )
        findings, _manager = run_trial(
            structure,
            candidate,
            probe,
            n=n,
            H=H,
            eps=eps,
            checkpoint_every=checkpoint_every,
            audit_every=audit_every,
            constants=constants,
            seed=seed,
            deep_audit=deep_audit,
            tag="minimize",
        )
        return bool(findings)

    return minimize_stream(ops, still_fails)


def chaos_soak(
    structure: str = "balanced",
    *,
    trials: int = 10,
    seed: int = 0,
    n: int = 24,
    batches: int = 20,
    batch_size: int = 6,
    faults_per_trial: int = 2,
    H: int = 4,
    eps: float = 0.35,
    checkpoint_every: int = 5,
    audit_every: int = 1,
    constants: Constants = DEFAULT_CONSTANTS,
    sites: Optional[Sequence[str]] = None,
    deep_audit: bool = True,
    minimize: bool = False,
    artifact_dir: Optional[str | pathlib.Path] = None,
    stream_kinds: Optional[Sequence[str]] = None,
) -> ChaosReport:
    """Run ``trials`` seeded fault-injection trials; fully deterministic.

    Stream shapes rotate per trial through ``stream_kinds`` — by default
    churn / insert-then-delete / sliding-window, so inserts, deletes and
    mixed workloads all see faults; any registered adversarial scenario
    name (:mod:`repro.scenarios`) can stand in, which is how the
    ``repro scenarios`` soak reuses this harness verbatim.
    ``deep_audit=False`` skips the exact-oracle band audits (the
    per-batch health checks and replay audit still run).
    ``minimize=True`` shrinks every failing trial's stream to a minimal
    repro; with ``artifact_dir`` each is written as a replayable artifact
    and listed in ``report.repros``.
    """
    report = ChaosReport(structure=structure)
    site_pool = tuple(sites) if sites is not None else tuple(sorted(SITES))
    kinds = tuple(stream_kinds) if stream_kinds else _STREAM_KINDS
    for trial in range(trials):
        trial_seed = seed * 7919 + trial
        kind = kinds[trial % len(kinds)]
        ops = make_stream(kind, n, batches, batch_size, trial_seed)
        injector_seed = trial_seed ^ 0x5EED
        injector = FaultInjector.plan(
            seed=injector_seed, count=faults_per_trial, sites=site_pool
        )
        spec_triples = tuple((s.site, s.hit, s.action) for s in injector.pending)
        report.faults_planned += len(injector.pending)
        tag = f"trial {trial} ({kind}, seed {trial_seed})"
        findings, manager = run_trial(
            structure,
            ops,
            injector,
            n=n,
            H=H,
            eps=eps,
            checkpoint_every=checkpoint_every,
            audit_every=audit_every,
            constants=constants,
            seed=trial_seed,
            deep_audit=deep_audit,
            tag=tag,
        )
        report.faults_fired += len(injector.fired)
        report.trials += 1
        report.batches += manager.stats.batches
        report.stats.merge(manager.stats)
        report.findings.extend(findings)
        if findings and minimize:
            _minimize_and_record(
                report,
                structure,
                ops,
                spec_triples,
                trial=trial,
                injector_seed=injector_seed,
                n=n,
                H=H,
                eps=eps,
                checkpoint_every=checkpoint_every,
                audit_every=audit_every,
                constants=constants,
                seed=trial_seed,
                deep_audit=deep_audit,
                artifact_dir=artifact_dir,
            )
    return report


def _minimize_and_record(
    report: ChaosReport,
    structure: str,
    ops: Sequence[BatchOp],
    spec_triples: Sequence[tuple[str, int, str]],
    *,
    trial: int,
    injector_seed: int,
    n: int,
    H: int,
    eps: float,
    checkpoint_every: int,
    audit_every: int,
    constants: Constants,
    seed: int,
    deep_audit: bool,
    artifact_dir: Optional[str | pathlib.Path],
) -> None:
    minimal = minimize_trial(
        structure,
        ops,
        spec_triples,
        injector_seed=injector_seed,
        n=n,
        H=H,
        eps=eps,
        checkpoint_every=checkpoint_every,
        audit_every=audit_every,
        constants=constants,
        seed=seed,
        deep_audit=deep_audit,
    )
    report.findings.append(
        f"trial {trial}: minimized to {len(minimal)} batch(es), "
        f"{sum(op.size for op in minimal)} edge(s)"
    )
    if artifact_dir is None:
        return
    from ..verify.artifact import write_artifact

    path = write_artifact(
        pathlib.Path(artifact_dir) / f"repro_{structure}_trial{trial}.json",
        kind="chaos",
        ops=minimal,
        params={
            "n": n,
            "H": H,
            "eps": eps,
            "checkpoint_every": checkpoint_every,
            "audit_every": audit_every,
            "seed": seed,
            "injector_seed": injector_seed,
            "deep_audit": deep_audit,
        },
        structure=structure,
        faults=spec_triples,
        constants=constants,
        expected={"findings": ">= 1"},
    )
    report.repros.append(str(path))


def _trial_findings(
    manager: RecoveryManager,
    committed: Sequence[BatchOp],
    tag: str,
    H: int,
    deep_audit: bool,
) -> list[str]:
    findings: list[str] = []
    final = manager.audit()
    if not final.ok:
        findings.append(f"{tag}: final audit red: {final.render()}")
        return findings
    st = manager.structures[0]
    if isinstance(st, BalancedOrientation):
        replay = replay_audit(committed, H=H, constants=st.constants)
        if not replay.ok:
            findings.append(f"{tag}: replay audit red: {replay.render()}")
    elif deep_audit:
        if isinstance(st, CorenessDecomposition):
            band = audit_coreness(st, manager.graph)
        else:
            band = audit_density(st, manager.graph)
        if not band.ok:
            findings.append(f"{tag}: band audit red: {band.render()}")
    return findings


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
