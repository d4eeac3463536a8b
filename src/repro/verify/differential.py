"""Differential replay: one stream, N execution configurations, zero drift.

The repo carries several execution paths that must agree — telemetry
armed vs disarmed, and a fault-injected run recovered by the
:class:`~repro.resilience.recovery.RecoveryManager` vs a clean run.
Each contract is asserted somewhere in isolation; this module asserts
them *together*: replay one :class:`BatchOp` stream
through every named :class:`RunnerConfig` and diff the per-batch outputs
(coreness estimates, density/arboricity answers, the exported
orientation, invariant health, and — within a *cost class* — the cost
model's work/depth/counters) against the baseline configuration, plus
optional deep audits of the baseline against the exact oracles in
``baselines/``.

Answers must match across **all** configurations: the telemetry
never-perturbs guarantee and the tier-1/2 recovery determinism both
promise bit-identical query results.  Cost totals are only contractual
within a cost class (``cost_class="exact"`` for serial/telemetry; chaos
recovery re-runs work *by design*, so it opts out with
``cost_class=None``).

On divergence, :func:`minimize_diff` shrinks the stream with the ddmin
minimizer to a minimal repro; :mod:`repro.verify.artifact` serialises it
for ``repro verify --replay``.  See docs/VERIFICATION.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..core.coreness import CorenessDecomposition
from ..core.density import DensityEstimator
from ..errors import ParameterError
from ..graphs.graph import DynamicGraph
from ..graphs.streams import BatchOp
from ..instrument import trace as _trace
from ..instrument.telemetry import Tracer
from ..instrument.work_depth import CostModel
from .audits import audit_coreness, audit_density
from .minimize import minimize_stream

#: Divergence values are reprs truncated to this length in reports.
_VALUE_WIDTH = 96


@dataclass(frozen=True)
class RunnerConfig:
    """One named execution configuration of the differential harness.

    ``faults`` is a tuple of ``(site, hit, action)`` triples planned on a
    fresh seeded :class:`~repro.resilience.faults.FaultInjector` per run;
    with ``recovery=True`` batches apply through a ``RecoveryManager``
    (the fault is expected to be absorbed), without it a raising fault
    kills the configuration — which is exactly what the harness is for.
    """

    name: str
    telemetry: bool = False
    recovery: bool = False
    faults: tuple[tuple[str, int, str], ...] = ()
    cost_class: Optional[str] = "exact"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "telemetry": self.telemetry,
            "recovery": self.recovery,
            "faults": [list(f) for f in self.faults],
            "cost_class": self.cost_class,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunnerConfig":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Older artifacts carry a ``"substrate"`` key from when the storage
        layout was selectable, and a flag for the removed opt-in deferral
        of ladder rungs.  Members that set either replay on the one
        remaining path, which gives the same answers.
        """
        return cls(
            name=str(d["name"]),
            telemetry=bool(d.get("telemetry", False)),
            recovery=bool(d.get("recovery", False)),
            faults=tuple(
                (str(s), int(h), str(a)) for s, h, a in d.get("faults", [])
            ),
            cost_class=d.get("cost_class"),
        )


def default_configs() -> list[RunnerConfig]:
    """The standard panel; index 0 is the baseline every run diffs against.

    The chaos-recovered member plans one transient "raise" fault: the
    recovery manager's tier-1 rollback-and-retry is deterministic, so its
    answers must still match the clean baseline bit for bit.
    """
    return [
        RunnerConfig("serial"),
        RunnerConfig("telemetry", telemetry=True),
        RunnerConfig(
            "chaos-recovered",
            recovery=True,
            faults=(("tokens.drop.phase", 3, "raise"),),
            cost_class=None,
        ),
    ]


def configs_by_name(names: Sequence[str]) -> list[RunnerConfig]:
    """Select panel members by name (order preserved, baseline first)."""
    registry = {c.name: c for c in default_configs()}
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ParameterError(
            f"unknown differential config(s) {unknown}; "
            f"known: {sorted(registry)}"
        )
    return [registry[n] for n in names]


@dataclass
class Divergence:
    """One observed disagreement between a configuration and the baseline."""

    batch: int
    config: str
    observable: str
    baseline: str
    observed: str

    def render(self) -> str:
        return (
            f"batch {self.batch} [{self.config}] {self.observable}: "
            f"baseline={self.baseline} observed={self.observed}"
        )


@dataclass
class DiffReport:
    """Outcome of one differential replay."""

    configs: list[str]
    batches: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    oracle_findings: list[str] = field(default_factory=list)
    cost_totals: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.oracle_findings

    @property
    def implicated(self) -> set[str]:
        """Names of the non-baseline configs that diverged."""
        return {d.config for d in self.divergences}

    def render(self) -> str:
        verdict = "GREEN" if self.ok else "RED"
        lines = [
            f"differential replay [{verdict}]: {self.batches} batches "
            f"across {len(self.configs)} configs ({', '.join(self.configs)})"
        ]
        for name, (work, depth) in self.cost_totals.items():
            lines.append(f"  cost[{name}]: work={work} depth={depth}")
        if self.divergences:
            lines.append(f"divergences ({len(self.divergences)}):")
            lines.extend(f"  - {d.render()}" for d in self.divergences)
        if self.oracle_findings:
            lines.append(f"exact-oracle findings ({len(self.oracle_findings)}):")
            lines.extend(f"  - {f}" for f in self.oracle_findings)
        return "\n".join(lines)


def _clip(value: Any) -> str:
    text = repr(value)
    if len(text) > _VALUE_WIDTH:
        text = text[: _VALUE_WIDTH - 3] + "..."
    return text


class _ConfigRun:
    """Live state of one configuration during a differential replay."""

    def __init__(
        self,
        cfg: RunnerConfig,
        n: int,
        eps: float,
        constants: Constants,
        seed: int,
    ) -> None:
        self.cfg = cfg
        self.cm = CostModel()
        self.error: Optional[str] = None
        self.dead_reported = False
        self.diverged = False
        self.core = CorenessDecomposition(
            n, eps, cm=self.cm, constants=constants, seed=seed
        )
        self.dens = DensityEstimator(
            n, eps, cm=self.cm, constants=constants, seed=seed
        )
        self.injector = None
        if cfg.faults:
            from ..resilience.faults import FaultInjector, FaultSpec

            self.injector = FaultInjector(
                [FaultSpec(site=s, hit=h, action=a) for s, h, a in cfg.faults],
                seed=seed,
            )
        self.manager = None
        if cfg.recovery:
            from ..resilience.recovery import RecoveryManager

            self.manager = RecoveryManager(
                self.core, self.dens, checkpoint_every=4
            )

    def apply(self, op: BatchOp) -> None:
        """Apply one batch under this config's injection/telemetry regime."""
        if self.injector is not None:
            from ..resilience.faults import injecting

            with injecting(self.injector):
                self._apply_traced(op)
        else:
            self._apply_traced(op)

    def _apply_traced(self, op: BatchOp) -> None:
        if self.cfg.telemetry:
            # a fresh tracer per batch: arm/disarm boundaries must sit
            # between batches, and spans must never perturb the answers
            # or the cost model (that is the contract being diffed).
            with _trace.tracing(Tracer(self.cm, sinks=())):
                self._apply_raw(op)
        else:
            self._apply_raw(op)

    def _apply_raw(self, op: BatchOp) -> None:
        if self.manager is not None:
            self.manager.apply(op)
        elif op.kind == "insert":
            self.core.insert_batch(op.edges)
            self.dens.insert_batch(op.edges)
        else:
            self.core.delete_batch(op.edges)
            self.dens.delete_batch(op.edges)

    def observe(self, live_edges: Sequence[tuple[int, int]]) -> dict[str, Any]:
        """Snapshot every diffable answer this configuration exports."""
        health: Any = True
        try:
            self.core.check_invariants()
            self.dens.check_invariants()
        except Exception as exc:
            health = f"{type(exc).__name__}: {exc}"
        return {
            "estimates": tuple(sorted(self.core.estimates().items())),
            "max_estimate": self.core.max_estimate(),
            "density": self.dens.density_estimate(),
            "arboricity": self.dens.arboricity_estimate(),
            "max_outdegree": self.dens.max_outdegree(),
            "orientation": tuple(
                self.dens.orientation_of(u, v) for u, v in live_edges
            ),
            "invariants": health,
        }

    def cost_view(self) -> tuple[int, int, dict]:
        return (self.cm.work, self.cm.depth, dict(self.cm.counters))


def run_diff(
    ops: Sequence[BatchOp],
    *,
    configs: Optional[Sequence[RunnerConfig]] = None,
    eps: float = 0.35,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    n: Optional[int] = None,
    deep_every: int = 0,
    stop_on_divergence: bool = False,
) -> DiffReport:
    """Replay ``ops`` through every config; diff per-batch outputs.

    The first config is the baseline.  Answer observables are compared
    for every config, cost views only between configs sharing the
    baseline's non-``None`` ``cost_class``.  ``deep_every > 0`` audits
    the baseline against the exact oracles every that many batches.
    ``stop_on_divergence`` returns at the first red batch (the ddmin
    predicate path — no point finishing a stream already known to fail).
    ``n`` pins the vertex-universe size; pass it explicitly whenever the
    stream is a shrunk candidate, because the ladder heights derive from
    it and a drifting ``n`` would change the structures under test.
    """
    panel = list(configs) if configs is not None else default_configs()
    if not panel:
        raise ParameterError("differential replay needs at least one config")
    if n is None:
        n = max((max(e) for op in ops for e in op.edges), default=1) + 1
    report = DiffReport([c.name for c in panel])
    runs = [_ConfigRun(cfg, n, eps, constants, seed) for cfg in panel]
    base = runs[0]
    graph = DynamicGraph(0)
    with _trace.span("verify.diff", detail={"batches": len(ops)}):
        for i, op in enumerate(ops):
            if op.kind == "insert":
                graph.insert_batch(op.edges)
            else:
                graph.delete_batch(op.edges)
            for run in runs:
                if run.error is not None:
                    continue
                try:
                    with _trace.span("verify.config", config=run.cfg.name):
                        run.apply(op)
                except Exception as exc:
                    run.error = f"{type(exc).__name__}: {exc}"
            report.batches = i + 1
            _compare_batch(report, runs, graph, i)
            if deep_every and i % deep_every == deep_every - 1:
                _deep_audit(report, base, graph, i)
            if stop_on_divergence and not report.ok:
                break
    for run in runs:
        report.cost_totals[run.cfg.name] = (run.cm.work, run.cm.depth)
    return report


def _compare_batch(
    report: DiffReport, runs: list[_ConfigRun], graph: DynamicGraph, i: int
) -> None:
    base = runs[0]
    if base.error is not None:
        if not base.dead_reported:
            base.dead_reported = True
            report.divergences.append(
                Divergence(i, base.cfg.name, "exception", "completes", base.error)
            )
        return
    live = sorted(graph.edges)
    base_obs = base.observe(live)
    base_cost = base.cost_view()
    for run in runs[1:]:
        if run.error is not None:
            if not run.dead_reported:
                run.dead_reported = True
                report.divergences.append(
                    Divergence(i, run.cfg.name, "exception", "completes", run.error)
                )
            continue
        if run.diverged:
            continue  # already red; one report per config keeps the noise down
        obs = run.observe(live)
        for key, expected in base_obs.items():
            if obs[key] != expected:
                run.diverged = True
                report.divergences.append(
                    Divergence(i, run.cfg.name, key, _clip(expected), _clip(obs[key]))
                )
        if (
            not run.diverged
            and run.cfg.cost_class is not None
            and run.cfg.cost_class == base.cfg.cost_class
            and run.cost_view() != base_cost
        ):
            run.diverged = True
            report.divergences.append(
                Divergence(
                    i,
                    run.cfg.name,
                    f"cost[{run.cfg.cost_class}]",
                    _clip(base_cost[:2]),
                    _clip(run.cost_view()[:2]),
                )
            )


def _deep_audit(
    report: DiffReport, base: _ConfigRun, graph: DynamicGraph, i: int
) -> None:
    if base.error is not None:
        return
    with _trace.span("verify.audit", detail={"batch": i}):
        for sub in (
            audit_coreness(base.core, graph),
            audit_density(base.dens, graph),
        ):
            if not sub.ok:
                report.oracle_findings.extend(
                    f"batch {i}: {sub.subject}: {f}" for f in sub.findings
                )


def diff_predicate(
    configs: Sequence[RunnerConfig],
    *,
    eps: float = 0.35,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    n: Optional[int] = None,
    deep_every: int = 0,
):
    """A ddmin predicate: True iff the candidate stream still diverges."""

    def predicate(candidate: list[BatchOp]) -> bool:
        rep = run_diff(
            candidate,
            configs=configs,
            eps=eps,
            constants=constants,
            seed=seed,
            n=n,
            deep_every=deep_every,
            stop_on_divergence=True,
        )
        return not rep.ok

    return predicate


def minimize_diff(
    ops: Sequence[BatchOp],
    report: DiffReport,
    *,
    configs: Optional[Sequence[RunnerConfig]] = None,
    eps: float = 0.35,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    n: Optional[int] = None,
    deep_every: int = 0,
) -> tuple[list[BatchOp], list[RunnerConfig]]:
    """Shrink a red differential run to a minimal repro.

    The probe panel is narrowed to the baseline plus the implicated
    configs (no point replaying every config per ddmin probe for a
    config that never diverged); oracle audits are kept only when the
    oracle actually flagged something.  Returns the minimal stream and
    the panel it fails under — ready for an artifact.
    """
    panel = list(configs) if configs is not None else default_configs()
    implicated = report.implicated
    probe = [panel[0]] + [c for c in panel[1:] if c.name in implicated]
    probe_deep = deep_every if report.oracle_findings else 0
    if n is None:
        n = max((max(e) for op in ops for e in op.edges), default=1) + 1
    minimal = minimize_stream(
        ops,
        diff_predicate(
            probe, eps=eps, constants=constants, seed=seed, n=n,
            deep_every=probe_deep,
        ),
    )
    return minimal, probe
