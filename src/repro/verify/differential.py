"""Differential replay: the one trial runner of the verification harness.

:func:`run_diff` replays one :class:`BatchOp` stream through every named
:class:`RunnerConfig` of a panel, all building the same structure kind
(the coreness + density ladders, or a bare BALANCED(H), coreness or
density structure), and diffs the per-batch outputs (coreness
estimates, density/arboricity answers, the exported orientation,
invariant health, and — within a *cost class* — the cost model's
work/depth/counters) against the baseline configuration, plus optional
deep audits of the baseline against the exact oracles in ``baselines/``.
Answers must match across **all** configurations; cost totals only
within a cost class (chaos recovery re-runs work *by design*, so it opts
out with ``cost_class=None``).

A member with ``recovery=True`` ends with the chaos trial's final
verdict (:func:`_final_verdict`).  A chaos trial is a one-member panel:
its verdict is the exception check plus those final audits, since
tier-3 rebuilds legitimately change the orientation.  On any red
verdict, :func:`minimize_diff` shrinks the stream to a minimal repro;
:mod:`repro.verify.artifact` serialises it for ``repro verify
--replay``.  See docs/VERIFICATION.md.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Optional, Sequence

from ..config import DEFAULT_CONSTANTS, Constants
from ..core.balanced import BalancedOrientation
from ..core.coreness import CorenessDecomposition
from ..core.density import DensityEstimator
from ..errors import ParameterError
from ..graphs.graph import DynamicGraph
from ..graphs.streams import BatchOp, replay
from ..instrument import trace as _trace
from ..instrument.metrics import RecoveryStats
from ..instrument.telemetry import Tracer
from ..instrument.work_depth import CostModel
from .audits import (
    AuditReport,
    audit_coreness,
    audit_density,
    audit_orientation,
    replay_audit,
)
from .minimize import minimize_stream

#: Divergence values are reprs truncated to this length in reports.
_VALUE_WIDTH = 96

#: The structure kinds a panel can build.
KINDS = ("ladders", "balanced", "coreness", "density")

#: In-memory checkpoint cadence of every recovered member.
CHECKPOINT_EVERY = 4


@dataclass(frozen=True)
class RunnerConfig:
    """One named execution configuration of the differential harness.

    ``faults`` is a tuple of ``(site, hit, action)`` triples planned on a
    fresh :class:`~repro.resilience.faults.FaultInjector` per run, seeded
    with ``injector_seed`` (the panel seed when ``None``); the seed
    drives which level a ``"corrupt"`` fault bumps.  With
    ``recovery=True`` batches apply through a ``RecoveryManager`` that
    runs the full health audit every ``audit_every``-th batch and the
    local one on the others (0: no audits) and the member ends with the
    final audits; without it a raising fault kills
    the configuration — which is exactly what the harness is for.
    """

    name: str
    telemetry: bool = False
    recovery: bool = False
    faults: tuple[tuple[str, int, str], ...] = ()
    cost_class: Optional[str] = "exact"
    injector_seed: Optional[int] = None
    audit_every: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunnerConfig":
        """Inverse of :meth:`to_dict`; unknown keys are ignored.

        Older artifacts carry a ``"substrate"`` key from when the storage
        layout was selectable, and a flag for the removed opt-in deferral
        of ladder rungs.  Members that set either replay on the one
        remaining path, which gives the same answers.
        """
        cfg = cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})
        return replace(cfg, faults=tuple(tuple(f) for f in cfg.faults))


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


def cost_view(cm: CostModel) -> tuple[int, int, dict]:
    """What a cost class compares: work, depth and every counter."""
    return (cm.work, cm.depth, dict(cm.counters))


@dataclass
class Divergence:
    """One observed disagreement between a configuration and the baseline,
    or one failed audit (``baseline`` is then ``"green"``)."""

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
    """Outcome of one differential replay.

    ``faults_fired`` counts, per member with a fault plan, the faults
    that actually triggered; ``recovery`` holds each recovered member's
    tier scoreboard.
    """

    configs: list[str]
    batches: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    cost_totals: dict[str, tuple[int, int]] = field(default_factory=dict)
    faults_fired: dict[str, int] = field(default_factory=dict)
    recovery: dict[str, RecoveryStats] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def implicated(self) -> set[str]:
        """Names of the configs that diverged or failed an audit."""
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
        return "\n".join(lines)


def _clip(value: Any) -> str:
    text = repr(value)
    if len(text) > _VALUE_WIDTH:
        text = text[: _VALUE_WIDTH - 3] + "..."
    return text


def _build(
    kind: str, n: int, H: int, eps: float, constants: Constants, seed: int,
    cm: CostModel,
) -> tuple[Any, ...]:
    """The structures one member runs, all charging ``cm``."""
    if kind == "balanced":
        return (BalancedOrientation(H, cm=cm, constants=constants),)
    ladders = {
        "ladders": (CorenessDecomposition, DensityEstimator),
        "coreness": (CorenessDecomposition,),
        "density": (DensityEstimator,),
    }[kind]
    return tuple(c(n, eps, cm=cm, constants=constants, seed=seed) for c in ladders)


def _answers(st: Any, live: Sequence[tuple[int, int]]) -> dict[str, Any]:
    """Every diffable answer one structure exports."""
    if isinstance(st, CorenessDecomposition):
        return {
            "estimates": tuple(sorted(st.estimates().items())),
            "max_estimate": st.max_estimate(),
        }
    answers: dict[str, Any] = {}
    if isinstance(st, DensityEstimator):
        answers["density"] = st.density_estimate()
        answers["arboricity"] = st.arboricity_estimate()
    answers["max_outdegree"] = st.max_outdegree()
    answers["orientation"] = tuple(st.orientation_of(u, v) for u, v in live)
    return answers


def _oracle_audits(structures: Sequence[Any], graph: DynamicGraph) -> list[AuditReport]:
    """Each structure against its exact oracle."""
    audits = []
    for st in structures:
        if isinstance(st, CorenessDecomposition):
            audits.append(audit_coreness(st, graph))
        elif isinstance(st, DensityEstimator):
            audits.append(audit_density(st, graph))
        else:
            audits.append(audit_orientation(st, graph))
    return audits


def _flag(
    report: DiffReport, batch: int, config: str, observable: str, audit: AuditReport
) -> None:
    """Record a red audit as a divergence of ``config``."""
    if not audit.ok:
        report.divergences.append(
            Divergence(batch, config, observable, "green", audit.render())
        )


class _ConfigRun:
    """Live state of one configuration during a differential replay."""

    def __init__(
        self,
        cfg: RunnerConfig,
        kind: str,
        n: int,
        H: int,
        eps: float,
        constants: Constants,
        seed: int,
    ) -> None:
        self.cfg = cfg
        self.cm = CostModel()
        self.error: Optional[str] = None
        self.diverged = False
        self.structures = _build(kind, n, H, eps, constants, seed, self.cm)
        self.injector = None
        if cfg.faults:
            from ..resilience.faults import FaultInjector, FaultSpec

            self.injector = FaultInjector(
                [FaultSpec(site=s, hit=h, action=a) for s, h, a in cfg.faults],
                seed=seed if cfg.injector_seed is None else cfg.injector_seed,
            )
        self.manager = None
        if cfg.recovery:
            from ..resilience.recovery import RecoveryManager

            self.manager = RecoveryManager(
                *self.structures,
                checkpoint_every=CHECKPOINT_EVERY,
                audit_every=cfg.audit_every,
            )

    def apply(self, op: BatchOp) -> None:
        """Apply one batch under this config's injection/telemetry regime."""
        with ExitStack() as regime:
            if self.injector is not None:
                from ..resilience.faults import injecting

                regime.enter_context(injecting(self.injector))
            if self.cfg.telemetry:
                # a fresh tracer per batch: arm/disarm boundaries must sit
                # between batches, and spans must never perturb the answers
                # or the cost model (that is the contract being diffed).
                regime.enter_context(_trace.tracing(Tracer(self.cm, sinks=())))
            if self.manager is not None:
                self.manager.apply(op)
            else:
                for st in self.structures:
                    replay([op], st)

    def observe(self, live_edges: Sequence[tuple[int, int]]) -> dict[str, Any]:
        """Snapshot every diffable answer this configuration exports."""
        observed: dict[str, Any] = {}
        for st in self.structures:
            observed.update(_answers(st, live_edges))
        health: Any = True
        try:
            for st in self.structures:
                st.check_invariants()
        except Exception as exc:
            health = f"{type(exc).__name__}: {exc}"
        observed["invariants"] = health
        return observed


def _universe(ops: Sequence[BatchOp]) -> int:
    return max((max(e) for op in ops for e in op.edges), default=1) + 1


def run_diff(
    ops: Sequence[BatchOp],
    *,
    configs: Optional[Sequence[RunnerConfig]] = None,
    kind: str = "ladders",
    H: int = 4,
    eps: float = 0.35,
    constants: Constants = DEFAULT_CONSTANTS,
    seed: int = 0,
    n: Optional[int] = None,
    deep_every: int = 0,
    stop_on_divergence: bool = False,
) -> DiffReport:
    """Replay ``ops`` through every config; diff per-batch outputs.

    The first config is the baseline.  ``kind`` (one of :data:`KINDS`)
    and ``H`` (BALANCED(H) only) pick the structure every member builds.
    Answer observables are compared for every config, cost views only
    between configs sharing the baseline's non-``None`` ``cost_class``.
    ``deep_every > 0`` audits an unrecovered baseline against the exact
    oracles every that many batches, and turns on the oracle audits of
    every recovered member's final verdict.  ``stop_on_divergence``
    returns at the first red batch (the ddmin predicate path — no point
    finishing a stream already known to fail).  ``n`` pins the
    vertex-universe size; pass it explicitly whenever the stream is a
    shrunk candidate, because the ladder heights derive from it and a
    drifting ``n`` would change the structures under test.
    """
    panel = list(configs) if configs is not None else default_configs()
    if not panel:
        raise ParameterError("differential replay needs at least one config")
    if kind not in KINDS:
        raise ParameterError(f"unknown structure {kind!r}; expected one of {KINDS}")
    if n is None:
        n = _universe(ops)
    report = DiffReport([c.name for c in panel])
    runs = [_ConfigRun(cfg, kind, n, H, eps, constants, seed) for cfg in panel]
    base = runs[0]
    graph = DynamicGraph(0)
    with _trace.span("verify.diff", detail={"batches": len(ops)}):
        for i, op in enumerate(ops):
            replay([op], graph)
            for run in runs:
                if run.error is not None:
                    continue
                try:
                    with _trace.span("verify.config", config=run.cfg.name):
                        run.apply(op)
                except Exception as exc:
                    run.error = f"{type(exc).__name__}: {exc}"
                    report.divergences.append(
                        Divergence(i, run.cfg.name, "exception", "completes", run.error)
                    )
            report.batches = i + 1
            _compare_batch(report, runs, graph, i)
            if (
                deep_every
                and base.manager is None
                and base.error is None
                and i % deep_every == deep_every - 1
            ):
                with _trace.span("verify.audit", detail={"batch": i}):
                    for audit in _oracle_audits(base.structures, graph):
                        _flag(report, i, base.cfg.name, "oracle audit", audit)
            if stop_on_divergence and not report.ok:
                break
    for run in runs:
        report.cost_totals[run.cfg.name] = (run.cm.work, run.cm.depth)
        if run.injector is not None:
            report.faults_fired[run.cfg.name] = len(run.injector.fired)
        if run.manager is not None:
            report.recovery[run.cfg.name] = run.manager.stats
    if not (stop_on_divergence and not report.ok):
        for run in runs:
            if run.manager is not None and run.error is None and not run.diverged:
                _final_verdict(report, run, ops, H, deep_every > 0)
    return report


def _compare_batch(
    report: DiffReport, runs: list[_ConfigRun], graph: DynamicGraph, i: int
) -> None:
    base = runs[0]
    if base.error is not None or len(runs) == 1:
        return
    live = sorted(graph.edges)
    base_obs = base.observe(live)
    base_cost = cost_view(base.cm)
    for run in runs[1:]:
        if run.error is not None or run.diverged:
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
            and cost_view(run.cm) != base_cost
        ):
            run.diverged = True
            report.divergences.append(
                Divergence(
                    i,
                    run.cfg.name,
                    f"cost[{run.cfg.cost_class}]",
                    _clip(base_cost[:2]),
                    _clip(cost_view(run.cm)[:2]),
                )
            )


def _final_verdict(
    report: DiffReport,
    run: _ConfigRun,
    ops: Sequence[BatchOp],
    H: int,
    deep: bool,
) -> None:
    """The chaos trial's verdict on a recovered member that completed.

    The manager's full audit must be green; then BALANCED(H) must match
    a fault-free :func:`replay_audit` of the committed stream, and (with
    ``deep``) the ladders must sit inside their exact-oracle bands.
    """
    manager, last, name = run.manager, report.batches - 1, run.cfg.name
    with _trace.span("verify.audit", detail={"batch": last}):
        final = manager.audit()
        _flag(report, last, name, "final audit", final)
        if final.ok and isinstance(run.structures[0], BalancedOrientation):
            constants = run.structures[0].constants
            replayed = replay_audit(ops, H=H, constants=constants)
            _flag(report, last, name, "replay audit", replayed)
        elif final.ok and deep:
            for audit in _oracle_audits(run.structures, manager.graph):
                _flag(report, last, name, "oracle audit", audit)


def minimize_diff(
    ops: Sequence[BatchOp],
    report: DiffReport,
    *,
    configs: Optional[Sequence[RunnerConfig]] = None,
    **params: Any,
) -> tuple[list[BatchOp], list[RunnerConfig]]:
    """Shrink a red differential run to a minimal repro.

    ``params`` are the other :func:`run_diff` keywords of the red run.
    The ddmin predicate is "the candidate is still red under
    :func:`run_diff`", stopping at the first red batch.  The probe panel
    is narrowed to the baseline plus the implicated configs (no point
    replaying a config that never diverged per ddmin probe); oracle
    audits are kept only when an oracle actually flagged something, and
    ``n`` is pinned to the full stream's.  Returns the minimal stream
    and the panel it fails under — ready for an artifact.
    """
    panel = list(configs) if configs is not None else default_configs()
    probe = [panel[0]] + [c for c in panel[1:] if c.name in report.implicated]
    oracle_red = any(d.observable == "oracle audit" for d in report.divergences)
    probe_params = {
        **params,
        "n": params.get("n") or _universe(ops),
        "deep_every": params.get("deep_every", 0) if oracle_red else 0,
    }

    def still_red(candidate: list[BatchOp]) -> bool:
        rep = run_diff(
            candidate, configs=probe, stop_on_divergence=True, **probe_params
        )
        return not rep.ok

    return minimize_stream(ops, still_red), probe
