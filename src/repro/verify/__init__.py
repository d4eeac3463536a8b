"""The verification subsystem — audits, differential replay, trace shrinking.

Layered bottom-up, and imported in that order:

* :mod:`repro.verify.audits` — absolute audits of one structure against
  the exact oracles;
* :mod:`repro.verify.minimize` — deterministic ddmin shrinking of failing
  streams, with validity-preserving stream repair;
* :mod:`repro.verify.differential` — the one trial runner: one stream
  replayed through N named execution configurations, outputs diffed per
  batch, recovered members judged by the chaos trial's final audits;
* :mod:`repro.verify.artifact` — the replayable JSON repro format behind
  ``repro verify --replay``, and the one shrink-and-write path.

docs/VERIFICATION.md is the narrative companion.
"""

from .audits import (
    AuditReport,
    audit_coreness,
    audit_density,
    audit_orientation,
    replay_audit,
)
from .minimize import minimize_stream, repair_stream
from .differential import (
    DiffReport,
    Divergence,
    RunnerConfig,
    configs_by_name,
    cost_view,
    default_configs,
    minimize_diff,
    run_diff,
)
from .artifact import minimize_repro, read_artifact, replay_artifact, write_artifact

__all__ = [
    "AuditReport",
    "DiffReport",
    "Divergence",
    "RunnerConfig",
    "audit_coreness",
    "audit_density",
    "audit_orientation",
    "configs_by_name",
    "cost_view",
    "default_configs",
    "minimize_diff",
    "minimize_repro",
    "minimize_stream",
    "read_artifact",
    "repair_stream",
    "replay_artifact",
    "replay_audit",
    "run_diff",
    "write_artifact",
]
