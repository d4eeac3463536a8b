"""The verification subsystem — audits, differential replay, trace shrinking.

Layered bottom-up, and imported in that order:

* :mod:`repro.verify.audits` — absolute audits of one structure against
  the exact oracles;
* :mod:`repro.verify.minimize` — deterministic ddmin shrinking of failing
  streams, with validity-preserving stream repair;
* :mod:`repro.verify.differential` — one stream replayed through N named
  execution configurations, outputs diffed per batch;
* :mod:`repro.verify.artifact` — the replayable JSON repro format behind
  ``repro verify --replay``.

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
    default_configs,
    diff_predicate,
    minimize_diff,
    run_diff,
)
from .artifact import read_artifact, replay_artifact, write_artifact

__all__ = [
    "AuditReport",
    "DiffReport",
    "Divergence",
    "RunnerConfig",
    "audit_coreness",
    "audit_density",
    "audit_orientation",
    "configs_by_name",
    "default_configs",
    "diff_predicate",
    "minimize_diff",
    "minimize_stream",
    "read_artifact",
    "repair_stream",
    "replay_artifact",
    "replay_audit",
    "run_diff",
    "write_artifact",
]
