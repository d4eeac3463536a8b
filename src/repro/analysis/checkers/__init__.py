"""reprolint checker plugins.

Two suites: per-file checkers (:class:`~repro.analysis.walker.Checker`
subclasses, instantiated per module over the shared AST) in
:data:`ALL_CHECKERS`, and whole-program checkers
(:class:`~repro.analysis.project.ProjectChecker` subclasses, run once
over the :class:`~repro.analysis.project.ProjectContext`) in
:data:`ALL_PROJECT_CHECKERS`.
"""

from __future__ import annotations

from .chargepath import ChargePathChecker
from .cost import CostAccountingChecker
from .determinism import DeterminismChecker
from .exceptions import ExceptionSafetyChecker
from .observability import ObservabilityChecker
from .races import RaceChecker
from .taint import DeterminismTaintChecker

#: the default per-file checker suite, in report order.
ALL_CHECKERS = [
    CostAccountingChecker,
    DeterminismChecker,
    RaceChecker,
    ObservabilityChecker,
]

#: the whole-program (interprocedural) checker suite.
ALL_PROJECT_CHECKERS = [
    ChargePathChecker,
    ExceptionSafetyChecker,
    DeterminismTaintChecker,
]

__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "ChargePathChecker",
    "CostAccountingChecker",
    "DeterminismChecker",
    "DeterminismTaintChecker",
    "ExceptionSafetyChecker",
    "ObservabilityChecker",
    "RaceChecker",
]
