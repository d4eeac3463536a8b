"""Adversarial scenario engine — hardness-informed workloads at scale.

The worst-case guarantees of the paper only mean something if the
implementation survives the workloads the theory says are *hard*.  This
package turns the hardness literature into executable adversaries:

* :mod:`repro.scenarios.registry` — the :class:`Scenario` catalog:
  named, parameterized, seeded adversaries, each emitting a lazy
  deterministic :class:`~repro.graphs.streams.BatchOp` stream (a
  10^6-edge scenario never materialises in memory);
* :mod:`repro.scenarios.adversaries` — the generators themselves
  (hint misestimation, core-boundary oscillation, skew flip,
  sliding-window churn), with the hardness-paper rationale per scenario
  in docs/SCENARIOS.md;
* :mod:`repro.scenarios.soak` — every scenario as a first-class soak
  target: fault-injected chaos trials (tiered recovery + ddmin repros)
  and the full three-config differential panel, driven by the
  ``repro scenarios`` CLI.
"""

from .registry import (
    SCALES,
    Scenario,
    ScenarioParams,
    get_scenario,
    params_for,
    scenario_names,
    scenario_stream,
    suggested_height,
)
from .soak import (
    SOAK_MODES,
    ScenarioSoakReport,
    render_scenario_summary,
    soak_scenario,
)

__all__ = [
    "SCALES",
    "SOAK_MODES",
    "Scenario",
    "ScenarioParams",
    "ScenarioSoakReport",
    "get_scenario",
    "params_for",
    "render_scenario_summary",
    "scenario_names",
    "scenario_stream",
    "soak_scenario",
    "suggested_height",
]
