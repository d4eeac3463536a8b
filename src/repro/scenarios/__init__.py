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
* :mod:`repro.scenarios.soak` — a scenario stream measured as it is
  drained, for ``repro verify --scenario NAME`` (the differential panel,
  or fault-injected trials with ``--faults``).

``repro scenarios`` prints the catalog and ``repro generate --scenario
NAME --scale S --out PATH`` spills a stream out-of-core to a trace file.
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
from .soak import measured_stream

__all__ = [
    "SCALES",
    "Scenario",
    "ScenarioParams",
    "get_scenario",
    "measured_stream",
    "params_for",
    "scenario_names",
    "scenario_stream",
    "suggested_height",
]
