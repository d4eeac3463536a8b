"""Resilience subsystem: fault injection, transactions, tiered recovery.

Four layers (docs/ROBUSTNESS.md has the full failure model):

* :mod:`~repro.resilience.faults` — a deterministic, seeded fault injector
  with named injection sites instrumented into the hot paths (token games,
  bundle extraction, hash-table batch ops).  Zero overhead while disarmed.
* :mod:`~repro.resilience.guard` — guarded batch application: the
  ``guarded`` context manager makes a batch on any structure
  apply-fully-or-rollback (strong exception safety).
* :mod:`~repro.resilience.checkpoint` — the one state codec: logical,
  JSON-able checkpoints of a single ``BALANCED(H)`` and of the full
  ladder structures, validated on load; the service tenant
  (:class:`~repro.service.state.TenantShard`) restarts by restoring one
  and replaying its write-ahead log's suffix.
* :mod:`~repro.resilience.recovery` — the tiered, in-memory
  :class:`~repro.resilience.recovery.RecoveryManager`: rollback →
  checkpoint + suffix replay → full rebuild, recording which tier fired.
* :mod:`~repro.resilience.chaos` — the randomized soak harness behind
  ``repro verify --faults`` and benchmark E20: seeded one-member differential
  panels (:func:`~repro.verify.differential.run_diff`).

``faults`` and ``guard`` import nothing from :mod:`repro.core` at module
scope (the token games import ``faults``); the heavier layers are loaded
lazily here to keep the import graph acyclic.
"""

from __future__ import annotations

from . import faults
from .faults import SITES, FaultInjector, FaultSpec, injecting
from .guard import capture, guarded, rollback

_LAZY = {
    "checkpoint": ".checkpoint",
    "recovery": ".recovery",
    "chaos": ".chaos",
    "RecoveryManager": ".recovery",
    "ChaosReport": ".chaos",
    "chaos_soak": ".chaos",
}

__all__ = [
    "SITES",
    "FaultInjector",
    "FaultSpec",
    "capture",
    "faults",
    "guarded",
    "injecting",
    "rollback",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """Lazily import the layers that depend on :mod:`repro.core`."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target, __name__)
    if target.lstrip(".") == name:
        return module
    return getattr(module, name)
