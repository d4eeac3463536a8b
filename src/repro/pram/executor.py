"""The rung-sweep executor: independent structures as parallel branches.

The unconditional ladders of Theorems 1.1/1.2 run ``O(log n / eps)``
completely independent fixed-H structures per batch.  Their parallelism
is a PRAM work/depth claim, and the reproduction meets it in the cost
model: :meth:`SerialExecutor.run_structures` runs every unit as one
branch of a single :meth:`CostModel.parallel` region, so the sweep's
work is the sum over rungs and its depth the max, and the Brent
projection (DESIGN.md §2, substitution 1) turns those totals into
processor-count runtimes.  The units themselves run in-process, one
after another; fine-grained PRAM steps are simulated the same way (see
:mod:`repro.instrument.work_depth`).

Ladders and the density guard's bucket sweep hand the executor a list
of :class:`RungTask` (structure + method + args + span).  A sweep that
charged its rungs sequentially would record the sum of their depths
instead of the max; the golden pin's per-batch depth
(``tests/core/test_golden_accounting.py``) is what catches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..instrument import trace as _trace
from ..instrument.work_depth import CostModel


@dataclass
class RungTask:
    """One independent unit of a ladder sweep.

    ``span``/``attrs`` describe the telemetry span opened around the unit
    (``ladder.rung`` with its height, for ladders; ``None`` for the
    density guard's bucket sweep, which historically ran un-spanned).
    ``finish`` runs *inside* the accounting branch after the structure's
    method (the density guard absorbs reversal journals there).
    """

    structure: Any
    method: str
    args: tuple = ()
    span: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    finish: Optional[Callable[[Any], None]] = None


def _run_task(task: RungTask) -> None:
    """Execute one task (the branch body)."""
    getattr(task.structure, task.method)(*task.args)
    if task.finish is not None:
        task.finish(task.structure)


class SerialExecutor:
    """Run a sweep's independent units in-process, sequentially."""

    def run_structures(self, cm: CostModel, tasks: Sequence[RungTask]) -> None:
        """Run every task as one branch of a single parallel region.

        Bit-identical (work, depth, counters, span tree) to the historical
        inline ladder loop — this *is* that loop, routed.
        """
        with _trace.span("pram.map", detail={"items": len(tasks)}, backend="serial"):
            with cm.parallel() as region:
                for task in tasks:
                    with region.branch():
                        if task.span is not None:
                            with _trace.span(task.span, **task.attrs):
                                _run_task(task)
                        else:
                            _run_task(task)
