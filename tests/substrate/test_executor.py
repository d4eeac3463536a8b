"""Tests for the rung-sweep executor.

The load-bearing guarantee: ``SerialExecutor.run_structures`` runs every
:class:`RungTask` as one branch of a single cost-model parallel region —
the sweep's work is the sum over tasks and its depth the max — with the
task's span (if any) around both the method and its ``finish`` hook.
"""

import pytest

from repro.instrument import trace as _trace
from repro.instrument.telemetry import Tracer
from repro.instrument.work_depth import CostModel
from repro.pram import RungTask, SerialExecutor


class _Unit:
    """A structure whose method charges a fixed (work, depth)."""

    def __init__(self, cm: CostModel, work: int, depth: int) -> None:
        self.cm = cm
        self.work = work
        self.depth = depth
        self.calls: list[tuple] = []

    def step(self, *args) -> None:
        self.calls.append(args)
        self.cm.charge(work=self.work, depth=self.depth)


class TestRunStructures:
    def test_tasks_are_parallel_branches(self):
        cm = CostModel()
        units = [_Unit(cm, 4, 2), _Unit(cm, 6, 5), _Unit(cm, 1, 1)]
        SerialExecutor().run_structures(
            cm, [RungTask(u, "step", args=(i,)) for i, u in enumerate(units)]
        )
        assert [u.calls for u in units] == [[(0,)], [(1,)], [(2,)]]
        assert cm.work == 11  # works sum
        assert cm.depth == 5  # depths max

    def test_finish_runs_inside_the_accounting_branch(self):
        # each finish charges depth 1 after its method's depth 2: inside
        # the branch the region depth is 3; run outside any branch, the
        # two finishes would add sequentially on top (2 + 1 + 1 = 4).
        cm = CostModel()
        seen: list[object] = []

        def finish(structure):
            seen.append(structure)
            cm.charge(work=1, depth=1)

        units = [_Unit(cm, 4, 2), _Unit(cm, 4, 2)]
        SerialExecutor().run_structures(
            cm, [RungTask(u, "step", finish=finish) for u in units]
        )
        assert seen == units
        assert cm.work == 10
        assert cm.depth == 3

    def test_finish_runs_inside_the_span(self):
        cm = CostModel()
        tracer = Tracer(cm)

        def finish(_structure):
            cm.charge(work=1, depth=1)

        task = RungTask(
            _Unit(cm, 4, 2), "step", span="ladder.rung", attrs={"H": 3},
            finish=finish,
        )
        with _trace.tracing(tracer):
            SerialExecutor().run_structures(cm, [task])
        (sweep,) = tracer.root.find("pram.map")
        assert sweep.attrs == (("backend", "serial"),)
        (rung,) = sweep.find("ladder.rung")
        assert rung.attrs == (("H", 3),)
        # the finish hook's charge is attributed to the rung's span
        assert (rung.count, rung.work, rung.depth) == (1, 5, 3)

    def test_unspanned_task_opens_no_span(self):
        cm = CostModel()
        tracer = Tracer(cm)
        with _trace.tracing(tracer):
            SerialExecutor().run_structures(cm, [RungTask(_Unit(cm, 2, 1), "step")])
        (sweep,) = tracer.root.find("pram.map")
        assert sweep.children == {}
        assert sweep.work == 2

    def test_task_bug_propagates(self):
        cm = CostModel()
        task = RungTask(_Unit(cm, 1, 1), "no_such_method")
        with pytest.raises(AttributeError):
            SerialExecutor().run_structures(cm, [task])
