"""The flat cost model: two running ints folded by parallel regions.

``CostModel`` keeps no frame stack.  These tests pin its fold to the
stack semantics it replaced (work sums; a region adds its overhead plus
its deepest branch), on the exception path too, and pin the frame
identity the Tracer uses to attribute spans and detect straddles.
"""

import random

import pytest

from repro.instrument import trace
from repro.instrument.telemetry import Tracer
from repro.instrument.work_depth import CostModel


def _stack_fold(program) -> tuple[int, int]:
    """Reference fold of a nested program with an explicit frame stack.

    A program is a list of steps: ``("tick", w)``, ``("charge", w, d)``
    or ``("region", [branch, ...], overhead)`` where each branch is itself
    a program and ``overhead`` is charged between the branches.
    """
    work = depth = 0
    for step in program:
        if step[0] == "tick":
            work += step[1]
            depth += step[1]
        elif step[0] == "charge":
            work += step[1]
            depth += step[2]
        else:
            _, branches, overhead = step
            deepest = 0
            for branch in branches:
                w, d = _stack_fold(branch)
                work += w + overhead
                depth += overhead
                deepest = max(deepest, d)
            depth += deepest
    return work, depth


def _run(cm: CostModel, program) -> None:
    for step in program:
        if step[0] == "tick":
            cm.tick(step[1])
        elif step[0] == "charge":
            cm.charge(work=step[1], depth=step[2])
        else:
            _, branches, overhead = step
            with cm.parallel() as region:
                for branch in branches:
                    cm.tick(overhead)
                    with region.branch():
                        _run(cm, branch)


def _random_program(rng: random.Random, nesting: int):
    program = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.3:
            program.append(("tick", rng.randint(0, 5)))
        elif kind < 0.6 or nesting == 0:
            program.append(("charge", rng.randint(0, 9), rng.randint(0, 3)))
        else:
            branches = [_random_program(rng, nesting - 1) for _ in range(rng.randint(0, 4))]
            program.append(("region", branches, rng.randint(0, 2)))
    return program


class TestFold:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_stack_fold(self, seed):
        program = _random_program(random.Random(seed), nesting=4)
        cm = CostModel()
        _run(cm, program)
        assert (cm.work, cm.depth) == _stack_fold(program)

    def test_regions_nested_inside_branches(self):
        cm = CostModel()
        cm.charge(work=1, depth=1)
        with cm.parallel() as outer:
            with outer.branch():
                cm.tick(2)
                with cm.parallel() as inner:
                    for cost in (4, 9, 1):
                        with inner.branch():
                            cm.tick(cost)
                cm.tick(3)  # after the inner region, same branch
            with outer.branch():
                with cm.parallel() as inner:
                    with inner.branch():
                        with cm.parallel() as innermost:
                            for cost in (5, 6):
                                with innermost.branch():
                                    cm.tick(cost)
            with outer.branch():
                cm.tick(13)
        # branch depths: 2 + 9 + 3 = 14, 6, 13
        assert cm.work == 1 + (2 + 14 + 3) + 11 + 13
        assert cm.depth == 1 + 14

    def test_branch_that_raises_folds_as_a_branch(self):
        cm = CostModel()
        cm.tick(1)
        with pytest.raises(RuntimeError):
            with cm.parallel() as region:
                with region.branch():
                    cm.tick(3)
                with region.branch():
                    cm.charge(work=10, depth=7)
                    raise RuntimeError("branch died")
        # parent frame: 1 + the deepest branch, the raising one (7)
        assert (cm.work, cm.depth) == (14, 8)
        assert cm.snapshot().depth == 8

    def test_branch_that_raises_inside_a_region_that_continues(self):
        cm = CostModel()
        with cm.parallel() as region:
            try:
                with region.branch():
                    cm.charge(work=4, depth=4)
                    raise ValueError("caught in the region")
            except ValueError:
                pass
            with region.branch():
                cm.tick(2)
        assert (cm.work, cm.depth) == (6, 4)

    def test_region_that_raises_between_branches_still_folds(self):
        cm = CostModel()
        with pytest.raises(KeyError):
            with cm.parallel() as region:
                with region.branch():
                    cm.tick(5)
                cm.tick(1)  # overhead
                raise KeyError("region died")
        assert (cm.work, cm.depth) == (6, 6)


class TestSnapshotGuard:
    def test_snapshot_in_a_branch_raises(self):
        cm = CostModel()
        with cm.parallel() as region:
            with region.branch():
                with pytest.raises(RuntimeError):
                    cm.snapshot()

    def test_snapshot_in_a_nested_region_raises(self):
        cm = CostModel()
        with cm.parallel() as outer:
            with outer.branch():
                with cm.parallel():
                    pass
                # the outer region is still open
                with pytest.raises(RuntimeError):
                    cm.snapshot()

    def test_snapshot_works_once_every_region_closed(self):
        cm = CostModel()
        with pytest.raises(ValueError):
            with cm.parallel() as region:
                with region.branch():
                    cm.tick(2)
                    raise ValueError
        assert cm.snapshot().work == 2


class TestSpansInFlatFrames:
    def test_span_in_a_branch_gets_exactly_its_charges(self):
        cm = CostModel()
        tr = Tracer(cm)
        with trace.tracing(tr):
            with cm.parallel() as region:
                cm.tick(100)  # region overhead
                with region.branch():
                    cm.charge(work=50, depth=20)  # same branch, before the span
                    with trace.span("ladder.rung", H=1):
                        cm.charge(work=7, depth=3)
                        with cm.parallel() as inner:
                            for cost in (2, 5):
                                with inner.branch():
                                    cm.tick(cost)
                    cm.charge(work=30, depth=30)  # same branch, after it
                with region.branch():
                    cm.charge(work=1000, depth=1000)
        (rung,) = tr.root.find("ladder.rung")
        assert (rung.work, rung.depth) == (7 + 7, 3 + 5)
        assert tr.frame_mismatches == 0
        assert tr.root.work == cm.work

    def test_span_straddling_a_region_boundary_is_a_mismatch(self):
        cm = CostModel()
        tr = Tracer(cm)
        with trace.tracing(tr):
            span = trace.span("game.drop")
            with cm.parallel() as region:
                span.__enter__()  # opened in the region's overhead
                with region.branch():
                    cm.tick(4)
                    span.__exit__(None, None, None)  # closed inside a branch
        assert tr.frame_mismatches == 1
        assert tr.root.find("game.drop")[0].work == 0  # attributes nothing

    def test_span_straddling_two_branches_is_a_mismatch(self):
        cm = CostModel()
        tr = Tracer(cm)
        with trace.tracing(tr):
            span = trace.span("game.drop")
            with cm.parallel() as region:
                with region.branch():
                    cm.tick(3)
                    span.__enter__()
                with region.branch():
                    cm.tick(3)
                    span.__exit__(None, None, None)
        assert tr.frame_mismatches == 1

    def test_span_leaving_its_branch_is_a_mismatch(self):
        cm = CostModel()
        tr = Tracer(cm)
        with trace.tracing(tr):
            span = trace.span("game.drop")
            with cm.parallel() as region:
                with region.branch():
                    span.__enter__()
                    cm.tick(3)
                span.__exit__(None, None, None)  # closed in the region's overhead
        assert tr.frame_mismatches == 1

    def test_span_around_a_whole_region_is_not_a_mismatch(self):
        cm = CostModel()
        tr = Tracer(cm)
        with trace.tracing(tr):
            with trace.span("game.drop"):
                with cm.parallel() as region:
                    for cost in (3, 8):
                        with region.branch():
                            cm.tick(cost)
        (drop,) = tr.root.find("game.drop")
        assert (drop.work, drop.depth) == (11, 8)
        assert tr.frame_mismatches == 0
