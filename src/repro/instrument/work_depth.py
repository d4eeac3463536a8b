"""Work/depth cost accounting — the simulated CRCW PRAM.

The paper analyses its algorithms in the work-depth model [Ble96]: *work* is
the total number of primitive operations, *depth* is the longest chain of
sequentially dependent operations.  This module provides a :class:`CostModel`
that every algorithm in the library threads its operations through, so that
each batch update reports exactly the two quantities the paper's theorems
bound.

The accounting rules (see DESIGN.md §6):

* ``tick(w)`` — ``w`` sequential primitive operations: adds ``w`` to both
  work and depth.
* ``charge(work=w, depth=d)`` — an analytic charge for a sub-structure whose
  bounds are known (e.g. a batch BST operation at O(log n) work per element
  and O(log n) depth, matching [PP01]).
* ``parallel()`` — a parallel region.  Branches opened inside it contribute
  the *sum* of their work but only the *maximum* of their depths, exactly
  like a PRAM ``pardo``.

Regions nest arbitrarily, so a loop of phases (depth adds) each performing a
parallel sweep over vertices (depth maxes) is expressed naturally::

    for phase in range(num_phases):          # sequential phases
        with cm.parallel() as region:        # one phase
            for v in frontier:
                with region.branch():
                    cm.tick()                # per-vertex constant work

Every structure also bumps named :attr:`counters` (phases, flips, proposals,
bundle rounds, ...) which the benchmarks report against the paper's lemma
bounds.

The accounting always runs; arming telemetry only reads it.  What it costs
on its own: ``tick``/``charge`` is one Python call adding to two ints; a
region allocates two small objects (its scope and its handle) and makes
five calls (``parallel()``, two constructors, enter, exit); a branch
makes three calls (``branch()``, enter, exit) and allocates nothing.
:class:`NullCostModel` drops the adds, not the region calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")
U = TypeVar("U")


@dataclass
class Snapshot:
    """An immutable (work, depth) point; subtract two to get a delta."""

    work: int
    depth: int

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(self.work - other.work, self.depth - other.depth)


class CostModel:
    """Work/depth accumulator with nested parallel regions.

    ``work`` and ``depth`` are two plain ints that :meth:`tick` and
    :meth:`charge` add to directly; a :class:`ParallelRegion` folds the
    depth of its branches (DESIGN.md §6).
    """

    def __init__(self) -> None:
        self.work = 0
        self.depth = 0
        self.counters: dict[str, int] = {}
        # innermost open region; None between operations
        self._region: Optional[ParallelRegion] = None

    # -- primitive charges -------------------------------------------------

    def tick(self, w: int = 1) -> None:
        """``w`` sequential primitive operations."""
        self.work += w
        self.depth += w

    def charge(self, work: int = 0, depth: int = 0) -> None:
        """An analytic charge: ``work`` units of work, ``depth`` of depth.

        Used when a sub-structure's cost is charged at the granularity the
        paper charges it (e.g. Lemma 4.3: reversing ``k`` edges costs
        ``O(k H log n)`` work and ``O(H log n)`` depth).
        """
        self.work += work
        self.depth += depth

    def count(self, name: str, inc: int = 1) -> None:
        """Bump a named event counter (phases, flips, proposals, ...)."""
        self.counters[name] = self.counters.get(name, 0) + inc

    # -- parallel structure ------------------------------------------------

    def parallel(self) -> _RegionScope:
        """Open a parallel region; close it to fold branches into the parent.

        Work of the region = sum of branch works; depth = max of branch
        depths.  Ticks issued directly inside the region (outside any
        branch) are treated as sequential region overhead.
        """
        return _RegionScope(ParallelRegion(self))

    def pfor(self, items: Iterable[T], fn: Callable[[T], U]) -> list[U]:
        """Apply ``fn`` to every item as parallel branches; return results.

        Semantically a PRAM ``parallel for``: work is the sum over items,
        depth the max.  Execution is sequential (see DESIGN.md §2, item 1).
        """
        out: list[U] = []
        with self.parallel() as region:
            for item in items:
                with region.branch():
                    # one slot per item, in the caller's item order — the
                    # gather is ordered by construction, not by arrival.
                    out.append(fn(item))  # reprolint: disable=REP-R003
        return out

    # -- reading results ---------------------------------------------------

    def frame_probe(self) -> tuple[object, int, int]:
        """Identity of the innermost open frame, and running (work, depth).

        The telemetry layer's read-only hook: a span records the probe on
        entry and subtracts it from a probe on exit.  A frame is the root,
        one branch of a region, or a region's overhead between branches;
        a span that opens and closes in the same frame encloses exactly
        the work/depth of its block, even when the block opened (and fully
        closed) parallel regions or unwound through an exception.  A span
        that straddles a frame boundary sees two different identities.
        """
        region = self._region
        frame = None if region is None else (region, region._frames)
        return frame, self.work, self.depth

    def snapshot(self) -> Snapshot:
        """Current totals.

        Only meaningful between operations (i.e. when no parallel region is
        open); the structures take snapshots at batch boundaries.
        """
        if self._region is not None:
            raise RuntimeError("snapshot() inside an open parallel region")
        return Snapshot(self.work, self.depth)

    @contextmanager
    def measure(self) -> Iterator[Snapshot]:
        """Yield a Snapshot that is filled with the delta on exit."""
        before = self.snapshot()
        delta = Snapshot(0, 0)
        yield delta
        after = self.snapshot()
        diff = after - before
        delta.work = diff.work
        delta.depth = diff.depth

    def reset(self) -> None:
        self.work = 0
        self.depth = 0
        self.counters = {}
        self._region = None


class _RegionScope:
    """``with cm.parallel() as region`` — entering opens the region and
    yields its handle; leaving adds the region's deepest branch to the
    running depth and reopens the enclosing frame (on the exception path
    too)."""

    __slots__ = ("_region",)

    def __init__(self, region: "ParallelRegion") -> None:
        self._region = region

    def __enter__(self) -> "ParallelRegion":
        region = self._region
        cm = region._cm
        region._outer = cm._region
        cm._region = region
        return region

    def __exit__(self, *exc: object) -> bool:
        region = self._region
        cm = region._cm
        cm.depth += region._deepest
        cm._region = region._outer
        return False


class ParallelRegion:
    """Handle yielded by :meth:`CostModel.parallel`, and the context of
    each of its branches.

    A branch allocates nothing: entering saves the running depth in
    ``_start``; leaving keeps the branch's own depth in ``_deepest`` if
    it is the deepest so far and restores the saved depth, so the next
    branch starts where this one did.  A branch that raises is folded
    the same way.  ``_frames`` counts branch entries and exits; with the
    region it names the frame :meth:`CostModel.frame_probe` reports.
    """

    __slots__ = ("_cm", "_outer", "_start", "_deepest", "_frames")

    def __init__(self, cm: CostModel) -> None:
        self._cm = cm
        self._deepest = 0
        self._frames = 0

    def branch(self) -> "ParallelRegion":
        """One parallel branch; its work sums, its depth maxes."""
        return self

    def __enter__(self) -> None:
        self._start = self._cm.depth
        self._frames += 1

    def __exit__(self, *exc: object) -> bool:
        cm = self._cm
        start = self._start
        depth = cm.depth - start
        if depth > self._deepest:
            self._deepest = depth
        cm.depth = start
        self._frames += 1
        return False


class NullCostModel(CostModel):
    """A cost model that ignores everything — for pure wall-clock runs.

    Keeps the exact same API so algorithms need no branches; ``pfor`` still
    executes the function.
    """

    def tick(self, w: int = 1) -> None:  # noqa: D102
        pass

    def charge(self, work: int = 0, depth: int = 0) -> None:  # noqa: D102
        pass

    def count(self, name: str, inc: int = 1) -> None:  # noqa: D102
        pass
