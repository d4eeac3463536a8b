"""The process-wide Tracer clock.

Work/depth units answer "where did the *model* cost go?"; wall-clock
reads answer "where did the *seconds* go?".  Every wall-clock read in the
repo routes through :func:`monotonic` (reprolint's REP-O003 enforces this
outside ``instrument/``), so tests can swap in a :class:`FakeClock` and
replay-deterministic harnesses can freeze time without monkeypatching
``time`` itself.

Nothing here ever touches a :class:`~repro.instrument.work_depth.
CostModel`: wall-clock observability must not perturb the answer-bearing
accounting (``repro run --check`` stays green with all of this
armed).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: The swappable process-wide clock (seconds, monotonic, float).
_CLOCK: Callable[[], float] = time.monotonic


def monotonic() -> float:
    """Seconds on the process-wide monotonic clock (mockable)."""
    return _CLOCK()


def set_clock(clock: Callable[[], float]) -> Callable[[], float]:
    """Install ``clock`` as the process-wide clock; returns the previous."""
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock
    return previous


@contextmanager
def mocked_clock(clock: Callable[[], float]) -> Iterator[Callable[[], float]]:
    """Swap the process-wide clock for the duration of the block."""
    previous = set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(previous)


class FakeClock:
    """A deterministic clock for tests: advances only when told to.

    ``step`` adds a fixed increment per read (so consecutive reads are
    strictly ordered without explicit advances); :meth:`advance` models
    elapsed time.
    """

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self.now = start
        self.step = step
        self.reads = 0

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        self.reads += 1
        return value

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``."""
        self.now += seconds
