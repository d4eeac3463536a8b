"""Deterministic, seeded fault injection with named sites.

The dynamic structures' hot paths are instrumented with *injection sites*
(the :data:`SITES` catalogue): one guarded call per token-game phase,
settlement, bundle extraction and hash-table batch operation.  While no
injector is armed the instrumentation is a single module-global ``is
None`` check — measurably free (benchmark E20 times it).

Arming an injector makes every site traversal count a *hit*; a
:class:`FaultSpec` names a site, a 1-based hit number, and an action:

* ``"raise"``   — raise :class:`~repro.errors.FaultInjected` (the crash
  model: a batch dies half-way through a token game);
* ``"delay"``   — charge a large lump of work/depth to the structure's
  cost model (the straggler model: a slow site, visible in metrics);
* ``"corrupt"`` — silently bump one recorded level of the structure (the
  bit-flip model: no exception, only a later audit can catch it).

Specs fire once and disarm, so a retry after recovery succeeds — exactly
the transient-fault model the recovery tiers are built for.  Everything is
driven by an explicit seed: the same (specs, seed, workload) replays the
same failure, which is what makes chaos findings debuggable.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from ..errors import FaultInjected, ParameterError

#: Catalogue of instrumented sites (see docs/ROBUSTNESS.md for the map of
#: what state is in flight at each).  ``fire`` rejects unknown names so a
#: typo in a chaos plan fails loudly instead of silently never firing.
SITES: frozenset[str] = frozenset(
    {
        "tokens.drop.phase",  # start of each token-dropping phase
        "tokens.drop.settle",  # before insert settlement (levels catch up)
        "tokens.push.phase",  # start of each token-pushing phase
        "tokens.push.settle",  # before delete settlement
        "bundles.extract",  # start of ExtractTokenBundle
        "bundles.partition",  # deletion-token partitioning
        "hashtable.batch_set",  # BatchHashTable.batch_set
        "hashtable.batch_delete",  # BatchHashTable.batch_delete
    }
)

ACTIONS = ("raise", "delay", "corrupt")


@dataclass
class FaultSpec:
    """One planned fault: fire ``action`` on the ``hit``-th traversal of ``site``."""

    site: str
    hit: int = 1
    action: str = "raise"
    delay_work: int = 10_000  # lump charged by the "delay" action
    armed: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ParameterError(
                f"unknown fault site {self.site!r}; known sites: {sorted(SITES)}"
            )
        if self.action not in ACTIONS:
            raise ParameterError(
                f"unknown fault action {self.action!r}; known: {ACTIONS}"
            )
        if self.hit < 1:
            raise ParameterError(f"hit must be >= 1, got {self.hit}")


class FaultInjector:
    """Counts site traversals and fires matching :class:`FaultSpec` actions.

    ``fired`` records ``(site, hit, action)`` triples for every fault that
    actually triggered — chaos reports count them, and tests assert a
    planned fault really happened rather than silently overshooting its
    hit number.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: list[FaultSpec] = list(specs)
        self.rng = random.Random(seed)
        self.hits: dict[str, int] = {}
        self.fired: list[tuple[str, int, str]] = []

    @classmethod
    def plan(
        cls,
        seed: int,
        count: int = 1,
        sites: Optional[Iterable[str]] = None,
        max_hit: int = 3,
        actions: Iterable[str] = ACTIONS,
    ) -> "FaultInjector":
        """A randomized-but-reproducible plan of ``count`` faults."""
        rng = random.Random(seed)
        pool = sorted(sites) if sites is not None else sorted(SITES)
        actions = list(actions)
        specs = [
            FaultSpec(
                site=rng.choice(pool),
                hit=rng.randint(1, max_hit),
                action=rng.choice(actions),
            )
            for _ in range(count)
        ]
        return cls(specs, seed=seed)

    # -- the hot-path entry point -------------------------------------------

    def fire(self, site: str, state: Any = None) -> None:
        """Record one traversal of ``site`` and trigger any matching spec."""
        if site not in SITES:
            raise ParameterError(f"unknown fault site {site!r}")
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for spec in self.specs:
            if spec.armed and spec.site == site and spec.hit == hit:
                spec.armed = False
                self.fired.append((site, hit, spec.action))
                self._act(spec, site, hit, state)

    def _act(self, spec: FaultSpec, site: str, hit: int, state: Any) -> None:
        if spec.action == "raise":
            raise FaultInjected(site, hit)
        if spec.action == "delay":
            cm = getattr(state, "cm", None)
            if cm is not None:
                cm.charge(work=spec.delay_work, depth=spec.delay_work)
                cm.count("fault_delays")
            return
        # "corrupt": bump one recorded level — silent, only audits can see it
        level = getattr(state, "level", None)
        if level:
            victim = self.rng.choice(sorted(level))
            level[victim] += 1
            cm = getattr(state, "cm", None)
            if cm is not None:
                cm.count("fault_corruptions")

    # -- bookkeeping ---------------------------------------------------------

    @property
    def pending(self) -> list[FaultSpec]:
        """Specs that have not fired yet."""
        return [s for s in self.specs if s.armed]


#: The armed injector, or None.  Hot paths check ``ACTIVE is not None``
#: inline, which is the entire disabled-path cost.
ACTIVE: Optional[FaultInjector] = None


@contextmanager
def injecting(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Arm ``injector`` for the duration of the block (re-entrant safe)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = injector
    try:
        yield injector
    finally:
        ACTIVE = previous
