"""Batch-dynamic explicit coloring (Corollary 1.4).

Every vertex draws a random *palette*: each color of ``{1..C}``,
``C = O(rho_max log n)``, joins the palette independently with probability
``1 / (2 rho_max)``.  A vertex's color is any palette member not present in
any *out-neighbour's palette* — avoiding whole palettes (not just current
colors!) means a vertex only ever needs recoloring when its out-neighbour
set changes, never when a neighbour recolors.  With the paper's constants
a good color exists w.h.p.; at laptop-scale constants the implementation
falls back to a deterministic reserve color and counts how often (the
benchmarks report the fallback rate — it is zero at the defaults).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants
from ..errors import CapacityError
from ..graphs.graph import norm_edge
from ..instrument.work_depth import CostModel
from ..core.lowoutdegree import LowOutDegree


class ExplicitColoring:
    """``O(rho_max log n)``-coloring under a density promise."""

    def __init__(
        self,
        rho_max: int,
        n: int,
        eps: float = 0.3,
        palette_factor: float = 8.0,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.rho_max = max(1, rho_max)
        self.n = max(2, n)
        self.seed = seed
        self.cm = cm if cm is not None else CostModel()
        H = max(1, int(round(1.1 * self.rho_max)))
        self.lod = LowOutDegree(H, eps, n, cm=self.cm, constants=constants, seed=seed)
        logn = max(1.0, math.log2(self.n))
        # paper: C = 300 rho_max log n; the factor is configurable because
        # 300 is a w.h.p. constant, far beyond what small instances need.
        self.C = max(4, int(math.ceil(palette_factor * self.rho_max * logn)))
        self.p_color = 1.0 / (2.0 * self.rho_max)
        self._palettes: dict[int, frozenset[int]] = {}  # lazy (Lemma 4.5)
        self.color: dict[int, int] = {}
        self.fallbacks = 0

    # -- palettes -----------------------------------------------------------------

    def palette(self, v: int) -> frozenset[int]:
        """The fixed random palette of ``v`` (lazily materialised)."""
        pal = self._palettes.get(v)
        if pal is None:
            members = []
            for c in range(1, self.C + 1):
                digest = hashlib.blake2b(
                    f"{self.seed}:pal:{v}:{c}".encode(), digest_size=8
                ).digest()
                if int.from_bytes(digest, "big") / float(1 << 64) < self.p_color:
                    members.append(c)
            if not members:  # vanishingly unlikely; keep properness anyway
                members = [1 + (v % self.C)]
            pal = frozenset(members)
            self._palettes[v] = pal
            self.cm.charge(work=self.C, depth=1)
        return pal

    # -- updates --------------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        batch = [norm_edge(u, v) for u, v in edges]
        self.lod.insert_batch(batch)
        if not self.lod.guarantees_low():
            raise CapacityError(
                f"graph density exceeded the promised rho_max = {self.rho_max}"
            )
        self._recolor_changed(self.lod.d_ins)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        batch = [norm_edge(u, v) for u, v in edges]
        self.lod.delete_batch(batch)
        self._recolor_changed(self.lod.d_del)

    def _recolor_changed(self, table) -> None:
        dirty: set[int] = set()
        for (a, b), orient in table.items():
            dirty.add(a)
            dirty.add(b)
        with self.cm.parallel() as region:
            for v in sorted(dirty):
                with region.branch():
                    self._recolor(v)

    def _recolor(self, v: int) -> None:
        forbidden: set[int] = set()
        for w in self.lod.d_out(v):
            forbidden |= self.palette(w)
            self.cm.charge(work=len(self.palette(w)), depth=1)
        good = sorted(self.palette(v) - forbidden)
        if good:
            self.color[v] = good[0]
        else:
            # Deterministic reserve beyond C: v gets a private overflow color.
            # The w.h.p. analysis makes this impossible at paper constants;
            # benchmarks report how often small-scale runs hit it.
            self.color[v] = self.C + 1 + v
            self.fallbacks += 1
        self.cm.charge(work=len(self.palette(v)), depth=1)

    # -- queries ----------------------------------------------------------------------

    def color_of(self, v: int) -> int:
        if v not in self.color:
            self._recolor(v)
        return self.color[v]

    def check_proper(self, edges: Iterable[tuple[int, int]]) -> None:
        from ..errors import InvariantViolation

        for u, v in edges:
            if self.color_of(u) == self.color_of(v):
                raise InvariantViolation(
                    f"edge ({u}, {v}) monochromatic: {self.color_of(u)}"
                )
