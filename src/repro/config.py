"""Tunable constants of the reproduction.

The paper's bounds involve a threshold ``B = c * log(n) / eps**2`` for a
"sufficiently large constant" ``c`` (Section 5) and a geometric ladder of
height hints ``H_i = (1 + eps)**i`` (Section 5.2).  Taken literally, the
constants are far beyond laptop scale (``n = 10**4`` with ``eps = 0.1``
gives ``B ~ 10**5``), so — as every implementation of this line of theory
does, including Liu et al.'s own PLDS code — we expose the constants and
default them small.  EXPERIMENTS.md reports results for the defaults below
and notes where the theory/practice constant gap matters.

All dynamic structures accept an optional :class:`Constants` so experiments
can sweep them; ``Constants()`` gives the library defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class Constants:
    """Knobs controlling the theory-constants of the algorithms.

    Attributes
    ----------
    sample_c:
        The ``c`` in ``B = c * log2(n) / eps**2``.  The paper needs a large
        ``c`` for the w.h.p. statements; the default keeps structures small
        enough to exercise *both* regimes of Theorem 5.1 at test scale.
    min_B:
        Floor for ``B`` so tiny graphs still get a nontrivial threshold.
    phase_safety:
        Multiplier applied to the proven phase bounds (Lemmas 4.8/4.18,
        ``O(H**3)`` phases) before :class:`~repro.errors.ConvergenceError`
        is raised.  The hidden constants in the lemmas are small; 8 is
        generous.
    bundle_safety:
        Same for bundle-extraction rounds (Lemma 4.15, ``O(H**2)`` rounds).
    convergence_slack:
        Additive slack on every :class:`~repro.errors.ConvergenceError`
        round bound (the bound is ``safety * poly(H) + convergence_slack``),
        covering the degenerate ``H = 0``-ish corners where the polynomial
        term alone rounds to nothing.  The chaos harness sets this (and the
        multiplicative factors) to 0 to provoke the error path
        deterministically; see docs/ROBUSTNESS.md.
    ladder_base_eps:
        Default ``eps`` used by the unconditional ladders (Theorems 1.1 and
        1.2) when the caller does not pass one.
    duplication_cap:
        Upper bound on the duplication factor ``K`` of Corollary 5.4 that
        the estimators will tolerate.  Corollary 5.4's work bound carries a
        poly(K) factor, so an uncapped ``K ~ B/H`` makes low rungs of the
        ladder brutally expensive; the default keeps duplication useful
        (error shrinks ~1/K, see benchmark E16) without runaway cost.
        Raise it deliberately for accuracy-critical workloads.
    """

    sample_c: float = 0.5
    min_B: int = 4
    phase_safety: int = 8
    bundle_safety: int = 8
    convergence_slack: int = 3
    ladder_base_eps: float = 0.25
    duplication_cap: int = 9
    # Ablation switch (benchmark E15): revert deviation D1 and run the
    # token-pushing game with the paper's literal transparency rule
    # (transparent only via tr = H+1 arcs).  Known unsound — see DESIGN.md.
    strict_paper_transparency: bool = False

    def B(self, n: int, eps: float) -> int:
        """The sampling/duplication threshold ``B = c log2(n)/eps^2``.

        ``n`` is the number of vertices of the host graph; the returned value
        is at least :attr:`min_B`.
        """
        if n < 1:
            raise ParameterError(f"n must be positive, got {n}")
        check_eps(eps)
        raw = self.sample_c * math.log2(max(n, 2)) / (eps * eps)
        return max(self.min_B, int(math.ceil(raw)))


DEFAULT_CONSTANTS = Constants()


def check_eps(eps: float) -> float:
    """Validate an approximation parameter.

    The paper restricts ``eps`` to ``(0, 0.1)``; we accept the full ``(0, 1)``
    because experiments deliberately run with larger ``eps`` to keep the
    constants laptop-sized.  Anything outside ``(0, 1)`` is rejected.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps!r}")
    return eps


def check_height(H: int) -> int:
    """Validate a height/arboricity hint ``H >= 1``."""
    if H < 1:
        raise ParameterError(f"H must be >= 1, got {H!r}")
    return int(H)


def ladder_heights(n: int, eps: float, h_max: int | None = None) -> list[int]:
    """The geometric ladder ``H_i = ceil((1+eps)^i)`` of Section 5.2.

    Returns strictly increasing integer heights covering ``[1, h_max]``
    (``h_max`` defaults to ``n``, the largest possible coreness/density).
    Deduplicated because at small scale consecutive powers round to the
    same integer.
    """
    check_eps(eps)
    top = n if h_max is None else h_max
    heights: list[int] = []
    h = 1.0
    while True:
        ih = int(math.ceil(h))
        if not heights or ih > heights[-1]:
            heights.append(ih)
        if ih >= top:
            break
        h *= 1.0 + eps
    return heights
