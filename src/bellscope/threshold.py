"""Binary search for the isotropic-state violation threshold of an inequality."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .inequality import BellInequality
from .quantum import isotropic_state
from .seesaw import SeesawConfig, SeesawResult, multi_restart_max

# Violations at or below this level are numerical noise, not evidence.
SIGNIFICANCE = 1e-13


@dataclass(frozen=True)
class SearchConfig:
    """Bisection settings: the bracket width at which to stop, and the see-saw
    run at every probe (``SeesawConfig`` defaults).  A probe counts
    as a violation when its best value exceeds ``SIGNIFICANCE``."""

    bracket_tol: float = 1e-6
    seesaw: SeesawConfig = field(default_factory=SeesawConfig)

    def __post_init__(self):
        if self.bracket_tol <= 0:
            raise ValueError("bracket_tol must be positive")


@dataclass(frozen=True, eq=False)
class AlphaEstimate:
    """Result bracket: no violation was found at alpha_lower, a witness with
    violation above the significance threshold exists at alpha_upper.  The
    reported upper edge is an upper bound on the true threshold (a failed
    search can only push it up, never down)."""

    name: Optional[str]
    d: int
    alpha_upper: float
    alpha_lower: float
    witness: Optional[SeesawResult]
    config: SearchConfig
    steps: int
    no_violation: bool = False


def alpha_max(ineq: BellInequality, d: int, cfg: Optional[SearchConfig] = None) -> AlphaEstimate:
    """Bisection on [0, 1] classifying each probe by whether the multi-restart
    see-saw finds a violation above the significance threshold.

    The witness measurements of the current upper edge warm-start one restart
    of every later step, which makes re-detection near the boundary cheap; the
    step index enters the seed schedule, so the whole search is deterministic.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    cfg = cfg or SearchConfig()

    def probe(alpha: float, step: int, warm) -> SeesawResult:
        return multi_restart_max(ineq, isotropic_state(d, alpha), cfg.seesaw,
                                 warm_start=warm, stop_at=SIGNIFICANCE,
                                 step_key=(step,))

    res = probe(1.0, 0, None)
    if res.best_violation <= SIGNIFICANCE:
        return AlphaEstimate(ineq.name, d, 1.0, 1.0, None, cfg, 1, no_violation=True)

    lo, hi, witness = 0.0, 1.0, res
    steps = 1
    while hi - lo > cfg.bracket_tol:
        steps += 1
        mid = (lo + hi) / 2
        res = probe(mid, steps - 1, (witness.best_a, witness.best_b))
        if res.best_violation > SIGNIFICANCE:
            hi, witness = mid, res
        else:
            lo = mid
    return AlphaEstimate(ineq.name, d, hi, lo, witness, cfg, steps)


def bisection_steps(bracket_tol: float, span: float = 1.0) -> int:
    """Number of halvings needed to drive ``span`` below ``bracket_tol``."""
    return max(0, math.ceil(math.log2(span / bracket_tol)))
