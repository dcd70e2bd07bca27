"""Isotropic-state violation threshold of an inequality by crossing iteration
(Dinkelbach, Management Science 13(7), 1967): for fixed measurements the
violation is affine in alpha, so each witness fixes its own zero crossing."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .inequality import BellInequality
from .quantum import BRACKET_TOL, SIGNIFICANCE, alpha_crossing, isotropic_state
from .seesaw import SeesawConfig, SeesawResult, multi_restart_max


@dataclass(frozen=True)
class SearchConfig:
    """Search settings: the bracket width at which to stop, and the see-saw
    run at every probe (``SeesawConfig`` defaults).  A probe counts
    as a violation when its best value exceeds ``SIGNIFICANCE``."""

    bracket_tol: float = BRACKET_TOL
    seesaw: SeesawConfig = field(default_factory=SeesawConfig)

    def __post_init__(self):
        if not 0 < self.bracket_tol < math.inf:
            raise ValueError("bracket_tol must be positive and finite")


@dataclass(frozen=True, eq=False)
class AlphaEstimate:
    """Result bracket: the last probe, at alpha_lower, found no violation;
    the witness violates above its zero crossing alpha_upper, an upper bound
    on the true threshold (a failed search can only push it up, never down).
    ``witness.best_violation`` is its value at the probe that found it; at
    alpha_upper it is 0.  ``steps`` counts probes."""

    name: Optional[str]
    d: int
    alpha_upper: float
    alpha_lower: float
    witness: Optional[SeesawResult]
    config: SearchConfig
    steps: int
    no_violation: bool = False


def alpha_max(ineq: BellInequality, d: int, cfg: Optional[SearchConfig] = None) -> AlphaEstimate:
    """Crossing iteration from alpha = 1: each probe's first witness sets
    alpha_upper to its crossing, and the next probe runs bracket_tol below it,
    until a probe finds no violation above the significance threshold.  Probe
    k seeds its cold restarts with step key (k,), so the search is deterministic.
    """
    cfg = cfg or SearchConfig()
    alpha, upper, witness, steps = 1.0, 1.0, None, 0
    while True:
        res = multi_restart_max(ineq, isotropic_state(d, alpha), cfg.seesaw,
                                stop_at=SIGNIFICANCE, step_key=(steps,))
        steps += 1
        if res.best_violation <= SIGNIFICANCE:
            break
        upper, witness = alpha_crossing(ineq, d, res.best_a, res.best_b).alpha, res
        alpha = max(upper - cfg.bracket_tol, 0.0)
        while upper - alpha > cfg.bracket_tol:  # undo the rounding of the subtraction
            alpha = math.nextafter(alpha, upper)
    return AlphaEstimate(ineq.name, d, upper, alpha, witness, cfg, steps,
                         no_violation=witness is None)
