"""Closed-form results for the CHSH inequality on 3-level isotropic states.

For rank-1 projective measurements the CHSH value depends only on the four
underlying state vectors through their pairwise inner products, which reduces
the optimization to a Tsirelson-type extremal problem with known optimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inequality import PARTY_A, PARTY_B
from .quantum import PROJECTIVE_TOL, ROUNDING_TOL, Effect, MeasurementSet

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ProjectionVectors:
    """The four measurement vectors of a rank-1 CHSH configuration.

    Vectors have at most 3 components and norm at most 1 (shorter-than-unit
    vectors arise from projecting onto the span of the other party's pair).
    """

    alice1: np.ndarray
    alice2: np.ndarray
    bob1: np.ndarray
    bob2: np.ndarray

    def __post_init__(self):
        for name in ("alice1", "alice2", "bob1", "bob2"):
            v = np.asarray(getattr(self, name), dtype=complex).ravel()
            if not 1 <= v.size <= 3:
                raise ValueError(f"{name} must have 1..3 components")
            if np.linalg.norm(v) > 1 + ROUNDING_TOL:
                raise ValueError(f"{name} has norm {np.linalg.norm(v):g} > 1")
            padded = np.zeros(3, dtype=complex)
            padded[:v.size] = v
            object.__setattr__(self, name, padded)
            padded.flags.writeable = False


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    # Conjugate-linear in the first argument.
    return complex(np.vdot(x, y))


def chsh_form_value(v: ProjectionVectors) -> float:
    """CHSH violation of the maximally entangled 3x3 state with rank-1
    projectors built from the vectors (Bob's from the conjugated vector)."""
    g = (abs(_inner(v.alice1, v.bob1)) ** 2
         + abs(_inner(v.alice1, v.bob2)) ** 2
         + abs(_inner(v.alice2, v.bob1)) ** 2
         - abs(_inner(v.alice2, v.bob2)) ** 2)
    return -2.0 / 3.0 + g / 3.0


def chsh_switched_form_value(v: ProjectionVectors) -> float:
    """The analogous closed form for the outcome-switched CHSH variant
    (both first settings flipped); its maximum over admissible vectors is -1,
    so the switched variant never contributes a violation."""
    g = (abs(_inner(v.alice1, v.bob1)) ** 2
         - abs(_inner(v.alice1, v.bob2)) ** 2
         - abs(_inner(v.alice2, v.bob1)) ** 2
         - abs(_inner(v.alice2, v.bob2)) ** 2)
    return -4.0 / 3.0 + g / 3.0


def chsh_max_violation_d3(alpha: float) -> float:
    """Maximum CHSH violation of the 3-level isotropic state: the separable
    regime clamps at zero, above it the violation grows linearly."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return max(0.0, alpha * (3.0 * SQRT2 + 1.0) / 9.0 - 4.0 / 9.0)


def alpha_max_chsh(d: int) -> float:
    """Exact CHSH threshold for isotropic states: 1/sqrt(2) at d=2 (Horodecki
    criterion) and 4/(3 sqrt(2) + 1) at d=3."""
    if d == 2:
        return 1.0 / SQRT2
    if d == 3:
        return 4.0 / (3.0 * SQRT2 + 1.0)
    raise ValueError(f"no analytic CHSH threshold implemented for d={d}")


def tsirelson_chsh_max() -> float:
    """Maximum of |x1.y1|^2 + |x1.y2|^2 + |x2.y1|^2 - |x2.y2|^2 over vectors
    of norm at most 1."""
    return SQRT2 + 1.0


def tsirelson_vectors() -> ProjectionVectors:
    """The optimal real configuration: plane angles pi/4, 0, pi/8, 3pi/8."""
    def unit(theta):
        return np.array([math.cos(theta), math.sin(theta), 0.0])

    return ProjectionVectors(unit(math.pi / 4), unit(0.0),
                             unit(math.pi / 8), unit(3 * math.pi / 8))


def measurements_from_vectors(v: ProjectionVectors, d: int):
    """Rank-1 projective MeasurementSets realizing a vector configuration in
    dimension d >= 3; Bob's projectors use the conjugated vectors, matching
    the convention under which chsh_form_value equals the trace evaluation."""
    if d < 3:
        raise ValueError("vectors live in C^3; need d >= 3")

    def embed(vec, conjugate):
        full = np.zeros(d, dtype=complex)
        full[:3] = np.conj(vec) if conjugate else vec
        n = np.linalg.norm(full)
        if abs(n - 1.0) > PROJECTIVE_TOL:
            raise ValueError("projector construction needs unit vectors")
        return Effect(d, np.outer(full, full.conj()))

    alice = MeasurementSet(PARTY_A, (embed(v.alice1, False), embed(v.alice2, False)))
    bob = MeasurementSet(PARTY_B, (embed(v.bob1, True), embed(v.bob2, True)))
    return alice, bob
