"""Complex operator arithmetic: measurement effects, isotropic states, and
trace-rule evaluation of Bell inequality violations.

The tensor-product index convention is Alice-major throughout: the product
basis vector |ij> of the d x d bipartite system sits at index i*d + j.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .inequality import BellInequality, PARTY_A, PARTY_B

# Every floating-point tolerance of the package, all absolute.
ROUNDING_TOL = 1e-12     # Hermiticity, unit trace, CHSH vector norm <= 1
RANGE_TOL = 1e-10        # effect spectrum in [0, 1], state PSD, Frechet bounds, Im(probability)
PROJECTIVE_TOL = 1e-9    # |E^2 - E| of a projective effect; unit CHSH vectors
MIN_VECTOR_NORM = 1e-9   # shortest vector a .meas file may hold
EIG_CUTOFF = 1e-14       # see-saw projectors keep eigenvalues above this
SIGNIFICANCE = 1e-13     # a violation counts only above this
SEESAW_TOL = 1e-12       # default see-saw convergence: least gain per sweep
BRACKET_TOL = 1e-6       # default bisection bracket width


def hermitian_eig(op: np.ndarray):
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    return np.linalg.eigh(op)


def _hermitian_eigvals(obj, n: int, what: str, note: str = "") -> np.ndarray:
    """Store ``obj.op`` as a read-only complex n x n matrix, checked
    Hermitian, and return its ascending eigenvalues."""
    op = np.asarray(obj.op, dtype=complex)
    object.__setattr__(obj, "op", op)
    if op.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}{note}, got {op.shape}")
    if np.abs(op - op.conj().T).max() > ROUNDING_TOL:
        raise ValueError(f"{what} is not Hermitian within {ROUNDING_TOL:g}")
    op.flags.writeable = False
    return np.linalg.eigvalsh(op)


@dataclass(frozen=True, eq=False)
class Effect:
    """A two-outcome POVM element: Hermitian with spectrum in [0, 1]."""

    d: int
    op: np.ndarray

    def __post_init__(self):
        evals = _hermitian_eigvals(self, self.d, "effect")
        if evals[0] < -RANGE_TOL or evals[-1] > 1 + RANGE_TOL:
            raise ValueError(f"effect eigenvalues outside [0, 1]: [{evals[0]:g}, {evals[-1]:g}]")

    def projection_defect(self) -> float:
        """max |E^2 - E|; at most ~1e-9 for projective effects."""
        return float(np.abs(self.op @ self.op - self.op).max())

    def complement(self) -> "Effect":
        return Effect(self.d, np.eye(self.d) - self.op)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """One party's list of two-outcome measurement effects."""

    party: str
    effects: tuple[Effect, ...]

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(self.effects))
        if self.party not in (PARTY_A, PARTY_B):
            raise ValueError(f"party must be {PARTY_A!r} or {PARTY_B!r}")
        if not self.effects:
            raise ValueError("measurement set needs at least one effect")
        d = self.effects[0].d
        if any(e.d != d for e in self.effects):
            raise ValueError("all effects must share one dimension")

    @property
    def d(self) -> int:
        return self.effects[0].d

    def __len__(self) -> int:
        return len(self.effects)

    def ops(self) -> np.ndarray:
        return np.stack([e.op for e in self.effects])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State of the d x d bipartite system: Hermitian, unit trace, PSD."""

    d: int
    op: np.ndarray

    def __post_init__(self):
        evals = _hermitian_eigvals(self, self.d * self.d, "state", f" for d={self.d}")
        tr = self.op.trace()
        if abs(tr - 1) > ROUNDING_TOL:
            raise ValueError(f"state trace {tr} is not 1")
        if evals[0] < -RANGE_TOL:
            raise ValueError("state is not positive semidefinite")


@dataclass(frozen=True, eq=False)
class CorrelationVector:
    """Outcome-1 probabilities q_i0, q_0j, q_ij of one correlation experiment."""

    p_a: np.ndarray
    p_b: np.ndarray
    p_ab: np.ndarray

    def __post_init__(self):
        p_a = np.asarray(self.p_a, dtype=float)
        p_b = np.asarray(self.p_b, dtype=float)
        p_ab = np.asarray(self.p_ab, dtype=float)
        for name, arr in (("p_a", p_a), ("p_b", p_b), ("p_ab", p_ab)):
            object.__setattr__(self, name, arr)
        if p_ab.shape != (p_a.size, p_b.size):
            raise ValueError("p_ab shape must be (m_a, m_b)")
        for name, arr in (("p_a", p_a), ("p_b", p_b), ("p_ab", p_ab)):
            if (arr < -RANGE_TOL).any() or (arr > 1 + RANGE_TOL).any():
                raise ValueError(f"{name} entries must lie in [0, 1]")
        lo = np.maximum(0.0, p_a[:, None] + p_b[None, :] - 1.0)
        hi = np.minimum(p_a[:, None], p_b[None, :])
        if (p_ab < lo - RANGE_TOL).any() or (p_ab > hi + RANGE_TOL).any():
            raise ValueError("joint probabilities violate the Frechet bounds")
        for arr in (p_a, p_b, p_ab):
            arr.flags.writeable = False

    @property
    def m_a(self) -> int:
        return self.p_a.size

    @property
    def m_b(self) -> int:
        return self.p_b.size


# ---------------------------------------------------------------------------
# States


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled state vector (1/sqrt(d)) sum_k |kk>."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return psi


def isotropic_state(d: int, alpha: float) -> DensityMatrix:
    """alpha |psi_d><psi_d| + (1 - alpha) I / d^2."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    psi = max_entangled(d)
    op = alpha * np.outer(psi, psi.conj()) + (1.0 - alpha) * np.eye(d * d) / (d * d)
    return DensityMatrix(d, op)


# ---------------------------------------------------------------------------
# Correlations and violations


def correlations(rho: DensityMatrix, a: MeasurementSet, b: MeasurementSet) -> CorrelationVector:
    """q_i0 = tr(rho (E_i x I)), q_0j = tr(rho (I x F_j)), q_ij = tr(rho (E_i x F_j))."""
    d = rho.d
    if a.d != d or b.d != d:
        raise ValueError(f"measurement dimension does not match state dimension {d}")
    rho4 = rho.op.reshape(d, d, d, d)
    es = a.ops()
    fs = b.ops()
    q_a = np.einsum("ajbj,iba->i", rho4, es)
    q_b = np.einsum("ajak,mkj->m", rho4, fs)
    q_ab = np.einsum("ajbk,iba,mkj->im", rho4, es, fs)
    worst = max(np.abs(q_a.imag).max(), np.abs(q_b.imag).max(), np.abs(q_ab.imag).max())
    if worst > RANGE_TOL:
        raise ValueError(f"imaginary probability residue {worst:g} exceeds {RANGE_TOL:g}")
    return CorrelationVector(q_a.real, q_b.real, q_ab.real)


def violation(ineq: BellInequality, rho: DensityMatrix, a: MeasurementSet,
              b: MeasurementSet) -> float:
    """Value of the inequality's left side minus its bound; positive violates."""
    if len(a) != ineq.m_a or len(b) != ineq.m_b:
        raise ValueError("measurement counts do not match the inequality")
    q = correlations(rho, a, b)
    joint = np.asarray(ineq.joint, dtype=float)
    total = (np.dot(ineq.marg_a, q.p_a) + np.dot(ineq.marg_b, q.p_b)
             + float((joint * q.p_ab).sum()))
    return total - ineq.bound


# ---------------------------------------------------------------------------
# Random projectors


def random_projective_measurement(d: int, rank: int, rng: np.random.Generator) -> Effect:
    """Projector onto a Haar-random subspace of the given rank."""
    if not 1 <= rank <= d - 1:
        raise ValueError(f"rank must lie in 1..{d - 1}, got {rank}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    q, _ = np.linalg.qr(g)
    return Effect(d, q @ q.conj().T)


# ---------------------------------------------------------------------------
# Crossing of the affine violation curve


@dataclass(frozen=True)
class Crossing:
    """Zero crossing of the violation of a fixed measurement pair as a
    function of the isotropic mixing parameter."""

    alpha: float
    v0: float
    v1: float
    in_range: bool

    @property
    def never_violating(self) -> bool:
        return self.v1 <= 0.0


def _isotropic_endpoints(ineq: BellInequality, es: np.ndarray, fs: np.ndarray):
    """Violations (v0, v1) at alpha = 0 and 1 of effect stacks (..., m, d, d).
    Both reduced states are I/d, so tr(rho E x I) = tr E / d and tr(rho E x F)
    = alpha sum_kl E_kl F_kl / d + (1 - alpha) tr E tr F / d^2.  Elementwise
    sums, not einsum, give a pair the same bits alone as inside a stack."""
    d = es.shape[-1]
    q_a, q_b = (x.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1) / d for x in (es, fs))
    overlap = (es[..., :, None, :, :] * fs[..., None, :, :, :]).real.sum(axis=(-2, -1)) / d
    rest = (np.multiply(ineq.marg_a, q_a).sum(axis=-1)
            + np.multiply(ineq.marg_b, q_b).sum(axis=-1) - ineq.bound)
    joint = np.asarray(ineq.joint, dtype=float)
    return (rest + (joint * q_a[..., :, None] * q_b[..., None, :]).sum(axis=(-2, -1)),
            rest + (joint * overlap).sum(axis=(-2, -1)))


def alpha_crossing(ineq: BellInequality, d: int, a: MeasurementSet,
                   b: MeasurementSet) -> Crossing:
    """Where the violation crosses zero along the isotropic family.

    For fixed measurements the violation is affine in alpha, so the crossing
    is alpha* = -v0 / (v1 - v0) from the endpoint values alone.
    """
    if len(a) != ineq.m_a or len(b) != ineq.m_b:
        raise ValueError("measurement counts do not match the inequality")
    if a.d != d or b.d != d:
        raise ValueError(f"measurement dimension does not match state dimension {d}")
    v0, v1 = (float(v) for v in _isotropic_endpoints(ineq, a.ops(), b.ops()))
    if v1 == v0:
        raise ValueError("degenerate measurements: violation does not depend on alpha")
    raw = -v0 / (v1 - v0)
    return Crossing(min(max(raw, 0.0), 1.0), v0, v1, in_range=(0.0 <= raw <= 1.0))


# ---------------------------------------------------------------------------
# Measurement file format


def parse_measurements(text: str, party_a_count: Optional[int] = None,
                       party_b_count: Optional[int] = None):
    """Parse a measurement file into (alice, bob) MeasurementSets.

    Records are ``effect <A|B> <index> <proj|complement|zero|identity>``;
    proj and complement are followed by one line of 2d reals giving the
    vector, which is renormalized on load.  Errors start with ``line N:``.
    """
    numbered = [(no, line) for no, line in enumerate(
        (raw.strip() for raw in text.splitlines()), start=1)
        if line and not line.startswith("#")]
    last = max(1, len(text.splitlines()))  # named by errors about the whole file

    raw_records = []  # (line number, party, index, kind, vector or None)
    pos = 0
    while pos < len(numbered):
        no, line = numbered[pos]
        tokens = line.split()
        if len(tokens) != 4 or tokens[0] != "effect":
            raise ValueError(f"line {no}: expected 'effect <A|B> <index> <kind>', got {line!r}")
        _, party, index_s, kind = tokens
        if party not in (PARTY_A, PARTY_B):
            raise ValueError(f"line {no}: unknown party {party!r}")
        try:
            index = int(index_s)
        except ValueError:
            raise ValueError(f"line {no}: effect index {index_s!r} is not an integer") from None
        pos += 1
        if kind in ("proj", "complement"):
            if pos >= len(numbered) or numbered[pos][1].startswith("effect"):
                raise ValueError(f"line {no}: missing vector line for effect {party} {index}")
            vno, vline = numbered[pos]
            pos += 1
            try:
                vals = [float(t) for t in vline.split()]
            except ValueError as exc:
                raise ValueError(f"line {vno}: bad number in vector line ({exc})") from None
            if len(vals) % 2 != 0:
                raise ValueError(f"line {vno}: vector line must hold re/im pairs")
            vec = np.array(vals).view(complex)  # re/im pairs, no arithmetic on inf
            norm = np.linalg.norm(vec)
            if not MIN_VECTOR_NORM <= norm < np.inf:
                raise ValueError(f"line {vno}: vector norm too small or not finite")
            raw_records.append((no, party, index, kind, vec / norm))
        elif kind in ("zero", "identity"):
            raw_records.append((no, party, index, kind, None))
        else:
            raise ValueError(f"line {no}: unknown effect kind {kind!r}")

    sizes = [vec.size for *_, vec in raw_records if vec is not None]
    if not sizes:
        raise ValueError(f"line {last}: no vector records; cannot infer the dimension")
    d = sizes[0]

    records: dict[str, dict[int, tuple[int, Effect]]] = {PARTY_A: {}, PARTY_B: {}}
    for no, party, index, kind, vec in raw_records:
        if vec is not None and vec.size != d:
            raise ValueError(f"line {no}: vector dimension {vec.size} differs from {d}")
        if kind == "zero":
            op = np.zeros((d, d))
        elif kind == "identity":
            op = np.eye(d)
        else:
            op = np.outer(vec, vec.conj())
            if kind == "complement":
                op = np.eye(d) - op
        if index in records[party]:
            raise ValueError(f"line {no}: duplicate effect {party} {index}")
        records[party][index] = (no, Effect(d, op))

    sets = []
    for party, expected in ((PARTY_A, party_a_count), (PARTY_B, party_b_count)):
        got = records[party]
        if not got:
            raise ValueError(f"line {last}: no effects for party {party}")
        m = max(got)
        no = got[m][0]
        if sorted(got) != list(range(1, m + 1)):
            raise ValueError(f"line {no}: party {party} effect indices must be 1..{m} without gaps")
        if expected is not None and m != expected:
            raise ValueError(f"line {no}: party {party}: expected {expected} effects, found {m}")
        sets.append(MeasurementSet(party, tuple(got[i][1] for i in range(1, m + 1))))
    return sets[0], sets[1]


def load_measurements(path, party_a_count: Optional[int] = None,
                      party_b_count: Optional[int] = None):
    return parse_measurements(Path(path).read_text(encoding="utf-8"),
                              party_a_count, party_b_count)


def dump_measurements(a: MeasurementSet, b: MeasurementSet) -> str:
    """Serialize projective measurement sets to the measurement file format.

    Effects of rank 1 become ``proj`` records, rank d-1 ``complement``, and
    rank 0 / d the vectorless ``zero`` / ``identity`` markers.  Middle ranks
    (possible only for d >= 4) have no file form and raise.
    """
    out = []
    for mset in (a, b):
        for index, eff in enumerate(mset.effects, start=1):
            if eff.projection_defect() > PROJECTIVE_TOL:
                raise ValueError(f"effect {mset.party} {index} is not projective")
            evals, evecs = hermitian_eig(eff.op)
            rank = int((evals > 0.5).sum())
            d = eff.d
            if rank == 0:
                out.append(f"effect {mset.party} {index} zero")
                continue
            if rank == d:
                out.append(f"effect {mset.party} {index} identity")
                continue
            if rank == 1:
                kind, vec = "proj", evecs[:, -1]
            elif rank == d - 1:
                kind, vec = "complement", evecs[:, 0]
            else:
                raise ValueError(f"effect {mset.party} {index}: rank {rank} of {d} has no "
                                 "single-vector file form")
            out.append(f"effect {mset.party} {index} {kind}")
            out.append(" ".join(f"{z.real:.12f} {z.imag:.12f}" for z in vec))
    return "\n".join(out) + "\n"
