"""Alternating maximization of the bilinear measurement-optimization problem.

With one party's effects fixed, the objective is linear in each of the other
party's effects, and the optimum per setting is the projector onto the
strictly positive eigenspace of a small Hermitian matrix.  Sweeping the two
parties in turn hill-climbs to a local maximum; multiple seeded restarts hunt
for the global one.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .inequality import BellInequality, PARTY_A, PARTY_B
from .quantum import EIG_CUTOFF, SEESAW_TOL, DensityMatrix, Effect, MeasurementSet

# Restarts run in chunks of 1, 2, 4, ... up to this size; restart 0 runs alone.
MAX_CHUNK = 256


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for one multi-restart run."""

    tol: float = SEESAW_TOL
    max_iters: int = 500
    restarts: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be at least 1")


@dataclass(frozen=True, eq=False)
class SeesawResult:
    best_violation: float
    best_a: MeasurementSet
    best_b: MeasurementSet
    iters_used: int
    restart_index: int
    converged: bool


def _project(ops: np.ndarray) -> np.ndarray:
    """Projectors onto the strictly positive eigenspaces of a stack of
    Hermitian matrices, built by masking eigenvectors.  Eigenvalues at or
    below EIG_CUTOFF count as non-positive, which keeps effects projective."""
    evals, evecs = np.linalg.eigh((ops + ops.conj().swapaxes(-1, -2)) / 2)
    evecs = evecs * (evals > EIG_CUTOFF)[..., None, :]
    return evecs @ evecs.conj().swapaxes(-1, -2)


class _Engine:
    """Batched see-saw kernel for one inequality and state.  Effects come as
    stacks ``(..., m, d, d)`` whose leading axes index restarts; no value
    depends on how many restarts share a stack."""

    def __init__(self, ineq: BellInequality, rho: DensityMatrix):
        d, n = rho.d, rho.d * rho.d
        rho4 = rho.op.reshape(d, d, d, d)
        # vec(tr_B[rho (I x Y)]) = part_a @ vec(Y); vec(tr_A[rho (X x I)]) = part_b @ vec(X).
        part_a = rho4.transpose(0, 2, 3, 1).reshape(n, n)
        part_b = rho4.transpose(1, 3, 2, 0).reshape(n, n)
        joint = np.asarray(ineq.joint, dtype=float)
        eye = np.eye(d).reshape(n)
        # Alice's setting i: marg_a[i] rho_A + sum_j joint[i, j] tr_B[rho (I x F_j)], one matmul.
        self.maps = {
            PARTY_A: (np.einsum("ij,pq->jqip", joint, part_a).reshape(ineq.m_b * n, -1),
                      np.outer(ineq.marg_a, part_a @ eye).reshape(-1, d, d)),
            PARTY_B: (np.einsum("ij,pq->iqjp", joint, part_b).reshape(ineq.m_a * n, -1),
                      np.outer(ineq.marg_b, part_b @ eye).reshape(-1, d, d)),
        }
        self.bound = ineq.bound

    def operators(self, party: str, others: np.ndarray) -> np.ndarray:
        """Per setting, the operator whose positive projector is ``party``'s
        optimal effect given the other party's effects."""
        to, off = self.maps[party]
        lead = others.shape[:-3]
        return (others.reshape(*lead, 1, -1) @ to).reshape(*lead, *off.shape) + off

    def objective(self, es: np.ndarray, fs: np.ndarray):
        """Inequality value minus bound, sum_j tr(H_j F_j) + sum_i marg_a[i]
        tr(rho_A E_i) - bound, for Hermitian effects; H_j is Bob's operator."""
        hs, off_a = self.operators(PARTY_B, es), self.maps[PARTY_A][1]
        return ((hs * fs.conj()).real.sum(axis=(-3, -2, -1))
                + (off_a * es.conj()).real.sum(axis=(-3, -2, -1)) - self.bound)

    def run(self, es: np.ndarray, fs: np.ndarray, tol: float, max_iters: int):
        """Alternate full A/B sweeps on (R, m, d, d) stacks, updated in place,
        until each restart's improvement drops below tol; converged restarts
        leave the stack.  Returns (es, fs, values, iters, converged)."""
        values = self.objective(es, fs)
        iters = np.zeros(len(values), dtype=int)
        converged = np.zeros(len(values), dtype=bool)
        active = np.arange(len(values))
        for it in range(1, max_iters + 1):
            e = _project(self.operators(PARTY_A, fs[active]))
            f = _project(self.operators(PARTY_B, e))
            new, old = self.objective(e, f), values[active]
            done = new - old < tol
            es[active], fs[active], iters[active] = e, f, it
            values[active] = np.where(done, np.maximum(old, new), new)
            converged[active] = done
            active = active[~done]
            if not active.size:
                break
        return es, fs, values, iters, converged


def _initial(d: int, m: int, restarts: range, base_seed: int, step_key: tuple) -> np.ndarray:
    """Random projective starts, (R, m, d, d).  Restart i draws from
    SeedSequence(base_seed, spawn_key=(*step_key, i)): per effect, its rank
    uniformly from 1..d-1, then the real and imaginary parts of a Gaussian
    d x rank matrix whose Q factor spans a Haar-random subspace.  Only the QR
    runs batched."""
    draws = []
    for i in restarts:
        rng = np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(*step_key, i)))
        for _ in range(m):
            rank = 1 + int(rng.integers(d - 1))
            draws.append(rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)))
    ops = np.empty((len(draws), d, d), dtype=complex)
    for rank in {g.shape[1] for g in draws}:
        sel = [k for k, g in enumerate(draws) if g.shape[1] == rank]
        q, _ = np.linalg.qr(np.stack([draws[k] for k in sel]))
        ops[sel] = q @ q.conj().swapaxes(-1, -2)
    return ops.reshape(len(restarts), m, d, d)


def _package(party: str, ops: np.ndarray) -> MeasurementSet:
    return MeasurementSet(party, tuple(Effect(ops.shape[1], op) for op in ops))


def optimize_party(ineq: BellInequality, rho: DensityMatrix, fixed: MeasurementSet,
                   party: str) -> MeasurementSet:
    """One exact half-step: the given party's optimal projective effects with
    the other party's measurements fixed."""
    if fixed.d != rho.d:
        raise ValueError("fixed measurements do not match the state dimension")
    if party not in (PARTY_A, PARTY_B):
        raise ValueError(f"party must be {PARTY_A!r} or {PARTY_B!r}")
    if len(fixed) != (ineq.m_b if party == PARTY_A else ineq.m_a):
        raise ValueError(f"fixed set must hold the other party's effects when optimizing {party}")
    return _package(party, _project(_Engine(ineq, rho).operators(party, fixed.ops())))


def seesaw(ineq: BellInequality, rho: DensityMatrix, init_a: MeasurementSet,
           init_b: MeasurementSet, cfg: SeesawConfig) -> SeesawResult:
    """See-saw from explicit initial measurements: one warm-started restart."""
    return multi_restart_max(ineq, rho, replace(cfg, restarts=1), warm_start=(init_a, init_b))


def multi_restart_max(ineq: BellInequality, rho: DensityMatrix, cfg: SeesawConfig,
                      warm_start: Optional[tuple[MeasurementSet, MeasurementSet]] = None,
                      stop_at: Optional[float] = None,
                      step_key: tuple = ()) -> SeesawResult:
    """Best see-saw outcome over seeded restarts.

    Restart ``i`` draws its initial measurements from a generator seeded by
    (base_seed, *step_key, i), so results do not depend on how restarts are
    grouped; ties keep the lowest restart index.  ``warm_start``, Alice's set
    then Bob's, replaces restart 0's random initialization and is checked
    against the inequality and the state.  When ``stop_at`` is given,
    restarts are abandoned (in index order) once the best violation exceeds
    it -- the best-so-far is still an exact see-saw local optimum, just not
    the best of all ``cfg.restarts`` starts.
    """
    if warm_start is not None:
        init_a, init_b = warm_start
        if len(init_a) != ineq.m_a or len(init_b) != ineq.m_b:
            raise ValueError("initial measurement counts do not match the inequality")
        if init_a.d != rho.d or init_b.d != rho.d:
            raise ValueError("initial measurements do not match the state dimension")
    eng = _Engine(ineq, rho)
    best = None  # (violation, index, es, fs, iters, converged)
    lo = 0
    while lo < cfg.restarts:
        chunk = range(lo, min(2 * lo + 1, lo + MAX_CHUNK, cfg.restarts))
        if lo == 0 and warm_start is not None:
            ops = np.concatenate([init_a.ops(), init_b.ops()])[None]
        else:
            ops = _initial(rho.d, ineq.m_a + ineq.m_b, chunk, cfg.base_seed, step_key)
        es, fs, values, iters, converged = eng.run(ops[:, :ineq.m_a], ops[:, ineq.m_a:],
                                                   cfg.tol, cfg.max_iters)
        if stop_at is not None and (values > stop_at).any():  # nothing after the first hit counts
            values = values[:np.argmax(values > stop_at) + 1]
        k = int(np.argmax(values))
        if best is None or values[k] > best[0]:
            best = (float(values[k]), lo + k, es[k], fs[k], int(iters[k]), bool(converged[k]))
        if stop_at is not None and best[0] > stop_at:
            break
        lo = chunk.stop

    value, index, es, fs, iters, converged = best
    return SeesawResult(value, _package(PARTY_A, es), _package(PARTY_B, fs),
                        iters, index, converged)
