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
from .quantum import (EIG_CUTOFF, RETIRE_MARGIN, SEESAW_TOL, DensityMatrix, Effect,
                      MeasurementSet, check_measurements)

# Restarts run in chunks of 1, 4, 16, ... up to this size; restart 0 runs alone.
MAX_CHUNK = 256
MAX_ITERS = 500  # sweeps a restart may take before it stops unconverged
# The retire rule of a run with a stop_at (_Engine.run): the value is extrapolated
# by RETIRE_SAFETY times the geometric tail of its gains, at most RETIRE_GAIN
# sweeps at its last gain, and must stay low for RETIRE_SWEEPS sweeps.
RETIRE_GAIN = 1000
RETIRE_SAFETY = 10
RETIRE_SWEEPS = 3


@dataclass(frozen=True)
class SeesawConfig:
    """Knobs for one multi-restart run."""

    restarts: int = 200
    base_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.restarts <= 2**32:  # a restart index is one 32-bit seed word
            raise ValueError("restarts must be at least 1 and at most 2**32")


@dataclass(frozen=True, eq=False)
class SeesawResult:
    best_violation: float
    best_a: MeasurementSet
    best_b: MeasurementSet
    iters_used: int
    restart_index: int
    converged: bool
    retired: int = 0  # restarts the retire rule stopped, of those that count
    sweeps: int = 0  # sweeps summed over the restarts that count


def _project(ops: np.ndarray) -> np.ndarray:
    """Projectors onto the strictly positive eigenspaces of a stack of
    Hermitian matrices, built by masking eigenvectors.  Eigenvalues at or
    below EIG_CUTOFF count as non-positive, which keeps effects projective."""
    evals, evecs = np.linalg.eigh((ops + ops.conj().swapaxes(-1, -2)) / 2)
    evecs = evecs * (evals > EIG_CUTOFF)[..., None, :]
    return evecs @ evecs.conj().swapaxes(-1, -2)


def _tail_sweeps(gain, prev):
    """Sweeps of its last ``gain`` by which a restart's value is extrapolated:
    RETIRE_SAFETY times the rest of a geometric tail, q / (1 - q) with q =
    gain / prev (Aitken's delta-squared), at most RETIRE_GAIN.  RETIRE_GAIN
    where q is undefined or outside [0, 1): on the first sweep (``prev`` NaN),
    after a zero gain, and for growing gains or a change of sign."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.divide(gain, prev)
        tail = np.minimum(RETIRE_GAIN, RETIRE_SAFETY * q / (1 - q))
    return np.where((q >= 0) & (q < 1), tail, RETIRE_GAIN)


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

    def objective(self, es: np.ndarray, fs: np.ndarray, hs: Optional[np.ndarray] = None):
        """Inequality value minus bound, sum_j tr(H_j F_j) + sum_i marg_a[i]
        tr(rho_A E_i) - bound, for Hermitian effects; H_j is Bob's operator,
        ``operators(PARTY_B, es)``, passed in by a caller that has it."""
        hs = self.operators(PARTY_B, es) if hs is None else hs
        return ((hs * fs.conj()).real.sum(axis=(-3, -2, -1))
                + (self.maps[PARTY_A][1] * es.conj()).real.sum(axis=(-3, -2, -1)) - self.bound)

    def run(self, es: np.ndarray, fs: np.ndarray, stop_at: Optional[float] = None):
        """Alternate full A/B sweeps on (R, m, d, d) stacks until each
        restart's improvement drops below SEESAW_TOL, for at most MAX_ITERS
        sweeps.  With ``stop_at``, a restart also retires, unconverged, once
        ``new + _tail_sweeps(gain, prev) * gain < stop_at - RETIRE_MARGIN``
        has held for RETIRE_SWEEPS sweeps in a row, ``gain = new - old`` being
        its rise in value over a sweep and ``prev`` its rise over the sweep
        before.  Live restarts form a compacted stack; a finished one leaves
        it and is written back to es and fs in place.  Returns (es, fs,
        values, iters, converged, retired)."""
        values = self.objective(es, fs)
        iters = np.full(len(values), MAX_ITERS)
        converged, retired = np.zeros(len(values), dtype=bool), np.zeros(len(values), dtype=bool)
        floor = -np.inf if stop_at is None else stop_at - RETIRE_MARGIN
        live, f, old, streak = np.arange(len(values)), fs, values, np.zeros(len(values), dtype=int)
        prev = np.full(len(values), np.nan)  # each live restart's gain over the sweep before
        for it in range(1, MAX_ITERS + 1):
            e = _project(self.operators(PARTY_A, f))
            f = _project(hs := self.operators(PARTY_B, e))
            new = self.objective(e, f, hs)
            gain = new - old
            done = gain < SEESAW_TOL
            streak = np.where(new + _tail_sweeps(gain, prev) * gain < floor, streak + 1, 0)
            leave = done | (streak >= RETIRE_SWEEPS)
            if leave.any():
                rows, keep = live[leave], ~leave
                es[rows], fs[rows], iters[rows] = e[leave], f[leave], it
                values[rows] = np.maximum(old[leave], new[leave])
                converged[rows], retired[rows] = done[leave], ~done[leave]
                live, e, f, new, streak = live[keep], e[keep], f[keep], new[keep], streak[keep]
                gain = gain[keep]
                if not live.size:
                    break
            old, prev = new, gain
        else:
            es[live], fs[live], values[live] = e, f, old
        return es, fs, values, iters, converged, retired


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe), replayed by _seed_words.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _seed_words(base_seed: int, step_key: tuple, restarts: range) -> np.ndarray:
    """``SeedSequence(base_seed, spawn_key=(*step_key, i)).generate_state(4,
    np.uint64)`` for all i in ``restarts``, (R, 4), in one pass.  numpy mixes
    the words before i into the pool, hashing 4 times per word past the fourth
    after 16 initial hashes; i, one 32-bit word, is mixed in last.  Arithmetic
    runs on uint32 arrays, which wrap, or Python ints, never numpy scalars."""
    n = [max(1, -(-int(x).bit_length() // 32)) for x in (base_seed, *step_key)]
    h = INIT_A * pow(MULT_A, 16 + 4 * (max(4, n[0]) + sum(n[1:]) - 4), 1 << 32) & MASK32
    index, mixed, words = np.arange(restarts.start, restarts.stop, dtype=np.uint32), [], []
    for p in np.random.SeedSequence(base_seed, spawn_key=step_key).pool.tolist():
        v = (index ^ h) * (h := h * MULT_A & MASK32)
        r = (MIX_MULT_L * p & MASK32) - MIX_MULT_R * (v ^ v >> 16)
        mixed.append(r ^ r >> 16)
    h = INIT_B
    for k in range(8):
        v = (mixed[k % 4] ^ h) * (h := h * MULT_B & MASK32)
        words.append(v ^ v >> 16)
    lo, hi = (np.stack(words[k::2], axis=1).astype(np.uint64) for k in (0, 1))
    return lo | hi << 32


@dataclass
class _Words(np.random.bit_generator.ISeedSequence):
    """Precomputed seed words; PCG64 asks for exactly four uint64."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _starts(d: int, m: int, words: np.ndarray) -> np.ndarray:
    """Random projective starts, (R, m, d, d), bit for bit those of
    default_rng(SeedSequence(base_seed, spawn_key=(*step_key, i))) seeded by
    row i of ``words``.  Per effect: a rank uniform on 1..d-1, replayed from raw
    PCG64 words as ``integers(d - 1)`` draws it (Lemire's method on 32-bit
    halves, the high one buffered), then 2*d*rank Gaussians, which never read
    that buffer: one call per raw word.  A batched QR per rank gives projectors."""
    ranks, used, reject = [], 0, (1 << 32) % (d - 1)  # Lemire redraws a low word below it
    flat = np.empty(len(words) * m * 2 * d * (d - 1))  # room for every effect at rank d - 1
    for w in words:
        bits = np.random.PCG64(_Words(w))
        normal, half, drawn = np.random.Generator(bits).standard_normal, None, used
        for _ in range(m):
            rank = 1
            while d > 2:
                if half is None:  # a raw word; first the Gaussians drawn before it
                    if drawn < used:
                        normal(out=flat[drawn:used])
                    x, drawn = bits.random_raw(), used
                    x, half = x & MASK32, x >> 32
                else:
                    x, half = half, None
                if x * (d - 1) & MASK32 >= reject:
                    rank += x * (d - 1) >> 32
                    break
            ranks.append((rank, used))  # and where its draws start in flat
            used += 2 * d * rank
        normal(out=flat[drawn:used])
    rank_of, first = np.array(ranks).T
    ops = np.empty((len(ranks), d, d), dtype=complex)
    for rank in set(rank_of.tolist()):
        g = flat[first[rank_of == rank, None] + np.arange(2 * d * rank)].reshape(-1, 2, d, rank)
        q, _ = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        ops[rank_of == rank] = q @ q.conj().swapaxes(-1, -2)
    return ops.reshape(len(words), m, d, d)


def _package(party: str, ops: np.ndarray) -> MeasurementSet:
    return MeasurementSet(party, tuple(Effect(ops.shape[1], op) for op in ops))


def optimize_party(ineq: BellInequality, rho: DensityMatrix, fixed: MeasurementSet,
                   party: str) -> MeasurementSet:
    """One exact half-step: the given party's optimal projective effects with
    the other party's measurements fixed."""
    if party not in (PARTY_A, PARTY_B):
        raise ValueError(f"party must be {PARTY_A!r} or {PARTY_B!r}")
    check_measurements(rho.d, {PARTY_B if party == PARTY_A else PARTY_A: fixed}, ineq)
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

    Restart ``i`` starts from _starts' stream for (base_seed, *step_key, i),
    so no result depends on how restarts are grouped into chunks (of 1, 4,
    16, ... up to MAX_CHUNK) or seed-word blocks (of up to MAX_CHUNK); ties
    keep the lowest index.  ``warm_start``, Alice's set then Bob's, replaces
    restart 0's start and is checked against the inequality and the state.
    With ``stop_at``, restarts are abandoned (in index order) once the best
    violation exceeds it -- the best-so-far is still an exact see-saw local
    optimum, just not the best of all ``cfg.restarts`` -- and the kernel's
    retire rule (``_Engine.run``) stops a restart whose extrapolated geometric
    tail stays below it, so a probe decides by sign.  Stopping a restart that
    would have climbed above it can change the witness, never the validity
    of the result.  ``retired`` counts the stopped restarts among those that
    count, and ``sweeps`` sums the sweeps of the restarts that count.
    Without ``stop_at``, every restart runs to convergence."""
    if warm_start is not None:
        init_a, init_b = warm_start
        check_measurements(rho.d, {PARTY_A: init_a, PARTY_B: init_b}, ineq)
    eng = _Engine(ineq, rho)
    best = None  # (violation, index, es, fs, iters, converged)
    lo, retired, sweeps = 0, 0, 0
    block = range(0)  # the restarts whose seed words are at hand
    while lo < cfg.restarts:
        chunk = range(lo, min(4 * lo + 1, lo + MAX_CHUNK, cfg.restarts))
        if lo == 0 and warm_start is not None:
            ops = np.concatenate([init_a.ops(), init_b.ops()])[None]
        else:
            if chunk.stop > block.stop:
                block = range(lo, min(lo + MAX_CHUNK, cfg.restarts))
                words = _seed_words(cfg.base_seed, step_key, block)
            ops = _starts(rho.d, ineq.m_a + ineq.m_b, words[lo - block.start:][:len(chunk)])
        es, fs, values, iters, converged, gone = eng.run(ops[:, :ineq.m_a], ops[:, ineq.m_a:],
                                                         stop_at)
        if stop_at is not None and (values > stop_at).any():  # nothing after the first hit counts
            values = values[:np.argmax(values > stop_at) + 1]
        retired += int(gone[:len(values)].sum())
        sweeps += int(iters[:len(values)].sum())
        k = int(np.argmax(values))
        if best is None or values[k] > best[0]:
            best = (float(values[k]), lo + k, es[k], fs[k], int(iters[k]), bool(converged[k]))
        if stop_at is not None and best[0] > stop_at:
            break
        lo = chunk.stop

    value, index, es, fs, iters, converged = best
    return SeesawResult(value, _package(PARTY_A, es), _package(PARTY_B, fs),
                        iters, index, converged, retired, sweeps)
