"""Exact integer algebra on two-party, two-outcome Bell inequalities.

Inequalities are stored in Collins-Gisin form: integer coefficients on the
marginal probabilities q_i0, q_0j and the joint probabilities q_ij, plus an
integer bound.  Everything in this module is exact -- no floating point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

PARTY_A = "A"
PARTY_B = "B"

# Enumeration guard for classical_max: 2**30 deterministic strategies is the
# most we are willing to walk.
MAX_ENUM_SETTINGS = 30


class CgParseError(ValueError):
    """Malformed inequality file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class BellInequality:
    """A Bell inequality sum(a_i0 q_i0) + sum(a_0j q_0j) + sum(a_ij q_ij) <= bound.

    ``joint[i][j]`` is the coefficient of q_ij with ``i`` indexing Alice's
    settings and ``j`` Bob's (both 0-based internally; public APIs that take a
    single setting use the 1-based labels A1..Am / B1..Bm of the notation).
    The optional ``name`` is a label only and does not affect equality.
    """

    marg_a: tuple[int, ...]
    marg_b: tuple[int, ...]
    joint: tuple[tuple[int, ...], ...]
    bound: int
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "marg_a", tuple(int(v) for v in self.marg_a))
        object.__setattr__(self, "marg_b", tuple(int(v) for v in self.marg_b))
        object.__setattr__(self, "joint", tuple(tuple(int(v) for v in row) for row in self.joint))
        object.__setattr__(self, "bound", int(self.bound))
        if not self.marg_a or not self.marg_b:
            raise ValueError("need at least one setting per party")
        if len(self.joint) != len(self.marg_a):
            raise ValueError("joint must have one row per Alice setting")
        for row in self.joint:
            if len(row) != len(self.marg_b):
                raise ValueError("joint rows must have one entry per Bob setting")

    @property
    def m_a(self) -> int:
        return len(self.marg_a)

    @property
    def m_b(self) -> int:
        return len(self.marg_b)

    def transposed(self) -> "BellInequality":
        """The same inequality with the two parties exchanged."""
        joint_t = tuple(tuple(self.joint[i][j] for i in range(self.m_a)) for j in range(self.m_b))
        return BellInequality(self.marg_b, self.marg_a, joint_t, self.bound, self.name)

    def key(self) -> tuple:
        """Total-order key: (m_a, m_b, bound, marg_a, marg_b, joint row-major)."""
        flat = tuple(v for row in self.joint for v in row)
        return (self.m_a, self.m_b, self.bound, self.marg_a, self.marg_b, flat)


@dataclass(frozen=True)
class Transform:
    """An element of the symmetry group: party swap, setting permutations,
    outcome flips.

    Application order is fixed: swap parties first (when requested), then
    reindex settings so that new setting ``i`` is source setting ``perm_a[i]``
    (0-based, post-swap), then flip outcomes at the new positions where
    ``flip_a`` / ``flip_b`` are true.
    """

    swap_parties: bool
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    flip_a: tuple[bool, ...]
    flip_b: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm_a", tuple(int(v) for v in self.perm_a))
        object.__setattr__(self, "perm_b", tuple(int(v) for v in self.perm_b))
        object.__setattr__(self, "flip_a", tuple(bool(v) for v in self.flip_a))
        object.__setattr__(self, "flip_b", tuple(bool(v) for v in self.flip_b))
        if sorted(self.perm_a) != list(range(len(self.perm_a))):
            raise ValueError("perm_a is not a permutation")
        if sorted(self.perm_b) != list(range(len(self.perm_b))):
            raise ValueError("perm_b is not a permutation")
        if len(self.flip_a) != len(self.perm_a) or len(self.flip_b) != len(self.perm_b):
            raise ValueError("flip masks must match permutation sizes")

    @staticmethod
    def identity(m_a: int, m_b: int) -> "Transform":
        return Transform(False, tuple(range(m_a)), tuple(range(m_b)),
                         (False,) * m_a, (False,) * m_b)

    @property
    def is_identity(self) -> bool:
        return (not self.swap_parties
                and self.perm_a == tuple(range(len(self.perm_a)))
                and self.perm_b == tuple(range(len(self.perm_b)))
                and not any(self.flip_a) and not any(self.flip_b))

    def inverse(self) -> "Transform":
        inv_pa = _invert_perm(self.perm_a)
        inv_pb = _invert_perm(self.perm_b)
        fa = tuple(self.flip_a[inv_pa[k]] for k in range(len(inv_pa)))
        fb = tuple(self.flip_b[inv_pb[k]] for k in range(len(inv_pb)))
        if self.swap_parties:
            inv_pa, inv_pb = inv_pb, inv_pa
            fa, fb = fb, fa
        return Transform(self.swap_parties, inv_pa, inv_pb, fa, fb)

    def compose(self, first: "Transform") -> "Transform":
        """Transform equal to applying ``first`` and then this transform."""
        pa1, pb1, fa1, fb1 = first.perm_a, first.perm_b, first.flip_a, first.flip_b
        if self.swap_parties:
            pa1, pb1 = pb1, pa1
            fa1, fb1 = fb1, fa1
        perm_a = tuple(pa1[p] for p in self.perm_a)
        perm_b = tuple(pb1[p] for p in self.perm_b)
        flip_a = tuple(self.flip_a[i] ^ fa1[self.perm_a[i]] for i in range(len(self.perm_a)))
        flip_b = tuple(self.flip_b[j] ^ fb1[self.perm_b[j]] for j in range(len(self.perm_b)))
        return Transform(self.swap_parties ^ first.swap_parties, perm_a, perm_b, flip_a, flip_b)

    def describe(self) -> str:
        """Human-readable one-line rendering with 1-based setting labels."""
        parts = []
        if self.swap_parties:
            parts.append("swap parties")
        if self.perm_a != tuple(range(len(self.perm_a))):
            parts.append("A<-(" + ",".join(f"A{p + 1}" for p in self.perm_a) + ")")
        if self.perm_b != tuple(range(len(self.perm_b))):
            parts.append("B<-(" + ",".join(f"B{p + 1}" for p in self.perm_b) + ")")
        flips = [f"A{i + 1}" for i, f in enumerate(self.flip_a) if f]
        flips += [f"B{j + 1}" for j, f in enumerate(self.flip_b) if f]
        if flips:
            parts.append("flip " + ",".join(flips))
        return "; ".join(parts) if parts else "identity"


@dataclass(frozen=True)
class InclusionWitness:
    """Evidence that one inequality includes another.

    ``transform`` maps the larger inequality to a form whose leading
    ``kept_a`` x ``kept_b`` block (marginals, joint, bound) equals the smaller
    inequality; the remaining settings are the ones fixed to deterministic
    always-0 measurements.
    """

    transform: Transform
    kept_a: int
    kept_b: int


def _invert_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


# ---------------------------------------------------------------------------
# File format


def parse_cg(text: str, name: Optional[str] = None) -> BellInequality:
    """Parse the inequality file format.

    Line 1 is ``cg <m_A> <m_B> <bound>``, line 2 the Alice marginal
    coefficients, and each following line one Bob setting: its marginal
    coefficient followed by the joint coefficients against every Alice
    setting.  ``#`` starts a comment line.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    if not rows:
        raise CgParseError("empty inequality file", max(1, len(text.splitlines())))

    lineno, header = rows[0]
    if len(header) != 4 or header[0] != "cg":
        raise CgParseError("expected header 'cg <m_A> <m_B> <bound>'", lineno)
    m_a = _int_token(header[1], lineno)
    m_b = _int_token(header[2], lineno)
    bound = _int_token(header[3], lineno)
    if m_a < 1 or m_b < 1:
        raise CgParseError("setting counts must be at least 1", lineno)
    if len(rows) != 2 + m_b:
        raise CgParseError(f"expected {1 + m_b} data lines after the header, got {len(rows) - 1}",
                           rows[-1][0] if len(rows) > 2 + m_b else lineno)

    lineno, tokens = rows[1]
    if len(tokens) != m_a:
        raise CgParseError(f"expected {m_a} Alice marginal coefficients, got {len(tokens)}", lineno)
    marg_a = tuple(_int_token(t, lineno) for t in tokens)

    marg_b = []
    joint_cols = []
    for j in range(m_b):
        lineno, tokens = rows[2 + j]
        if len(tokens) != 1 + m_a:
            raise CgParseError(f"expected {1 + m_a} coefficients for setting B{j + 1}, "
                               f"got {len(tokens)}", lineno)
        marg_b.append(_int_token(tokens[0], lineno))
        joint_cols.append([_int_token(t, lineno) for t in tokens[1:]])

    joint = tuple(tuple(joint_cols[j][i] for j in range(m_b)) for i in range(m_a))
    return BellInequality(marg_a, tuple(marg_b), joint, bound, name)


def _int_token(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CgParseError(f"non-integer coefficient {token!r}", lineno) from None


def serialize_cg(ineq: BellInequality) -> str:
    """Normalized text form; parse_cg(serialize_cg(x)) == x."""
    lines = [f"cg {ineq.m_a} {ineq.m_b} {ineq.bound}"]
    lines.append(" ".join(str(v) for v in ineq.marg_a))
    for j in range(ineq.m_b):
        row = [str(ineq.marg_b[j])] + [str(ineq.joint[i][j]) for i in range(ineq.m_a)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def load_cg(path) -> BellInequality:
    from pathlib import Path

    p = Path(path)
    return parse_cg(p.read_text(encoding="utf-8"), name=p.stem)


# ---------------------------------------------------------------------------
# Transform application


def _flipped(x: BellInequality, sa: tuple[bool, ...], sb: tuple[bool, ...]) -> BellInequality:
    """Outcomes exchanged on Alice's settings where ``sa`` is true and Bob's
    where ``sb`` is true, in closed form: the bound falls by the value of the
    strategy that outputs 1 exactly on those settings, each marginal absorbs
    its row (column) of joint terms over the other party's flipped settings,
    and a coefficient changes sign once per flipped setting it involves."""
    w = tuple(map(sum, zip(x.marg_b, *itertools.compress(x.joint, sa))))
    marg_a = tuple((-1 if f else 1) * (m + sum(itertools.compress(row, sb)))
                   for f, m, row in zip(sa, x.marg_a, x.joint))
    marg_b = tuple(-v if f else v for f, v in zip(sb, w))
    joint = tuple(tuple(-v if fa ^ fb else v for fb, v in zip(sb, row))
                  for fa, row in zip(sa, x.joint))
    value = sum(itertools.compress(x.marg_a, sa)) + sum(itertools.compress(w, sb))
    return BellInequality(marg_a, marg_b, joint, x.bound - value, x.name)


def flip_outcome(ineq: BellInequality, party: str, setting: int) -> BellInequality:
    """Exchange the two outcomes of one measurement; ``setting`` is 1-based."""
    if party not in (PARTY_A, PARTY_B):
        raise ValueError(f"party must be {PARTY_A!r} or {PARTY_B!r}, got {party!r}")
    who, m = ("Alice", ineq.m_a) if party == PARTY_A else ("Bob", ineq.m_b)
    if not 1 <= setting <= m:
        raise IndexError(f"{who} setting {setting} out of range 1..{m}")
    flips = {PARTY_A: (False,) * ineq.m_a, PARTY_B: (False,) * ineq.m_b}
    flips[party] = tuple(k == setting - 1 for k in range(m))
    return _flipped(ineq, flips[PARTY_A], flips[PARTY_B])


def apply_transform(ineq: BellInequality, t: Transform) -> BellInequality:
    """Apply swap, then setting permutations, then outcome flips."""
    x = ineq.transposed() if t.swap_parties else ineq
    if len(t.perm_a) != x.m_a or len(t.perm_b) != x.m_b:
        raise ValueError("transform size does not match inequality")
    marg_a = tuple(x.marg_a[p] for p in t.perm_a)
    marg_b = tuple(x.marg_b[p] for p in t.perm_b)
    joint = tuple(tuple(x.joint[pi][pj] for pj in t.perm_b) for pi in t.perm_a)
    return _flipped(BellInequality(marg_a, marg_b, joint, x.bound, ineq.name),
                    t.flip_a, t.flip_b)


# ---------------------------------------------------------------------------
# Classical bound and XOR-game form


def _best_responses(x: BellInequality):
    """Yield (sa, w, value) for each of Alice's outcome assignments, in
    itertools.product order.  ``w[j]`` is the gain of Bob's outputting 1 on
    setting j against sa, so his best response outputs 1 exactly where
    w[j] > 0 (either outcome where w[j] == 0); ``value`` is the strategy's
    value under that response.  Exact because Bob's settings decouple."""
    for sa in itertools.product((False, True), repeat=x.m_a):
        w = tuple(map(sum, zip(x.marg_b, *itertools.compress(x.joint, sa))))
        value = sum(itertools.compress(x.marg_a, sa)) + sum(v for v in w if v > 0)
        yield sa, w, value


def classical_max(ineq: BellInequality) -> int:
    """Maximum over all deterministic local strategies (exact).

    Walks Alice's 2^m_a outcome assignments; Bob's best response is chosen
    greedily per setting.  Flipping the outcomes of the settings on which a
    deterministic strategy outputs 1 lowers the bound by exactly that
    strategy's value, so ``canonical_form(ineq).bound`` is
    ``ineq.bound - classical_max(ineq)``.
    """
    if ineq.m_a + ineq.m_b > MAX_ENUM_SETTINGS:
        raise ValueError(f"enumeration guard: m_a + m_b > {MAX_ENUM_SETTINGS}")
    # Iterate the smaller side for the exponential factor.
    x = ineq if ineq.m_a <= ineq.m_b else ineq.transposed()
    return max(value for _, _, value in _best_responses(x))


def xor_game_form(ineq: BellInequality) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Coefficients c with the inequality equal to sum(c_ij * x_ij) <= bound,
    where x_ij = q_i0 + q_0j - 2 q_ij, or None when no such form exists.

    The candidate is forced: c_ij = -joint_ij / 2; the inequality is an XOR
    game exactly when the row sums reproduce Alice's marginal coefficients and
    the column sums Bob's.
    """
    c = tuple(tuple(Fraction(-v, 2) for v in row) for row in ineq.joint)
    for i in range(ineq.m_a):
        if sum(c[i]) != ineq.marg_a[i]:
            return None
    for j in range(ineq.m_b):
        if sum(c[i][j] for i in range(ineq.m_a)) != ineq.marg_b[j]:
            return None
    return c


# ---------------------------------------------------------------------------
# Canonical form, equivalence


def _canonical_scan(x: BellInequality, outcome_flips: bool = True):
    """Minimal (bound, sorted marg_a, sorted marg_b) over all flip subsets,
    returning the flip subsets achieving it together with their value vectors.
    With ``outcome_flips`` off only the empty flip subset is visited.

    The minimal bound is reached exactly on the optimal deterministic
    strategies (see ``canonical_form``), where every flipped value is minus
    an absolute value; Bob's response branches only where his weight is 0.
    """
    m_a, m_b = x.m_a, x.m_b
    if not outcome_flips:
        prefix = (x.bound, tuple(sorted(x.marg_a)), tuple(sorted(x.marg_b)))
        return prefix, [((False,) * m_a, (False,) * m_b, x.marg_a, x.marg_b)]
    responses = list(_best_responses(x))
    top = max(value for _, _, value in responses)
    best_prefix = None
    pool = []
    for sa, w, value in responses:
        if value != top:
            continue
        v_b = tuple(-abs(v) for v in w)
        free = [j for j in range(m_b) if w[j] == 0]
        for choice in itertools.product((False, True), repeat=len(free)):
            picks = dict(zip(free, choice))
            sb = tuple(picks.get(j, w[j] > 0) for j in range(m_b))
            v_a = tuple(-abs(m + sum(itertools.compress(row, sb)))
                        for m, row in zip(x.marg_a, x.joint))
            prefix = (x.bound - top, tuple(sorted(v_a)), tuple(sorted(v_b)))
            if best_prefix is None or prefix < best_prefix:
                best_prefix = prefix
                pool = [(sa, sb, v_a, v_b)]
            elif prefix == best_prefix:
                pool.append((sa, sb, v_a, v_b))
    return best_prefix, pool


def _groups_by_value(values: tuple[int, ...]) -> list[list[int]]:
    """Indices grouped by ascending value; group order gives the sorted tuple."""
    order = sorted(range(len(values)), key=lambda k: values[k])
    groups: list[list[int]] = []
    for k in order:
        if groups and values[groups[-1][-1]] == values[k]:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _min_matrix(mat, row_groups, col_groups):
    """Lexicographically minimal row-major flattening of ``mat`` over row and
    column orderings constrained to stay within the given tie groups.

    Returns (rows, row_order, col_order).  Row placement branches only on
    rows whose content ties for the minimum at that position; the column
    partition refines deterministically after each placed row, so the result
    is exact.
    """
    best: list = [None, None, None]  # rows, row order, col order

    def row_content(r, cgs):
        return tuple(v for g in cgs for v in sorted(mat[r][c] for c in g))

    def refine(cgs, r):
        out = []
        for g in cgs:
            buckets: dict[int, list[int]] = {}
            for c in g:
                buckets.setdefault(mat[r][c], []).append(c)
            for v in sorted(buckets):
                out.append(buckets[v])
        return out

    def rec(remaining, cgs, acc_rows, acc_order):
        depth = len(acc_rows)
        if not remaining:
            col_order = tuple(c for g in cgs for c in sorted(g))
            cand = (tuple(acc_rows), tuple(acc_order), col_order)
            if best[0] is None or cand < tuple(best):
                best[0], best[1], best[2] = cand
            return
        group = remaining[0]
        keyed = [(row_content(r, cgs), r) for r in group]
        lo = min(k for k, _ in keyed)
        # Prune against the incumbent only while the accumulated rows still
        # match its prefix; a strictly smaller prefix must keep exploring.
        if best[0] is not None and tuple(acc_rows) == best[0][:depth] and lo > best[0][depth]:
            return
        for key, r in keyed:
            if key != lo:
                continue
            rest = [r2 for r2 in group if r2 != r]
            nrem = ([rest] if rest else []) + remaining[1:]
            rec(nrem, refine(cgs, r), acc_rows + [key], acc_order + [r])

    rec([list(g) for g in row_groups], [list(g) for g in col_groups], [], [])
    return best[0], best[1], best[2]


@lru_cache(maxsize=4096)
def _canonical_with_transform(ineq: BellInequality, outcome_flips: bool = True
                              ) -> tuple[BellInequality, Transform]:
    # Only the swap branch whose (m_a, m_b) is lexicographically minimal can
    # host the canonical form; with equal setting counts both branches run.
    if ineq.m_a < ineq.m_b:
        variants = [(False, ineq)]
    elif ineq.m_a > ineq.m_b:
        variants = [(True, ineq.transposed())]
    else:
        variants = [(False, ineq), (True, ineq.transposed())]

    best_key = None
    best = None
    for swapped, x in variants:
        prefix, pool = _canonical_scan(x, outcome_flips)
        if best_key is not None and prefix > best_key[:3]:
            continue
        seen = set()  # distinct flip subsets often yield identical candidates
        for sa, sb, v_a, v_b in pool:
            mat = tuple(tuple((x.joint[i][j] * (-1 if sa[i] else 1) * (-1 if sb[j] else 1))
                              for j in range(x.m_b)) for i in range(x.m_a))
            if (mat, v_a, v_b) in seen:
                continue
            seen.add((mat, v_a, v_b))
            rows, row_order, col_order = _min_matrix(mat, _groups_by_value(v_a),
                                                     _groups_by_value(v_b))
            key = prefix + (rows,)
            if best_key is None or key < best_key:
                best_key = key
                best = (swapped, sa, sb, rows, row_order, col_order)

    swapped, sa, sb, rows, row_order, col_order = best
    bound, sorted_va, sorted_vb = best_key[0], best_key[1], best_key[2]
    canon = BellInequality(sorted_va, sorted_vb, rows, bound)
    t = Transform(swapped,
                  tuple(row_order), tuple(col_order),
                  tuple(sa[r] for r in row_order), tuple(sb[c] for c in col_order))
    return canon, t


def canonical_form(ineq: BellInequality, outcome_flips: bool = True) -> BellInequality:
    """The lexicographically minimal equivalent form; constant on equivalence
    classes and idempotent.

    Its bound is ``ineq.bound - classical_max(ineq)``: flipping the outcomes
    on which a deterministic strategy outputs 1 lowers the bound by exactly
    that strategy's value, so the minimizing flips are the optimal strategies.

    With ``outcome_flips=False`` the minimization runs over relabelings only
    (party exchange and setting permutations), the coarser identification
    under which the 16 outcome-switched CHSH variants split into two classes
    instead of one.
    """
    return _canonical_with_transform(ineq, outcome_flips)[0]


def are_equivalent(a: BellInequality, b: BellInequality):
    """Whether the two inequalities are related by party exchange, setting
    permutation and outcome flips; returns (flag, witness transform or None),
    where the witness maps ``a`` onto ``b`` exactly.
    """
    ca, ta = _canonical_with_transform(a, True)
    cb, tb = _canonical_with_transform(b, True)
    if ca != cb:
        return False, None
    witness = tb.inverse().compose(ta)
    assert apply_transform(a, witness) == b
    return True, witness


# ---------------------------------------------------------------------------
# Inclusion


def includes(a: BellInequality, b: BellInequality):
    """Whether ``a`` includes ``b``: some equivalent form of ``a`` restricted
    to its leading m_a(b) x m_b(b) block (bound included) equals ``b``.
    Returns (flag, InclusionWitness or None)."""
    for swapped in (False, True):
        x = a.transposed() if swapped else a
        if x.m_a < b.m_a or x.m_b < b.m_b:
            continue
        found = _inclusion_search(x, b)
        if found is not None:
            perm_a, flips_a, perm_b, flips_b = found
            t = Transform(swapped, perm_a, perm_b, flips_a, flips_b)
            return True, InclusionWitness(t, b.m_a, b.m_b)
        if a.m_a == a.m_b and b.m_a == b.m_b and a.joint == a.transposed().joint \
                and a.marg_a == a.marg_b:
            break  # symmetric inequality: the swapped branch repeats the search
    return False, None


def _inclusion_search(x: BellInequality, b: BellInequality):
    """Backtracking core of includes(); x is the (possibly swapped) larger
    inequality.  Returns (perm_a, flips_a, perm_b, flips_b) on success."""
    m_a, m_b, n_a, n_b = x.m_a, x.m_b, b.m_a, b.m_b
    J = x.joint

    # Column candidates per target column, filtered as rows get assigned:
    # (source column, sign) with sign -1 meaning the source column is flipped.
    init_cols = [[(c, s) for c in range(m_b) for s in (1, -1)] for _ in range(n_b)]

    def assign_rows(i, used, rows, cols):
        if i == n_a:
            return finish_rows(rows, cols)
        for r in range(m_a):
            if used & (1 << r):
                continue
            for s in (1, -1):
                new_cols = []
                ok = True
                for j in range(n_b):
                    keep = [(c, t) for (c, t) in cols[j] if s * t * J[r][c] == b.joint[i][j]]
                    if not keep:
                        ok = False
                        break
                    new_cols.append(keep)
                if not ok:
                    continue
                if not _matchable(new_cols, m_b):
                    continue
                got = assign_rows(i + 1, used | (1 << r), rows + [(r, s)], new_cols)
                if got is not None:
                    return got
        return None

    def finish_rows(rows, cols):
        kept_rows = [r for r, _ in rows]
        free_rows = [r for r in range(m_a) if r not in kept_rows]
        for extra in itertools.product((False, True), repeat=len(free_rows)):
            flip_rows = {r for (r, s) in rows if s < 0}
            flip_rows.update(r for r, f in zip(free_rows, extra) if f)
            # Bob marginals are now fully determined per candidate column.
            fcols = []
            ok = True
            for j in range(n_b):
                keep = [(c, t) for (c, t) in cols[j]
                        if t * (x.marg_b[c] + sum(J[r][c] for r in flip_rows)) == b.marg_b[j]]
                if not keep:
                    ok = False
                    break
                fcols.append(keep)
            if not ok or not _matchable(fcols, m_b):
                continue
            got = assign_cols(0, 0, [], fcols, rows, flip_rows, free_rows)
            if got is not None:
                return got
        return None

    def assign_cols(j, used, acc, fcols, rows, flip_rows, free_rows):
        if j == n_b:
            return finish_cols(acc, rows, flip_rows, free_rows)
        for c, t in fcols[j]:
            if used & (1 << c):
                continue
            got = assign_cols(j + 1, used | (1 << c), acc + [(c, t)], fcols, rows,
                              flip_rows, free_rows)
            if got is not None:
                return got
        return None

    def finish_cols(col_assign, rows, flip_rows, free_rows):
        kept_cols = [c for c, _ in col_assign]
        free_cols = [c for c in range(m_b) if c not in kept_cols]
        for extra in itertools.product((False, True), repeat=len(free_cols)):
            flip_cols = {c for (c, t) in col_assign if t < 0}
            flip_cols.update(c for c, f in zip(free_cols, extra) if f)
            good = all(
                s * (x.marg_a[r] + sum(J[r][c] for c in flip_cols)) == b.marg_a[i]
                for i, (r, s) in enumerate(rows))
            if not good:
                continue
            bound = (x.bound - sum(x.marg_a[r] for r in flip_rows)
                     - sum(x.marg_b[c] for c in flip_cols)
                     - sum(J[r][c] for r in flip_rows for c in flip_cols))
            if bound != b.bound:
                continue
            perm_a = tuple(r for r, _ in rows) + tuple(free_rows)
            perm_b = tuple(kept_cols) + tuple(free_cols)
            flips_a = tuple(r in flip_rows for r in perm_a)
            flips_b = tuple(c in flip_cols for c in perm_b)
            return perm_a, flips_a, perm_b, flips_b
        return None

    return assign_rows(0, 0, [], init_cols)


def _matchable(cands: list[list[tuple[int, int]]], m: int) -> bool:
    """Cheap feasibility check that the candidate columns admit an injective
    assignment (greedy bipartite matching; exact for these sizes)."""
    match: dict[int, int] = {}

    def try_assign(j, seen):
        for c, _ in cands[j]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match or try_assign(match[c], seen):
                match[c] = j
                return True
        return False

    for j in range(len(cands)):
        if not try_assign(j, set()):
            return False
    return True


# ---------------------------------------------------------------------------
# Inclusion digraph


def inclusion_digraph(ineqs: Iterable[BellInequality]) -> list[tuple[str, str]]:
    """Transitively reduced arc set of the inclusion relation, as sorted
    (name, name) pairs.  Entries must carry unique names."""
    entries = list(ineqs)
    names = [x.name for x in entries]
    if None in names or len(set(names)) != len(names):
        raise ValueError("inclusion_digraph needs uniquely named inequalities")
    arcs = set()
    for x in entries:
        for y in entries:
            if x.name == y.name:
                continue
            if includes(x, y)[0]:
                arcs.add((x.name, y.name))
    # Inclusion is transitive, so arcs is its own closure: a cycle is a pair
    # of opposite arcs, and an arc is implied when it factors through some c.
    if any((b, a) in arcs for a, b in arcs):
        raise ValueError("inclusion relation contains equivalent inequalities (cycle)")
    return sorted((a, b) for a, b in arcs
                  if not any((a, c) in arcs and (c, b) in arcs for c in names))


def dot_digraph(arcs: Iterable[tuple[str, str]]) -> str:
    """DOT rendering of an arc list, arcs sorted for stable output."""
    lines = ["digraph inclusion {"]
    for a, b in sorted(arcs):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
