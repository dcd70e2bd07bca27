"""Exact integer algebra on two-party, two-outcome Bell inequalities.

Inequalities are stored in Collins-Gisin form: integer coefficients on the
marginal probabilities q_i0, q_0j and the joint probabilities q_ij, plus an
integer bound.  Everything in this module is exact -- no floating point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

PARTY_A = "A"
PARTY_B = "B"

# Enumeration guards: classical_max walks at most 2**30 deterministic
# strategies, and the canonical form at most 2**16 optimal ones.
MAX_ENUM_SETTINGS = 30
MAX_CANONICAL_STRATEGIES = 2**16


class CgParseError(ValueError):
    """Malformed line in a ``.cg``, ``.meas`` or ``table1.tsv`` text; carries
    the 1-based line number as ``.line``.  Read from a file, catalog or path,
    the message is ``line N: ... (in PATH)``."""

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

    def inverse(self) -> "Transform":
        inv_pa = _invert_perm(self.perm_a)
        inv_pb = _invert_perm(self.perm_b)
        fa = tuple(self.flip_a[inv_pa[k]] for k in range(len(inv_pa)))
        fb = tuple(self.flip_b[inv_pb[k]] for k in range(len(inv_pb)))
        if self.swap_parties:
            inv_pa, inv_pb = inv_pb, inv_pa
            fa, fb = fb, fa
        return Transform(self.swap_parties, inv_pa, inv_pb, fa, fb)

    def describe(self) -> str:
        """Human-readable one-line rendering with 1-based setting labels."""
        parts = []
        if self.swap_parties:
            parts.append("swap parties")
        src_a, src_b = ("B", "A") if self.swap_parties else ("A", "B")  # perms index the swap
        if self.perm_a != tuple(range(len(self.perm_a))):
            parts.append("A<-(" + ",".join(f"{src_a}{p + 1}" for p in self.perm_a) + ")")
        if self.perm_b != tuple(range(len(self.perm_b))):
            parts.append("B<-(" + ",".join(f"{src_b}{p + 1}" for p in self.perm_b) + ")")
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
    rows, last = _numbered_tokens(text)
    if not rows:
        raise CgParseError("empty inequality file", last)

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


def _numbered_tokens(text: str) -> tuple[list[tuple[int, list[str]]], int]:
    """(line number, tokens) of each line neither blank nor a ``#`` comment,
    and the last line number, which errors about the whole text name."""
    lines = text.splitlines()
    return ([(no, tokens) for no, tokens in enumerate(map(str.split, lines), start=1)
             if tokens and not tokens[0].startswith("#")], max(1, len(lines)))


def _parse_file(path, parse):
    """``parse`` of the text of ``path``; a ValueError, decoding included, gets
    `` (in PATH)`` appended and keeps its type and ``.line``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        exc.args = (f"{exc} (in {path})",)
        raise


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
    return _parse_file(path, lambda text: parse_cg(text, name=Path(path).stem))


# ---------------------------------------------------------------------------
# Transform application


def _weights(x: BellInequality, sa: tuple[bool, ...]) -> tuple[int, ...]:
    """Bob's weights under Alice's flips ``sa``: ``w[j]`` is his marginal
    coefficient on setting j plus its joint terms over Alice's flipped
    settings, the gain of his outputting 1 on j while Alice outputs 1 exactly
    where ``sa`` is true."""
    return tuple(map(sum, zip(x.marg_b, *itertools.compress(x.joint, sa))))


def _flipped(x: BellInequality, sa: tuple[bool, ...], sb: tuple[bool, ...]) -> BellInequality:
    """Outcomes exchanged on Alice's settings where ``sa`` is true and Bob's
    where ``sb`` is true, in closed form: the bound falls by the value of the
    strategy that outputs 1 exactly on those settings, each marginal absorbs
    its row (column) of joint terms over the other party's flipped settings,
    and a coefficient changes sign once per flipped setting it involves."""
    w = _weights(x, sa)
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
    itertools.product order, with Bob's weights ``w``: his best response
    outputs 1 exactly where w[j] > 0 (either outcome where w[j] == 0), and
    ``value`` is the strategy's value under it.  Exact because Bob's settings
    decouple."""
    if x.m_a + x.m_b > MAX_ENUM_SETTINGS:
        raise ValueError(f"enumeration guard: m_a + m_b > {MAX_ENUM_SETTINGS}")
    for sa in itertools.product((False, True), repeat=x.m_a):
        w = _weights(x, sa)
        value = sum(itertools.compress(x.marg_a, sa)) + sum(v for v in w if v > 0)
        yield sa, w, value


def classical_max(ineq: BellInequality) -> int:
    """Maximum over all deterministic local strategies (exact).

    Walks Alice's 2^m_a outcome assignments; Bob's best response is chosen
    greedily per setting.  Flipping the outcomes of the settings on which a
    deterministic strategy outputs 1 lowers the bound by exactly that
    strategy's value, so the slack ``ineq.bound - classical_max(ineq)`` is the
    same on every equivalent form: ``are_equivalent`` compares it before any
    search, and it is ``canonical_form(ineq).bound``.
    """
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
    for margs, lines in ((ineq.marg_a, ineq.joint), (ineq.marg_b, zip(*ineq.joint))):
        if any(2 * m != -sum(line) for m, line in zip(margs, lines)):
            return None
    return tuple(tuple(Fraction(-v, 2) for v in row) for row in ineq.joint)


# ---------------------------------------------------------------------------
# Canonical form, equivalence


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


def _min_matrix(mat, row_groups, col_groups, bound=None):
    """Lexicographically minimal row-major flattening of ``mat`` over row and
    column orderings constrained to stay within the given tie groups.

    Returns its rows, or ``bound`` when no flattening is strictly smaller.
    Row placement branches only on rows whose content ties for the minimum at
    that position; the column partition refines deterministically after each
    placed row, so the result is exact.
    """
    best = bound

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

    def rec(remaining, cgs, acc_rows):
        nonlocal best
        depth = len(acc_rows)
        if not remaining:
            if best is None or acc_rows < best:
                best = acc_rows
            return
        group = remaining[0]
        keyed = [(row_content(r, cgs), r) for r in group]
        lo = min(k for k, _ in keyed)
        # Prune against the incumbent only while the accumulated rows still
        # match its prefix; a strictly smaller prefix must keep exploring.
        if best is not None and acc_rows == best[:depth] and lo > best[depth]:
            return
        tried = set()  # swapping identical rows is an automorphism: try one
        for key, r in keyed:
            if key != lo or mat[r] in tried:
                continue
            tried.add(mat[r])
            rest = [r2 for r2 in group if r2 != r]
            nrem = ([rest] if rest else []) + remaining[1:]
            rec(nrem, refine(cgs, r), acc_rows + (key,))

    rec([list(g) for g in row_groups], [list(g) for g in col_groups], ())
    return best


def canonical_form(ineq: BellInequality, outcome_flips: bool = True) -> BellInequality:
    """The lexicographically minimal equivalent form; constant on equivalence
    classes and idempotent.

    Its bound is ``ineq.bound - classical_max(ineq)``: flipping the outcomes
    on which a deterministic strategy outputs 1 lowers the bound by exactly
    that strategy's value, so the minimizing flips are the optimal strategies.

    With ``outcome_flips=False`` the minimization runs over relabelings only
    (party exchange and setting permutations), the coarser identification
    under which the 16 outcome-switched CHSH variants split into two classes
    instead of one.  A class key only: ``are_equivalent`` decides by the
    inclusion search.
    """
    # The form has m_a <= m_b, so one walk on the smaller party's side finds
    # every candidate.  Flipped at an optimal strategy, every marginal is
    # minus an absolute value, and Bob's response branches only where his
    # weight is 0.  Without outcome flips the walk is the empty flip.
    x = ineq.transposed() if ineq.m_a > ineq.m_b else ineq
    if outcome_flips:
        responses = list(_best_responses(x))
        top = max(value for _, _, value in responses)
        if sum(2 ** w.count(0) for _, w, v in responses if v == top) > MAX_CANONICAL_STRATEGIES:
            raise ValueError(f"enumeration guard: > {MAX_CANONICAL_STRATEGIES} optimal strategies")
        walk = [(sa, sb, tuple(-abs(m + sum(itertools.compress(row, sb)))
                               for m, row in zip(x.marg_a, x.joint)), tuple(-abs(v) for v in w))
                for sa, w, value in responses if value == top
                for sb in itertools.product(*[(v > 0,) if v else (False, True) for v in w])]
    else:
        top, walk = 0, [((False,) * x.m_a, (False,) * x.m_b, x.marg_a, x.marg_b)]
    # On a square input each strategy also competes with the parties
    # exchanged: flips and marginals swapped, signed joint transposed.  Sorted
    # candidates put the minimal (sorted marg_a, sorted marg_b) prefix first;
    # the best rows so far bound each later search.
    cands = []
    for sa, sb, v_a, v_b in walk:
        cands.append((tuple(sorted(v_a)), tuple(sorted(v_b)), False, sa, sb, v_a, v_b))
        if x.m_a == x.m_b:
            cands.append((tuple(sorted(v_b)), tuple(sorted(v_a)), True, sb, sa, v_b, v_a))
    cands.sort()
    joints = (x.joint, tuple(zip(*x.joint)))
    rows = None
    seen = set()  # distinct strategies often yield identical candidates
    for sorted_va, sorted_vb, swap, sa, sb, v_a, v_b in cands:
        if (sorted_va, sorted_vb) != cands[0][:2]:
            break
        mat = tuple(tuple(-v if fa ^ fb else v for fb, v in zip(sb, row))
                    for fa, row in zip(sa, joints[swap]))
        if (mat, v_a, v_b) not in seen:
            seen.add((mat, v_a, v_b))
            rows = _min_matrix(mat, _groups_by_value(v_a), _groups_by_value(v_b), rows)
    return BellInequality(cands[0][0], cands[0][1], rows, x.bound - top)


def are_equivalent(a: BellInequality, b: BellInequality):
    """Whether the two inequalities are related by party exchange, setting
    permutation and outcome flips; returns (flag, witness transform or None),
    where the witness maps ``a`` onto ``b`` exactly.  Shapes must match up to
    the party exchange, and so must the slacks ``bound - classical_max``,
    which flips and permutations keep; the inclusion search then decides, at
    full size an equivalence search, and its transform is the witness."""
    same = (sorted((a.m_a, a.m_b)) == sorted((b.m_a, b.m_b))
            and a.bound - classical_max(a) == b.bound - classical_max(b))
    witness = includes(a, b)[1] if same else None
    if witness is None:
        return False, None
    assert apply_transform(a, witness.transform) == b
    return True, witness.transform


# ---------------------------------------------------------------------------
# Inclusion


def includes(a: BellInequality, b: BellInequality):
    """Whether ``a`` includes ``b``: some equivalent form of ``a`` restricted
    to its leading m_a(b) x m_b(b) block (bound included) equals ``b``.

    Returns (flag, InclusionWitness or None).  The witness is the first match
    on ``a``, then on its transpose unless ``a`` or ``b`` is symmetric (the
    transpose holds b exactly where ``a`` holds bᵀ, so it would repeat the
    failed search and change no witness), in this order: b's rows on signed
    rows, flips of the free rows, b's columns on signed columns, flips of the
    free columns.  With flip vectors sa, sb and Bob's weights w under sa, the
    bound matches when ``bound - sum(marg_a[sa]) - sum(w[sb]) == b.bound``."""
    b_symmetric = b.marg_a == b.marg_b and b.joint == tuple(zip(*b.joint))
    for swapped in (False,) if b_symmetric else (False, True):
        x = a.transposed() if swapped else a
        if swapped and x == a:
            break  # symmetric: the swapped branch repeats the search
        found = _inclusion_search(x, b) if x.m_a >= b.m_a and x.m_b >= b.m_b else None
        if found is not None:
            return True, InclusionWitness(Transform(swapped, *found), b.m_a, b.m_b)
    return False, None


def _inclusion_search(x: BellInequality, b: BellInequality):
    """The first match on x as (perm_a, perm_b, flip_a, flip_b), or None."""
    evens = ((1 << 2 * x.m_b) - 1) // 3  # bits 2c; candidate bit 2c + t is column c, flip t
    cands = [sum(1 << 2 * c + t for c, t in fits)
             for fits in _corr_fits(x.marg_b, tuple(zip(*x.joint)), b.marg_b, tuple(zip(*b.joint)))]
    for rows, cands in _row_leaves(x, b, cands, evens):
        perm_a = [r for r, _ in rows]
        perm_a += [r for r in range(x.m_a) if r not in perm_a]
        for free_a in itertools.product((False, True), repeat=x.m_a - b.m_a):
            flip_a = tuple(s for _, s in rows) + free_a
            sa = tuple(f for _, f in sorted(zip(perm_a, flip_a)))
            w = _weights(x, sa)
            need = x.bound - sum(itertools.compress(x.marg_a, sa)) - b.bound
            if not sum(v for v in w if v < 0) <= need <= sum(v for v in w if v > 0):
                continue  # no flips of Bob's reach the bound
            fits = _narrow(cands, _value_masks(w), b.marg_b, evens)
            for cols in _place_cols(fits, ()) if fits else ():
                perm_b = [c for c, _ in cols]
                perm_b += [c for c in range(x.m_b) if c not in perm_b]
                for free_b in itertools.product((False, True), repeat=x.m_b - b.m_b):
                    flip_b = tuple(t for _, t in cols) + free_b
                    sb = tuple(f for _, f in sorted(zip(perm_b, flip_b)))
                    if (sum(itertools.compress(w, sb)) == need
                            and all((x.marg_a[r] + sum(itertools.compress(x.joint[r], sb)))
                                    * (-1 if s else 1) == v for (r, s), v in zip(rows, b.marg_a))):
                        return tuple(perm_a), tuple(perm_b), flip_a, flip_b
    return None


def _value_masks(v: tuple) -> dict[int, int]:
    """Each value mapped to its bits: 2c where ``v[c]`` has it, 2c + 1 where ``-v[c]`` does."""
    masks: dict[int, int] = {}
    bit = 1
    for val in v:
        masks[val] = masks.get(val, 0) | bit
        masks[-val] = masks.get(-val, 0) | bit << 1
        bit <<= 2
    return masks


def _corr_fits(x_margs, x_lines, b_margs, b_lines) -> list[list[tuple[int, bool]]]:
    """Per setting of b, the (setting of x, flip) it can sit on.  When b keeps
    every setting of the other party, a flip only negates a setting's correlator
    coefficient, 2 * marg + its joint sum, so the two must match up to sign;
    otherwise free settings shift it and every pair is offered."""
    pairs = [(k, s) for k in range(len(x_lines)) for s in (False, True)]
    if len(x_lines[0]) > len(b_lines[0]):
        return [pairs] * len(b_lines)
    xs = [2 * m + sum(v) for m, v in zip(x_margs, x_lines)]
    return [[(k, s) for k, s in pairs if xs[k] == (-u if s else u)]
            for u in [2 * m + sum(v) for m, v in zip(b_margs, b_lines)]]


def _row_leaves(x: BellInequality, b: BellInequality, cands: list, evens: int):
    """The leaves of ``_place_rows`` over ``_corr_fits``, in its order.  When
    b is a proper sub-block in both parties, every row and column is offered
    with both flips, and flipping every setting of x maps the search onto
    itself: targets negate and candidate bits swap in pairs (2c <-> 2c + 1).
    So b's first row is placed unflipped only, and after the leaves of each
    first row come their mirrors, sorted into the order of the flipped one."""
    fits = _corr_fits(x.marg_a, x.joint, b.marg_a, b.joint)
    masks = [None] * x.m_a
    if x.m_a == b.m_a or x.m_b == b.m_b:
        yield from _place_rows(x, b, (), cands, masks, evens, fits)
        return
    for r in range(x.m_a):
        leaves = []
        for leaf in _place_rows(x, b, (), cands, masks, evens, [[(r, False)]] + fits[1:]):
            leaves.append(leaf)
            yield leaf
        leaves.sort(key=lambda leaf: [2 * k + (not s) for k, s in leaf[0]])
        for rows, cs in leaves:
            yield (tuple((k, not s) for k, s in rows),
                   [(m & evens) << 1 | (m >> 1) & evens for m in cs])


def _place_rows(x: BellInequality, b: BellInequality, rows: tuple, cands: list, masks, evens, fits):
    """Yield each placement ``rows[i] = (r, flip)`` from ``fits[i]`` of b's rows on
    distinct rows of x, depth first, with ``cands[j]`` the bits that fit; ``masks`` caches rows."""
    if len(rows) == b.m_a:
        yield rows, cands
        return
    targets = b.joint[len(rows)], tuple(-v for v in b.joint[len(rows)])  # flipped: -b's row
    used = {r for r, _ in rows}
    for r, s in (f for f in fits[len(rows)] if f[0] not in used):
        masks[r] = masks[r] or _value_masks(x.joint[r])
        nxt = _narrow(cands, masks[r], targets[s], evens)
        if nxt:
            yield from _place_rows(x, b, rows + ((r, s),), nxt, masks, evens, fits)


def _place_cols(cands: list, cols: tuple, used: int = 0):
    """Yield each choice of one bit per entry of ``cands`` on distinct columns."""
    if len(cols) == len(cands):
        yield cols
        return
    free = cands[len(cols)] & ~used
    for k in range(free.bit_length()):
        if free >> k & 1:
            yield from _place_cols(cands, cols + ((k >> 1, k & 1),), used | 3 << (k & ~1))


def _narrow(cands: list, masks: dict, target: tuple, evens: int) -> Optional[list]:
    """Per target column j, the bits of ``cands[j]`` whose signed value is
    ``target[j]``; None once no distinct choice of columns is left."""
    out = [m & masks.get(want, 0) for m, want in zip(cands, target)]
    return out if all(out) and _matchable(out, evens) else None


def _matchable(cands: list, evens: int) -> bool:
    """Whether every candidate set can take a distinct column (augmenting paths)."""
    cols = [(m | m >> 1) & evens for m in cands]
    owner: dict[int, int] = {}

    def augment(j):
        nonlocal seen
        while free := cols[j] & ~seen:
            bit = free & -free
            seen |= bit
            if bit not in owner or augment(owner[bit]):
                owner[bit] = j
                return True
        return False

    for j in range(len(cols)):
        seen = 0
        if not augment(j):
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
    order = sorted(entries, key=lambda e: e.m_a * e.m_b)  # small pairs decide larger ones
    arcs, absent = set(), set()
    for x, y in itertools.permutations(order, 2):
        # Transitivity: y ⊇ c with x ⊉ c gives no.  x ⊇ c ⊇ y cannot give yes, as
        # (x, c) is known first only for c no larger than y, and then c ⊇ y is a cycle.
        if any((y.name, c) in arcs and (x.name, c) in absent for c in names):
            absent.add((x.name, y.name))
        else:
            (arcs if includes(x, y)[0] else absent).add((x.name, y.name))
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
