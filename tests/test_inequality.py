"""Exact combinatorics: parsing, transforms, canonical forms, inclusion,
classical bounds, XOR-game detection."""
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import bellscope as bs
from bellscope import inequality
from bellscope.inequality import CgParseError

from conftest import random_transform

CHSH_TEXT = """\
cg 2 2 0
-1 0
-1 1 1
0 1 -1
"""

I3322_TEXT = """\
cg 3 3 0
-1 0 0
-2 1 1 1
-1 1 1 -1
0 1 -1 0
"""


# ---------------------------------------------------------------------------
# File format


def test_parse_chsh(chsh):
    parsed = bs.parse_cg(CHSH_TEXT)
    assert parsed.marg_a == (-1, 0)
    assert parsed.marg_b == (-1, 0)
    assert parsed.joint == ((1, 1), (1, -1))
    assert parsed.bound == 0
    assert parsed == chsh


def test_parse_i3322(i3322):
    parsed = bs.parse_cg(I3322_TEXT)
    assert parsed.marg_a == (-1, 0, 0)
    assert parsed.marg_b == (-2, -1, 0)
    assert parsed.joint == ((1, 1, 1), (1, 1, -1), (1, -1, 0))
    assert parsed == i3322


def test_parse_row_length_mismatch():
    bad = "cg 2 2 0\n-1 0\n-1 1 1\n0 1 -1 5\n"
    with pytest.raises(CgParseError) as err:
        bs.parse_cg(bad)
    assert err.value.line == 4


def test_parse_non_integer_token():
    with pytest.raises(CgParseError, match="non-integer"):
        bs.parse_cg("cg 1 1 0\n0.5\n0 -1\n")


def test_parse_missing_rows():
    with pytest.raises(CgParseError):
        bs.parse_cg("cg 2 2 0\n-1 0\n-1 1 1\n")


@pytest.mark.parametrize("text, line", [("", 1), ("# only a comment\n", 1),
                                        ("# a\n\n   \n", 3)],
                         ids=["empty", "comment-only", "blank-lines"])
def test_parse_empty_file_names_its_last_line(text, line):
    with pytest.raises(CgParseError, match=rf"^line {line}: empty inequality file$") as err:
        bs.parse_cg(text)
    assert err.value.line == line


def test_serialize_round_trip(catalog):
    for entry in catalog:
        again = bs.parse_cg(bs.serialize_cg(entry.inequality))
        assert again == entry.inequality
    assert bs.serialize_cg(bs.parse_cg(CHSH_TEXT)) == CHSH_TEXT


def test_comments_and_blank_lines_ignored():
    noisy = "# a comment\n\ncg 1 1 0\n# another\n0\n0 -1\n"
    assert bs.parse_cg(noisy) == bs.parse_cg("cg 1 1 0\n0\n0 -1\n")


# ---------------------------------------------------------------------------
# Outcome flips


def test_double_flip_gives_switched_chsh(switched_chsh):
    assert switched_chsh.marg_a == (0, 1)
    assert switched_chsh.marg_b == (0, 1)
    assert switched_chsh.joint == ((1, -1), (-1, -1))
    assert switched_chsh.bound == 1


def test_flip_is_involution(catalog):
    for entry in catalog:
        ineq = entry.inequality
        for party, m in (("A", ineq.m_a), ("B", ineq.m_b)):
            for k in range(1, m + 1):
                assert bs.flip_outcome(bs.flip_outcome(ineq, party, k), party, k) == ineq


def test_flip_preserves_classical_gap(i3322):
    flipped = bs.flip_outcome(i3322, "A", 2)
    assert (bs.classical_max(flipped) - flipped.bound
            == bs.classical_max(i3322) - i3322.bound)


def test_flip_index_out_of_range(chsh):
    with pytest.raises(IndexError):
        bs.flip_outcome(chsh, "A", 3)
    with pytest.raises(IndexError):
        bs.flip_outcome(chsh, "B", 0)


def test_flip_index_error_names_the_party(by_name):
    a5 = by_name("A5")
    with pytest.raises(IndexError, match=rf"^Bob setting 5 out of range 1..{a5.m_b}$"):
        bs.flip_outcome(a5, "B", 5)
    with pytest.raises(IndexError, match=rf"^Alice setting 0 out of range 1..{a5.m_a}$"):
        bs.flip_outcome(a5, "A", 0)


def test_flips_relabel_deterministic_strategies(catalog):
    """Flipping outcomes maps the value of every deterministic strategy to
    the value of the strategy with those outputs exchanged."""
    def value(x, a, b):
        return (sum(c * u for c, u in zip(x.marg_a, a)) + sum(c * v for c, v in zip(x.marg_b, b))
                + sum(x.joint[i][j] * a[i] * b[j] for i in range(x.m_a) for j in range(x.m_b))
                - x.bound)

    rng = np.random.default_rng(17)
    for entry in catalog:
        x = entry.inequality
        for _ in range(3):
            fa = tuple(bool(v) for v in rng.integers(2, size=x.m_a))
            fb = tuple(bool(v) for v in rng.integers(2, size=x.m_b))
            t = bs.Transform(False, tuple(range(x.m_a)), tuple(range(x.m_b)), fa, fb)
            y = bs.apply_transform(x, t)
            for a in itertools.product((0, 1), repeat=x.m_a):
                for b in itertools.product((0, 1), repeat=x.m_b):
                    assert value(y, [u ^ f for u, f in zip(a, fa)],
                                 [v ^ f for v, f in zip(b, fb)]) == value(x, a, b)


# ---------------------------------------------------------------------------
# Transforms


def test_identity_transform(chsh):
    t = bs.Transform(False, (0, 1), (0, 1), (False, False), (False, False))
    assert bs.apply_transform(chsh, t) == chsh
    assert t.describe() == "identity"


def test_describe_labels_sources_by_party_after_swap():
    # After a swap, perm_a indexes the swapped inequality, whose A settings
    # are the original's B settings.
    t = bs.Transform(True, (1, 0, 2), (1, 0), (False, True, False), (True, False))
    assert t.describe() == "swap parties; A<-(B2,B1,B3); B<-(A2,A1); flip A2,B1"
    t = bs.Transform(False, (1, 0), (1, 0, 2), (False, False), (False,) * 3)
    assert t.describe() == "A<-(A2,A1); B<-(B2,B1,B3)"


def test_swap_on_chsh_is_equivalent(chsh):
    t = bs.Transform(True, (0, 1), (0, 1), (False, False), (False, False))
    swapped = bs.apply_transform(chsh, t)
    assert swapped == chsh.transposed()
    assert bs.are_equivalent(chsh, swapped)[0]


def test_transform_round_trip_random(catalog):
    rng = np.random.default_rng(42)
    for entry in catalog:
        ineq = entry.inequality
        for _ in range(20):
            t = random_transform(ineq.m_a, ineq.m_b, rng)
            forward = bs.apply_transform(ineq, t)
            assert bs.apply_transform(forward, t.inverse()) == ineq


def test_classical_gap_invariant_under_transforms(catalog):
    rng = np.random.default_rng(3)
    for entry in catalog:
        ineq = entry.inequality
        gap = bs.classical_max(ineq) - ineq.bound
        for _ in range(5):
            t = random_transform(ineq.m_a, ineq.m_b, rng)
            moved = bs.apply_transform(ineq, t)
            assert bs.classical_max(moved) - moved.bound == gap


# ---------------------------------------------------------------------------
# Canonical form and equivalence


def test_canonical_idempotent(by_name):
    a5 = by_name("A5")
    canon = bs.canonical_form(a5)
    assert bs.canonical_form(canon) == canon


def test_canonical_identifies_switched_chsh(chsh, switched_chsh):
    assert bs.canonical_form(chsh) == bs.canonical_form(switched_chsh)


def test_canonical_separates_chsh_i3322(chsh, i3322):
    assert bs.canonical_form(chsh) != bs.canonical_form(i3322)


def _chsh_switchings(chsh):
    for mask in itertools.product((False, True), repeat=4):
        variant = chsh
        for k, flip in enumerate(mask[:2]):
            if flip:
                variant = bs.flip_outcome(variant, "A", k + 1)
        for k, flip in enumerate(mask[2:]):
            if flip:
                variant = bs.flip_outcome(variant, "B", k + 1)
        yield variant


def test_sixteen_chsh_switchings_one_full_group_class(chsh):
    # Outcome exchange is itself a group element, so the full-group canonical
    # form identifies every switching with CHSH itself.
    classes = {bs.canonical_form(v).key() for v in _chsh_switchings(chsh)}
    assert len(classes) == 1


def test_sixteen_chsh_switchings_two_relabeling_classes(chsh, switched_chsh):
    # Under relabeling alone (no value exchange) the switchings split into the
    # plain-CHSH class and the switched-CHSH class.
    classes = {bs.canonical_form(v, outcome_flips=False).key()
               for v in _chsh_switchings(chsh)}
    assert classes == {bs.canonical_form(chsh, outcome_flips=False).key(),
                       bs.canonical_form(switched_chsh, outcome_flips=False).key()}
    assert len(classes) == 2


def test_canonical_degenerate_inequality_fast():
    # Fully tied coefficients once made the search walk every flip subset, and
    # every order of identical rows; the canonical form must stay instant and
    # idempotent on such inputs.
    for m_a, m_b, flips in ((5, 5, True), (12, 12, False), (9, 11, False)):
        zero = bs.BellInequality((0,) * m_a, (0,) * m_b, ((0,) * m_b,) * m_a, 0)
        canon = bs.canonical_form(zero, flips)
        assert canon == zero
        assert bs.canonical_form(canon, flips) == canon


@pytest.mark.parametrize("m_a, m_b", [(12, 12), (16, 15)], ids=["ties", "settings"])
def test_canonical_form_guard(m_a, m_b):
    # All-zero: 2^(m_a + m_b) optimal strategies, or more settings than
    # classical_max walks; both are refused before any candidate is built.
    # are_equivalent shares only classical_max's guard: it decides the 12 x 12
    # (test_are_equivalent_decides_by_the_inclusion_search).
    zero = bs.BellInequality((0,) * m_a, (0,) * m_b, ((0,) * m_b,) * m_a, 0)
    with pytest.raises(ValueError, match="guard"):
        bs.canonical_form(zero)
    if m_a + m_b > bs.inequality.MAX_ENUM_SETTINGS:
        with pytest.raises(ValueError, match="guard"):
            bs.are_equivalent(zero, zero)


def test_canonical_constant_on_random_orbit(catalog):
    rng = np.random.default_rng(11)
    for entry in catalog:
        ineq = entry.inequality
        canon = bs.canonical_form(ineq)
        for _ in range(10):
            t = random_transform(ineq.m_a, ineq.m_b, rng)
            assert bs.canonical_form(bs.apply_transform(ineq, t)) == canon


def test_canonical_bound_is_bound_minus_classical_max(catalog):
    rng = np.random.default_rng(12)
    for entry in catalog:
        ineq = entry.inequality
        for x in [ineq] + [bs.apply_transform(ineq, random_transform(ineq.m_a, ineq.m_b, rng))
                           for _ in range(5)]:
            assert bs.canonical_form(x).bound == x.bound - bs.classical_max(x)


def test_equivalent_chsh_switched(chsh, switched_chsh):
    flag, witness = bs.are_equivalent(chsh, switched_chsh)
    assert flag
    assert bs.apply_transform(chsh, witness) == switched_chsh


def test_not_equivalent_different_shape(chsh, i3322):
    assert bs.are_equivalent(chsh, i3322) == (False, None)


def test_equivalence_witness_recovery_a8(catalog):
    # Every entry against disguises in both orientations, so transposed shapes
    # (A8) and symmetric targets (CHSH, I3322) reach the witness too.  The 8x8
    # joints that constrain nothing (all zero, all one) leave the marginals to
    # tell rows apart; the witness search must use them before it places a row,
    # not after each of 8! * 2^8 placements.
    rng = np.random.default_rng(2024)
    tied = [bs.BellInequality(marg, marg, ((v,) * 8,) * 8, 0)
            for marg, v in (((1, 2, 3, 4, 5, 6, 7, 8), 0), ((1,) * 8, 0), ((1, 2, 3, 4, 5, 6, 7, 8), 1))]
    for x in [entry.inequality for entry in catalog] + tied:
        for _ in range(10):
            moved = bs.apply_transform(x, random_transform(x.m_a, x.m_b, rng))
            for target in (moved, moved.transposed()):
                flag, witness = bs.are_equivalent(x, target)
                assert flag
                assert bs.apply_transform(x, witness) == target


def test_equivalence_relation_properties(catalog):
    rng = np.random.default_rng(5)
    ineqs = [e.inequality for e in catalog]
    for ineq in ineqs:
        assert bs.are_equivalent(ineq, ineq)[0]  # reflexive
    for ineq in ineqs[:4]:
        t1 = random_transform(ineq.m_a, ineq.m_b, rng)
        t2 = random_transform(ineq.m_a, ineq.m_b, rng)
        x = bs.apply_transform(ineq, t1)
        y = bs.apply_transform(ineq, t2)
        assert bs.are_equivalent(x, ineq)[0]  # symmetric with the original
        assert bs.are_equivalent(x, y)[0]     # transitive through the orbit


def _near_miss(x, rng):
    """``x`` with one coefficient (marginal, joint or bound) moved by +-1."""
    k = int(rng.integers(x.m_a + x.m_b + x.m_a * x.m_b + 1))
    marg_a, marg_b = list(x.marg_a), list(x.marg_b)
    joint, bound = [list(row) for row in x.joint], x.bound
    step = int(rng.choice((-1, 1)))
    if k < x.m_a:
        marg_a[k] += step
    elif k < x.m_a + x.m_b:
        marg_b[k - x.m_a] += step
    elif k < x.m_a + x.m_b + x.m_a * x.m_b:
        k -= x.m_a + x.m_b
        joint[k // x.m_b][k % x.m_b] += step
    else:
        bound += step
    return bs.BellInequality(marg_a, marg_b, joint, bound)


def test_are_equivalent_decides_by_the_inclusion_search(catalog, monkeypatch):
    """Shapes, slacks and then the full-size inclusion search decide, with no
    canonical form computed.  The flags agree with canonical forms on catalog
    pairs, disguises and one-coefficient near misses.  Tied inputs whose
    canonical forms take seconds (identity joints) or hit the guard (the
    all-zero 12 x 12) are decided too, and the tied negatives differ in slack."""
    rng = np.random.default_rng(2121)
    ineqs = [entry.inequality for entry in catalog]
    pairs = list(itertools.product(ineqs, repeat=2))
    smalls = [_random_small_ineq(rng, *(int(m) for m in rng.integers(1, 5, size=2)))
              for _ in range(150)]
    for x in ineqs + smalls:
        moved = bs.apply_transform(x, random_transform(x.m_a, x.m_b, rng))
        pairs += [(x, moved), (x, moved.transposed()), (x, _near_miss(moved, rng)),
                  (x, _random_small_ineq(rng, x.m_a, x.m_b))]
    expected = [bs.canonical_form(a) == bs.canonical_form(b) for a, b in pairs]
    assert 0 < sum(expected) < len(expected)
    tied_negatives = [(_tied(m, marg, bound, diag), _tied(m, marg, bound + 1, diag))
                      for m in (5, 6, 7, 8)
                      for marg, bound, diag in ((0, 0, 0), (1, 2 * m, 0), (0, 0, 1))]
    ident8 = _tied(8, 0, 0, diag=1)
    tied_positives = [(_tied(12, 0, 0),) * 2,
                      (ident8, bs.apply_transform(ident8, random_transform(8, 8, rng)))]

    def no_canonical_form(*args, **kwargs):
        raise AssertionError("are_equivalent computed a canonical form")

    monkeypatch.setattr(inequality, "canonical_form", no_canonical_form)
    for (a, b), same in zip(pairs, expected):
        flag, witness = bs.are_equivalent(a, b)
        assert flag == same
        assert (witness is not None) == flag
        assert not flag or bs.apply_transform(a, witness) == b
    for a, b in tied_negatives:
        assert bs.are_equivalent(a, b) == (False, None)
    for a, b in tied_positives:
        flag, witness = bs.are_equivalent(a, b)
        assert flag
        assert bs.apply_transform(a, witness) == b


# ---------------------------------------------------------------------------
# Inclusion


def test_i3322_includes_chsh(i3322, chsh):
    flag, witness = bs.includes(i3322, chsh)
    assert flag
    moved = bs.apply_transform(i3322, witness.transform)
    assert moved.bound == chsh.bound
    assert moved.marg_a[:2] == chsh.marg_a
    assert moved.marg_b[:2] == chsh.marg_b
    assert tuple(row[:2] for row in moved.joint[:2]) == chsh.joint


def test_i3322_reduction_oracle(i3322, chsh):
    # Independent construction: drop A3 and B1 outright (fixed to always-0).
    reduced = bs.BellInequality(
        marg_a=i3322.marg_a[:2],
        marg_b=i3322.marg_b[1:],
        joint=tuple(row[1:] for row in i3322.joint[:2]),
        bound=i3322.bound,
    )
    assert reduced == chsh


def test_i4422_do_not_include_chsh(by_name, chsh):
    assert not bs.includes(by_name("I4422_1"), chsh)[0]
    assert not bs.includes(by_name("I4422_2"), chsh)[0]


def test_includes_reflexive(catalog):
    for entry in catalog:
        flag, witness = bs.includes(entry.inequality, entry.inequality)
        assert flag
        assert witness.kept_a == entry.inequality.m_a
        assert witness.kept_b == entry.inequality.m_b


def test_includes_shape_guard(chsh, i3322):
    assert bs.includes(chsh, i3322) == (False, None)


def test_includes_witness_blocks_match(catalog):
    for x in catalog:
        for y in catalog:
            flag, witness = bs.includes(x.inequality, y.inequality)
            if not flag:
                continue
            moved = bs.apply_transform(x.inequality, witness.transform)
            n_a, n_b = witness.kept_a, witness.kept_b
            assert moved.bound == y.inequality.bound
            assert moved.marg_a[:n_a] == y.inequality.marg_a
            assert moved.marg_b[:n_b] == y.inequality.marg_b
            assert (tuple(row[:n_b] for row in moved.joint[:n_a])
                    == y.inequality.joint)


def test_includes_transitive_on_catalog(catalog):
    ineqs = {e.name: e.inequality for e in catalog}
    rel = {(a, b) for a in ineqs for b in ineqs
           if a != b and bs.includes(ineqs[a], ineqs[b])[0]}
    for a, b in rel:
        for c in ineqs:
            if (b, c) in rel and a != c:
                assert (a, c) in rel


def test_includes_survives_random_disguise(i3322, chsh):
    rng = np.random.default_rng(17)
    for _ in range(5):
        t = random_transform(i3322.m_a, i3322.m_b, rng)
        disguised = bs.apply_transform(i3322, t)
        assert bs.includes(disguised, chsh)[0]


def _all_transforms(m_a, m_b):
    for swap in (False, True) if m_a == m_b else (False,):
        for pa in itertools.permutations(range(m_a)):
            for pb in itertools.permutations(range(m_b)):
                for fa in itertools.product((False, True), repeat=m_a):
                    for fb in itertools.product((False, True), repeat=m_b):
                        yield bs.Transform(swap, pa, pb, fa, fb)


def _random_small_ineq(rng, m_a, m_b, span=2):
    return bs.BellInequality(
        tuple(int(v) for v in rng.integers(-span, span + 1, size=m_a)),
        tuple(int(v) for v in rng.integers(-span, span + 1, size=m_b)),
        tuple(tuple(int(v) for v in rng.integers(-span, span + 1, size=m_b))
              for _ in range(m_a)),
        int(rng.integers(-span, span + 1)))


def test_canonical_form_against_group_enumeration():
    """Oracle: the canonical form is the key-minimal element of the full orbit,
    and with ``outcome_flips=False`` of the orbit's flip-free part.
    Coefficients from {-1, 0, 1} make many optimal strategies and zero
    weights, so the walk's tie branches are exercised; the (3, 2) shape is
    walked from its smaller side after a transpose."""
    rng = np.random.default_rng(99)
    shapes = ((2, 2), (2, 3), (3, 2), (3, 3))
    for span, (m_a, m_b) in itertools.product((2, 1), shapes):
        for _ in range(8):
            ineq = _random_small_ineq(rng, m_a, m_b, span)
            # _all_transforms swaps square shapes only; the transpose covers the rest.
            sources = (ineq,) if m_a == m_b else (ineq, ineq.transposed())
            orbit = [(any(t.flip_a + t.flip_b), bs.apply_transform(x, t).key())
                     for x in sources for t in _all_transforms(x.m_a, x.m_b)]
            for flips in (True, False):
                form = bs.canonical_form(ineq, flips)
                assert form.key() == min(key for flipped, key in orbit if flips or not flipped)


# sha256 of the repr of every form in the test below, taken while the
# canonical search still built a transform for each form.
CANONICAL_DIGEST = "8075b67ea8ce502939c930864cc5c9bdbfc943297d3aa2c86eb6c49a5212c48f"


def test_canonical_form_pinned_bit_for_bit(catalog):
    """Forms stay identical, byte for byte, on catalog entries, disguised
    entries and random small inequalities in both flip modes."""
    import hashlib

    rng = np.random.default_rng(2024)
    inputs = []
    for entry in catalog:
        x = entry.inequality
        inputs += [x] + [bs.apply_transform(x, random_transform(x.m_a, x.m_b, rng))
                         for _ in range(6)]
    for _ in range(100):
        m_a, m_b = (int(v) for v in rng.integers(1, 5, size=2))
        inputs.append(_random_small_ineq(rng, m_a, m_b, int(rng.integers(1, 4))))
    text = repr([bs.canonical_form(x, flips) for x in inputs for flips in (True, False)])
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_DIGEST


def _plus_transpose(ineq):
    """A symmetric inequality: a square one plus its party swap."""
    t = ineq.transposed()
    marg = tuple(x + y for x, y in zip(ineq.marg_a, t.marg_a))
    joint = tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(ineq.joint, t.joint))
    return bs.BellInequality(marg, marg, joint, 2 * ineq.bound)


def _brute_includes(a, b):
    """Oracle: scan both orientations of ``a`` and every relabeling for a
    leading block equal to ``b``."""
    for x in (a, a.transposed()):
        if x.m_a < b.m_a or x.m_b < b.m_b:
            continue
        for t in _all_transforms(x.m_a, x.m_b):
            if t.swap_parties:
                continue
            y = bs.apply_transform(x, t)
            if (y.bound == b.bound and y.marg_a[:b.m_a] == b.marg_a
                    and y.marg_b[:b.m_b] == b.marg_b
                    and tuple(r[:b.m_b] for r in y.joint[:b.m_a]) == b.joint):
                return True
    return False


def test_includes_against_group_enumeration():
    """Oracle: includes() agrees with scanning the whole orbit for a matching
    leading block, on planted-positive and random instances, and its witness
    produces that block.  The shapes leave free rows and free columns in the
    unswapped and the swapped branch; every third square instance is
    symmetric, so the swapped branch is skipped."""
    rng = np.random.default_rng(100)
    shapes = (((2, 3), (2, 2)), ((3, 3), (2, 2)), ((3, 2), (1, 2)), ((2, 2), (1, 1)))
    for span, ((m_a, m_b), (n_a, n_b)) in itertools.product((1, 2), shapes):
        for trial in range(10):
            a = _random_small_ineq(rng, m_a, m_b, span)
            if m_a == m_b and trial % 3 == 2:
                a = _plus_transpose(a)
            if trial % 2 == 0:
                # Plant a genuine reduction: transform a, keep the leading block.
                y = bs.apply_transform(a, random_transform(m_a, m_b, rng, allow_swap=False))
                b = bs.BellInequality(y.marg_a[:n_a], y.marg_b[:n_b],
                                      tuple(r[:n_b] for r in y.joint[:n_a]), y.bound)
            else:
                b = _random_small_ineq(rng, n_a, n_b, span)
            expected = _brute_includes(a, b)
            flag, witness = bs.includes(a, b)
            assert flag == expected
            if trial % 2 == 0:
                assert expected  # planted cases must be true inclusions
            if flag:
                y = bs.apply_transform(a, witness.transform)
                assert (y.bound, y.marg_a[:n_a], y.marg_b[:n_b]) == (b.bound, b.marg_a, b.marg_b)
                assert tuple(r[:n_b] for r in y.joint[:n_a]) == b.joint


def _plant(a, b):
    """``a`` with its leading block (marginals, joint, bound) replaced by ``b``."""
    joint = tuple(b.joint[i] + row[b.m_b:] if i < b.m_a else row
                  for i, row in enumerate(a.joint))
    return bs.BellInequality(b.marg_a + a.marg_a[b.m_a:], b.marg_b + a.marg_b[b.m_b:],
                             joint, b.bound)


def test_includes_symmetric_target_against_group_enumeration(monkeypatch):
    """A symmetric target is searched in one orientation of ``a`` only.  The
    oracle scans both, so agreement shows the skipped branch never held the
    only match; planted blocks reach ``a`` by every shape and orientation,
    party swaps included, and their witnesses must yield the block."""
    rng = np.random.default_rng(101)
    searches = []
    search = bs.inequality._inclusion_search
    monkeypatch.setattr(bs.inequality, "_inclusion_search",
                        lambda x, b: searches.append(x) or search(x, b))
    shapes = (((3, 3), 2), ((2, 3), 2), ((3, 2), 2), ((3, 3), 1), ((2, 2), 2))
    planted = negatives = 0
    for span, ((m_a, m_b), n) in itertools.product((1, 2), shapes):
        for trial in range(6):
            b = _plus_transpose(_random_small_ineq(rng, n, n, span))
            a = _random_small_ineq(rng, m_a, m_b, span)
            if trial % 2 == 0:
                a = bs.apply_transform(_plant(a, b), random_transform(m_a, m_b, rng))
                if trial % 4 == 0:
                    a = a.transposed()
            assert a != a.transposed()  # only the target is symmetric
            searches.clear()
            flag, witness = bs.includes(a, b)
            assert flag == _brute_includes(a, b)
            assert len(searches) == 1
            if trial % 2 == 0:
                assert flag  # planted cases must be true inclusions
                planted += 1
            if not flag:
                negatives += 1
                continue
            y = bs.apply_transform(a, witness.transform)
            assert (y.bound, y.marg_a[:n], y.marg_b[:n]) == (b.bound, b.marg_a, b.marg_b)
            assert tuple(r[:n] for r in y.joint[:n]) == b.joint
    assert (planted, negatives) == (30, 30)


# includes(x, y) over the shipped catalog: (x, y, kept_a, kept_b, transform
# text) for every positive pair; every other ordered pair is negative.
CATALOG_INCLUSIONS = (
    ("A1", "A1", 1, 1, "identity"),
    ("A2_CHSH", "A1", 1, 1, "B<-(B2,B1); flip B1"),
    ("A2_CHSH", "A2_CHSH", 2, 2, "identity"),
    ("A3_I3322", "A1", 1, 1, "B<-(B3,B1,B2); flip B1"),
    ("A3_I3322", "A2_CHSH", 2, 2, "B<-(B2,B3,B1)"),
    ("A3_I3322", "A3_I3322", 3, 3, "identity"),
    ("A5", "A1", 1, 1, "B<-(B3,B1,B2,B4); flip A3,B4"),
    ("A5", "A2_CHSH", 2, 2, "B<-(B1,B3,B2,B4); flip A3,B2,B4"),
    ("A5", "A3_I3322", 3, 3, "A<-(A1,A2,A4,A3); B<-(B2,B3,B1,B4); flip A2,A4,B2,B4"),
    ("A5", "A5", 4, 4, "identity"),
    ("A8", "A1", 1, 1, "B<-(B3,B1,B2,B4,B5)"),
    ("A8", "A2_CHSH", 2, 2, "B<-(B1,B3,B2,B4,B5); flip B2"),
    ("A8", "A3_I3322", 3, 3, "A<-(A1,A2,A4,A3); B<-(B2,B1,B3,B4,B5); flip B3"),
    ("A8", "A8", 4, 5, "identity"),
    ("A27", "A1", 1, 1, "B<-(B2,B1,B3,B4,B5); flip B1"),
    ("A27", "A2_CHSH", 2, 2, "B<-(B1,B4,B2,B3,B5); flip A3,A4,B2,B4,B5"),
    ("A27", "A27", 5, 5, "identity"),
    ("A28", "A1", 1, 1, "B<-(B4,B1,B2,B3,B5); flip B1,B5"),
    ("A28", "A2_CHSH", 2, 2, "B<-(B3,B5,B1,B2,B4); flip B5"),
    ("A28", "A28", 5, 5, "identity"),
    ("A56", "A1", 1, 1, "B<-(B2,B1,B3,B4,B5); flip B1"),
    ("A56", "A2_CHSH", 2, 2, "A<-(A1,A3,A2,A4,A5); B<-(B4,B2,B1,B3,B5); flip A3"),
    ("A56", "A56", 5, 5, "identity"),
    ("I4422_1", "A1", 1, 1, "B<-(B3,B1,B2,B4); flip A4,B1,B2"),
    ("I4422_1", "I4422_1", 4, 4, "identity"),
    ("I4422_2", "A1", 1, 1, "B<-(B4,B1,B2,B3); flip B1"),
    ("I4422_2", "I4422_2", 4, 4, "identity"),
)


def test_includes_catalog_witnesses_pinned(catalog):
    """The flag of every ordered catalog pair and the witness of every
    positive one are pinned: the search's visiting order decides which
    witness comes first."""
    expected = {(x, y): rest for x, y, *rest in CATALOG_INCLUSIONS}
    seen = {}
    for x in catalog:
        for y in catalog:
            flag, witness = bs.includes(x.inequality, y.inequality)
            if flag:
                seen[x.name, y.name] = [witness.kept_a, witness.kept_b,
                                        witness.transform.describe()]
    assert len(catalog) ** 2 == 100
    assert seen == expected


def test_includes_past_64_bit_candidate_masks(chsh):
    """Candidate sets hold two bits per Bob setting, so 40 settings need 80.
    CHSH under a random relabeling sits at Bob settings 35 and 38; the other
    joint coefficients have |value| >= 2, so no other pair of settings can
    host it."""
    rng = np.random.default_rng(40)
    block = bs.apply_transform(chsh, random_transform(2, 2, rng, allow_swap=False))
    cols = {35: 0, 38: 1}
    marg_b = tuple(block.marg_b[cols[j]] if j in cols else int(rng.integers(-3, 4))
                   for j in range(40))
    joint = tuple(tuple(row[cols[j]] if j in cols else int(rng.choice((-3, -2, 2, 3)))
                        for j in range(40)) for row in block.joint)
    wide = bs.BellInequality(block.marg_a, marg_b, joint, block.bound)
    flag, witness = bs.includes(wide, chsh)
    assert flag
    assert sorted(witness.transform.perm_b[:2]) == [35, 38]
    y = bs.apply_transform(wide, witness.transform)
    assert (y.bound, y.marg_a, y.marg_b[:2]) == (chsh.bound, chsh.marg_a, chsh.marg_b)
    assert tuple(r[:2] for r in y.joint) == chsh.joint

    # One planted joint coefficient negated: the product of the block's four
    # joint signs, which relabelings keep, no longer matches CHSH's.
    joint = (joint[0][:35] + (-joint[0][35],) + joint[0][36:],) + joint[1:]
    broken = bs.BellInequality(block.marg_a, marg_b, joint, block.bound)
    assert bs.includes(broken, chsh) == (False, None)


def test_row_leaves_mirror_the_flipped_first_rows():
    """On a proper sub-block in both parties, the leaves of the unflipped
    first rows followed by their mirrors are, in order, the leaves of the
    full row placement: rows and candidate masks alike.  Zeroed entries and
    repeated rows make ties, so placements branch; half the blocks are
    planted, so leaves exist."""
    rng = np.random.default_rng(102)
    leaves = flipped_first = 0
    for span, trial in itertools.product((1, 2), range(60)):
        m_a, m_b = (int(v) for v in rng.integers(2, 6, size=2))
        x = _random_small_ineq(rng, m_a, m_b, span)
        joint = [tuple(0 if rng.random() < 0.3 else v for v in row) for row in x.joint]
        if trial % 3 == 0:
            joint[-1] = joint[0]
        x = dataclasses.replace(x, joint=tuple(joint))
        n_a, n_b = int(rng.integers(1, m_a)), int(rng.integers(1, m_b))
        if trial % 2 == 0:
            y = bs.apply_transform(x, random_transform(m_a, m_b, rng, allow_swap=False))
            b = bs.BellInequality(y.marg_a[:n_a], y.marg_b[:n_b],
                                  tuple(r[:n_b] for r in y.joint[:n_a]), y.bound)
        else:
            b = _random_small_ineq(rng, n_a, n_b, span)
        evens = ((1 << 2 * m_b) - 1) // 3
        cands = [(1 << 2 * m_b) - 1] * n_b
        pairs = [(k, s) for k in range(m_a) for s in (False, True)]
        full = list(bs.inequality._place_rows(x, b, (), cands, [None] * m_a, evens, [pairs] * n_a))
        assert list(bs.inequality._row_leaves(x, b, cands, evens)) == full
        leaves += len(full)
        flipped_first += sum(rows[0][1] for rows, _ in full)
    assert leaves == 2 * flipped_first > 1000


def _tied(m, marg, bound, diag=0):
    """The m x m inequality with every marginal ``marg`` and ``diag`` times
    the identity as its joint."""
    return bs.BellInequality((marg,) * m, (marg,) * m,
                             tuple(tuple(diag * (i == j) for j in range(m)) for i in range(m)), bound)


@pytest.mark.parametrize("a, b", [
    (_tied(5, 0, 0), _tied(5, 0, 1)),
    (_tied(5, 0, 0), _tied(4, 0, 1)),
    (_tied(6, 0, 0), _tied(5, 0, 1)),
    (_tied(7, 1, 14), _tied(7, 1, 15)),
], ids=["zero5-bound1", "zero5-zero4", "zero6-zero5", "unit7-bound15"])
def test_includes_refutes_a_shifted_bound_before_placing_columns(a, b):
    """Tied inequalities whose bounds differ by one: every row placement
    fits, but no flips of Bob's reach the bound, so each flip vector of the
    free rows is refuted by the interval of Bob's weight sums before any
    column is placed.  Each of these searches ran past 20 s when only a
    leaf checked the bound."""
    assert bs.includes(a, b) == (False, None)


# ---------------------------------------------------------------------------
# Classical bound


def test_classical_max_reference_values(chsh, i3322, switched_chsh):
    assert bs.classical_max(chsh) == 0
    assert bs.classical_max(i3322) == 0
    assert bs.classical_max(switched_chsh) == 1


def test_classical_max_equals_bound_for_catalog(catalog):
    for entry in catalog:
        assert bs.classical_max(entry.inequality) == entry.inequality.bound


def test_classical_max_brute_force_cross_check(catalog):
    # Conservative oracle: enumerate both parties' strategies outright.
    for entry in catalog:
        x = entry.inequality
        best = max(
            sum(m for m, o in zip(x.marg_a, oa) if o)
            + sum(m for m, o in zip(x.marg_b, ob) if o)
            + sum(x.joint[i][j] for i in range(x.m_a) for j in range(x.m_b)
                  if oa[i] and ob[j])
            for oa in itertools.product((0, 1), repeat=x.m_a)
            for ob in itertools.product((0, 1), repeat=x.m_b))
        assert bs.classical_max(x) == best


def test_classical_max_guard():
    wide = bs.BellInequality((0,) * 16, (0,) * 15, ((0,) * 15,) * 16, 0)
    with pytest.raises(ValueError, match="guard"):
        bs.classical_max(wide)


# ---------------------------------------------------------------------------
# XOR-game form


def test_xor_form_chsh(chsh):
    c = bs.xor_game_form(chsh)
    assert c == ((Fraction(-1, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2)))


def test_xor_form_membership(by_name):
    assert bs.xor_game_form(by_name("A8")) is not None
    assert bs.xor_game_form(by_name("I3322")) is None
    for name in ("A5", "A27", "A28", "A56"):
        assert bs.xor_game_form(by_name(name)) is None


def test_xor_form_reconstructs_coefficients(catalog):
    for entry in catalog:
        ineq = entry.inequality
        c = bs.xor_game_form(ineq)
        if c is None:
            continue
        for i in range(ineq.m_a):
            for j in range(ineq.m_b):
                assert -2 * c[i][j] == ineq.joint[i][j]
            assert sum(c[i]) == ineq.marg_a[i]
        for j in range(ineq.m_b):
            assert sum(c[i][j] for i in range(ineq.m_a)) == ineq.marg_b[j]


# ---------------------------------------------------------------------------
# Inclusion digraph


def test_digraph_small(i3322, chsh, by_name):
    arcs = bs.inclusion_digraph([i3322, chsh, by_name("A1")])
    assert ("A3_I3322", "A2_CHSH") in arcs
    assert ("A3_I3322", "A1") not in arcs  # implied via CHSH, reduced away
    assert ("A2_CHSH", "A1") in arcs


def test_digraph_singleton(chsh):
    assert bs.inclusion_digraph([chsh]) == []


def test_digraph_full_catalog_reduction(catalog):
    ineqs = {e.name: e.inequality for e in catalog}
    arcs = bs.inclusion_digraph(list(ineqs.values()))
    assert ("I4422_1", "A2_CHSH") not in arcs
    assert ("I4422_2", "A2_CHSH") not in arcs
    # Closure of the reduced arcs must equal the raw inclusion relation.
    succ = {n: set() for n in ineqs}
    for a, b in arcs:
        succ[a].add(b)

    def reachable(a):
        out, stack = set(), [a]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    raw = {(a, b) for a in ineqs for b in ineqs
           if a != b and bs.includes(ineqs[a], ineqs[b])[0]}
    closure = {(a, b) for a in ineqs for b in reachable(a)}
    assert closure == raw


def test_digraph_needs_unique_names(chsh, i3322):
    with pytest.raises(ValueError, match="uniquely named"):
        bs.inclusion_digraph([chsh, i3322, chsh])
    with pytest.raises(ValueError, match="uniquely named"):
        bs.inclusion_digraph([i3322, dataclasses.replace(chsh, name=None)])


def test_digraph_rejects_equivalent_entries(catalog, chsh, switched_chsh):
    switched = dataclasses.replace(switched_chsh, name="CHSH_switched")
    for entries in ([chsh, switched],
                    [e.inequality for e in catalog] + [switched],
                    [switched] + [e.inequality for e in catalog]):
        with pytest.raises(ValueError, match="cycle"):
            bs.inclusion_digraph(entries)


def test_digraph_infers_pairs_by_transitivity(catalog, monkeypatch):
    """Pairs that transitivity settles are not searched, and the arcs do not
    depend on the input order."""
    ineqs = [e.inequality for e in catalog]
    expected = bs.inclusion_digraph(ineqs)
    search, calls = bs.inequality.includes, []

    def counting(a, b):
        calls.append((a.name, b.name))
        return search(a, b)

    monkeypatch.setattr(bs.inequality, "includes", counting)
    assert bs.inclusion_digraph(ineqs) == expected
    assert len(calls) == 80  # of the 90 ordered pairs
    rng = np.random.default_rng(8)
    for _ in range(3):
        shuffled = [ineqs[k] for k in rng.permutation(len(ineqs))]
        assert bs.inclusion_digraph(shuffled) == expected


def test_digraph_matches_every_pair_searched(catalog):
    """Oracle: on pools of catalog entries and small random inequalities in
    shuffled order, the arcs (or the cycle error) are those of searching every
    ordered pair and reducing, so no pair is inferred wrongly."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        picks = rng.choice(len(catalog), size=int(rng.integers(2, 7)), replace=False)
        pool = [catalog[k].inequality for k in picks] + [
            dataclasses.replace(_random_small_ineq(rng, *map(int, rng.integers(1, 4, size=2)), 1),
                                name=f"R{k}") for k in range(int(rng.integers(1, 5)))]
        pool = [pool[k] for k in rng.permutation(len(pool))]
        raw = {(x.name, y.name) for x in pool for y in pool
               if x.name != y.name and bs.includes(x, y)[0]}
        if any((b, a) in raw for a, b in raw):
            with pytest.raises(ValueError, match="cycle"):
                bs.inclusion_digraph(pool)
        else:
            assert bs.inclusion_digraph(pool) == sorted(
                (a, b) for a, b in raw
                if not any((a, x.name) in raw and (x.name, b) in raw for x in pool))


def test_dot_output_format():
    text = bs.dot_digraph([("A3_I3322", "A2_CHSH")])
    assert text == 'digraph inclusion {\n  "A3_I3322" -> "A2_CHSH";\n}\n'
