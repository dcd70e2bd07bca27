"""Exact combinatorics: parsing, transforms, canonical forms, inclusion,
classical bounds, XOR-game detection."""
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import bellscope as bs
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
    t = bs.Transform.identity(2, 2)
    assert bs.apply_transform(chsh, t) == chsh
    assert t.is_identity


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


def test_transform_compose_matches_sequential(by_name):
    rng = np.random.default_rng(7)
    ineq = by_name("A8")  # non-square, exercises dimension bookkeeping
    for _ in range(30):
        t1 = random_transform(ineq.m_a, ineq.m_b, rng)
        mid = bs.apply_transform(ineq, t1)
        t2 = random_transform(mid.m_a, mid.m_b, rng)
        combined = t2.compose(t1)
        assert bs.apply_transform(ineq, combined) == bs.apply_transform(mid, t2)


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
    # Fully tied coefficients once made the search walk every flip subset;
    # the canonical form must stay instant and idempotent on such inputs.
    zero = bs.BellInequality((0,) * 5, (0,) * 5, ((0,) * 5,) * 5, 0)
    canon = bs.canonical_form(zero)
    assert canon == zero
    assert bs.canonical_form(canon) == canon


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


def test_are_equivalent_reuses_cached_canonical_forms(by_name):
    from bellscope.inequality import _canonical_with_transform

    rng = np.random.default_rng(4242)
    a56 = by_name("A56")
    x, y = (bs.apply_transform(a56, random_transform(5, 5, rng)) for _ in range(2))
    bs.canonical_form(x)
    bs.canonical_form(y)
    misses = _canonical_with_transform.cache_info().misses
    assert bs.are_equivalent(x, y)[0]
    assert _canonical_with_transform.cache_info().misses == misses


def test_equivalent_chsh_switched(chsh, switched_chsh):
    flag, witness = bs.are_equivalent(chsh, switched_chsh)
    assert flag
    assert bs.apply_transform(chsh, witness) == switched_chsh


def test_not_equivalent_different_shape(chsh, i3322):
    assert bs.are_equivalent(chsh, i3322) == (False, None)


def test_equivalence_witness_recovery_a8(by_name):
    rng = np.random.default_rng(2024)
    a8 = by_name("A8")
    for _ in range(10):
        t = random_transform(a8.m_a, a8.m_b, rng)
        moved = bs.apply_transform(a8, t)
        flag, witness = bs.are_equivalent(a8, moved)
        assert flag
        assert bs.apply_transform(a8, witness) == moved


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
    """Oracle: the canonical form is the key-minimal element of the full orbit.
    Coefficients from {-1, 0, 1} make many optimal strategies and zero weights,
    so the scan's tie branches are exercised."""
    rng = np.random.default_rng(99)
    for span, (m_a, m_b) in itertools.product((2, 1), ((2, 2), (2, 3), (3, 3))):
        for _ in range(8):
            ineq = _random_small_ineq(rng, m_a, m_b, span)
            orbit_min = min(bs.apply_transform(ineq, t).key()
                            for t in _all_transforms(m_a, m_b))
            if m_a != m_b:  # swap branch enumerated separately
                swapped = ineq.transposed()
                orbit_min = min(orbit_min,
                                min(bs.apply_transform(swapped, t).key()
                                    for t in _all_transforms(m_b, m_a)))
            assert bs.canonical_form(ineq).key() == orbit_min


def test_includes_against_group_enumeration():
    """Oracle: includes() agrees with scanning the whole orbit for a matching
    leading block, on planted-positive and random-negative instances."""
    rng = np.random.default_rng(100)

    def brute_includes(a, b):
        for swapped in (False, True):
            x = a.transposed() if swapped else a
            if x.m_a < b.m_a or x.m_b < b.m_b:
                continue
            for t in _all_transforms(x.m_a, x.m_b):
                y = bs.apply_transform(x, t)
                if (y.bound == b.bound
                        and y.marg_a[:b.m_a] == b.marg_a
                        and y.marg_b[:b.m_b] == b.marg_b
                        and tuple(r[:b.m_b] for r in y.joint[:b.m_a]) == b.joint):
                    return True
        return False

    from conftest import random_transform

    for trial in range(12):
        a = _random_small_ineq(rng, 2, 3)
        if trial % 2 == 0:
            # Plant a genuine reduction: transform a, keep the leading block.
            y = bs.apply_transform(a, random_transform(2, 3, rng, allow_swap=False))
            b = bs.BellInequality(y.marg_a[:2], y.marg_b[:2],
                                  tuple(r[:2] for r in y.joint[:2]), y.bound)
        else:
            b = _random_small_ineq(rng, 2, 2)
        expected = brute_includes(a, b)
        assert bs.includes(a, b)[0] == expected
        if trial % 2 == 0:
            assert expected  # planted cases must be true inclusions


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
                    [e.inequality for e in catalog] + [switched]):
        with pytest.raises(ValueError, match="cycle"):
            bs.inclusion_digraph(entries)


def test_dot_output_format():
    text = bs.dot_digraph([("A3_I3322", "A2_CHSH")])
    assert text == 'digraph inclusion {\n  "A3_I3322" -> "A2_CHSH";\n}\n'
