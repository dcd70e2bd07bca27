"""Operator arithmetic, isotropic states, trace-rule correlations, crossings."""
import dataclasses
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import bellscope as bs
from bellscope.quantum import (
    ROUNDING_TOL,
    Effect,
    MeasurementSet,
    _isotropic_endpoints,
    dump_measurements,
    parse_measurements,
)

from conftest import random_transform, random_unit_vector

SQRT2 = np.sqrt(2.0)


def rank1(vec):
    return Effect(len(vec), np.outer(vec, np.conj(vec)))


def projective_set(party, vectors):
    return MeasurementSet(party, tuple(rank1(v) for v in vectors))


def basis_vec(d, k):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# States


def test_max_entangled_d2():
    psi = bs.max_entangled(2)
    expected = np.zeros(4)
    expected[0] = expected[3] = 1 / SQRT2
    assert np.allclose(psi, expected)


def test_max_entangled_d3():
    psi = bs.max_entangled(3)
    assert np.allclose(np.nonzero(psi)[0], [0, 4, 8])
    assert np.allclose(psi[[0, 4, 8]], 1 / np.sqrt(3))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_max_entangled_normalized(d):
    assert np.isclose(np.linalg.norm(bs.max_entangled(d)), 1.0)


def test_max_entangled_rejects_d1():
    with pytest.raises(ValueError):
        bs.max_entangled(1)


def test_isotropic_alpha0_is_maximally_mixed():
    rho = bs.isotropic_state(3, 0.0)
    assert np.array_equal(rho.op, np.eye(9) / 9)


def test_isotropic_alpha1_is_rank_one():
    rho = bs.isotropic_state(3, 1.0)
    evals = np.linalg.eigvalsh(rho.op)
    assert np.isclose(evals[-1], 1.0)
    assert np.allclose(evals[:-1], 0.0, atol=1e-12)


def test_isotropic_at_separability_boundary():
    rho = bs.isotropic_state(3, 0.25)  # alpha = 1/(d+1)
    assert np.isclose(rho.op.trace().real, 1.0)
    assert np.linalg.eigvalsh(rho.op)[0] >= -1e-12


@pytest.mark.parametrize("alpha", [-0.1, 1.1])
def test_isotropic_alpha_range(alpha):
    with pytest.raises(ValueError):
        bs.isotropic_state(3, alpha)


def test_isotropic_properties_random_alpha():
    rng = np.random.default_rng(0)
    for alpha in rng.uniform(0, 1, size=5):
        rho = bs.isotropic_state(3, float(alpha))
        assert np.allclose(rho.op, rho.op.conj().T)
        assert np.isclose(rho.op.trace().real, 1.0)


# ---------------------------------------------------------------------------
# Type invariants


def test_effect_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        Effect(2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_effect_rejects_out_of_range_eigenvalues():
    with pytest.raises(ValueError, match="eigenvalues"):
        Effect(2, 2.0 * np.eye(2))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        bs.DensityMatrix(2, np.eye(4))


def test_correlation_vector_rejects_frechet_violation():
    with pytest.raises(ValueError, match="Frechet"):
        bs.CorrelationVector(np.array([0.5]), np.array([0.5]), np.array([[0.9]]))


@pytest.mark.parametrize("make, message", [
    (lambda: Effect(3, np.eye(2)), "effect must be 3x3, got (2, 2)"),
    (lambda: Effect(2, np.ones((2, 2, 2))), "effect must be 2x2, got (2, 2, 2)"),
    (lambda: Effect(2, np.triu(np.ones((2, 2)))), "effect is not Hermitian within 1e-12"),
    (lambda: Effect(2, -np.eye(2)), "effect eigenvalues outside [0, 1]: [-1, -1]"),
    (lambda: bs.DensityMatrix(2, np.eye(2)), "state must be 4x4 for d=2, got (2, 2)"),
    (lambda: bs.DensityMatrix(2, np.triu(np.ones((4, 4)))), "state is not Hermitian within 1e-12"),
    (lambda: bs.DensityMatrix(2, np.eye(4)), "state trace (4+0j) is not 1"),
    (lambda: bs.DensityMatrix(2, np.diag([1.5, -0.5, 0, 0])), "state is not positive semidefinite"),
])
def test_operator_errors_keep_their_text(make, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        make()


def test_tolerances_live_in_one_table():
    """Every exponent-form literal in the package is a line of the single
    block of ``NAME = value`` constants in quantum.py."""
    src = Path(bs.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        with tokenize.open(path) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NUMBER and re.fullmatch(r"[\d_.]+[eE][-+]?[\d_]+j?",
                                                                tok.string):
                    found.append((path.relative_to(src).as_posix(), tok.start[0], tok.line))
    assert found
    assert {where for where, _, _ in found} == {"quantum.py"}, found
    rows = [row for _, row, _ in found]
    assert rows == list(range(rows[0], rows[0] + len(rows))), "the table must be one block"
    for _, _, line in found:
        assert re.match(r"[A-Z_]+ = \S+\s+# \S", line), line


# ---------------------------------------------------------------------------
# Correlations


def test_correlations_maximally_mixed_rank1():
    rng = np.random.default_rng(2)
    a = projective_set("A", [random_unit_vector(3, rng) for _ in range(2)])
    b = projective_set("B", [random_unit_vector(3, rng) for _ in range(2)])
    q = bs.correlations(bs.isotropic_state(3, 0.0), a, b)
    assert np.allclose(q.p_a, 1 / 3)
    assert np.allclose(q.p_b, 1 / 3)
    assert np.allclose(q.p_ab, 1 / 9)


def test_correlations_identity_effects():
    a = MeasurementSet("A", (Effect(3, np.eye(3)),))
    b = MeasurementSet("B", (Effect(3, np.eye(3)),))
    q = bs.correlations(bs.isotropic_state(3, 0.7), a, b)
    assert np.allclose(q.p_a, 1.0)
    assert np.allclose(q.p_b, 1.0)
    assert np.allclose(q.p_ab, 1.0)


def test_correlations_entangled_projector_oracle():
    # Direct 9x9 trace: tr(|psi><psi| (|0><0| x |0><0|)) = |<00|psi>|^2 = 1/3.
    psi = bs.max_entangled(3)
    rho_op = np.outer(psi, psi.conj())
    e = np.outer(basis_vec(3, 0), basis_vec(3, 0).conj())
    expected = np.trace(rho_op @ np.kron(e, e)).real
    assert np.isclose(expected, 1 / 3)
    q = bs.correlations(bs.DensityMatrix(3, rho_op),
                        MeasurementSet("A", (Effect(3, e),)),
                        MeasurementSet("B", (Effect(3, e),)))
    assert np.isclose(q.p_ab[0, 0], expected, atol=1e-12)


def test_correlations_match_naive_kron_traces():
    rng = np.random.default_rng(3)
    d = 3
    rho = bs.isotropic_state(d, 0.62)
    a = projective_set("A", [random_unit_vector(d, rng) for _ in range(3)])
    b = projective_set("B", [random_unit_vector(d, rng) for _ in range(2)])
    q = bs.correlations(rho, a, b)
    eye = np.eye(d)
    for i, e in enumerate(a.effects):
        assert np.isclose(q.p_a[i], np.trace(rho.op @ np.kron(e.op, eye)).real, atol=1e-12)
        for j, f in enumerate(b.effects):
            assert np.isclose(q.p_ab[i, j], np.trace(rho.op @ np.kron(e.op, f.op)).real,
                              atol=1e-12)
    for j, f in enumerate(b.effects):
        assert np.isclose(q.p_b[j], np.trace(rho.op @ np.kron(eye, f.op)).real, atol=1e-12)


def test_correlations_frechet_bounds_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        alpha = float(rng.uniform(0, 1))
        rho = bs.isotropic_state(d, alpha)
        ranks = lambda: int(rng.integers(1, d))
        a = MeasurementSet("A", tuple(
            bs.random_projective_measurement(d, ranks(), rng) for _ in range(2)))
        b = MeasurementSet("B", tuple(
            bs.random_projective_measurement(d, ranks(), rng) for _ in range(2)))
        q = bs.correlations(rho, a, b)  # constructor enforces Frechet bounds
        lo = np.maximum(0.0, q.p_a[:, None] + q.p_b[None, :] - 1.0)
        hi = np.minimum(q.p_a[:, None], q.p_b[None, :])
        assert (q.p_ab >= lo - 1e-10).all() and (q.p_ab <= hi + 1e-10).all()


def test_correlations_dimension_mismatch():
    a = MeasurementSet("A", (Effect(2, np.eye(2)),))
    b = MeasurementSet("B", (Effect(2, np.eye(2)),))
    with pytest.raises(ValueError, match="dimension"):
        bs.correlations(bs.isotropic_state(3, 0.5), a, b)


# ---------------------------------------------------------------------------
# Violations


def test_chsh_violation_on_mixed_state(chsh):
    rng = np.random.default_rng(5)
    a = projective_set("A", [random_unit_vector(3, rng) for _ in range(2)])
    b = projective_set("B", [random_unit_vector(3, rng) for _ in range(2)])
    v = bs.violation(chsh, bs.isotropic_state(3, 0.0), a, b)
    assert abs(v - (-4 / 9)) < 1e-12


def test_switched_chsh_violation_on_mixed_state(switched_chsh):
    rng = np.random.default_rng(6)
    a = projective_set("A", [random_unit_vector(3, rng) for _ in range(2)])
    b = projective_set("B", [random_unit_vector(3, rng) for _ in range(2)])
    v = bs.violation(switched_chsh, bs.isotropic_state(3, 0.0), a, b)
    assert abs(v - (-5 / 9)) < 1e-12


def test_chsh_tsirelson_violation_d2(chsh):
    angles_a = [np.pi / 4, 0.0]
    angles_b = [np.pi / 8, 3 * np.pi / 8]
    a = projective_set("A", [np.array([np.cos(t), np.sin(t)]) for t in angles_a])
    b = projective_set("B", [np.array([np.cos(t), np.sin(t)]) for t in angles_b])
    v = bs.violation(chsh, bs.isotropic_state(2, 1.0), a, b)
    assert abs(v - (SQRT2 - 1) / 2) < 1e-9


def test_violation_affine_in_alpha(chsh):
    rng = np.random.default_rng(7)
    a = projective_set("A", [random_unit_vector(3, rng) for _ in range(2)])
    b = projective_set("B", [random_unit_vector(3, rng) for _ in range(2)])
    v = {alpha: bs.violation(chsh, bs.isotropic_state(3, alpha), a, b)
         for alpha in (0.3, 0.6, 0.9)}
    assert abs(v[0.6] - (v[0.3] + v[0.9]) / 2) < 1e-10


def test_violation_setting_count_mismatch(chsh):
    a = MeasurementSet("A", (Effect(3, np.eye(3)),))
    b = MeasurementSet("B", (Effect(3, np.eye(3)),))
    with pytest.raises(ValueError, match="counts"):
        bs.violation(chsh, bs.isotropic_state(3, 0.5), a, b)


def test_violation_transform_covariance(catalog):
    """Transformed inequality on transformed measurements gives the same value."""
    rng = np.random.default_rng(8)
    d = 3
    rho = bs.isotropic_state(d, 0.77)
    swap = rho.op.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    rho_swapped = bs.DensityMatrix(d, swap)
    for entry in catalog[:6]:
        ineq = entry.inequality
        a = MeasurementSet("A", tuple(
            bs.random_projective_measurement(d, int(rng.integers(1, d)), rng)
            for _ in range(ineq.m_a)))
        b = MeasurementSet("B", tuple(
            bs.random_projective_measurement(d, int(rng.integers(1, d)), rng)
            for _ in range(ineq.m_b)))
        base = bs.violation(ineq, rho, a, b)
        for _ in range(3):
            t = random_transform(ineq.m_a, ineq.m_b, rng)
            moved = bs.apply_transform(ineq, t)
            src_a, src_b = (b, a) if t.swap_parties else (a, b)
            new_a = MeasurementSet("A", tuple(
                src_a.effects[p].complement() if t.flip_a[k] else src_a.effects[p]
                for k, p in enumerate(t.perm_a)))
            new_b = MeasurementSet("B", tuple(
                src_b.effects[p].complement() if t.flip_b[k] else src_b.effects[p]
                for k, p in enumerate(t.perm_b)))
            state = rho_swapped if t.swap_parties else rho
            assert abs(bs.violation(moved, state, new_a, new_b) - base) < 1e-10


# ---------------------------------------------------------------------------
# Random projectors


def test_random_projector_rank1_spectrum():
    rng = np.random.default_rng(9)
    e = bs.random_projective_measurement(3, 1, rng)
    assert np.allclose(sorted(np.linalg.eigvalsh(e.op)), [0, 0, 1], atol=1e-10)


def test_random_projector_rank2_trace():
    rng = np.random.default_rng(10)
    e = bs.random_projective_measurement(3, 2, rng)
    assert abs(e.op.trace().real - 2) < 1e-10
    assert e.projection_defect() < 1e-10


def test_random_projector_seed_determinism():
    e1 = bs.random_projective_measurement(3, 1, np.random.default_rng(123))
    e2 = bs.random_projective_measurement(3, 1, np.random.default_rng(123))
    assert np.array_equal(e1.op, e2.op)


def test_random_projector_rank_range():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        bs.random_projective_measurement(3, 0, rng)
    with pytest.raises(ValueError):
        bs.random_projective_measurement(3, 3, rng)


# ---------------------------------------------------------------------------
# Crossings


def test_alpha_crossing_chsh_tsirelson(chsh):
    a, b = bs.measurements_from_vectors(bs.tsirelson_vectors(), 3)
    cr = bs.alpha_crossing(chsh, 3, a, b)
    assert abs(cr.alpha - 4 / (3 * SQRT2 + 1)) < 1e-9
    assert cr.in_range and not cr.never_violating


def test_alpha_crossing_chsh_d2_tsirelson(chsh):
    # Affine linearity pins the d=2 threshold: v0 = -1/2, v1 = (sqrt(2)-1)/2,
    # so the crossing sits at 1/sqrt(2).
    angles_a = [np.pi / 4, 0.0]
    angles_b = [np.pi / 8, 3 * np.pi / 8]
    a = projective_set("A", [np.array([np.cos(t), np.sin(t)]) for t in angles_a])
    b = projective_set("B", [np.array([np.cos(t), np.sin(t)]) for t in angles_b])
    cr = bs.alpha_crossing(chsh, 2, a, b)
    assert abs(cr.v0 - (-0.5)) < 1e-12
    assert abs(cr.alpha - 1 / SQRT2) < 1e-9


def test_alpha_crossing_a28_appendix(catalog):
    entry = bs.find_entry(catalog, "A28")
    a, b = entry.measurements()
    cr = bs.alpha_crossing(entry.inequality, 3, a, b)
    assert abs(cr.alpha - 0.7447198434) < 1e-4


def test_alpha_crossing_never_violating(chsh):
    # Computational-basis projectors never violate CHSH: v1 < 0.
    a = projective_set("A", [basis_vec(3, 0), basis_vec(3, 1)])
    b = projective_set("B", [basis_vec(3, 0), basis_vec(3, 1)])
    cr = bs.alpha_crossing(chsh, 3, a, b)
    assert cr.never_violating
    assert not cr.in_range


def test_alpha_crossing_degenerate(chsh):
    # Identity effects make the violation constant in alpha.
    a = MeasurementSet("A", (Effect(3, np.eye(3)), Effect(3, np.eye(3))))
    b = MeasurementSet("B", (Effect(3, np.eye(3)), Effect(3, np.eye(3))))
    with pytest.raises(ValueError, match="degenerate"):
        bs.alpha_crossing(chsh, 3, a, b)


def test_alpha_crossing_rejects_a_violation_at_alpha_zero(chsh):
    """v0 > 0 shows a bound below the classical maximum, also when the
    violation is constant in alpha (v0 = v1) or never crosses zero."""
    ones = bs.parse_cg("cg 1 1 -1\n0\n0 0\n")
    a, b = (MeasurementSet(p, (Effect(2, np.eye(2)),)) for p in ("A", "B"))
    with pytest.raises(ValueError, match="below the classical maximum"):
        bs.alpha_crossing(ones, 2, a, b)
    low = dataclasses.replace(chsh, bound=-1)
    a, b = bs.measurements_from_vectors(bs.tsirelson_vectors(), 3)
    with pytest.raises(ValueError, match="below the classical maximum"):
        bs.alpha_crossing(low, 3, a, b)


def random_effect_stack(d, m, rng):
    """m projectors whose ranks are drawn from 0..d, zero and identity included."""
    ops = []
    for rank in rng.integers(0, d + 1, size=m):
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        q, _ = np.linalg.qr(g)
        ops.append(q @ q.conj().T)
    return np.stack(ops)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_isotropic_endpoints_match_violation(catalog, d):
    """The closed form equals the trace rule on the alpha = 0 and alpha = 1 states."""
    rng = np.random.default_rng(40 + d)
    states = [bs.isotropic_state(d, 0.0), bs.isotropic_state(d, 1.0)]
    for entry in catalog:
        ineq = entry.inequality
        for _ in range(4):
            es, fs = random_effect_stack(d, ineq.m_a, rng), random_effect_stack(d, ineq.m_b, rng)
            a = MeasurementSet("A", tuple(Effect(d, op) for op in es))
            b = MeasurementSet("B", tuple(Effect(d, op) for op in fs))
            for got, rho in zip(_isotropic_endpoints(ineq, es, fs), states):
                assert abs(got - bs.violation(ineq, rho, a, b)) <= ROUNDING_TOL


def test_isotropic_endpoints_stack_equals_pairs(catalog):
    """R pairs evaluated as one stack give the same bits as one at a time."""
    rng = np.random.default_rng(47)
    for entry in catalog:
        ineq = entry.inequality
        for d in (2, 3, 4):
            es = np.stack([random_effect_stack(d, ineq.m_a, rng) for _ in range(5)])
            fs = np.stack([random_effect_stack(d, ineq.m_b, rng) for _ in range(5)])
            v0, v1 = _isotropic_endpoints(ineq, es, fs)
            assert v0.shape == v1.shape == (5,)
            for k in range(5):
                w0, w1 = _isotropic_endpoints(ineq, es[k], fs[k])
                assert np.array_equal(v0[k], w0) and np.array_equal(v1[k], w1)


def test_alpha_crossing_checks_its_inputs(chsh, catalog):
    a, b = bs.measurements_from_vectors(bs.tsirelson_vectors(), 3)
    with pytest.raises(ValueError, match=r"^measurement counts do not match the inequality$"):
        bs.alpha_crossing(chsh, 3, a, MeasurementSet("B", b.effects[:1]))
    with pytest.raises(ValueError,
                       match=r"^measurement dimension does not match state dimension 4$"):
        bs.alpha_crossing(chsh, 4, a, b)
    entry = bs.find_entry(catalog, "A56")
    cr = bs.alpha_crossing(entry.inequality, 3, *entry.measurements())
    assert type(cr.alpha) is float and type(cr.v0) is float and type(cr.v1) is float


# ---------------------------------------------------------------------------
# Measurement file format


def test_measurement_round_trip():
    rng = np.random.default_rng(12)
    a = MeasurementSet("A", (bs.random_projective_measurement(3, 1, rng),
                             bs.random_projective_measurement(3, 2, rng)))
    b = MeasurementSet("B", (bs.random_projective_measurement(3, 2, rng),
                             bs.random_projective_measurement(3, 1, rng)))
    a2, b2 = parse_measurements(dump_measurements(a, b))
    for orig, back in zip(a.effects + b.effects, a2.effects + b2.effects):
        assert np.abs(orig.op - back.op).max() < 1e-9


def test_dump_zero_and_identity_effects():
    rng = np.random.default_rng(13)
    proj = bs.random_projective_measurement(3, 1, rng)
    a = MeasurementSet("A", (Effect(3, np.zeros((3, 3))), proj))
    b = MeasurementSet("B", (Effect(3, np.eye(3)), proj))
    text = dump_measurements(a, b)
    assert "effect A 1 zero" in text
    assert "effect B 1 identity" in text
    a2, b2 = parse_measurements(text)
    assert np.abs(a2.effects[0].op).max() == 0.0
    assert np.array_equal(b2.effects[0].op, np.eye(3))


def test_parse_measurements_renormalizes():
    text = "effect A 1 proj\n2 0 0 0 0 0\neffect B 1 proj\n0 0 3 0 0 0\n"
    a, b = parse_measurements(text)
    assert np.isclose(a.effects[0].op.trace().real, 1.0)
    assert np.isclose(b.effects[0].op[1, 1].real, 1.0)


def test_parse_measurements_rejects_gaps():
    text = "effect A 1 proj\n1 0 0 0 0 0\neffect A 3 proj\n0 0 1 0 0 0\n" \
           "effect B 1 proj\n1 0 0 0 0 0\n"
    with pytest.raises(ValueError, match="gaps"):
        parse_measurements(text)


def test_parse_measurements_rejects_duplicates():
    text = "effect A 1 proj\n1 0 0 0 0 0\neffect A 1 proj\n0 0 1 0 0 0\n" \
           "effect B 1 proj\n1 0 0 0 0 0\n"
    with pytest.raises(ValueError, match="duplicate"):
        parse_measurements(text)


@pytest.mark.parametrize("text, line, what, counts", [
    ("effect A 1 proj\n1 0 0 0\n# note\n\neffect B x proj\n1 0 0 0\n", 5, "index", ()),
    ("effect A 1 proj\n1 0 0 0\neffect B 1 proj\n1 0 abc 0\n", 4, "number", ()),
    ("# header\neffect A 1 proj\n1 0 0\n", 3, "re/im", ()),
    ("effect A 1 proj\n1 0 0 0\n\neffect B 1 proj\neffect B 2 proj\n0 0 1 0\n", 4,
     "missing vector", ()),
    ("effect A 1 proj\n1 0 0 0\neffect B 1 complement\n", 3, "missing vector", ()),
    ("effect A 1 proj\n1 0 0 inf\neffect B 1 zero\n", 2, "not finite", ()),
    ("effect A 1 proj\n1 0 0 0\neffect C 1 proj\n1 0 0 0\n", 3, "unknown party 'C'", ()),
    ("effect A 1 proj\n1e-12 0 0 0\neffect B 1 zero\n", 2, "vector norm too small$", ()),
    ("effect A 1 proj\n1 0 0 0\neffect B 1 proj\n1 0 0 0 0 0\n", 3,
     "vector dimension 3 differs from 2", ()),
    ("effect A 1 proj\n1 0 0 0\n", 2, "no effects for party B", ()),
    ("effect A 1 proj\n1 0 0 0\neffect B 1 zero\n", 1, "party A: expected 2 effects, found 1",
     (2, 1)),
], ids=["bad-index", "bad-number", "odd-count", "vector-missing", "vector-missing-at-end",
        "non-finite", "unknown-party", "short-vector", "dimension-mismatch", "party-missing",
        "count-mismatch"])
def test_parse_measurements_errors_name_their_line(text, line, what, counts):
    with pytest.raises(bs.CgParseError, match=rf"^line {line}: .*{what}") as info:
        parse_measurements(text, *counts)
    assert info.value.line == line


def test_load_measurements_names_the_file_and_line(tmp_path):
    path = tmp_path / "bad.meas"
    path.write_text("effect A 1 proj\n1 0 0 0\n# note\neffect B 1 proj\n1 0 x 0\n")
    with pytest.raises(bs.CgParseError) as info:
        bs.load_measurements(path)
    assert info.value.line == 5
    assert str(info.value).startswith("line 5: bad number in vector line")
    assert str(info.value).endswith(f" (in {path})")


def test_parse_measurements_large_finite_vector_renormalizes():
    # Squaring 1e200 overflows; the norm is taken after scaling by 1e200.
    big, _ = parse_measurements("effect A 1 proj\n1e200 0 1e200 0 0 0\neffect B 1 zero\n")
    unit, _ = parse_measurements("effect A 1 proj\n1 0 1 0 0 0\neffect B 1 zero\n")
    assert np.array_equal(big.ops(), unit.ops())
