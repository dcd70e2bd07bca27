"""Acceptance criteria, one test per criterion.

Criteria 1, 2, 4, 5 are deterministic and fast; criterion 3 runs the full
stochastic threshold reproduction (fixed seeds, 200 restarts per threshold
probe) and dominates the suite's runtime.
"""
import itertools

import numpy as np

import bellscope as bs
from bellscope.cli import main as cli_main
from bellscope.quantum import MeasurementSet, random_projective_measurement
from bellscope.seesaw import SeesawConfig, multi_restart_max, optimize_party

SQRT2 = np.sqrt(2.0)

TABLE_D3 = {
    "A2_CHSH": 0.7629742793,
    "A3_I3322": 0.7629742793,
    "A5": 0.7553800191,
    "A8": 0.7614396336,
    "A27": 0.7453308276,
    "A28": 0.7447198434,
    "A56": 0.7557816805,
}

APPENDIX_TABLE = {
    "A28": 0.7447198434,
    "A27": 0.7453308276,
    "A5": 0.7553800191,
    "A56": 0.7557816805,
    "A8": 0.7614396336,
}


def run_cli_threshold(capsys, name, d, tol, seed):
    code = cli_main(["threshold", "--ineq", name, "--d", str(d), "--tol", str(tol),
                     "--restarts", "200", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    row = [l for l in out.splitlines() if l and not l.startswith(("#", "alpha_upper"))][0]
    cells = row.split("\t")
    return float(cells[0]), cells[4] == "yes"  # alpha_upper, no_violation


def test_criterion_1_appendix_crossings():
    """Deterministic crossing reproduction from the shipped measurement data."""
    import time
    start = time.time()
    for name, table in APPENDIX_TABLE.items():
        rep = bs.verify_appendix(name)
        assert rep.delta < 1e-4, f"{name}: crossing {rep.crossing} vs table {table}"
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 appendix-crossings: PASS ({elapsed:.3f}s, all deltas < 1e-4)")


def test_criterion_2_analytic_chsh(chsh):
    assert abs(bs.alpha_max_chsh(3) - 0.7629742793) < 1e-9
    v = bs.tsirelson_vectors()
    assert abs(bs.chsh_form_value(v) - (SQRT2 - 1) / 3) < 1e-9
    # The analytic curve equals the clamped trace evaluation at the optimal
    # measurements for any mixing parameter.
    a, b = bs.measurements_from_vectors(v, 3)
    rng = np.random.default_rng(2024)
    for alpha in rng.uniform(0, 1, size=10):
        alpha = float(alpha)
        trace_value = bs.violation(chsh, bs.isotropic_state(3, alpha), a, b)
        assert abs(bs.chsh_max_violation_d3(alpha) - max(0.0, trace_value)) < 1e-9
    print("ACCEPTANCE 2 analytic-chsh-d3: PASS (threshold, form value, curve at 10 alphas)")


def test_criterion_3_stochastic_thresholds(capsys):
    lines = []

    upper, _ = run_cli_threshold(capsys, "A2_CHSH", 2, 5e-5, seed=101)
    assert abs(upper - 0.70711) < 5e-4
    lines.append(f"  CHSH d=2: {upper:.6f} (target 0.70711 +/- 5e-4)")

    for i, (name, table) in enumerate(sorted(TABLE_D3.items())):
        upper, _ = run_cli_threshold(capsys, name, 3, 1e-4, seed=200 + i)
        assert abs(upper - table) < 1e-3, f"{name}: {upper} vs {table}"
        lines.append(f"  {name} d=3: {upper:.6f} (table {table} +/- 1e-3)")

    floor = 0.70711 - 1e-3
    for i, entry in enumerate(bs.load_catalog()):
        upper, no_violation = run_cli_threshold(capsys, entry.name, 2, 1e-4, seed=300 + i)
        assert no_violation or upper >= floor, f"{entry.name} d=2: {upper} below {floor}"
        lines.append(f"  {entry.name} d=2 sweep: "
                     f"{'no violation' if no_violation else f'{upper:.6f}'}")

    print("ACCEPTANCE 3 stochastic-thresholds: PASS")
    for line in lines:
        print(line)


def test_criterion_4_combinatorial_exactness(catalog, chsh, i3322, by_name,
                                             switched_chsh):
    assert bs.includes(i3322, chsh)[0]
    assert not bs.includes(by_name("I4422_1"), chsh)[0]
    assert not bs.includes(by_name("I4422_2"), chsh)[0]
    for entry in catalog:
        assert bs.classical_max(entry.inequality) == entry.inequality.bound
    variants = []
    for mask in itertools.product((False, True), repeat=4):
        v = chsh
        for k in range(2):
            if mask[k]:
                v = bs.flip_outcome(v, "A", k + 1)
        for k in range(2):
            if mask[2 + k]:
                v = bs.flip_outcome(v, "B", k + 1)
        variants.append(v)
    classes = {bs.canonical_form(v, outcome_flips=False).key() for v in variants}
    assert classes == {bs.canonical_form(chsh, outcome_flips=False).key(),
                       bs.canonical_form(switched_chsh, outcome_flips=False).key()}
    assert len(classes) == 2
    print("ACCEPTANCE 4 combinatorial-exactness: PASS "
          "(inclusions, classical bounds, 16 switchings -> 2 relabeling classes)")


def test_criterion_5_xor_game_criterion(by_name):
    names = ("A2_CHSH", "A3_I3322", "A5", "A8", "A27", "A28", "A56")
    having_form = {n for n in names if bs.xor_game_form(by_name(n)) is not None}
    assert having_form == {"A2_CHSH", "A8"}
    print("ACCEPTANCE 5 xor-game-criterion: PASS (exactly CHSH and A8)")


def test_criterion_6_property_suites(by_name, chsh, monkeypatch):
    rng = np.random.default_rng(66)
    a5 = by_name("A5")
    rho = bs.isotropic_state(3, 0.8)

    # See-saw monotonicity over 100 random runs of alternating half-steps.
    for _ in range(100):
        a = MeasurementSet("A", tuple(
            random_projective_measurement(3, int(rng.integers(1, 3)), rng)
            for _ in range(a5.m_a)))
        b = MeasurementSet("B", tuple(
            random_projective_measurement(3, int(rng.integers(1, 3)), rng)
            for _ in range(a5.m_b)))
        value = bs.violation(a5, rho, a, b)
        for _ in range(3):
            a = optimize_party(a5, rho, b, "A")
            b = optimize_party(a5, rho, a, "B")
            nxt = bs.violation(a5, rho, a, b)
            assert nxt >= value - 1e-12
            value = nxt

    # Frechet validity of every computed correlation vector (the constructor
    # enforces the bounds; any breach raises).
    for _ in range(50):
        d = int(rng.integers(2, 4))
        a = MeasurementSet("A", tuple(
            random_projective_measurement(d, int(rng.integers(1, d)), rng)
            for _ in range(2)))
        b = MeasurementSet("B", tuple(
            random_projective_measurement(d, int(rng.integers(1, d)), rng)
            for _ in range(2)))
        q = bs.correlations(bs.isotropic_state(d, float(rng.uniform(0, 1))), a, b)
        lo = np.maximum(0.0, q.p_a[:, None] + q.p_b[None, :] - 1.0)
        hi = np.minimum(q.p_a[:, None], q.p_b[None, :])
        assert (q.p_ab >= lo - 1e-10).all() and (q.p_ab <= hi + 1e-10).all()

    # Affine dependence on alpha at three probe points.
    a = MeasurementSet("A", tuple(random_projective_measurement(3, 1, rng)
                                  for _ in range(2)))
    b = MeasurementSet("B", tuple(random_projective_measurement(3, 1, rng)
                                  for _ in range(2)))
    vals = {al: bs.violation(chsh, bs.isotropic_state(3, al), a, b)
            for al in (0.3, 0.6, 0.9)}
    assert abs(vals[0.6] - (vals[0.3] + vals[0.9]) / 2) < 1e-10

    # Transform covariance of the violation.
    from conftest import random_transform
    sets_a, sets_b = _random_sets_for(a5, rng)
    base = bs.violation(a5, rho, sets_a, sets_b)
    for _ in range(5):
        t = random_transform(a5.m_a, a5.m_b, rng, allow_swap=False)
        moved = bs.apply_transform(a5, t)
        new_a = MeasurementSet("A", tuple(
            sets_a.effects[p].complement() if t.flip_a[k] else sets_a.effects[p]
            for k, p in enumerate(t.perm_a)))
        new_b = MeasurementSet("B", tuple(
            sets_b.effects[p].complement() if t.flip_b[k] else sets_b.effects[p]
            for k, p in enumerate(t.perm_b)))
        assert abs(bs.violation(moved, rho, new_a, new_b) - base) < 1e-10

    # Batch-size invariance of the restart reduction.
    cfg = SeesawConfig(restarts=24, base_seed=77)
    batched = multi_restart_max(a5, rho, cfg)
    monkeypatch.setattr("bellscope.seesaw.MAX_CHUNK", 1)
    single = multi_restart_max(a5, rho, cfg)
    assert batched.best_violation == single.best_violation
    assert batched.restart_index == single.restart_index
    assert np.array_equal(batched.best_a.ops(), single.best_a.ops())
    assert np.array_equal(batched.best_b.ops(), single.best_b.ops())

    print("ACCEPTANCE 6 property-suites: PASS (monotonicity, Frechet, affinity, "
          "covariance, batch determinism)")


def _random_sets_for(ineq, rng):
    a = MeasurementSet("A", tuple(
        random_projective_measurement(3, int(rng.integers(1, 3)), rng)
        for _ in range(ineq.m_a)))
    b = MeasurementSet("B", tuple(
        random_projective_measurement(3, int(rng.integers(1, 3)), rng)
        for _ in range(ineq.m_b)))
    return a, b


def test_criterion_7_i3322_boundary_smoke(i3322):
    above = multi_restart_max(i3322, bs.isotropic_state(3, 0.764),
                              SeesawConfig(restarts=1000, base_seed=500),
                              stop_at=1e-13)
    assert above.best_violation > 1e-13
    below = multi_restart_max(i3322, bs.isotropic_state(3, 0.76),
                              SeesawConfig(restarts=1000, base_seed=501))
    assert below.best_violation <= 1e-13
    print(f"ACCEPTANCE 7 i3322-boundary-smoke: PASS "
          f"(0.764 -> {above.best_violation:.3e} > 1e-13; "
          f"0.76 -> {below.best_violation:.3e} <= 1e-13)")
