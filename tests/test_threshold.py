"""Crossing iteration for the isotropic violation threshold."""
import numpy as np
import pytest

import bellscope as bs
import bellscope.threshold as threshold_mod
from bellscope import seesaw as seesaw_mod
from bellscope.quantum import ROUNDING_TOL
from bellscope.seesaw import SeesawConfig
from bellscope.threshold import SIGNIFICANCE, SearchConfig, alpha_max

SQRT2 = np.sqrt(2.0)


def quick_cfg(restarts=40, tol=5e-4, seed=0, **kw):
    return SearchConfig(bracket_tol=tol,
                        seesaw=SeesawConfig(restarts=restarts, base_seed=seed), **kw)


@pytest.mark.parametrize("name, d, tol, seed", [
    ("A2_CHSH", 2, 5e-5, 101), ("A3_I3322", 3, 1e-4, 203), ("A8", 3, 1e-4, 206),
    ("A27", 3, 1e-6, 0)])
def test_retire_rule_changes_no_search(by_name, monkeypatch, name, d, tol, seed):
    """Criterion 3's searches, and the headline A27 d=3 search at tol 1e-6,
    give the same estimate and witness with the see-saw's retire rule
    switched off (it needs more sweeps in a row than a restart may take)."""
    ineq, cfg = by_name(name), quick_cfg(restarts=200, tol=tol, seed=seed)
    probes = []

    def recorded(*args, **kwargs):
        probes.append(bs.multi_restart_max(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(threshold_mod, "multi_restart_max", recorded)
    on = alpha_max(ineq, d, cfg)
    if name == "A3_I3322":  # the last probe decides by sign; without stop_at nothing retires
        last = probes[-1]
        assert last.best_violation <= SIGNIFICANCE and last.retired > 0
        full = bs.multi_restart_max(ineq, bs.isotropic_state(d, on.alpha_lower), cfg.seesaw,
                                    step_key=(on.steps - 1,))
        assert full.retired == 0 and full.best_violation <= SIGNIFICANCE
    monkeypatch.setattr(seesaw_mod, "RETIRE_SWEEPS", seesaw_mod.MAX_ITERS + 1)
    off = alpha_max(ineq, d, cfg)
    assert not any(res.retired for res in probes[on.steps:])
    fields = ("name", "d", "alpha_upper", "alpha_lower", "config", "steps", "no_violation")
    assert [getattr(on, f) for f in fields] == [getattr(off, f) for f in fields]
    witness = ("best_violation", "restart_index", "iters_used")
    assert [getattr(on.witness, f) for f in witness] == [getattr(off.witness, f) for f in witness]


def test_tail_rule_cuts_last_probe_sweeps(by_name, monkeypatch):
    """Criterion 3's I3322 d=3 search ends in a probe where all 200 restarts
    run.  Retiring them by their geometric tail takes it below 850
    restart-sweeps (765); extrapolating each last gain RETIRE_GAIN sweeps
    ahead took 1,167, and a RETIRE_SAFETY of 100 takes 875."""
    probes = []

    def recorded(*args, **kwargs):
        probes.append(bs.multi_restart_max(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(threshold_mod, "multi_restart_max", recorded)
    est = alpha_max(by_name("A3_I3322"), 3, quick_cfg(restarts=200, tol=1e-4, seed=203))
    last = probes[-1]
    assert est.steps == len(probes) and last.best_violation <= SIGNIFICANCE
    assert 200 <= last.sweeps < 850 and last.retired > 0


def test_chsh_d2_threshold(chsh):
    est = alpha_max(chsh, 2, quick_cfg(restarts=60, tol=1e-4, seed=1))
    assert abs(est.alpha_upper - 1 / SQRT2) < 5e-4
    assert not est.no_violation


def test_chsh_d3_threshold(chsh):
    est = alpha_max(chsh, 3, quick_cfg(restarts=60, tol=1e-4, seed=2))
    assert abs(est.alpha_upper - 4 / (3 * SQRT2 + 1)) < 5e-4


def test_positive_probability_never_violates(by_name):
    est = alpha_max(by_name("A1"), 3, quick_cfg(restarts=20, seed=3))
    assert est.no_violation
    assert est.alpha_upper == 1.0
    assert est.witness is None


def test_bracket_invariants(chsh):
    cfg = quick_cfg(restarts=40, tol=1e-3, seed=4)
    est = alpha_max(chsh, 2, cfg)
    assert est.alpha_lower < est.alpha_upper
    assert est.alpha_upper - est.alpha_lower <= cfg.bracket_tol
    assert est.witness.best_violation > SIGNIFICANCE
    # The witness certifies the upper edge: alpha_upper is a true upper bound.
    direct = bs.violation(chsh, bs.isotropic_state(2, est.alpha_upper),
                          est.witness.best_a, est.witness.best_b)
    assert direct > SIGNIFICANCE - 1e-10


def test_upper_edge_is_witness_crossing_and_steps_count_probes(chsh, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["step_key"])
        return bs.multi_restart_max(*args, **kwargs)

    monkeypatch.setattr(threshold_mod, "multi_restart_max", counted)
    est = alpha_max(chsh, 2, quick_cfg(restarts=30, tol=1e-3, seed=5))
    crossing = bs.alpha_crossing(chsh, 2, est.witness.best_a, est.witness.best_b)
    assert abs(est.alpha_upper - crossing.alpha) <= ROUNDING_TOL
    assert est.steps == len(calls)
    assert calls == [(k,) for k in range(est.steps)]


@pytest.mark.parametrize("d, exact", [(2, 1 / SQRT2), (3, 4 / (3 * SQRT2 + 1))], ids=["d2", "d3"])
def test_chsh_threshold_to_witness_precision(chsh, d, exact):
    est = alpha_max(chsh, d)
    assert abs(est.alpha_upper - exact) < 1e-9


def test_bracket_wider_than_alpha_upper_stops_at_alpha_zero(chsh):
    est = alpha_max(chsh, 2, quick_cfg(restarts=20, tol=0.9, seed=8))
    assert est.alpha_lower == 0.0
    assert abs(est.alpha_upper - 1 / SQRT2) < 1e-9
    assert est.steps == 2


def test_more_restarts_never_raise_the_bound(chsh):
    low = alpha_max(chsh, 2, quick_cfg(restarts=8, tol=1e-3, seed=6))
    high = alpha_max(chsh, 2, quick_cfg(restarts=40, tol=1e-3, seed=6))
    assert high.alpha_upper <= low.alpha_upper + 1e-15


def test_deterministic_runs(chsh):
    cfg = quick_cfg(restarts=20, tol=1e-3, seed=7)
    e1 = alpha_max(chsh, 2, cfg)
    e2 = alpha_max(chsh, 2, cfg)
    assert e1.alpha_upper == e2.alpha_upper
    assert e1.alpha_lower == e2.alpha_lower
    assert e1.witness.best_violation == e2.witness.best_violation


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_bracket_tol_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="bracket_tol must be positive and finite"):
        SearchConfig(bracket_tol=tol)


def test_dimension_guard(chsh):
    with pytest.raises(ValueError, match="dimension must be at least 2"):
        alpha_max(chsh, 1, quick_cfg())
