"""Shipped catalog data: coefficients, reference metadata, appendix checks."""
import pytest

import bellscope as bs
import bellscope.catalog as catalog_mod
from bellscope.catalog import APPENDIX_NAMES, default_catalog_dir
from bellscope.seesaw import SeesawConfig, seesaw

TABLE_ALPHAS = {
    "A28": 0.7447198434,
    "A27": 0.7453308276,
    "A5": 0.7553800191,
    "A56": 0.7557816805,
    "A8": 0.7614396336,
    "A3_I3322": 0.7629742793,
    "A2_CHSH": 0.7629742793,
    "A1": 1.0,
}


def test_catalog_has_ten_entries(catalog):
    assert [e.name for e in catalog] == [
        "A1", "A2_CHSH", "A3_I3322", "A5", "A8", "A27", "A28", "A56",
        "I4422_1", "I4422_2"]


def test_entry_shapes(catalog):
    dims = {e.name: (e.inequality.m_a, e.inequality.m_b) for e in catalog}
    assert dims["A5"] == (4, 4)
    assert dims["A8"] == (4, 5)
    assert dims["A27"] == (5, 5)
    assert dims["A28"] == (5, 5)
    assert dims["A56"] == (5, 5)
    assert dims["I4422_1"] == (4, 4)
    assert dims["I4422_2"] == (4, 4)
    assert dims["A1"] == (1, 1)


def test_a8_coefficients(by_name):
    a8 = by_name("A8")
    assert a8.marg_a == (0, -1, -2, 0)
    assert a8.bound == 0


def test_chsh_entry_matches_reference(catalog, chsh):
    assert bs.find_entry(catalog, "A2").inequality == chsh
    assert chsh.marg_a == (-1, 0) and chsh.joint == ((1, 1), (1, -1))


def test_positive_probability_entry(by_name):
    a1 = by_name("A1")
    assert a1.marg_a == (0,) and a1.marg_b == (0,)
    assert a1.joint == ((-1,),) and a1.bound == 0


def test_classical_max_equals_bound(catalog):
    for e in catalog:
        assert bs.classical_max(e.inequality) == e.inequality.bound


def test_table_metadata(catalog):
    for e in catalog:
        if e.name in TABLE_ALPHAS:
            assert e.table_alpha_max == pytest.approx(TABLE_ALPHAS[e.name], abs=1e-12)
        else:
            assert e.table_alpha_max is None
    assert "parachute" in bs.find_entry(catalog, "A5").cut_facet
    assert "Pentagonal" in bs.find_entry(catalog, "A8").cut_facet


def test_find_entry_aliases(catalog):
    assert bs.find_entry(catalog, "CHSH").name == "A2_CHSH"
    assert bs.find_entry(catalog, "chsh").name == "A2_CHSH"
    assert bs.find_entry(catalog, "A3").name == "A3_I3322"
    assert bs.find_entry(catalog, "I3322").name == "A3_I3322"
    with pytest.raises(KeyError):
        bs.find_entry(catalog, "A99")


def test_env_var_overrides_catalog_dir(tmp_path, monkeypatch):
    (tmp_path / "X1.cg").write_text("cg 1 1 0\n0\n0 -1\n")
    monkeypatch.setenv("BELLSCOPE_CATALOG", str(tmp_path))
    assert default_catalog_dir() == tmp_path
    entries = bs.load_catalog()
    assert [e.name for e in entries] == ["X1"]


def test_malformed_table_raises_a_line_numbered_error(tmp_path):
    (tmp_path / "X1.cg").write_text("cg 1 1 0\n0\n0 -1\n")
    table = tmp_path / "table1.tsv"
    table.write_text("name\talpha_max\tcut_facet\n\nX1\t0.75x\ttriangle\n")
    with pytest.raises(bs.CgParseError) as info:
        bs.load_catalog(tmp_path)
    assert info.value.line == 3
    assert str(info.value) == f"line 3: could not convert string to float: '0.75x' (in {table})"


def test_appendix_effect_traces(catalog):
    # proj effects have trace 1, complement effects trace d-1 = 2; the printed
    # 6-digit amplitudes are renormalized so this holds tightly.
    for name in APPENDIX_NAMES:
        entry = bs.find_entry(catalog, name)
        a, b = entry.measurements()
        for mset in (a, b):
            for e in mset.effects:
                tr = e.op.trace().real
                assert min(abs(tr - 1), abs(tr - 2)) < 1e-6
                assert e.projection_defect() < 1e-9


def test_verify_appendix_crossings():
    for name, tol in (("A28", 1e-4), ("A5", 1e-4), ("A27", 1e-4),
                      ("A56", 1e-4), ("A8", 1e-4)):
        rep = bs.verify_appendix(name)
        assert rep.delta < tol
        assert rep.v0 < 0 < rep.v1
        assert 0 < rep.crossing < 1


def test_verify_appendix_unknown_name():
    with pytest.raises(KeyError):
        bs.verify_appendix("A99")
    with pytest.raises(KeyError):
        bs.verify_appendix("I4422_1")  # exists but ships no measurements


def test_relevance_summary():
    rows = bs.relevance_summary()
    by_name = {r.name: r for r in rows}
    assert set(by_name) == {"A28", "A27", "A5", "A56", "A8", "A2_CHSH"}
    for name in APPENDIX_NAMES:
        assert by_name[name].margin > 0
    assert by_name["A56"].margin == pytest.approx(0.00719, abs=5e-5)
    assert by_name["A2_CHSH"].margin == 0.0


def test_relevance_summary_reads_the_catalog_once(monkeypatch):
    load, calls = catalog_mod.load_catalog, []

    def counting(directory=None):
        calls.append(directory)
        return load(directory)

    monkeypatch.setattr(catalog_mod, "load_catalog", counting)
    assert len(bs.relevance_summary()) == 6
    assert calls == [None]


def test_appendix_measurements_are_near_fixed_points(catalog):
    """Restarting the see-saw from the shipped measurements slightly above the
    crossing must not lose violation."""
    for name in APPENDIX_NAMES:
        entry = bs.find_entry(catalog, name)
        a, b = entry.measurements()
        rep = bs.verify_appendix(name)
        alpha = rep.crossing + 0.01
        rho = bs.isotropic_state(3, alpha)
        start = bs.violation(entry.inequality, rho, a, b)
        res = seesaw(entry.inequality, rho, a, b, SeesawConfig(restarts=1))
        assert res.best_violation >= start - 1e-12
        assert res.best_violation == pytest.approx(start, abs=1e-4)
