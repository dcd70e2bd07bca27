"""Command-line surface: output shapes, exit codes, determinism."""
import platform

import numpy as np
import pytest

import bellscope as bs
import bellscope.catalog as catalog_mod
import bellscope.cli as cli_mod
from bellscope.cli import build_parser, main
from bellscope.threshold import SIGNIFICANCE

SQRT2 = np.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [l for l in out.splitlines() if l and not l.startswith("# manifest")]


def stable_lines(out):
    return [l for l in out.splitlines() if not l.startswith("# manifest\tduration_s")]


def test_violate_chsh_d3(capsys):
    code, out, err = run(capsys, "violate", "--ineq", "CHSH", "--d", "3",
                         "--alpha", "0.9", "--restarts", "200", "--seed", "7")
    assert code == 0
    header, row = data_lines(out)
    assert header.split("\t")[0] == "violation"
    value = float(row.split("\t")[0])
    assert abs(value - (0.9 * (3 * SQRT2 + 1) / 9 - 4 / 9)) < 1e-5
    assert row.split("\t")[1] == "yes"
    assert "# manifest\tcommand\tviolate" in out


def test_violate_positive_probability_no_violation(capsys):
    code, out, err = run(capsys, "violate", "--ineq", "A1", "--d", "3",
                         "--alpha", "1.0", "--restarts", "20", "--seed", "0")
    assert code == 0
    _, row = data_lines(out)
    assert row.split("\t")[1] == "no"
    assert "no significant violation" in err


def test_violate_below_d2_threshold(capsys):
    code, out, _ = run(capsys, "violate", "--ineq", "CHSH", "--d", "2",
                       "--alpha", "0.5", "--restarts", "50", "--seed", "1")
    assert code == 0
    assert data_lines(out)[1].split("\t")[1] == "no"


def test_violate_byte_identical_given_seed(capsys):
    argv = ("violate", "--ineq", "A5", "--d", "3", "--alpha", "0.85",
            "--restarts", "30", "--seed", "13")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert stable_lines(out1) == stable_lines(out2)


@pytest.mark.parametrize("argv, run_key", [
    (("violate", "--ineq", "CHSH", "--d", "2", "--alpha", "0.9"), "alpha"),
    (("threshold", "--ineq", "A1", "--d", "2", "--tol", "0.01"), "bracket_tol"),
])
def test_manifest_records_exactly_what_a_run_depends_on(capsys, argv, run_key):
    code, out, _ = run(capsys, *argv, "--restarts", "7", "--seed", "4")
    assert code == 0
    rows = [l.split("\t")[1:] for l in out.splitlines() if l.startswith("# manifest\t")]
    manifest = dict(rows)
    assert len(manifest) == len(rows)
    assert set(manifest) == {"command", run_key, "d", "ineq", "restarts", "seed",
                             "significance", "version", "numpy", "python", "blas",
                             "duration_s"}
    assert manifest["command"] == argv[0]
    assert (manifest["restarts"], manifest["seed"]) == ("7", "4")
    assert float(manifest["significance"]) == SIGNIFICANCE
    assert (manifest["numpy"], manifest["python"]) == (np.__version__, platform.python_version())
    assert manifest["blas"]


def test_tol_default_is_shared():
    argv = ["threshold", "--ineq", "CHSH", "--d", "2"]
    assert build_parser().parse_args(argv).tol == bs.SearchConfig().bracket_tol


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_threshold_rejects_bad_tol(capsys, tol):
    code, out, err = run(capsys, "threshold", "--ineq", "CHSH", "--d", "2", "--tol", tol)
    assert code == 3
    assert out == ""
    assert "bracket_tol must be positive and finite" in err


def test_restart_default_is_shared():
    default = bs.SeesawConfig().restarts
    assert bs.SearchConfig().seesaw.restarts == default
    for argv in (["violate", "--ineq", "CHSH", "--d", "2", "--alpha", "0.9"],
                 ["threshold", "--ineq", "CHSH", "--d", "2"]):
        assert build_parser().parse_args(argv).restarts == default


def test_violate_dump_measurements(capsys, tmp_path):
    path = tmp_path / "m.meas"
    code, out, _ = run(capsys, "violate", "--ineq", "CHSH", "--d", "2",
                       "--alpha", "1.0", "--restarts", "40", "--seed", "2",
                       "--dump-measurements", str(path))
    assert code == 0
    a, b = bs.load_measurements(path, 2, 2)
    v = bs.violation(bs.find_entry(bs.load_catalog(), "CHSH").inequality,
                     bs.isotropic_state(2, 1.0), a, b)
    assert abs(v - float(data_lines(out)[1].split("\t")[0])) < 1e-9


@pytest.mark.parametrize("d, alpha, restarts, where", [
    ("2", "0.9", "2", "missing/x.meas"),  # the directory does not exist
    ("4", "0.8", "20", "x.meas"),         # a rank-2 effect has no file form
], ids=["unwritable", "no-file-form"])
def test_violate_failed_dump_prints_no_result(capsys, tmp_path, d, alpha, restarts, where):
    code, out, err = run(capsys, "violate", "--ineq", "CHSH", "--d", d, "--alpha", alpha,
                         "--restarts", restarts, "--dump-measurements", str(tmp_path / where))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_threshold_chsh_d2(capsys):
    code, out, _ = run(capsys, "threshold", "--ineq", "CHSH", "--d", "2",
                       "--tol", "1e-4", "--restarts", "60", "--seed", "5")
    assert code == 0
    header, row = data_lines(out)
    assert header.split("\t")[0] == "alpha_upper"
    upper = float(row.split("\t")[0])
    assert abs(upper - 0.70711) < 5e-4
    assert "# manifest\tcommand\tthreshold" in out


def test_threshold_no_violation_flag(capsys):
    code, out, _ = run(capsys, "threshold", "--ineq", "A1", "--d", "2",
                       "--restarts", "10", "--seed", "0")
    assert code == 0
    row = data_lines(out)[1].split("\t")
    assert row[0] == "1.0000000000"
    assert row[-1] == "yes"


def test_threshold_rejects_bound_below_classical_max(capsys, tmp_path):
    for text in ("cg 2 2 -1\n-1 0\n-1 1 1\n0 1 -1\n",  # CHSH with bound -1: its maximum is 0
                 "cg 1 1 -1\n0\n0 0\n"):  # violated by 1 at every alpha: a degenerate crossing
        path = tmp_path / "low.cg"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "threshold", "--ineq", str(path), "--d", "2")
        assert code == 3
        assert out == ""
        assert "below the classical maximum" in err


def test_equiv_yes_identity(capsys):
    code, out, _ = run(capsys, "equiv", "CHSH", "CHSH")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert "identity" in lines[1]


def test_equiv_no(capsys):
    code, out, _ = run(capsys, "equiv", "CHSH", "I3322")
    assert code == 0
    assert out.splitlines()[0] == "no"


def test_includes_i3322_chsh_witness(capsys):
    code, out, _ = run(capsys, "includes", "I3322", "CHSH")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert "fix A3,B1" in lines[1]


def test_includes_labels_fixed_settings_after_party_swap(capsys, tmp_path):
    # A8's five Bob settings against its Alice setting 1: the witness swaps
    # parties, and the settings to fix in A8 are Alice's.
    block = tmp_path / "a8_block.cg"
    block.write_text("cg 5 1 0\n-1 -2 0 0 0\n0 1 1 -1 -1 0\n")
    code, out, _ = run(capsys, "includes", "A8", str(block))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert "fix A2,A3,A4;" in lines[1]
    assert "swap parties" in lines[1]


def test_includes_labels_permuted_sources_after_party_swap(capsys, by_name, tmp_path):
    # A8 with its Bob settings permuted, against the block of its Bob settings
    # and Alice setting 1: the witness swaps parties, so the sources of the new
    # A settings are the disguised inequality's B settings.
    perm = bs.Transform(False, (0, 1, 2, 3), (3, 4, 0, 2, 1), (False,) * 4, (False,) * 5)
    disguised = tmp_path / "a8_disguised.cg"
    disguised.write_text(bs.serialize_cg(bs.apply_transform(by_name("A8"), perm)))
    block = tmp_path / "a8_block.cg"
    block.write_text("cg 5 1 0\n-1 -2 0 0 0\n0 1 1 -1 -1 0\n")
    code, out, _ = run(capsys, "includes", str(disguised), str(block))
    assert code == 0
    transform = out.splitlines()[1].split("transform: ")[1]
    assert transform.startswith("swap parties; A<-(")
    sources = transform.split("A<-(")[1].split(")")[0].split(",")
    assert sorted(sources) == ["B1", "B2", "B3", "B4", "B5"]


def test_includes_i4422_chsh_no(capsys):
    for name in ("I4422_1", "I4422_2"):
        code, out, _ = run(capsys, "includes", name, "CHSH")
        assert code == 0
        assert out.splitlines()[0] == "no"


def test_graph_default_catalog(capsys):
    code, out, _ = run(capsys, "graph")
    assert code == 0
    assert out.startswith("digraph inclusion {")
    assert '"A3_I3322" -> "A2_CHSH";' in out


def test_graph_to_file_and_single_entry_dir(capsys, tmp_path):
    (tmp_path / "solo.cg").write_text("cg 2 2 0\n-1 0\n-1 1 1\n0 1 -1\n")
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--catalog", str(tmp_path), "--out", str(dot))
    assert code == 0
    assert dot.read_text() == "digraph inclusion {\n}\n"


def test_graph_unreadable_directory(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "--catalog", str(tmp_path / "missing"))
    assert code == 3
    assert "error:" in err


def test_verify_appendix_all(capsys):
    code, out, _ = run(capsys, "verify-appendix")
    assert code == 0
    lines = data_lines(out)
    assert lines[0].startswith("name\t")
    assert len(lines) == 6
    for line in lines[1:]:
        assert float(line.split("\t")[5]) < 1e-4


def test_verify_appendix_single(capsys):
    code, out, _ = run(capsys, "verify-appendix", "--name", "A56")
    assert code == 0
    row = data_lines(out)[1].split("\t")
    assert row[0] == "A56"
    assert abs(float(row[3]) - 0.7557816805) < 1e-4


def test_verify_appendix_reads_the_catalog_once(capsys, monkeypatch):
    load, calls = catalog_mod.load_catalog, []

    def counting(directory=None):
        calls.append(directory)
        return load(directory)

    monkeypatch.setattr(cli_mod, "load_catalog", counting)
    monkeypatch.setattr(catalog_mod, "load_catalog", counting)
    code, out, _ = run(capsys, "verify-appendix")
    assert code == 0 and len(data_lines(out)) == 6
    assert calls == [None]


def test_verify_appendix_unknown(capsys):
    code, _, err = run(capsys, "verify-appendix", "--name", "A99")
    assert code == 3
    assert "error:" in err


def test_classical_chsh(capsys):
    code, out, _ = run(capsys, "classical", "--ineq", "CHSH")
    assert code == 0
    assert data_lines(out)[1] == "0\t0\tyes"


def test_classical_a56(capsys):
    code, out, _ = run(capsys, "classical", "--ineq", "A56")
    assert code == 0
    assert data_lines(out)[1] == "0\t0\tyes"


def test_classical_switched_chsh_file(capsys, tmp_path, switched_chsh):
    path = tmp_path / "sw.cg"
    path.write_text(bs.serialize_cg(switched_chsh))
    code, out, _ = run(capsys, "classical", "--ineq", str(path))
    assert code == 0
    assert data_lines(out)[1] == "1\t1\tyes"


def test_unknown_inequality_exits_3(capsys):
    code, _, err = run(capsys, "violate", "--ineq", "NOPE", "--d", "3",
                       "--alpha", "0.5")
    assert code == 3
    assert "error:" in err


def test_malformed_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.cg"
    bad.write_text("cg 2 2 0\n-1 0\n-1 1\n0 1 -1\n")
    code, _, err = run(capsys, "classical", "--ineq", str(bad))
    assert code == 3


@pytest.mark.parametrize("content, message", [
    (b"cg 2 2 0\n-1 0\n-1 x 1\n0 1 -1\n", "error: line 3: non-integer coefficient 'x'"),
    (b"cg 1 1 0\n\xff\n0 -1\n", "error: 'utf-8' codec can't decode byte 0xff in position 9"),
], ids=["malformed", "undecodable"])
def test_file_errors_name_their_file(capsys, tmp_path, content, message):
    good, bad = tmp_path / "good.cg", tmp_path / "bad.cg"
    good.write_text("cg 2 2 0\n-1 0\n-1 1 1\n0 1 -1\n")
    bad.write_bytes(content)
    code, out, err = run(capsys, "equiv", str(good), str(bad))
    assert code == 3
    assert out == ""
    assert err.startswith(message)
    assert err.endswith(f" (in {bad})\n")


def test_unreadable_file_names_its_file(capsys, tmp_path):
    path = tmp_path / "dir.cg"
    path.mkdir()
    code, _, err = run(capsys, "classical", "--ineq", str(path))
    assert code == 3
    assert err.startswith("error: [Errno ") and err.endswith(f": '{path}'\n")


def test_malformed_measurement_file_exits_3(capsys, tmp_path, by_name):
    (tmp_path / "A5.cg").write_text(bs.serialize_cg(by_name("A5")))
    (tmp_path / "A5.meas").write_text("effect A 1 proj\n0.5 0 zero 0 0 0\n")
    code, _, err = run(capsys, "verify-appendix", "--catalog", str(tmp_path), "--name", "A5")
    assert code == 3
    assert "error: line 2:" in err


def test_malformed_catalog_inequality_names_its_file(capsys, tmp_path):
    (tmp_path / "A2_CHSH.cg").write_text("cg 2 2 0\n-1 0\n-1 x 1\n0 1 -1\n")
    code, _, err = run(capsys, "graph", "--catalog", str(tmp_path))
    assert code == 3
    assert err == f"error: line 3: non-integer coefficient 'x' (in {tmp_path / 'A2_CHSH.cg'})\n"


def test_malformed_catalog_measurements_name_their_file(capsys, tmp_path, by_name):
    (tmp_path / "A5.cg").write_text(bs.serialize_cg(by_name("A5")))
    (tmp_path / "A5.meas").write_text("effect A 1 proj\n0.5 0 zero 0 0 0\n")
    code, _, err = run(capsys, "verify-appendix", "--catalog", str(tmp_path), "--name", "A5")
    assert code == 3
    assert err.startswith("error: line 2: ")
    assert err.endswith(f" (in {tmp_path / 'A5.meas'})\n")


def test_malformed_catalog_table_names_its_file_and_line(capsys, tmp_path):
    (tmp_path / "A2_CHSH.cg").write_text("cg 2 2 0\n-1 0\n-1 1 1\n0 1 -1\n")
    (tmp_path / "table1.tsv").write_text("name\talpha_max\tcut_facet\n\n"
                                         "A2_CHSH\t0.75x\ttriangle\n")
    code, _, err = run(capsys, "graph", "--catalog", str(tmp_path))
    assert code == 3
    assert err == ("error: line 3: could not convert string to float: '0.75x' "
                   f"(in {tmp_path / 'table1.tsv'})\n")


def test_catalog_lookup_reads_only_the_named_entry(capsys, tmp_path, monkeypatch):
    """A malformed catalog file fails only the lookups that name it."""
    (tmp_path / "A1.cg").write_text("cg 1 1 0\n0\n0 -1\n")
    (tmp_path / "A2_CHSH.cg").write_text("cg 2 2 0\n-1 0\n-1 x 1\n0 1 -1\n")
    (tmp_path / "table1.tsv").write_text("name\talpha_max\tcut_facet\nA1\t0.75x\ttriangle\n")
    good = tmp_path / "elsewhere.cg"
    good.write_text("cg 1 1 0\n0\n0 -1\n")
    monkeypatch.setenv("BELLSCOPE_CATALOG", str(tmp_path))
    for source in ("A1", "a1", str(good)):
        code, out, _ = run(capsys, "classical", "--ineq", source)
        assert code == 0
        assert data_lines(out)[1] == "0\t0\tyes"
    code, _, err = run(capsys, "classical", "--ineq", "CHSH")
    assert code == 3
    assert err == f"error: line 3: non-integer coefficient 'x' (in {tmp_path / 'A2_CHSH.cg'})\n"


def test_catalog_names_parse_one_file_each(capsys, monkeypatch):
    load, parsed = catalog_mod.load_cg, []

    def counting(path):
        parsed.append(path.name)
        return load(path)

    monkeypatch.setattr(catalog_mod, "load_cg", counting)
    code, out, _ = run(capsys, "equiv", "A8", "A8")
    assert code == 0 and out.splitlines()[0] == "yes"
    assert parsed == ["A8.cg", "A8.cg"]
    parsed.clear()
    code, out, _ = run(capsys, "verify-appendix", "--name", "a56")
    assert code == 0 and data_lines(out)[1].startswith("A56\t")
    assert parsed == ["A56.cg"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["violate", "--d", "3"])  # --ineq missing
    assert exc.value.code == 2


def test_alpha_out_of_range_exits_3(capsys):
    code, _, err = run(capsys, "violate", "--ineq", "CHSH", "--d", "3",
                       "--alpha", "1.5", "--restarts", "5")
    assert code == 3
