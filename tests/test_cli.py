"""Command-line surface: output shapes, exit codes, determinism."""
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
                             "significance", "version", "duration_s"}
    assert manifest["command"] == argv[0]
    assert (manifest["restarts"], manifest["seed"]) == ("7", "4")
    assert float(manifest["significance"]) == SIGNIFICANCE


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


def test_malformed_measurement_file_exits_3(capsys, tmp_path, by_name):
    (tmp_path / "A5.cg").write_text(bs.serialize_cg(by_name("A5")))
    (tmp_path / "A5.meas").write_text("effect A 1 proj\n0.5 0 zero 0 0 0\n")
    code, _, err = run(capsys, "verify-appendix", "--catalog", str(tmp_path), "--name", "A5")
    assert code == 3
    assert "error: line 2:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["violate", "--d", "3"])  # --ineq missing
    assert exc.value.code == 2


def test_alpha_out_of_range_exits_3(capsys):
    code, _, err = run(capsys, "violate", "--ineq", "CHSH", "--d", "3",
                       "--alpha", "1.5", "--restarts", "5")
    assert code == 3
