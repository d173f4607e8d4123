import pytest

from vcstream import cli
from vcstream.cli import main
from vcstream.graph import VertexCover, path_graph
from vcstream.instances import format_family, load_instance, write_instance
from vcstream.properties import ExplicitFamily


def write_p3(tmp_path, ell=1):
    g = path_graph(3)
    path = tmp_path / "p3.vcs"
    write_instance(g, VertexCover.validated(g, [1]), ell, path)
    return str(path)


def write_family(tmp_path, *graphs):
    f = ExplicitFamily.from_graphs(list(graphs))
    path = tmp_path / "family.txt"
    path.write_text(format_family(f))
    return str(path)


def parse_report(line):
    return dict(tok.split("=", 1) for tok in line.split())


def test_solve_yes_exit_code(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    code = main(["solve", inst, "--problem", "cvd"])
    report = parse_report(capsys.readouterr().out.strip())
    assert code == 0
    assert report["verdict"] == "YES"
    assert int(report["passes"]) >= 1
    assert int(report["peak_words"]) >= 1
    assert report["alg"] == "cvd"


def test_solve_no_exit_code(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=0)
    code = main(["solve", inst, "--problem", "cvd"])
    report = parse_report(capsys.readouterr().out.strip())
    assert code == 1
    assert report["verdict"] == "NO"


def test_usage_error_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus-flag"])
    assert exc.value.code == 2


def test_non_al_model_rejected(tmp_path, capsys):
    inst = write_p3(tmp_path)
    code = main(["solve", inst, "--problem", "cvd", "--model", "ea"])
    assert code == 2


def test_missing_instance_exit_3(capsys):
    code = main(["solve", "/nonexistent/file.vcs", "--problem", "cvd"])
    assert code == 3


def test_verify_agreement(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    code = main(["verify", inst, "--problem", "cvd", "--against", "brute"])
    report = parse_report(capsys.readouterr().out.strip())
    assert code == 0
    assert report["agreement"] == "true"


def test_verify_oct_and_hfree(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=0)
    assert main(["verify", inst, "--problem", "oct"]) == 0
    capsys.readouterr()
    fam = write_family(tmp_path, path_graph(3))
    assert main(["verify", inst, "--problem", "hfree", "--pattern", fam]) == 0
    capsys.readouterr()
    assert main(
        ["verify", inst, "--problem", "pifree-oracle", "--family", fam,
         "--oracle", "a1", "--nu", "3"]
    ) == 0


def test_gen_solve_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "gen.vcs")
    assert main(["gen", "planted", "--n", "14", "--k", "3", "--p", "0.4",
                 "--seed", "5", "--ell", "2", "-o", out]) == 0
    capsys.readouterr()
    inst = load_instance(out)
    assert inst.graph.n == 14 and inst.cover.K == 3
    assert any("seed=5" in c for c in inst.comments)
    code = main(["solve", out, "--problem", "oct"])
    assert code in (0, 1)


def test_gen_doublefan(tmp_path, capsys):
    fam = write_family(tmp_path, path_graph(4))
    out = str(tmp_path / "fan.vcs")
    assert main(["gen", "doublefan", "--family", fam, "--split", "1",
                 "--centers", "3", "--x", "101", "--y", "010", "-o", out]) == 0
    inst = load_instance(out)
    assert inst.ell == 0
    assert any("expected=YES" in c for c in inst.comments)


def test_kernelize_report_and_output(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    out = str(tmp_path / "kernel.vcs")
    code = main(["kernelize", inst, "--alg", "reduce", "--wrap", "pifree",
                 "--ell", "1", "--cpi", "2", "--pfun", "3", "-o", out])
    report = parse_report(capsys.readouterr().out.strip())
    assert code == 0
    assert report["passes"] == "1"
    assert report["char"] == "user-supplied"
    kernel = load_instance(out)
    assert any(c.startswith("kernel-of ") for c in kernel.comments)
    assert kernel.graph.n <= 3


def test_kernelize_lowrank(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    code = main(["kernelize", inst, "--alg", "lowrank", "--ell", "2", "--c", "1"])
    text = capsys.readouterr().out
    assert code == 0
    assert "passes=3" in text


def test_budget_env_enforced(tmp_path, capsys, monkeypatch):
    inst = write_p3(tmp_path, ell=1)
    monkeypatch.setenv("VCSTREAM_WORD_BUDGET", "1")
    code = main(["solve", inst, "--problem", "cvd"])
    assert code == 3
    monkeypatch.setenv("VCSTREAM_WORD_BUDGET", "1000")
    assert main(["solve", inst, "--problem", "cvd"]) == 0


def test_bad_budget_env_is_usage_error(tmp_path, capsys, monkeypatch):
    inst = write_p3(tmp_path, ell=1)
    monkeypatch.setenv("VCSTREAM_WORD_BUDGET", "abc")
    assert main(["solve", inst, "--problem", "cvd"]) == 2
    assert "VCSTREAM_WORD_BUDGET" in capsys.readouterr().err


def test_non_integer_pattern_token_exit_3(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    fam = tmp_path / "bad.fam"
    fam.write_text("h 3 2\ne 0 1\ne 1 x\n")
    assert main(["solve", inst, "--problem", "hfree", "--pattern", str(fam)]) == 3
    assert "malformed edge line" in capsys.readouterr().err


def test_negative_ell_is_usage_error(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    with pytest.raises(SystemExit) as exc:
        main(["solve", inst, "--problem", "cvd", "--ell", "-1"])
    assert exc.value.code == 2


def test_unexpected_exception_exit_3(tmp_path, capsys, monkeypatch):
    inst = write_p3(tmp_path, ell=1)

    def broken_solver(*args, **kwargs):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(cli, "solve_cvd", broken_solver)
    assert main(["solve", inst, "--problem", "cvd"]) == 3
    assert "RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--alg", "lowrank", "--ell", "-1", "--c", "1"],
    ["--wrap", "pifree", "--ell", "-1", "--cpi", "2", "--pfun", "3"],
    ["--r", "-1", "--c", "1"],
    ["--r", "1", "--c", "-1"],
    ["--wrap", "partition", "--q", "0", "--cpi", "2", "--pfun", "3"],
    ["--alg", "lowrank", "--wrap", "rankc", "--k", "-1", "--p", "1", "--c", "1"],
    ["--alg", "lowrank", "--wrap", "rankc", "--k", "1", "--p", "-1", "--c", "1"],
])
def test_kernelize_bad_number_is_usage_error(tmp_path, capsys, flags):
    inst = write_p3(tmp_path, ell=1)
    with pytest.raises(SystemExit) as exc:
        main(["kernelize", inst, *flags])
    assert exc.value.code == 2


def test_kernelize_wrap_must_belong_to_alg(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    assert main(["kernelize", inst, "--alg", "lowrank", "--wrap", "pifree",
                 "--ell", "1", "--c", "1", "--cpi", "2", "--pfun", "3"]) == 2
    assert main(["kernelize", inst, "--alg", "reduce", "--wrap", "rankc",
                 "--r", "1", "--c", "1"]) == 2
    err = capsys.readouterr().err
    assert "--wrap pifree does not apply to --alg lowrank" in err
    assert "--wrap rankc does not apply to --alg reduce" in err
