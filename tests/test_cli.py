import os
import subprocess
import sys
from pathlib import Path

import pytest
from corpus import BAD_INSTANCES
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vcstream
from vcstream import cli
from vcstream.brute import OCT_LIMIT, PI_FREE_LIMIT
from vcstream.cli import main
from vcstream.graph import Graph, VertexCover, cycle_graph, path_graph
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
    with pytest.raises(SystemExit) as exc:
        main(["solve", inst, "--problem", "cvd", "--model", "ea"])
    assert exc.value.code == 2


def test_verify_has_no_against_flag(tmp_path, capsys):
    inst = write_p3(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", inst, "--problem", "cvd", "--against", "brute"])
    assert exc.value.code == 2


def test_missing_instance_exit_3(capsys):
    code = main(["solve", "/nonexistent/file.vcs", "--problem", "cvd"])
    assert code == 3


@pytest.mark.parametrize("text", [pytest.param(text, id=case)
                                  for case, text, _error, _message in BAD_INSTANCES])
def test_bad_instance_exit_3(tmp_path, capsys, text):
    inst = tmp_path / "bad.vcs"
    inst.write_text(text)
    assert main(["solve", str(inst), "--problem", "cvd"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("bad", ["instance", "family"])
def test_non_utf8_input_exit_3(tmp_path, capsys, bad):
    inst = write_p3(tmp_path, ell=1)
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    argv = (["solve", str(path), "--problem", "cvd"] if bad == "instance"
            else ["solve", inst, "--problem", "hfree", "--pattern", str(path)])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not UTF-8" in captured.err


@pytest.mark.parametrize("ell, argv, code", [
    (1, ["solve", "{inst}", "--problem", "cvd"], 0),
    (0, ["solve", "{inst}", "--problem", "cvd"], 1),
    (1, ["--bogus"], 2),
], ids=["yes", "no", "bogus"])
def test_python_dash_m_exit_codes(tmp_path, ell, argv, code):
    inst = write_p3(tmp_path, ell)
    src = Path(vcstream.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-m", "vcstream", *(a.format(inst=inst) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == code, run.stderr


def test_verify_agreement(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    code = main(["verify", inst, "--problem", "cvd"])
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


@pytest.mark.parametrize("oracle", ["a1", "a1sub"])
def test_verify_oracle_member_above_canonical_limit(tmp_path, capsys, oracle):
    g = path_graph(10)
    inst = tmp_path / "p10.vcs"
    write_instance(g, VertexCover.validated(g, [1, 3, 5, 7, 9]), 1, inst)
    fam = write_family(tmp_path, path_graph(9))
    code = main(["verify", str(inst), "--problem", "pifree-oracle", "--family", fam,
                 "--oracle", oracle])
    report = parse_report(capsys.readouterr().out.strip())
    assert code == 0
    assert (report["verdict"], report["agreement"]) == ("YES", "true")


@pytest.mark.parametrize("problem,n,solver,message", [
    ("cvd", PI_FREE_LIMIT + 1, "solve_cvd", "brute_min_deletion limited to 10 vertices"),
    ("oct", OCT_LIMIT + 1, "solve_oct", "brute_min_oct limited to 12 vertices"),
    ("pifree-oracle", PI_FREE_LIMIT + 1, "solve_with_a2",
     "brute_min_deletion limited to 10 vertices"),
])
def test_verify_refuses_large_instance_before_solving(tmp_path, capsys, monkeypatch,
                                                      problem, n, solver, message):
    g = path_graph(n)
    inst = tmp_path / "path.vcs"
    write_instance(g, VertexCover.validated(g, range(1, n, 2)), 1, inst)
    fam = write_family(tmp_path, path_graph(3))

    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran before the brute force refused")

    monkeypatch.setattr(cli, solver, unreachable)
    family = ["--family", fam] if problem == "pifree-oracle" else []
    code = main(["verify", str(inst), "--problem", problem, *family])
    assert code == 3
    assert capsys.readouterr().err.strip() == f"error: {message}"


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


def test_gen_doublefan_splits_the_files_first_pattern(tmp_path, capsys):
    # the family's canonical order puts P4 before C4; the file's order decides
    c4 = "h 4 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
    texts = {"both": c4 + "h 4 3\ne 0 1\ne 1 2\ne 2 3\n", "c4": c4}
    for name, text in texts.items():
        (tmp_path / f"{name}.fam").write_text(text)
        assert main(["gen", "doublefan", "--family", str(tmp_path / f"{name}.fam"),
                     "--split", "1", "--centers", "2", "--x", "10", "--y", "01",
                     "-o", str(tmp_path / f"{name}.vcs")]) == 0
    both = (tmp_path / "both.vcs").read_bytes()
    assert both == (tmp_path / "c4.vcs").read_bytes()
    assert both.startswith(b"p vcstream 5 4 2 0\n")


@pytest.mark.parametrize("flags", [
    ["--ell", "-1"], ["--n", "-1"], ["--k", "-2"], ["--p", "1.5"], ["--p", "-0.1"],
    ["--p", "nan"],
])
def test_gen_planted_bad_number_is_usage_error(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "planted", *flags, "-o", str(tmp_path / "bad.vcs")])
    assert exc.value.code == 2
    assert not (tmp_path / "bad.vcs").exists()


def test_gen_doublefan_needs_family(tmp_path, capsys):
    assert main(["gen", "doublefan", "-o", str(tmp_path / "fan.vcs")]) == 2
    assert "--family" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--centers", "-1"], ["--centers", "0"], ["--split", "-1"]])
def test_gen_doublefan_bad_number_is_usage_error(tmp_path, capsys, flags):
    fam = write_family(tmp_path, path_graph(4))
    with pytest.raises(SystemExit) as exc:
        main(["gen", "doublefan", "--family", fam, *flags, "-o", str(tmp_path / "bad.vcs")])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "bad.vcs").exists()


def test_gen_doublefan_split_out_of_range(tmp_path, capsys):
    # whether a split vertex exists depends on the family file, so not usage
    fam = write_family(tmp_path, path_graph(4))
    out = tmp_path / "bad.vcs"
    assert main(["gen", "doublefan", "--family", fam, "--split", "7", "-o", str(out)]) == 3
    assert "split vertex 7 out of range" in capsys.readouterr().err
    assert not out.exists()


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


def test_instance_hash_reads_the_instance_not_the_file(tmp_path, capsys):
    # reversed edge lines, CRLF line ends and a comment line leave the
    # instance as it was, so `instance=` and the kernel's `kernel-of` hold
    lines = Path(write_p3(tmp_path)).read_text().splitlines()
    head = [line for line in lines if not line.startswith("e ")]
    edges = [line for line in lines if line.startswith("e ")]
    texts = {"p3.vcs": "\n".join(lines) + "\n",
             "rev.vcs": "\n".join(head + edges[::-1]) + "\n",
             "crlf.vcs": "\r\n".join(lines) + "\r\n",
             "comment.vcs": "\n".join(lines[:1] + ["c a comment"] + lines[1:]) + "\n"}
    hashes = set()
    for name, text in texts.items():
        (tmp_path / name).write_bytes(text.encode())
        assert main(["solve", str(tmp_path / name), "--problem", "cvd"]) == 0
        hashes.add(parse_report(capsys.readouterr().out.strip())["instance"])
        out = tmp_path / f"{name}.kernel"
        assert main(["kernelize", str(tmp_path / name), "--alg", "lowrank", "--ell", "1",
                     "--c", "1", "-o", str(out)]) == 0
        report = parse_report(capsys.readouterr().out.strip())
        assert f"kernel-of {report['instance']}" in load_instance(out).comments
        hashes.add(report["instance"])
    assert len(hashes) == 1
    assert len(set(texts.values())) == len(texts)


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


NO_BUDGET_NOTE = "c header ell is the instance's, not a budget this kernel preserves"


def write_k3fan(tmp_path):
    """A triangle joined to four more vertices, ell = 2: a NO for cvd."""
    edges = [(0, 1), (0, 2), (1, 2)] + [(x, v) for x in range(3) for v in range(3, 7)]
    g = Graph(8, edges)
    inst = tmp_path / "k3fan.vcs"
    write_instance(g, VertexCover.validated(g, [0, 1, 2]), 2, inst)
    return str(inst)


def test_kernelize_pifree_defaults_to_instance_budget(tmp_path, capsys):
    """Without --ell, `--wrap pifree` builds the kernel for the instance's
    ell, so the kernel is a NO too, and its header says ell = 2."""
    inst = write_k3fan(tmp_path)
    assert main(["solve", inst, "--problem", "cvd"]) == 1
    out = tmp_path / "kernel.vcs"
    assert main(["kernelize", inst, "--wrap", "pifree", "--cpi", "2", "--pfun", "3",
                 "-o", str(out)]) == 0
    kernel = load_instance(str(out))
    assert (kernel.graph.n, kernel.ell) == (8, 2)
    assert NO_BUDGET_NOTE not in out.read_text()
    assert main(["solve", str(out), "--problem", "cvd"]) == 1


def test_kernelize_header_records_kernel_budget(tmp_path, capsys):
    inst = write_p3(tmp_path, ell=1)
    out = tmp_path / "kernel.vcs"
    assert main(["kernelize", inst, "--wrap", "pifree", "--ell", "0", "--cpi", "2",
                 "--pfun", "3", "-o", str(out)]) == 0
    assert load_instance(str(out)).ell == 0
    assert main(["kernelize", inst, "--alg", "lowrank", "--wrap", "rankc", "--k", "3",
                 "--p", "1", "--c", "1", "-o", str(out)]) == 0
    assert load_instance(str(out)).ell == 3
    assert NO_BUDGET_NOTE not in out.read_text()


def test_kernelize_largest_is_headed_ell_zero(tmp_path, capsys):
    """`--wrap largest` is the pifree kernel at ell = 0, so its header says 0;
    headed with the instance's ell = 2, `solve` answered it YES."""
    inst = write_k3fan(tmp_path)
    out = tmp_path / "kernel.vcs"
    assert main(["kernelize", inst, "--wrap", "largest", "--cpi", "2", "--pfun", "3",
                 "-o", str(out)]) == 0
    kernel = load_instance(str(out))
    assert (kernel.graph.n, kernel.ell) == (7, 0)
    assert NO_BUDGET_NOTE not in out.read_text()
    assert main(["solve", str(out), "--problem", "cvd"]) == 1


@pytest.mark.parametrize("flags", [
    ["--r", "0", "--c", "2"],
    ["--wrap", "partition", "--q", "2", "--cpi", "2", "--pfun", "3"],
    # --ell is a round count: kernel_by_rank needs k + 1 + p(K) rounds for
    # budget k, so a 2-round kernel is no ell = 2 kernel (solve says YES)
    ["--alg", "lowrank", "--ell", "2", "--c", "2"],
])
def test_kernelize_without_budget_says_so(tmp_path, capsys, flags):
    inst = write_k3fan(tmp_path)
    out = tmp_path / "kernel.vcs"
    assert main(["kernelize", inst, *flags, "-o", str(out)]) == 0
    assert load_instance(str(out)).ell == 2
    assert NO_BUDGET_NOTE in out.read_text().splitlines()


@pytest.mark.parametrize("ell", [[], ["--ell", "0"]])
def test_kernelize_lowrank_needs_positive_ell(tmp_path, capsys, ell):
    inst = write_p3(tmp_path, ell=1)
    assert main(["kernelize", inst, "--alg", "lowrank", *ell, "--c", "1"]) == 2
    assert "--alg lowrank needs --ell" in capsys.readouterr().err
    assert main(["kernelize", inst, "--wrap", "pifree", "--cpi", "2", "--pfun", "3"]) == 0


@pytest.mark.parametrize("flags", [
    ["--alg", "lowrank", "--wrap", "rankc", "--k", "1", "--p", "0", "--c", "1"],
    ["--wrap", "pifree", "--ell", "1", "--cpi", "-1", "--pfun", "3"],
])
def test_kernelize_bad_p_or_cpi_is_usage_error(tmp_path, capsys, flags):
    inst = write_p3(tmp_path, ell=1)
    with pytest.raises(SystemExit) as exc:
        main(["kernelize", inst, *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flags", [
    ["--problem", "hfree", "--cpi", "-1"],
    ["--problem", "pifree-oracle", "--oracle", "a1", "--nu", "0"],
    ["--problem", "pifree-oracle", "--oracle", "a1", "--nu", "-1"],
])
def test_solver_bad_cpi_or_nu_is_usage_error(tmp_path, capsys, command, flags):
    inst = write_p3(tmp_path, ell=1)
    family = write_family(tmp_path, path_graph(3))
    with pytest.raises(SystemExit) as exc:
        main([command, inst, *flags, "--family", family])
    assert exc.value.code == 2


@pytest.mark.parametrize("oracle", ["a1", "a2", "a1sub"])
def test_nu_below_family_is_refused_before_solving(tmp_path, capsys, monkeypatch, oracle):
    # a NO at the family's nu; with a smaller nu no candidate holds a P4 or
    # a C4, and a1 used to answer YES
    inst = str(tmp_path / "small.vcs")
    assert main(["gen", "planted", "--n", "40", "--k", "4", "--p", "0.15", "--seed", "1",
                 "--ell", "1", "-o", inst]) == 0
    fam = write_family(tmp_path, path_graph(4), cycle_graph(4))
    argv = ["solve", inst, "--problem", "pifree-oracle", "--family", fam, "--oracle", oracle]
    capsys.readouterr()
    assert main(argv + ["--nu", "4"]) == 1
    assert parse_report(capsys.readouterr().out)["verdict"] == "NO"

    def unreachable(*args, **kwargs):
        raise AssertionError("the solver ran on a refused --nu")

    monkeypatch.setattr(cli, "solve_with_a1", unreachable)
    monkeypatch.setattr(cli, "solve_with_a2", unreachable)
    for nu in ("1", "2", "3"):
        for command in ("solve", "verify"):
            assert main([command, *argv[1:], "--nu", nu]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: --nu {nu} is below the family's largest member"
                                    " (4 vertices)\n")


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("flags, problem", [
    (["--cache-cover"], "oct"),
    (["--cc"], "cvd"),
    (["--low-mem"], "hfree"),
    (["--cpi", "0"], "cvd"),
    (["--pfun", "3"], "pifree-oracle"),
])
def test_route_flag_must_belong_to_problem(tmp_path, capsys, command, flags, problem):
    """A flag that picks a route of another problem is a usage error, not a
    flag that the run ignores while its report names it."""
    inst = write_p3(tmp_path, ell=1)
    family = write_family(tmp_path, path_graph(3))
    family = ["--family", family] if problem in ("hfree", "pifree-oracle") else []
    assert main([command, inst, "--problem", problem, *flags, *family]) == 2
    assert f"{flags[0]} does not apply to --problem {problem}" in capsys.readouterr().err


MISSING = "missing.vcs"  # never read: each flag below is refused before any file is


@pytest.mark.parametrize("argv, message", [
    (["solve", MISSING, "--problem", "cvd", "--nu", "3"],
     "--nu does not apply to --problem cvd"),
    (["verify", MISSING, "--problem", "oct", "--oracle", "a1"],
     "--oracle a1 does not apply to --problem oct"),
    (["solve", MISSING, "--problem", "oct", "--pattern", "p3.fam"],
     "--family does not apply to --problem oct"),
    (["solve", MISSING, "--problem", "hfree", "--pattern", "p3.fam", "--pfun", "3"],
     "--pfun does not apply to --problem hfree"),
    (["verify", MISSING, "--problem", "hfree", "--pattern", "p3.fam", "--cpi", "2",
      "--pfun", "3"], "--pfun does not apply to --problem hfree"),
    (["solve", MISSING, "--problem", "pifree-oracle", "--family", "p3.fam",
      "--oracle", "ecenum", "--nu", "2"],
     "--nu does not apply to --problem pifree-oracle --oracle ecenum"),
    (["kernelize", MISSING, "--alg", "lowrank", "--ell", "1", "--c", "1", "--cpi", "2"],
     "--cpi does not apply to --alg lowrank"),
    (["kernelize", MISSING, "--alg", "reduce", "--r", "1", "--c", "1", "--k", "3"],
     "--k does not apply to --alg reduce"),
    (["kernelize", MISSING, "--alg", "reduce", "--r", "1", "--c", "1", "--q", "2"],
     "--q does not apply to --alg reduce"),
    (["kernelize", MISSING, "--wrap", "largest", "--ell", "1", "--cpi", "2", "--pfun", "3"],
     "--ell does not apply to --alg reduce --wrap largest"),
    (["gen", "planted", "--family", "p3.fam"], "--family does not apply to gen planted"),
    (["gen", "planted", "--x", "11"], "--x does not apply to gen planted"),
    (["gen", "doublefan", "--family", "p3.fam", "--seed", "1"],
     "--seed does not apply to gen doublefan"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_ignored_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    """A flag that the chosen route does not read exits 2, naming the flag
    and the route, before the instance or a family file is opened."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == f"usage error: {message}"
    assert captured.out == ""


# a value for every flag a route of each subcommand reads; "" marks a switch
FLAG_VALUES = {
    "gen": {"n": "6", "k": "2", "p": "0.5", "seed": "3", "ell": "1", "family": "{p4}",
            "split": "1", "centers": "3", "x": "101", "y": "010", "attach_all": ""},
    "kernelize": {"r": "1", "c": "1", "q": "2", "k": "1", "p": "1", "ell": "1", "cpi": "2",
                  "pfun": "3"},
    "solve": {"family": "{p3}", "cpi": "2", "pfun": "3", "nu": "3", "cc": "", "low_mem": "",
              "cache_cover": ""},
}
KEY_FLAGS = {"gen": ("kind",), "kernelize": ("--alg", "--wrap"), "solve": ("--problem", "--oracle")}


def route_argv(command, key, dests, files):
    """The command line that runs route `key` of `command` with `dests`;
    verify runs the solve routes."""
    table = key[0]
    argv = [command] if table == "gen" else [command, files["inst"]]
    for flag, value in zip(KEY_FLAGS[table], key[1:]):
        if value is not None:
            argv += [value] if flag == "kind" else [flag, value]
    for dest in dests:
        value = FLAG_VALUES[table][dest].format(**files)
        argv += ["--" + dest.replace("_", "-")] + ([value] if value else [])
    return argv + (["-o", files["out"]] if table != "solve" else [])


@pytest.fixture(scope="module")
def route_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("routes")
    inst = write_p3(base, ell=1)
    p3 = base / "p3.fam"
    p3.write_text(format_family(ExplicitFamily.from_graphs([path_graph(3)])))
    p4 = base / "p4.fam"
    p4.write_text(format_family(ExplicitFamily.from_graphs([path_graph(4)])))
    return {"inst": inst, "p3": str(p3), "p4": str(p4), "out": str(base / "out.vcs")}


ROUTE_CASES = [(command, key) for key in cli.ROUTES
               for command in (("solve", "verify") if key[0] == "solve" else (key[0],))]


def required_flags(key):
    return [dest for dest, default in cli.ROUTES[key].flags.items() if default is cli.REQUIRED]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_outside_route_exits_2(route_files, capsys, data):
    """Draw a route and a set of flags of its subcommand: the run exits 2
    exactly when a drawn flag is one the route does not read; otherwise it
    answers."""
    command, key = data.draw(st.sampled_from(ROUTE_CASES))
    row, required = cli.ROUTES[key], required_flags(key)
    others = sorted(set(FLAG_VALUES[key[0]]) - set(required))
    drawn = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
    foreign = [dest for dest in drawn if dest not in row.flags]
    code = main(route_argv(command, key, required + drawn, route_files))
    capsys.readouterr()
    assert code == 2 if foreign else code in (0, 1), (command, key, drawn, code)


# the report keys each route printed before the route table existed
SOLVE_KEYS = "verdict solution passes peak_words wall_ms alg instance ell k n"
VERIFY_KEYS = "agreement verdict brute passes peak_words alg ell"
KERNEL_KEYS = "kept passes peak_words wall_ms alg instance"
USER_CHAR_KEYS = KERNEL_KEYS + " cpi pfun char"
REPORT_KEYS = {
    ("gen", "planted"): "wrote n m k",
    ("gen", "doublefan"): "wrote n m k",
    ("kernelize", "reduce", None): KERNEL_KEYS,
    ("kernelize", "reduce", "pifree"): USER_CHAR_KEYS,
    ("kernelize", "reduce", "largest"): USER_CHAR_KEYS,
    ("kernelize", "reduce", "partition"): USER_CHAR_KEYS,
    ("kernelize", "lowrank", None): KERNEL_KEYS,
    ("kernelize", "lowrank", "rankc"): KERNEL_KEYS,
}


@pytest.mark.parametrize("command, key", ROUTE_CASES, ids=str)
def test_route_report_keys_are_unchanged(route_files, capsys, command, key):
    expected = REPORT_KEYS.get(key, VERIFY_KEYS if command == "verify" else SOLVE_KEYS)
    assert main(route_argv(command, key, required_flags(key), route_files)) in (0, 1)
    assert " ".join(parse_report(capsys.readouterr().out.strip())) == expected


@pytest.mark.parametrize("key, flag, extra", [
    (("solve", "cvd", None), "cache_cover", "profile"),
    # hfree reads no --pfun: it runs with the placeholder p(K) = max(1, K)
    (("solve", "hfree", None), "cpi", "cpi char"),
])
def test_route_report_extras_are_unchanged(route_files, capsys, key, flag, extra):
    assert main(route_argv("solve", key, required_flags(key) + [flag], route_files)) in (0, 1)
    report = parse_report(capsys.readouterr().out.strip())
    assert " ".join(report) == f"{SOLVE_KEYS} {extra}"
