"""Command-line interface: dispatch, exit codes, deterministic artifacts."""

import json

import pytest

from jetquot import hs
from jetquot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_entry(capsys):
    code, out, _ = run(capsys, "verify", "ode-reduction")
    assert code == 0
    assert "[ode-reduction]" in out
    assert "exact" in out


def test_verify_unknown_entry(capsys):
    code, _, err = run(capsys, "verify", "no-such-entry")
    assert code == 2
    assert "unknown entry" in err


def test_verify_json_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "ex3.3", "--json", "--out", "rep.json")
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert all(s["verdict"] in ("exact", "probabilistic")
               for s in doc["ex3.3"])


# ---------------------------------------------------------------------------
# hs
# ---------------------------------------------------------------------------


def test_hs_solve_writes_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "solve", "--g", "exp(w)", "--C", "0",
                       "--t", "0:2.5:0.5", "--w", "-4:0.9:0.1")
    assert code == 0
    lines = (tmp_path / "hs_surface.csv").read_text().strip().split("\n")
    assert lines[0] == "t,w,x,u,u_x,flag"
    assert len(lines) == 6 * 50 + 1
    assert "nan" not in "\n".join(lines).lower()


def test_hs_solve_deterministic_output(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(capsys, "hs", "solve", "--g", "w^2+1", "--C", "t",
                         "--t", "0:1:0.5", "--w", "-1:1:0.5", "--out", name)
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("g", ["sqrt(w)", "w^(1/3)"])
def test_hs_solve_flags_roots_of_negative_w(capsys, tmp_path, monkeypatch, g):
    # no real value where w < 0: those rows carry flag 3 and empty x, u
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "hs", "solve", "--g", g, "--C", "0",
                     "--t", "0:1:0.5", "--w", "-1:1:0.5")
    assert code == 0
    rows = [r.split(",") for r in (tmp_path / "hs_surface.csv").read_text().split()[1:]]
    assert len(rows) == 15
    for tv, wv, xs, us, _, flag in rows:
        if float(wv) < 0:
            assert (xs, us, flag) == ("", "", "3")
        else:
            assert flag in "02" and xs != ""


def test_hs_solve_residual_grid_excludes_failed_points(capsys, tmp_path, monkeypatch):
    # sqrt(w) has no real value where w < 0: those points are excluded,
    # not fatal to the residual check
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "solve", "--g", "sqrt(w)", "--C", "0",
                       "--t", "0:1:0.5", "--w", "-1:1:0.5", "--residual-grid")
    assert code == 0
    assert "over 6 points (9 excluded)" in out


def test_hs_solve_residual_grid_fails_when_no_point_is_evaluated(capsys, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, err = run(capsys, "hs", "solve", "--g", "exp(w)", "--C", "0",
                         "--t", "0:1:0.5", "--w", "-0.5:0.5:0.5",
                         "--validity", "sqrt(-1-w^2)", "--residual-grid")
    assert code == 1
    assert "over 0 points (9 excluded)" in out and "no grid point" in err


@pytest.mark.parametrize("g, C", [("(w^2+1)/(w-3)^3", "t^2"), ("1/((w-3)^2*(w^2+1))", "0")])
def test_hs_solve_residual_grid_with_a_log_part_negative_at_zero(capsys, tmp_path,
                                                                 monkeypatch, g, C):
    # the moments hold c*log(a(w)) with a(0) = -3 < 0: written as
    # c*log(a(w)/a(0)) they are real on the grid, where w < 3
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "solve", "--g", g, "--C", C, "--t", "0:2:0.5",
                       "--w=-1:0.9:0.1", "--residual-grid")
    assert code == 0
    assert "over 99 points (1 excluded)" in out


def test_hs_cauchy_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "cauchy", "--t0", "1", "--u0", "x^2")
    assert code == 0
    assert "8/(" in out.replace(" ", "")
    doc = json.loads((tmp_path / "hs_cauchy.json").read_text())
    assert float(doc["residual"]["max"]) < 1e-10


def test_hs_singular_with_check(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(
        capsys, "hs", "singular",
        "--from-cauchy", "x^2", "--t0", "1", "--C", "-(t-1)^2/3",
        "--times", "1.5,2,2.5", "--w-window", "-1.9:-0.1",
        "--check", "3*x^2*u^2+4*x^3-u^3+1", "--tol", "1e-10")
    assert code == 0
    assert "singular samples" in out
    rows = (tmp_path / "hs_singular.csv").read_text().strip().split("\n")
    assert rows[0] == "t,w,x,u"
    assert len(rows) >= 4


def test_hs_cauchy_and_singular_read_t0_exactly(capsys, tmp_path, monkeypatch):
    # a float t0 put fit_C over RR, where its polynomial division failed
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "cauchy", "--t0", "0.5", "--u0", "x^2")
    assert code == 0
    assert "g(w) = 128/(w**4 + 16*w**3 + 96*w**2 + 256*w + 256)" in out
    assert json.loads((tmp_path / "hs_cauchy.json").read_text())["t0"] == "1/2"
    code, out, _ = run(capsys, "hs", "singular", "--from-cauchy", "x^2",
                       "--t0", "0.5", "--times", "1.5")
    assert code == 0
    assert "singular samples" in out
    code, _, err = run(capsys, "hs", "cauchy", "--t0", "x", "--u0", "x^2")
    assert code == 1 and "--t0 must be a number" in err


def test_hs_cauchy_integrates_each_antiderivative_once(capsys, tmp_path, monkeypatch):
    # fitting C and adding it reuse the surface with C = 0, whose three
    # moments are the only integrals taken
    from jetquot import hs

    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    calls = []
    closed = hs._closed
    monkeypatch.setattr(hs, "_closed", lambda e: calls.append(e) or closed(e))
    code, out, _ = run(capsys, "hs", "cauchy", "--t0", "1", "--u0", "x^2")
    assert code == 0 and "C(t) = 0" in out
    assert len(calls) == 3
    code, _, _ = run(capsys, "hs", "singular", "--from-cauchy", "x^2", "--times", "1.5")
    assert code == 0 and len(calls) == 6


def test_hs_transform(capsys):
    code, out, _ = run(capsys, "hs", "transform", "--generator", "projective",
                       "--s", "1", "--g", "exp(w)")
    assert code == 0
    assert "w + 2" in out


@pytest.mark.parametrize("g, s, printed", [
    ("exp(w)", "1", ["16*exp(-2*w/(w - 2))/(w - 2)**4", "exp(w*exp(-1))", "exp(w - 1)",
                     "exp(w + 2)"]),
    ("1/(w^3+2)", "2", ["1/(w**4 - 7*w**3 + 12*w**2 - 8*w + 2)", "exp(6)/(w**3 + 2*exp(6))",
                        "1/(w**3*exp(2) + 2*exp(2))", "1/(w**3 + 12*w**2 + 48*w + 66)"]),
    ("sqrt(w+3)", "1/2", ["256*sqrt(-4*w/(w - 4) + 3)/(w - 4)**4", "sqrt(w*exp(-1/2) + 3)",
                          "sqrt(w + 3)*exp(-1/2)", "sqrt(w + 4)"]),
], ids=["exp", "cubic", "root"])
def test_hs_transform_prints_each_label(capsys, g, s, printed):
    # one per generator, in the order of hs.GENERATORS
    for generator, label in zip(hs.GENERATORS, printed, strict=True):
        code, out, _ = run(capsys, "hs", "transform", "--generator", generator, "--s", s, "--g", g)
        assert code == 0
        assert out == f"g_s(w) = {label}\n"


def test_hs_cauchy_prints_the_label_of_a_cubic_slice(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "hs", "cauchy", "--t0", "1", "--u0", "x^3")
    assert code == 0
    assert out.splitlines()[0] == (
        "g(w) = -4*sqrt(6)/(3*sqrt(w/(w + 2))*(w**4 + 8*w**3 + 24*w**2 + 32*w + 16))")


def test_hs_transform_unknown_generator(capsys):
    code, _, err = run(capsys, "hs", "transform", "--generator", "bogus",
                       "--s", "1", "--g", "exp(w)")
    assert code == 2


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [ln.split()[0] for ln in out.strip().split("\n")[:-1]]
    assert len(names) >= 14
    assert "hunter-saxton" in names


def test_catalog_solve(capsys):
    code, out, _ = run(capsys, "catalog", "solve", "ex3.3",
                       "--g", "x", "--C", "t")
    assert code == 0
    assert "exact zero" in out


def test_catalog_solve_unknown(capsys):
    code, _, err = run(capsys, "catalog", "solve", "nope")
    assert code == 2


def test_catalog_solve_invalid_parameter(capsys):
    code, _, err = run(capsys, "catalog", "solve", "ex4.1",
                       "--g", "x", "--C", "t", "--param", "A=1")
    assert code == 1
    assert "A = 1" in err


def test_catalog_solve_rejects_an_undeclared_parameter(capsys):
    code, _, err = run(capsys, "catalog", "solve", "ex3.2", "--param", "case=riccati")
    assert code == 1 and "case" in err
    code, out, _ = run(capsys, "catalog", "solve", "ex3.2")
    assert code == 0 and "exact zero" in out


def test_catalog_characteristics(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "catalog", "characteristics", "hunter-saxton",
                       "--span", "0:1", "--step", "0.02")
    assert code == 0
    factor = float(out.split("halving reduction factor:")[1].split()[0])
    assert factor >= 12
    rows = (tmp_path / "characteristics.csv").read_text().strip().split("\n")
    assert rows[0] == "curve,I,J,H,flag"


def test_catalog_characteristics_rejects_an_undeclared_parameter(capsys, tmp_path,
                                                                 monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, _, err = run(capsys, "catalog", "characteristics", "hunter-saxton",
                       "--span", "0:1", "--step", "0.02", "--param", "Q=7")
    assert code == 1 and "no parameter Q" in err
    assert not (tmp_path / "characteristics.csv").exists()


# ---------------------------------------------------------------------------
# expr
# ---------------------------------------------------------------------------


def test_expr_parse(capsys):
    code, out, _ = run(capsys, "expr", "parse", "u_xt + u*u_xx")
    assert code == 0
    assert "u_tx" in out


@pytest.mark.parametrize("text, printed", [
    ("u_x^(a+b)*u^(1/2)", "sqrt(u)*u_x**a*u_x**b"),
    ("exp(A/(1-A))*u_x^(A/(1-A))", "u_x**(A/(1 - A))*exp(A/(1 - A))"),
    ("u_x^(A/(A-1))*u_x^(1/(1-A))", "u_x"),
    ("exp(u_x/(1-A))*exp(1/2)", "exp(1/2)*exp(u_x/(1 - A))"),
], ids=["sum of symbols", "parameter ratio", "ratios summing to 1", "exp"])
def test_expr_parse_symbolic_exponents(capsys, text, printed):
    # every term of an exponent is a power of its own kernel
    code, out, _ = run(capsys, "expr", "parse", text)
    assert code == 0
    assert out == printed + "\n"


def test_expr_diff_total_and_partial(capsys):
    code, out, _ = run(capsys, "expr", "diff", "u_x^2", "x")
    assert code == 0
    assert "u_xx" in out
    code, out, _ = run(capsys, "expr", "diff", "t*u_x", "t", "--partial")
    assert code == 0
    assert out.strip() == "u_x"


@pytest.mark.parametrize("argv, printed", [
    (("int(g(v)*u, v, 0, u_x) + u_x^2", "t"),
     "u*u_tx*g(u_x) + u_t*Integral(g(v), (v, 0, u_x)) + 2*u_tx*u_x"),
    (("int(exp(v)*g(v)*u_x, v, 0, u_x*u) + int(int(g(s)*u, s, 0, v), v, 0, u_t)", "x"),
     "u*u_tx*Integral(g(s), (s, 0, u_t)) + u*u_x*u_xx*exp(u*u_x)*g(u*u_x)"
     " + u_x**3*exp(u*u_x)*g(u*u_x) + u_x*Integral(g(s), (s, 0, v), (v, 0, u_t))"
     " + u_xx*Integral(exp(v)*g(v), (v, 0, u*u_x))"),
    (("u_x^A*u + A^u + sqrt(u_x)/u^(1/3)", "x"),
     "(6*A*u**3*u_x**A*u_xx + 6*A**u*u**2*u_x**2*log(A) + 3*u**(5/3)*sqrt(u_x)*u_xx"
     " - 2*u**(2/3)*u_x**(5/2) + 6*u**2*u_x**2*u_x**A)/(6*u**2*u_x)"),
    (("u_x^A*u + A^u", "u_x", "--partial"), "A*u*u_x**A/u_x"),
    (("f(u, u_x, u)*g(u_x) + f(t, x, u)", "t"),
     "u_t*f_1(u, u_x, u)*g(u_x) + u_t*f_3(t, x, u) + u_t*f_3(u, u_x, u)*g(u_x)"
     " + u_tx*f(u, u_x, u)*g'(u_x) + u_tx*f_2(u, u_x, u)*g(u_x) + f_1(t, x, u)"),
    (("f(u, u_x, u)*g(u_x) + f(t, x, u)", "u", "--partial"),
     "f_1(u, u_x, u)*g(u_x) + f_3(t, x, u) + f_3(u, u_x, u)*g(u_x)"),
], ids=["integral bound", "nested integral", "symbolic power", "symbolic power partial",
        "formal function", "formal function partial"])
def test_expr_diff_prints_the_same_normal_form(capsys, argv, printed):
    code, out, _ = run(capsys, "expr", "diff", *argv)
    assert code == 0
    assert out == printed + "\n"


def test_expr_zero(capsys):
    code, out, _ = run(capsys, "expr", "zero", "(u+u_x)^2 - u^2 - 2*u*u_x - u_x^2")
    assert code == 0
    assert "True" in out
    code, out, _ = run(capsys, "expr", "zero", "u_x + 1", "--seed", "5")
    assert code == 1


# ---------------------------------------------------------------------------
# JSON problem files
# ---------------------------------------------------------------------------


def _write(tmp_path, doc):
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_verify_action(capsys, tmp_path):
    path = _write(tmp_path, {"entry": "ode-reduction", "action": "verify"})
    code, out, _ = run(capsys, "run", path)
    assert code == 0
    assert "[ode-reduction]" in out


def test_run_solve_action(capsys, tmp_path):
    path = _write(tmp_path, {"entry": "ex3.3", "action": "solve",
                             "parameters": {"g": "x", "C": "t"}})
    code, out, _ = run(capsys, "run", path)
    assert code == 0
    assert "exact zero" in out


def test_run_rejects_unknown_keys(capsys, tmp_path):
    path = _write(tmp_path, {"entry": "ex3.3", "action": "solve",
                             "parameters": {"g": "x"}, "extra": 1})
    code, _, err = run(capsys, "run", path)
    assert code == 2
    assert "rejected" in err
    path = _write(tmp_path, {"action": "solve", "parameters": {"bogus": "1"}})
    code, _, err = run(capsys, "run", path)
    assert code == 2


def test_run_cauchy_action_passes_times(capsys, tmp_path):
    times = [1, 1.5, 2]
    out = tmp_path / "cauchy.json"
    path = _write(tmp_path, {"action": "cauchy",
                             "parameters": {"t0": 1, "u0": "x^2", "times": times,
                                            "out": str(out)}})
    code, _, _ = run(capsys, "run", path)
    assert code == 0
    # the default residual window has 20 points per time
    assert json.loads(out.read_text())["residual"]["evaluated"] == len(times) * 20


def test_run_rejects_missing_required_parameters(capsys, tmp_path):
    for doc in ({"action": "cauchy", "parameters": {"t0": 1}},
                {"action": "transform", "parameters": {"g": "w"}},
                {"action": "characteristics"}):
        code, _, err = run(capsys, "run", _write(tmp_path, doc))
        assert code == 2 and "rejected" in err


def test_run_rejects_tolerances(capsys, tmp_path, monkeypatch):
    # no problem-file key turns on the residual check that --tol gates
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    path = _write(tmp_path, {"action": "solve",
                             "parameters": {"tolerances": {"zero": 1e-8}}})
    code, _, err = run(capsys, "run", path)
    assert code == 2 and "problem file rejected" in err


def test_run_transform_action(capsys, tmp_path):
    path = _write(tmp_path, {"action": "transform",
                             "parameters": {"generator": "scaling", "s": 1,
                                            "g": "exp(w)"}})
    code, out, _ = run(capsys, "run", path)
    assert code == 0
    assert "exp" in out


def test_hs_transform_does_not_evaluate_python(capsys):
    # --s goes through the expression parser, which evaluates nothing
    code, out, err = run(capsys, "hs", "transform", "--generator", "projective",
                         "--s", "__import__('os').getpid()", "--g", "exp(w)")
    assert code != 0
    assert "cannot parse expression" in err
    assert out == ""


def test_run_transform_with_exponent_number(capsys, tmp_path):
    # a problem-file number reaches --s as str(float), here "1e-05"
    path = _write(tmp_path, {"action": "transform",
                             "parameters": {"generator": "projective", "s": 1e-05,
                                            "g": "exp(w)"}})
    code, out, _ = run(capsys, "run", path)
    assert code == 0
    assert "w + 1/50000" in out


def test_run_rejects_epsilon(capsys, tmp_path):
    # no catalog entry has a parameter epsilon
    path = _write(tmp_path, {"action": "solve", "entry": "ex4.1",
                             "parameters": {"g": "x", "C": "t", "A": 2, "epsilon": 0.1}})
    code, _, err = run(capsys, "run", path)
    assert code == 2 and "problem file rejected" in err


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def _readme_commands():
    """The jetquot commands of the README "Command line" block, with
    continuation lines joined and comments dropped."""
    import pathlib
    import shlex

    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in commands if argv and argv[:2] != ["jetquot", "run"]]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, _, err = run(capsys, *argv)
    assert code == 0, err
