"""Command-line interface: dispatch, exit codes, deterministic artifacts."""

import json

import pytest

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


def test_hs_transform(capsys):
    code, out, _ = run(capsys, "hs", "transform", "--generator", "projective",
                       "--s", "1", "--g", "exp(w)")
    assert code == 0
    assert "w + 2" in out


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


def test_catalog_characteristics(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("JETQUOT_OUTPUT_DIR", str(tmp_path))
    code, out, _ = run(capsys, "catalog", "characteristics", "hunter-saxton",
                       "--span", "0:1", "--step", "0.02")
    assert code == 0
    factor = float(out.split("halving reduction factor:")[1].split()[0])
    assert factor >= 12
    rows = (tmp_path / "characteristics.csv").read_text().strip().split("\n")
    assert rows[0] == "curve,I,J,H,flag"


# ---------------------------------------------------------------------------
# expr
# ---------------------------------------------------------------------------


def test_expr_parse(capsys):
    code, out, _ = run(capsys, "expr", "parse", "u_xt + u*u_xx")
    assert code == 0
    assert "u_tx" in out


def test_expr_diff_total_and_partial(capsys):
    code, out, _ = run(capsys, "expr", "diff", "u_x^2", "x")
    assert code == 0
    assert "u_xx" in out
    code, out, _ = run(capsys, "expr", "diff", "t*u_x", "t", "--partial")
    assert code == 0
    assert out.strip() == "u_x"


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


def test_run_transform_action(capsys, tmp_path):
    path = _write(tmp_path, {"action": "transform",
                             "parameters": {"generator": "scaling", "s": 1,
                                            "g": "exp(w)"}})
    code, out, _ = run(capsys, "run", path)
    assert code == 0
    assert "exp" in out
