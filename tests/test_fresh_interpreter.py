"""What only a fresh interpreter shows: the modules the cold path loads,
what reaches stderr, and that the benchmark's tracer finds every
function it wraps."""

import json
import os
import pathlib
import subprocess
import sys

import jetquot

_SRC = str(pathlib.Path(jetquot.__file__).parents[1])
_PERFBENCH = str(pathlib.Path(jetquot.__file__).parents[2] / "perfbench")


def python(code: str, tmp_path, *args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "JETQUOT_OUTPUT_DIR": str(tmp_path)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, cwd=tmp_path, env=env, timeout=300)


_HEAVY = 'sorted(m for m in sys.modules if m.startswith(("scipy", "numpy")))'


def test_cold_path_loads_neither_scipy_nor_numpy(tmp_path):
    code = f"""
import json, sys
import jetquot
from jetquot import catalog, cli
after_import = {_HEAVY}
catalog.entries()
singular = cli.main(["hs", "singular", "--from-cauchy", "x^2", "--t0", "1",
                     "--C=-(t-1)^2/3", "--times", "1.5,2,2.5",
                     "--check", "3*x^2*u^2+4*x^3-u^3+1", "--tol", "1e-10"])
verify = cli.main(["verify", "hunter-saxton"])
print(json.dumps([after_import, singular, verify, {_HEAVY}]))
"""
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    after_import, singular, verify, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert (singular, verify) == (0, 0)
    assert after_import == [] and after_run == []


def test_integral_loads_scipy_when_compiled(tmp_path):
    code = """
import json, math, sys
import sympy as sp
from jetquot.symcore import compile_numeric
z, s = sp.symbols("z s")
before = "scipy" in sys.modules
f = compile_numeric(sp.Integral(sp.exp(-z**2), (z, 0, s)), (s,))
print(json.dumps([before, "scipy" in sys.modules, f(1.0) - math.sqrt(math.pi) * math.erf(1) / 2]))
"""
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    before, after, error = json.loads(proc.stdout)
    assert not before and after
    assert abs(error) < 1e-12


def test_divergent_quadrature_prints_no_scipy_warning(tmp_path):
    code = "import sys; from jetquot.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = python(code, tmp_path, "hs", "solve", "--g", "-8/(w*(w+2)^3)", "--C", "0",
                  "--t", "0:1:0.5", "--w=-0.5:0.5:0.5", "--residual-grid")
    assert proc.returncode == 1
    assert "no grid point could be evaluated" in proc.stderr
    assert "IntegrationWarning" not in proc.stderr


def test_readme_commands_load_no_physics_units(tmp_path):
    # sympy.physics.units costs a fifth of a second; sp.solve's solution
    # check imports it, and so does every sp.simplify
    code = """
import json, sys
from jetquot import cli
codes = [cli.main(argv) for argv in (
    ["verify", "hunter-saxton"],
    ["hs", "solve", "--g", "exp(w)", "--C", "0", "--t", "0:2.5:0.5", "--w=-4:0.9:0.1"],
    ["hs", "cauchy", "--t0", "1", "--u0", "x^2"],
    ["hs", "singular", "--from-cauchy", "x^2", "--t0", "1", "--C=-(t-1)^2/3",
     "--times", "1.5,2,2.5", "--check", "3*x^2*u^2+4*x^3-u^3+1", "--tol", "1e-10"],
    ["hs", "transform", "--generator", "projective", "--s", "1", "--g", "exp(w)"],
    ["catalog", "list"],
    ["catalog", "solve", "ex3.3", "--g", "x", "--C", "t"],
    ["catalog", "characteristics", "hunter-saxton", "--span", "0:1", "--step", "0.02"],
    ["expr", "parse", "u_xt + u*u_xx"],
    ["expr", "diff", "u_x^2", "x"],
    ["expr", "zero", "(u+u_x)^2 - u^2 - 2*u*u_x - u_x^2"],
)]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("sympy.physics"))]))
"""
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, physics = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 11 and physics == []


def test_quadrature_nodes_are_never_built_by_mpmath(tmp_path):
    # mpmath builds its degree-6 nodes at 40 digits in about a quarter of a
    # second; its own builder may be called only for the closed-form degree 1
    code = """
import json
import sympy as sp
from mpmath.calculus.quadrature import GaussLegendre
from jetquot.symcore import _FastGaussLegendre, is_zero, parse
built = []
calc_nodes = GaussLegendre.calc_nodes
def spy(self, degree, prec, verbose=False):
    built.append(degree)
    return calc_nodes(self, degree, prec, verbose)
GaussLegendre.calc_nodes = spy
verdict = is_zero(parse("int(exp(v)/(1+v^2), v, 0, u)") + sp.Rational(1, 7))
fast = sorted({degree for degree, _ in _FastGaussLegendre._nodes})
print(json.dumps([verdict.mode, type(verdict.witness).__name__, built, fast]))
"""
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    mode, witness, built, fast = json.loads(proc.stdout.splitlines()[-1])
    assert (mode, witness) == ("nonzero", "Float")
    assert set(built) <= {1} and fast[-1] >= 4


def test_benchmark_tracer_wraps_every_layer(tmp_path):
    # install looks up each wrapped function by name and raises KeyError
    # or AttributeError once one is renamed or deleted
    code = f"""
import json, sys
sys.path.insert(0, {_PERFBENCH!r})
import layers, spans, workloads
layers.install(spans.Tracer())
print(json.dumps([len(workloads.build(w, 1))
                  for w in ("verify-catalog", "discover-syzygy", "hs-pipeline")]))
"""
    proc = python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert all(json.loads(proc.stdout.splitlines()[-1]))
