"""Stage 2 of is_zero: random evaluation at 40 digits.

Covers that the sample point does not depend on the hash seed, that
formal integrals are evaluated by quadrature and never integrated
symbolically, that quadrature neither hides a nonzero value nor turns a
divergent integral into a verdict, the resample count, and that a
value which cancels to all 40 digits is a zero sample.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import sympy as sp
import sympy.integrals.risch

import jetquot
from jetquot import catalog, cli, symcore
from jetquot.invariants import I_tok, check_quotient_solution
from jetquot.symcore import (
    IndeterminateZeroTest,
    formal,
    formal_integral,
    is_zero,
    t,
    x,
)

a, b, c = sp.symbols("a b c")
v, s = sp.symbols("v s")
g = formal("g")
DELTA = sp.Rational(1, 3)
# zero by the substitution v = I*s, which stage 1 does not see
SCALED = formal_integral(g(v), v, I_tok) - I_tok * formal_integral(g(I_tok * s), s, 1)


def _witness(hash_seed: str) -> str:
    src = str(Path(jetquot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sympy as sp\n"
            "from jetquot.symcore import formal, is_zero, t, x\n"
            "a, b, c = sp.symbols('a b c')\n"
            "print(is_zero(formal('g')(t)*a + b*x - c*t + sp.Rational(1, 3)).witness)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_stage2_point_does_not_depend_on_the_hash_seed():
    # this interpreter's hash seed is a third one
    verdict = is_zero(g(t) * a + b * x - c * t + sp.Rational(1, 3))
    assert verdict.mode == "nonzero" and verdict.samples == 1
    assert _witness("0") == _witness("3") == str(verdict.witness)


@pytest.mark.parametrize("name", ["ex2.1", "ex4.3"])
def test_stage2_never_integrates_symbolically(name, monkeypatch):
    e = catalog.get(name)
    spec = e.solutions[0]
    syzygy = spec.specialized_syzygy(e.syzygies)
    twin = replace(spec.solution, h=spec.solution.h + DELTA * I_tok)

    def refuse(*args, **kwargs):
        raise AssertionError("stage 2 integrated symbolically")

    monkeypatch.setattr(sp.Integral, "doit", refuse)
    monkeypatch.setattr(sympy.integrals.risch, "risch_integrate", refuse)
    verdict = check_quotient_solution(syzygy, twin)
    assert not verdict.is_zero and verdict.mode == "nonzero"
    assert verdict.samples >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quadrature_keeps_the_verdict_sound(seed):
    zero = is_zero(SCALED, seed=seed)
    assert zero.is_zero and zero.mode == "probabilistic"
    assert zero.samples >= 8
    nonzero = is_zero(SCALED + I_tok / 10**6, seed=seed)
    assert not nonzero.is_zero and nonzero.mode == "nonzero"
    assert 1 <= nonzero.samples <= 32
    # a divergent integral fails quadrature at every point: no verdict
    with pytest.raises(IndeterminateZeroTest):
        is_zero(formal_integral(1 / v, v, I_tok), seed=seed)


def test_samples_count_rejected_points(monkeypatch):
    assert is_zero((a + b)**2 - a**2 - 2*a*b - b**2).samples == 0
    probe = symcore._numeric_probe
    rejected = []

    def reject_three(e, rng):
        if len(rejected) < 3:
            rejected.append(probe(e, rng))
            return None
        return probe(e, rng)

    monkeypatch.setattr(symcore, "_numeric_probe", reject_three)
    verdict = is_zero(SCALED, samples=5)
    assert verdict.mode == "probabilistic" and verdict.samples == 3 + 5


@pytest.mark.parametrize("identity", [
    sp.sin(x)**2 + sp.cos(x)**2 - 1,
    sp.log(2 * x) - sp.log(2) - sp.log(x),
], ids=["pythagoras", "log of a product"])
def test_stage2_counts_a_value_that_cancels_exactly_as_zero(identity):
    # evalf reports such a value as a 1-bit Float like -0.e-172
    zero = is_zero(identity)
    assert zero.is_zero and zero.mode == "probabilistic"
    nonzero = is_zero(identity + x / 1000)
    assert not nonzero.is_zero and nonzero.mode == "nonzero"


@pytest.mark.parametrize("seed", [20260823, 2])
def test_an_unresolved_zero_with_large_terms_is_not_a_refutation(seed):
    # at seed 2, evalf's zero of this identity carries an error bound near
    # 1e73: a bad sample, not a witness that it is nonzero
    scaled = x**60 * sp.exp(x)**10 * (sp.sin(x)**2 + sp.cos(x)**2 - 1)
    assert is_zero(scaled, seed=seed).is_zero


def test_expr_zero_confirms_a_trigonometric_identity(capsys):
    assert cli.main(["expr", "zero", "sin(x)^2+cos(x)^2-1"]) == 0
    assert "probabilistic" in capsys.readouterr().out
