"""The four workloads: their items, inputs drawn from the seed, and known answers.

An item is one call into jetquot that ends in a verdict. ``run`` makes
the call; ``check`` receives its return value after the pass and returns
``None`` when it matches the known answer, or a reason naming what is
wrong. Functions are looked up on the jetquot modules at call time, so
that the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, replace
from typing import Callable

import sympy as sp

from jetquot import catalog, cli, hs, invariants, jetcalc, pde
from jetquot.symcore import jet, t, x

import oracle

#: per-item limits in seconds; refute-twins has one per kind of claim
LIMITS = {
    "verify-catalog": 60.0,
    "refute-twins": {"generator": 6.0, "syzygy": 60.0, "quotient": 6.0},
    "discover-syzygy": 30.0,
    "hs-pipeline": 30.0,
}

#: stages each catalog entry verifies, counted by hand from its claims
EXPECTED_STAGES = {
    "burgers-h3": 12, "burgers-full": 12, "ode-reduction": 8,
    "hunter-saxton": 8, "type1-general": 6, "ex1.1": 7, "ex1.2": 7,
    "ex1.3": 7, "type2-general": 6, "ex2.1": 7, "ex2.2": 7, "ex2.3": 7,
    "type3-general": 6, "ex3.1": 7, "ex3.2": 8, "ex3.3": 8,
    "type4-general": 6, "ex4.1": 8, "ex4.2": 7, "ex4.3": 7,
    "disguised": 8, "hs-3dim": 13, "liouville-3dim": 10,
}

#: pairs of discover_syzygy calls (HS and burgers-h3) in one pass
DISCOVERY_PAIRS = 2

u = jet(0, 0)
w = sp.Symbol("w")
I_tok, J_tok, H_tok, K_tok = sp.symbols("I J H K")
HI, HJ = sp.symbols("H_I H_J")


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    limit: float
    #: every zero test of the item that finds zero must be deterministic
    exact: bool = False


# ---------------------------------------------------------------------------
# verify-catalog
# ---------------------------------------------------------------------------


def _check_report(name: str):
    def check(report) -> str | None:
        expected = EXPECTED_STAGES[name]
        if len(report.stages) != expected:
            return f"{name}: {len(report.stages)} stages, expected {expected}"
        for s in report.stages:
            if s.verdict != "exact":
                return f"{name}: stage {s.stage} {s.subject} is {s.verdict}, expected exact"
        return None
    return check


def verify_catalog(seed: int) -> list[Item]:
    names = list(catalog.entries())
    if sorted(names) != sorted(EXPECTED_STAGES):
        raise RuntimeError("catalog entries differ from the benchmark's known answers")
    # a rotation keeps the entries that share a PDE or a frame next to each
    # other, so that which of them pays the shared work varies little
    k = random.Random(seed).randrange(len(names))
    names = names[k:] + names[:k]
    limit = LIMITS["verify-catalog"]
    return [Item(n, lambda n=n: catalog.verify_entry(n), _check_report(n), limit, exact=True)
            for n in names]


# ---------------------------------------------------------------------------
# refute-twins
# ---------------------------------------------------------------------------

#: monomials added to a quotient solution, first I, then on each redraw
#: one of the others
QUOTIENT_PERTURBATIONS = ("I", "J", "I*J", "I**2", "J**2")
MAX_DRAWS = 6


def _delta(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _syzygy_terms(lhs: sp.Expr) -> list[sp.Expr]:
    return sorted(sp.Add.make_args(lhs), key=sp.default_sort_key)


def twin(spec: dict):
    """The perturbed claim a spec describes: a generator, syzygy or solution."""
    e = catalog.get(spec["entry"])
    delta = sp.Rational(spec["delta"])
    if spec["kind"] == "generator":
        X = e.gens[0]
        return jetcalc.VectorField(X.a, X.b, X.c + delta * t**2 * u**2)
    if spec["kind"] == "syzygy":
        terms = _syzygy_terms(e.syzygies[0].lhs)
        coeff, mono = terms[spec["term"]].as_coeff_Mul()
        rest = terms[:spec["term"]] + terms[spec["term"] + 1:]
        return invariants.Syzygy(sp.Add(*rest, (coeff + delta) * mono))
    sol = e.solutions[0].solution
    bump = delta * sp.sympify(spec["monomial"], locals={"I": I_tok, "J": J_tok})
    if sol.h is not None:
        return replace(sol, h=sol.h + bump)
    return replace(sol, implicit=sol.implicit + bump)


def _residuals(spec: dict, perturbed):
    """(original, twin, implicit) restricted residuals for the oracle."""
    e = catalog.get(spec["entry"])
    M = e.manifold
    if spec["kind"] == "generator":
        res = [M.restrict(jetcalc.apply_prolonged(X, M.F, cap=M.cap))
               for X in (e.gens[0], perturbed)]
        return res[0], res[1], None
    if spec["kind"] == "syzygy":
        lhs0, lhs1 = e.syzygies[0].lhs, perturbed.lhs
        tokens = invariants.realize_tokens(sp.Tuple(lhs0, lhs1), e.frame,
                                           e.higher_invariants())
        return M.restrict(lhs0.xreplace(tokens)), M.restrict(lhs1.xreplace(tokens)), None
    spec0 = e.solutions[0]
    lhs = spec0.specialized_syzygy(e.syzygies).lhs
    sol0 = spec0.solution
    res0 = lhs.xreplace(sol0.token_substitution())
    res1 = lhs.xreplace(perturbed.token_substitution())
    implicit = None
    if sol0.implicit is not None:
        implicit = (sp.sympify(sol0.implicit), sp.sympify(perturbed.implicit), sol0.base)
    return res0, res1, implicit


def _claims():
    for name, e in catalog.entries().items():
        yield name, "generator"
        if e.syzygies:
            yield name, "syzygy"
        if e.solutions:
            yield name, "quotient"


def draw_twins(seed: int) -> list[dict]:
    """One twin spec per entry and kind, redrawn while the oracle finds it valid."""
    specs = []
    for name, kind in _claims():
        rng = random.Random(f"{seed}:{name}:{kind}")
        monomials = list(QUOTIENT_PERTURBATIONS)
        for draw in range(1, MAX_DRAWS + 1):
            spec = {"entry": name, "kind": kind, "delta": str(_delta(rng)), "draws": draw}
            if kind == "syzygy":
                spec["term"] = rng.randrange(len(_syzygy_terms(catalog.get(name).syzygies[0].lhs)))
            if kind == "quotient":
                spec["monomial"] = monomials.pop(0 if draw == 1 else rng.randrange(len(monomials)))
            res0, res1, implicit = _residuals(spec, twin(spec))
            spec["oracle"] = oracle.classify(res0, res1, rng, implicit)
            if spec["oracle"] != "valid":
                break
        else:
            raise RuntimeError(f"no invalid twin of {name} {kind} in {MAX_DRAWS} draws")
        specs.append(spec)
    return specs


def _call_twin(spec: dict, perturbed):
    e = catalog.get(spec["entry"])
    if spec["kind"] == "generator":
        return pde.check_symmetry(perturbed, e.manifold).verdict
    if spec["kind"] == "syzygy":
        return invariants.check_syzygy(perturbed, e.frame, e.higher_invariants(), e.manifold)
    return invariants.check_quotient_solution(
        e.solutions[0].specialized_syzygy(e.syzygies), perturbed)


def _check_refuted(spec: dict):
    def check(verdict) -> str | None:
        if verdict.is_zero:
            return (f"{spec['entry']} {spec['kind']} twin (delta {spec['delta']}) "
                    f"verified as {verdict.mode}, expected FAIL")
        return None
    return check


def refute_twins(specs: list[dict]) -> list[Item]:
    items = []
    for spec in specs:
        perturbed = twin(spec)
        items.append(Item(f"{spec['entry']}/{spec['kind']}",
                          lambda s=spec, p=perturbed: _call_twin(s, p),
                          _check_refuted(spec), LIMITS["refute-twins"][spec["kind"]]))
    return items


# ---------------------------------------------------------------------------
# discover-syzygy
# ---------------------------------------------------------------------------

DISCOVERY = {
    "hunter-saxton": ({"H": jet(0, 2)}, 3, 2 * HI - J_tok**2 * HJ + 4 * J_tok * H_tok),
    "burgers-h3": ({"H": jet(0, 3), "K": jet(0, 4)}, 2,
                   J_tok * HI + H_tok * HJ - K_tok),
}


def _check_discovery(name: str, target: sp.Expr):
    def check(result) -> str | None:
        if result.spurious:
            return f"{name}: {len(result.spurious)} spurious candidates"
        for s in result.syzygies:
            ratio = sp.cancel(sp.expand(s.lhs) / target)
            if ratio.is_Number and ratio != 0:
                return None
        return f"{name}: reference syzygy not recovered ({len(result.syzygies)} found)"
    return check


def discover_syzygy(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(DISCOVERY_PAIRS):
        s = rng.randrange(10**6)
        for name, (invs, degree, target) in DISCOVERY.items():
            e = catalog.get(name)
            fr, M = e.frame, e.manifold
            items.append(Item(
                f"{name}/seed{s}",
                lambda invs=invs, fr=fr, M=M, degree=degree, s=s:
                    invariants.discover_syzygy(invs, fr, M, degree=degree, seed=s),
                _check_discovery(name, target), LIMITS["discover-syzygy"], exact=True))
    return items


# ---------------------------------------------------------------------------
# hs-pipeline
# ---------------------------------------------------------------------------

U_SYM = sp.Symbol("u")
G_EXP = -8 / (w * (w + 2) ** 3)
XP_EXP = (-2 * (t - 1) ** 2 / (w + 2) ** 2 + 2 * (t**2 - 1) / (w + 2)
          - sp.log(-w) + sp.log(w + 2))
UP_EXP = 4 * (1 - t) / (w + 2) ** 2 + 4 * t / (w + 2)
C_REF = -t**2 / 2 - t + 2 - sp.log(2)
ELIMINANT_TOL = 1e-10


def surface_exp(tv: float, wv: float) -> tuple[float, float]:
    """x and u on the surface of g = e^w, C = 0, from the antiderivative
    e^w (p - p' + p'') of p(w) e^w for the quadratic integrands."""
    with_exp = math.exp(wv)
    sx = lambda v: (tv * tv * v * v + 4 * tv * v + 4 - 2 * tv * tv * v - 4 * tv + 2 * tv * tv) / 4
    su = lambda v: (tv * v * v + 2 * v - 2 * tv * v - 2 + 2 * tv) / 2
    return with_exp * sx(wv) - sx(0.0), with_exp * su(wv) - su(0.0)


def _dyadic(rng: random.Random, lo: float, hi: float, steps: int = 32) -> float:
    return lo + (hi - lo) * rng.randint(0, steps) / steps


def _times(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    return sorted(rng.sample([lo + (hi - lo) * k / 32 for k in range(33)], n))


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _out_file(name: str) -> str:
    return os.path.join(os.environ[cli.OUTPUT_DIR_ENV], name)


def _check_exit(label: str, then):
    def check(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"{label}: exit {code}: {err.strip()[-200:]}"
        return then(out)
    return check


def _check_surface(name: str):
    def check(out: str) -> str | None:
        with open(_out_file(name)) as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 250:
            return f"hs solve: {len(rows)} rows, expected 250"
        for r in rows:
            if not r["x"]:
                # only the locus t*w + 2 = 0, where u_x blows up, may lack values
                if r["flag"] != "2":
                    return f"hs solve: no value at ({r['t']}, {r['w']}), flag {r['flag']}"
                continue
            tv, wv = float(r["t"]), float(r["w"])
            for got, ref in zip((float(r["x"]), float(r["u"])), surface_exp(tv, wv)):
                if abs(got - ref) > 1e-9 * max(1.0, abs(ref)):
                    return f"hs solve: ({tv}, {wv}) gives {got}, closed form {ref}"
        return None
    return check


def _check_cauchy(name: str):
    def check(out: str) -> str | None:
        with open(_out_file(name)) as fh:
            doc = json.load(fh)
        g = sp.sympify(doc["g"], locals={"w": w})
        for wv in (sp.Rational(1, 3), sp.Rational(-5, 4), sp.Integer(2)):
            if g.subs(w, wv) != 8 / (2 + wv) ** 4:
                return f"hs cauchy: g = {doc['g']}, expected 8/(2+w)^4"
        return None
    return check


def _check_singular_cli(out: str) -> str | None:
    found = re.search(r"\((\d+) singular samples\)", out)
    worst = re.search(r"on curve: (\S+)", out)
    if not found or int(found.group(1)) == 0 or not worst:
        return "hs singular: no singular samples checked"
    if float(worst.group(1)) > ELIMINANT_TOL:
        return f"hs singular: eliminant {worst.group(1)} above {ELIMINANT_TOL}"
    return None


def _check_transform(out: str) -> str | None:
    expr = sp.sympify(out.split("=", 1)[1], locals={"w": w})
    got, ref = float(expr.subs(w, sp.Rational(1, 3))), math.exp(1 / 3 + 2)
    return None if abs(got - ref) < 1e-12 * ref else f"hs transform: g_s = {expr}"


def _check_characteristics(out: str) -> str | None:
    m = re.search(r"halving reduction factor: (\S+)", out)
    if not m or float(m.group(1)) < 12:
        return f"characteristics: reduction factor {m.group(1) if m else 'missing'} below 12"
    return None


def _check_curve(label: str, eliminant: sp.Expr):
    def check(curve) -> str | None:
        if not curve.samples:
            return f"{label}: no singular samples"
        worst = curve.max_violation(eliminant)
        return None if worst <= ELIMINANT_TOL else f"{label}: eliminant {worst:.3e}"
    return check


def hs_pipeline(seed: int) -> list[Item]:
    rng = random.Random(seed)
    limit = LIMITS["hs-pipeline"]
    a = _dyadic(rng, 0.0, 0.5, 16)
    c = _dyadic(rng, -4.0, -3.6)
    lo, hi = _dyadic(rng, -0.9, -0.7, 8), _dyadic(rng, 0.7, 0.9, 8)
    sing_times = ",".join(str(v) for v in _times(rng, 1.5, 2.5, 3))
    q_times, e_times = _times(rng, 1.5, 3.0, 4), _times(rng, 1.5, 2.5, 3)
    surface, cauchy = "bench_surface.csv", "bench_cauchy.json"
    commands = [
        ("cli/hs-solve", ["hs", "solve", "--g", "exp(w)", "--C", "0",
                          "--t", f"{a}:{a + 2}:0.5", f"--w={c}:{c + 4.5}",
                          "--out", surface], _check_surface(surface)),
        ("cli/hs-cauchy", ["hs", "cauchy", "--t0", "1", "--u0", "x^2",
                           f"--w-window={lo}:{hi}", "--out", cauchy],
         _check_cauchy(cauchy)),
        ("cli/hs-singular", ["hs", "singular", "--from-cauchy", "x^2", "--t0", "1",
                             "--C=-(t-1)^2/3", "--times", sing_times,
                             "--check", "3*x^2*u^2+4*x^3-u^3+1", "--tol", "1e-10",
                             "--out", "bench_singular.csv"], _check_singular_cli),
        ("cli/hs-transform", ["hs", "transform", "--generator", "projective",
                              "--s", "1", "--g", "exp(w)"], _check_transform),
        ("cli/characteristics", ["catalog", "characteristics", "hunter-saxton",
                                 "--span", "0:1", "--step", "0.02",
                                 "--out", "bench_characteristics.csv"],
         _check_characteristics),
    ]
    items = [Item(label, lambda argv=argv: _cli(argv), _check_exit(label, then), limit)
             for label, argv, then in commands]
    sol_q = lambda: hs.general_solution(8 / (2 + w) ** 4, -((t - 1) ** 2) / 3,
                                        validity=(w + 2,))
    sol_e = lambda: hs.closed_form_solution(G_EXP, C_REF, XP_EXP, UP_EXP,
                                            validity=(w, w + 2))
    items.append(Item("scan/quartic",
                      lambda: hs.singular_curve(sol_q(), q_times, w_window=(-1.9, -0.1)),
                      _check_curve("scan/quartic",
                                   3 * x**2 * U_SYM**2 + 4 * x**3 - U_SYM**3 + 1), limit))
    items.append(Item("scan/exponential",
                      lambda: hs.singular_curve(sol_e(), e_times, w_window=(-1.999, -1e-3)),
                      _check_curve("scan/exponential", 2 * U_SYM - sp.exp(2 - x)), limit))
    return items


def build(workload: str, seed: int, specs: list[dict] | None = None) -> list[Item]:
    if workload == "verify-catalog":
        return verify_catalog(seed)
    if workload == "refute-twins":
        return refute_twins(specs)
    if workload == "discover-syzygy":
        return discover_syzygy(seed)
    if workload == "hs-pipeline":
        return hs_pipeline(seed)
    raise ValueError(f"unknown workload {workload!r}")
