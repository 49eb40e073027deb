"""The worked-example database: verification, instantiation, characteristics."""

import math

import pytest
import sympy as sp

from jetquot import catalog
from jetquot.cli import main
from jetquot.catalog import (
    CharacteristicsError,
    ParameterError,
    UnknownEntryError,
    characteristics_solve,
    entries,
    get,
    instantiate,
    verify_entry,
)
from jetquot.invariants import InvarianceReport
from jetquot.pde import SymmetryVerdict
from jetquot.symcore import ZeroVerdict, jet, t, x

u, u_x, u_xx = jet(0, 0), jet(0, 1), jet(0, 2)


def test_catalog_size_and_lookup():
    assert len(entries()) >= 14
    assert get("hunter-saxton").name == "hunter-saxton"
    with pytest.raises(UnknownEntryError):
        get("no-such-entry")


def test_entry_descriptions_nonempty():
    for e in entries().values():
        assert e.description
        assert e.F.free_symbols


@pytest.mark.parametrize("name", [
    "ode-reduction", "hunter-saxton", "ex2.3", "ex3.3", "ex4.1", "disguised",
])
def test_verify_entry_passes(name):
    report = verify_entry(name)
    assert report.passed, report.summary()


def test_verify_report_summary_format():
    report = verify_entry("ode-reduction")
    text = report.summary()
    assert "[ode-reduction]" in text
    assert "reconstruction" in text


def test_frame_duality_all_entries():
    for name, e in entries().items():
        fr = e.frame
        assert all(r == 0 for r in fr.duality_residuals()), name


@pytest.mark.parametrize("verdict, mode, residual", [
    (ZeroVerdict(True, "probabilistic", expr=sp.sin(x)**2 + sp.cos(x)**2 - 1),
     "probabilistic", None),
    (ZeroVerdict(False, "nonzero", expr=x), "fail", x),
], ids=["probabilistic", "fail"])
def test_frame_duality_stage_reads_the_verdicts(monkeypatch, verdict, mode, residual):
    frame = type(get("ode-reduction").frame)
    monkeypatch.setattr(frame, "duality_verdicts", lambda self: [verdict])
    stage = next(s for s in verify_entry("ode-reduction").stages
                 if s.stage == "frame-duality")
    assert (stage.verdict, stage.residual) == (mode, residual)


FAILED = ZeroVerdict(False, "nonzero", expr=x)

#: (stage, entry, module attribute, stand-in) making one kind of claim fail
_FAILING_CHECKS = [
    ("symmetry", "ex3.3", "check_symmetry", lambda X, M: SymmetryVerdict(FAILED)),
    ("invariance", "ex3.3", "check_invariant",
     lambda e, gens, M: InvarianceReport(e, [(X, FAILED) for X in gens])),
    ("frame-duality", "ex3.3", None, None),
    ("commutation", "hunter-saxton", "check_commutation", lambda fr, M, probe: FAILED),
    ("syzygy", "ex3.3", "check_syzygy", lambda s, fr, bindings, M: FAILED),
    ("quotient-solution", "ex3.3", "check_quotient_solution", lambda s, sol: FAILED),
    # the Tresse frame of ex3.3 zero-tests through invariants, not catalog
    ("reconstruction", "ex3.3", "is_zero", lambda e: FAILED),
]


@pytest.mark.parametrize("stage, entry, attr, stand_in", _FAILING_CHECKS,
                         ids=[c[0] for c in _FAILING_CHECKS])
def test_every_failing_stage_carries_its_certificate(monkeypatch, capsys, stage, entry,
                                                     attr, stand_in):
    if attr is None:
        monkeypatch.setattr(type(get(entry).frame), "duality_verdicts", lambda self: [FAILED])
    else:
        monkeypatch.setattr(catalog, attr, stand_in)
    failed = next(s for s in verify_entry(entry).stages if s.stage == stage)
    assert (failed.verdict, failed.residual) == ("fail", x)
    assert main(["verify", entry]) == 1
    assert f"residual[{entry}/{stage}] = x" in capsys.readouterr().err


def test_passing_stages_carry_no_certificate():
    stages = [s for r in catalog.verify_all() for s in r.stages]
    assert len(stages) == 182
    assert all(s.passed and s.residual is None for s in stages)


# ---------------------------------------------------------------------------
# Instantiation
# ---------------------------------------------------------------------------


def test_instantiate_ode_reduction():
    inst = instantiate("ode-reduction", params={"A": 2, "B": 1, "C": 3})
    assert inst.u == 2 * x + 1 + 3 * sp.exp(x)
    assert inst.verdict.is_zero
    assert inst.constraint is not None


def test_instantiate_ex33():
    inst = instantiate("ex3.3", g=x, C=sp.exp(t) + 3)
    assert sp.simplify(inst.u - (-sp.log(sp.exp(t) + 3 - x**2 / 2))) == 0
    assert inst.verdict.is_zero


def test_instantiate_ex41():
    s = sp.Symbol("s")
    inst = instantiate("ex4.1", g=s**2, C=t**3, params={"A": 2})
    assert inst.verdict.is_zero


def test_instantiate_ex41_excluded_parameter():
    # the rule A ≠ 1 is read from the entry's validity expression 1 - A
    with pytest.raises(ParameterError, match="1 - A vanishes at A = 1"):
        instantiate("ex4.1", g=x, C=t, params={"A": 1})


@pytest.mark.parametrize("which", [2, 7, -1])
def test_instantiate_rejects_a_solution_index_out_of_range(which, capsys):
    with pytest.raises(ParameterError):
        instantiate("hs-3dim", which=which)
    assert main(["catalog", "solve", "hs-3dim", "--which", str(which)]) == 1
    assert "invalid parameters" in capsys.readouterr().err
    assert instantiate("hs-3dim", which=1).constraint is not None


def test_instantiate_disguised():
    inst = instantiate("disguised", g=sp.Integer(-1), C=sp.Integer(1))
    assert inst.verdict.is_zero


def test_instantiate_without_solution():
    with pytest.raises(ParameterError):
        instantiate("type1-general")


def test_instantiate_constraint_is_jet_expression():
    w = sp.Symbol("w")
    inst = instantiate("hunter-saxton", g=sp.exp(w))
    jets = {s.name for s in inst.constraint.free_symbols if s.name.startswith("u")}
    assert "u_xx" in jets


# ---------------------------------------------------------------------------
# Characteristics
# ---------------------------------------------------------------------------


def _hs_initial(n=4):
    # on I = 0 the Hunter-Saxton quotient solution with g = e^w gives
    # H(0, J) = e^{-J}
    return [(0.0, j, math.exp(-j)) for j in [0.2 + 0.2 * k for k in range(n)]]


def test_characteristics_hs_matches_closed_form():
    res = characteristics_solve("hunter-saxton", _hs_initial(), (0.0, 1.0), 0.01)
    # closed form: 16 g(2J/(2-IJ)) H = (2-IJ)^4 with g = e^w
    worst = 0.0
    for s in res.samples():
        if s.flag:
            continue
        h_exact = (2 - s.I * s.J) ** 4 / (16 * math.exp(2 * s.J / (2 - s.I * s.J)))
        worst = max(worst, abs(s.H - h_exact))
    assert worst < 1e-7


def test_characteristics_rk4_convergence():
    coarse = characteristics_solve("hunter-saxton", _hs_initial(), (0.0, 1.0), 0.02)
    fine = characteristics_solve("hunter-saxton", _hs_initial(), (0.0, 1.0), 0.01)
    assert fine.error_estimate > 0
    assert coarse.error_estimate / fine.error_estimate >= 12


def test_characteristics_requires_quasilinear_entry():
    with pytest.raises(CharacteristicsError):
        characteristics_solve("burgers-h3", [(0, 0, 0)], (0, 1), 0.1)


def test_characteristics_rejects_bad_span():
    with pytest.raises(CharacteristicsError):
        characteristics_solve("hunter-saxton", _hs_initial(1), (1.0, 0.0), 0.1)


def test_characteristics_blowup_flagged():
    # J' = -J^2 blows up in finite time from negative initial data
    res = characteristics_solve("hunter-saxton", [(0.0, -1.0, 1.0)], (0.0, 2.0),
                                0.05, blowup=1e6)
    flags = [s.flag for s in res.samples()]
    assert 1 in flags
