"""Symbolic jet calculus for symmetry quotients of second-order PDEs.

The package implements prolongation of point symmetries, differential
invariants, Tresse derivatives and differential syzygies, and uses them
to construct and verify exact solutions — with the Hunter-Saxton
equation as the fully worked pipeline.
"""

from .symcore import (
    EvalError,
    ExprSyntaxError,
    IndeterminateZeroTest,
    JetVar,
    SymcoreError,
    UndefinedExpressionError,
    ZeroVerdict,
    differentiate,
    compile_numeric,
    formal,
    formal_integral,
    is_zero,
    jet,
    normalize,
    parse,
    t,
    x,
)
from .jetcalc import (
    OrderCapError,
    ProlongedField,
    VectorField,
    prolong,
    total_derivative,
)
from .pde import (
    PdeManifold,
    SymmetryVerdict,
    check_symmetry,
)
from .invariants import (
    InvariantDerivation,
    QuotientSolution,
    Syzygy,
    TresseFrame,
    check_commutation,
    check_invariant,
    check_quotient_solution,
    check_syzygy,
    discover_syzygy,
)
from .catalog import (
    CatalogEntry,
    CharacteristicsResult,
    Instantiation,
    ParameterError,
    UnknownEntryError,
    VerificationReport,
    characteristics_solve,
    entries,
    get,
    instantiate,
    verify_all,
    verify_entry,
)
from .hs import (
    GENERATORS,
    CauchyError,
    ParamSolution,
    ResidualReport,
    SingularCurve,
    cauchy_g,
    closed_form_solution,
    constraint_G,
    fit_C,
    flow_jet,
    flowed_constraint_residual,
    general_solution,
    residual,
    singular_curve,
    surface_csv,
    transform_g,
)

__version__ = "0.1.0"
