"""Command-line front end.

Subcommands: ``verify`` (run an entry's verification stages), ``hs``
(solution surfaces, Cauchy problems, singular curves and symmetry
transforms for Hunter-Saxton), ``catalog`` (listing, solution
instantiation, characteristics), ``expr`` (parse / differentiate /
zero-test), and ``run`` (execute a JSON problem file).

Outputs are deterministic: CSV uses 17 significant digits, JSON is
emitted with sorted keys, and probabilistic zero-tests take their seed
from a flag with a fixed default. Files are written atomically and
relative output paths resolve against ``$JETQUOT_OUTPUT_DIR``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import sympy as sp

from . import catalog, hs
from .jetcalc import Dt, Dx
from .symcore import (
    SymcoreError,
    _cancel,
    differentiate,
    is_zero,
    normalize,
    parse,
)

OUTPUT_DIR_ENV = "JETQUOT_OUTPUT_DIR"
DEFAULT_SEED = 20260823


class CliError(Exception):
    """User-facing command error; message printed, exit code attached."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _out_path(name: str | None) -> str | None:
    if name is None:
        return None
    if os.path.isabs(name):
        return name
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _atomic_write(path: str, writer) -> None:
    """Run ``writer(tmp_path)`` and move the result into place."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".jetquot-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_range(text: str, default_count: int = 50) -> list[float]:
    """'a:b:step' -> inclusive arithmetic grid; 'a:b' -> default_count points."""
    parts = text.split(":")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise CliError(f"cannot parse range {text!r} (expected a:b or a:b:step)")
    if len(vals) == 2:
        a, b = vals
        if default_count == 1:
            return [a]
        h = (b - a) / (default_count - 1)
        return [a + k * h for k in range(default_count)]
    if len(vals) == 3:
        a, b, step = vals
        if step == 0:
            raise CliError("range step must be nonzero")
        n = int(math.floor((b - a) / step + 1e-9))
        return [a + k * step for k in range(n + 1)]
    raise CliError(f"cannot parse range {text!r} (expected a:b or a:b:step)")


def _parse_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise CliError(f"cannot parse list {text!r} (expected comma-separated numbers)")


def _parse_expr(text: str) -> sp.Expr:
    try:
        return parse(text)
    except SymcoreError as exc:
        raise CliError(f"cannot parse expression {text!r}: {exc}")


def _parse_t0(text: str) -> sp.Expr:
    """--t0 read exactly: a decimal is a rational, never a float, so the
    Cauchy inversion and fit of C stay over QQ."""
    t0 = _parse_expr(text)
    if not t0.is_number:
        raise CliError(f"--t0 must be a number, got {text!r}")
    return t0


def _parse_params(pairs: list[str] | None) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"parameter {pair!r} must look like name=value")
        k, v = pair.split("=", 1)
        out[k.strip()] = _parse_expr(v)
    return out


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, lambda p: open(p, "w").write(text))
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    names = catalog.names() if args.all or not args.entries else args.entries
    for name in names:
        if name not in catalog.names():
            print(f"unknown entry: {name}", file=sys.stderr)
            return 2
    reports = [catalog.verify_entry(n) for n in names]
    if args.json:
        doc = {
            r.entry: [
                {
                    "stage": s.stage,
                    "subject": s.subject,
                    "verdict": s.verdict,
                    "residual": None if s.residual is None else str(s.residual),
                }
                for s in r.stages
            ]
            for r in reports
        }
        _emit_json(doc, _out_path(args.out))
    else:
        for r in reports:
            print(r.summary())
    failed = [r.entry for r in reports if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        for r in reports:
            for s in r.stages:
                if not s.passed and s.residual is not None:
                    print(f"  residual[{r.entry}/{s.stage}] = {s.residual}",
                          file=sys.stderr)
        return 1
    print(f"all {len(reports)} entr{'y' if len(reports) == 1 else 'ies'} passed")
    return 0


# ---------------------------------------------------------------------------
# hs
# ---------------------------------------------------------------------------


def _hs_solution(args) -> hs.ParamSolution:
    g = _parse_expr(args.g)
    C = _parse_expr(args.C) if args.C is not None else sp.Integer(0)
    validity = tuple(_parse_expr(v) for v in args.validity or [])
    if args.X_part is not None or args.U_part is not None:
        if args.X_part is None or args.U_part is None:
            raise CliError("--X-part and --U-part must be given together")
        return hs.closed_form_solution(g, C, _parse_expr(args.X_part),
                                       _parse_expr(args.U_part), validity)
    return hs.general_solution(g, C, validity)


def cmd_hs_solve(args) -> int:
    sol = _hs_solution(args)
    times = _parse_range(args.t)
    ws = _parse_range(args.w)
    out = _out_path(args.out or "hs_surface.csv")
    n = [0]
    _atomic_write(out, lambda p: n.__setitem__(0, hs.surface_csv(sol, times, ws, p)))
    print(f"wrote {out} ({n[0]} rows)")
    if args.residual_grid:
        grid = [(tv, wv) for tv in times for wv in ws]
        rep = hs.residual(sol, grid, h=args.fd_step)
        print(f"max residual {rep.max_residual:.3e} over {rep.evaluated} points "
              f"({len(rep.excluded)} excluded)")
        if not rep.evaluated:
            print("no grid point could be evaluated", file=sys.stderr)
            return 1
        if rep.max_residual > args.tol:
            print(f"residual exceeds tolerance {args.tol}", file=sys.stderr)
            return 1
    return 0


def _cauchy_base(t0, u0) -> hs.ParamSolution:
    """The surface with C = 0 for the first branch of g. Its moments are
    the only integrals taken: fit_C reads its antiderivatives and
    ParamSolution.with_C adds C to them."""
    g = hs.cauchy_g(t0, u0)
    return hs.general_solution(g[0] if isinstance(g, list) else g, 0)


def _cauchy_C(args, t0, u0, base: hs.ParamSolution) -> sp.Expr:
    """--C, or C fitted to the Cauchy data."""
    if args.C is not None:
        return _parse_expr(args.C)
    return hs.fit_C(base, t0, u0, w_end=_parse_expr(args.w_end), side=args.side)


def cmd_hs_cauchy(args) -> int:
    t0 = _parse_t0(args.t0)
    u0 = _parse_expr(args.u0)
    try:
        base = _cauchy_base(t0, u0)
    except hs.CauchyError as exc:
        print(f"cauchy inversion failed: {exc}", file=sys.stderr)
        return 1
    try:
        C = _cauchy_C(args, t0, u0, base)
    except (hs.CauchyError, SymcoreError) as exc:
        print(f"note: could not determine C ({exc}); pass --C explicitly",
              file=sys.stderr)
        C = None

    stats = None
    singular = []
    if C is not None:
        sol = base.with_C(C)
        times = _parse_list(args.times) if args.times else [float(t0)]
        ws = _parse_range(args.w_window, default_count=20)
        grid = [(tv, wv) for tv in times for wv in ws]
        rep = hs.residual(sol, grid, h=args.fd_step)
        stats = {"max": hs.format_float(rep.max_residual), "evaluated": rep.evaluated,
                 "excluded": len(rep.excluded)}
        if args.singular:
            lo, hi = min(ws), max(ws)
            curve = hs.singular_curve(sol, times, w_window=(lo, hi))
            singular = curve.samples
    doc_path = _out_path(args.out or "hs_cauchy.json")
    _atomic_write(doc_path, lambda p: hs.cauchy_report_json(
        t0, u0, base.g, C if C is not None else "", stats, singular, p))
    print(f"g(w) = {base.g}")
    print(f"C(t) = {C}")
    print(f"wrote {doc_path}")
    return 0


def cmd_hs_singular(args) -> int:
    if args.from_cauchy is not None:
        t0 = _parse_t0(args.t0)
        u0 = _parse_expr(args.from_cauchy)
        base = _cauchy_base(t0, u0)
        sol = base.with_C(_cauchy_C(args, t0, u0, base))
    else:
        if args.g is None:
            raise CliError("give either --from-cauchy U0 or --g G")
        g = _parse_expr(args.g)
        C = _parse_expr(args.C) if args.C is not None else sp.Integer(0)
        sol = hs.general_solution(g, C)
    times = _parse_list(args.times)
    ws = _parse_range(args.w_window, default_count=2)
    lo, hi = ws[0], ws[-1]
    curve = hs.singular_curve(sol, times, w_window=(lo, hi), n=args.samples)
    rows = ["t,w,x,u"]
    for tv, wv, xv, uv in curve.samples:
        rows.append(",".join(hs.format_float(v) for v in (tv, wv, xv, uv)))
    out = _out_path(args.out or "hs_singular.csv")
    _atomic_write(out, lambda p: open(p, "w").write("\n".join(rows) + "\n"))
    print(f"wrote {out} ({len(curve.samples)} singular samples)")
    if args.check is not None:
        implicit = _parse_expr(args.check)
        worst = curve.max_violation(implicit)
        print(f"max |{args.check}| on curve: {worst:.3e}")
        verdict = hs.branch_verdict(sol, implicit)
        if verdict is not None:
            shown = f"zero ({verdict.mode})" if verdict else "nonzero"
            print(f"{args.check} on w = -2/t: {shown}")
        if worst > args.tol:
            print(f"violation exceeds tolerance {args.tol}", file=sys.stderr)
            return 1
        if verdict is not None and not verdict:
            print(f"{args.check} is not zero on w = -2/t", file=sys.stderr)
            return 1
    return 0


def cmd_hs_transform(args) -> int:
    if args.generator not in hs.GENERATORS:
        raise CliError(
            f"unknown generator {args.generator!r}; choose from {', '.join(hs.GENERATORS)}",
            code=2)
    g = _parse_expr(args.g)
    gt = hs.transform_g(args.generator, _parse_expr(args.s), g)
    # the canonical p/q form of a rational result; otherwise the
    # substituted g with its powers combined
    gt = _cancel(gt) if gt.is_rational_function() else sp.powsimp(gt)
    print(f"g_s(w) = {gt}")
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog_list(args) -> int:
    es = catalog.entries()
    width = max(len(n) for n in es)
    for name, e in es.items():
        print(f"{name:<{width}}  {e.description}")
    print(f"{len(es)} entries")
    return 0


def cmd_catalog_solve(args) -> int:
    if args.entry not in catalog.names():
        print(f"unknown entry: {args.entry}", file=sys.stderr)
        return 2
    params = _parse_params(args.param)
    g = _parse_expr(args.g) if args.g is not None else None
    C = _parse_expr(args.C) if args.C is not None else None
    try:
        inst = catalog.instantiate(args.entry, g=g, C=C, params=params,
                                   which=args.which)
    except catalog.ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    if inst.constraint is not None:
        print(f"constraint: {inst.constraint} = 0")
    if inst.u is not None:
        print(f"u(t, x) = {inst.u}")
    if inst.verdict is not None:
        status = "exact zero" if (inst.verdict.is_zero
                                  and inst.verdict.mode == "deterministic") else (
            "zero (probabilistic)" if inst.verdict.is_zero else "NONZERO")
        print(f"residual: {inst.verdict.residual} -> {status}")
        if not inst.verdict.is_zero:
            return 1
    return 0


def cmd_catalog_characteristics(args) -> int:
    if args.entry not in catalog.names():
        print(f"unknown entry: {args.entry}", file=sys.stderr)
        return 2
    if args.initial:
        initial = []
        for triple in args.initial:
            vals = _parse_list(triple)
            if len(vals) != 3:
                raise CliError(f"--initial takes I,J,H triples, got {triple!r}")
            initial.append(tuple(vals))
    elif args.entry == "hunter-saxton":
        # seed the initial curve I = 0 from the quotient solution with
        # g = e^w, where H(0, J) = e^{-J}
        initial = [(0.0, jv, math.exp(-jv)) for jv in
                   (0.2, 0.4, 0.6, 0.8, 1.0)]
    else:
        raise CliError("this entry needs explicit --initial I,J,H triples")
    span = tuple(_parse_range(args.span, default_count=2))
    params = _parse_params(args.param)
    res = catalog.characteristics_solve(args.entry, initial, span, args.step,
                                        params=params)
    fine = catalog.characteristics_solve(args.entry, initial, span, args.step / 2,
                                         params=params)
    rows = ["curve,I,J,H,flag"]
    for ci, curve in enumerate(res.curves):
        for s in curve:
            rows.append(",".join([str(ci), *map(hs.format_float, (s.I, s.J, s.H)),
                                  str(s.flag)]))
    out = _out_path(args.out or "characteristics.csv")
    _atomic_write(out, lambda p: open(p, "w").write("\n".join(rows) + "\n"))
    print(f"wrote {out}")
    print(f"error estimate at step {args.step}: {res.error_estimate:.6e}")
    print(f"error estimate at step {args.step / 2}: {fine.error_estimate:.6e}")
    if fine.error_estimate > 0:
        ratio = res.error_estimate / fine.error_estimate
        print(f"halving reduction factor: {ratio:.2f}")
    if res.crossings:
        print(f"{len(res.crossings)} characteristic crossings detected")
    return 0


# ---------------------------------------------------------------------------
# expr
# ---------------------------------------------------------------------------


def cmd_expr_parse(args) -> int:
    print(_parse_expr(args.expression))
    return 0


def cmd_expr_diff(args) -> int:
    e = _parse_expr(args.expression)
    if args.partial:
        var = sp.Symbol(args.variable)
        print(normalize(differentiate(e, var)))
        return 0
    if args.variable == "t":
        print(normalize(Dt(e)))
    elif args.variable == "x":
        print(normalize(Dx(e)))
    else:
        raise CliError("total derivatives exist for t and x only; "
                       "use --partial for other variables")
    return 0


def cmd_expr_zero(args) -> int:
    e = _parse_expr(args.expression)
    verdict = is_zero(e, samples=args.samples, seed=args.seed)
    print(f"zero: {verdict.is_zero} ({verdict.mode})")
    return 0 if verdict.is_zero else 1


# ---------------------------------------------------------------------------
# JSON problem files
# ---------------------------------------------------------------------------


def _load_schema() -> dict:
    path = os.path.join(os.path.dirname(__file__), "problem_schema.json")
    with open(path) as fh:
        return json.load(fh)


def _problem_argv(doc: dict) -> list[str]:
    """The command line that a validated problem file stands for."""
    action, entry = doc["action"], doc.get("entry")
    p = doc.get("parameters", {})

    def flags(*keys):
        return [f"--{k}={p[k]}" for k in keys if k in p]

    params = [f"--param=A={p['A']}"] if "A" in p else []
    if action == "verify":
        return ["verify", entry] if entry else ["verify", "--all"]
    if action == "solve" and entry in (None, "hunter-saxton"):
        grid = p.get("grid", {})
        return ["hs", "solve", f"--g={p.get('g', 'exp(w)')}",
                f"--t={grid.get('t', '0:2.5:0.5')}", f"--w={grid.get('w', '-4:0.9')}",
                *flags("C", "out")]
    if action == "solve":
        return ["catalog", "solve", entry, *flags("g", "C"), *params]
    if action == "cauchy":
        times = [f"--times={','.join(map(str, p['times']))}"] if "times" in p else []
        return ["hs", "cauchy", *flags("t0", "u0", "C", "out"), *times]
    if action == "characteristics":
        initial = [f"--initial={','.join(map(str, triple))}" for triple in p.get("initial", [])]
        span = [f"--span={p['span'][0]}:{p['span'][1]}"] if "span" in p else []
        return ["catalog", "characteristics", entry, *initial, *span,
                *flags("step", "out"), *params]
    return ["hs", "transform", *flags("generator", "g"), f"--s={p.get('s', 0)}"]


def cmd_run(args) -> int:
    import jsonschema

    with open(args.file) as fh:
        doc = json.load(fh)
    try:
        jsonschema.validate(doc, _load_schema())
    except jsonschema.ValidationError as exc:
        print(f"problem file rejected: {exc.message}", file=sys.stderr)
        return 2
    problem = build_parser().parse_args(_problem_argv(doc))
    return problem.func(problem)


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jetquot",
        description="Jet-calculus toolkit: symmetry verification, quotient "
                    "solutions and the Hunter-Saxton pipeline.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification stages for catalog entries")
    v.add_argument("entries", nargs="*", help="entry names (default with --all: all)")
    v.add_argument("--all", action="store_true", help="verify every entry")
    v.add_argument("--json", action="store_true", help="emit a JSON report")
    v.add_argument("--out", help="write the JSON report to a file")
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("hs", help="Hunter-Saxton pipeline")
    hsub = h.add_subparsers(dest="hs_command", required=True)

    s = hsub.add_parser("solve", help="sample a parametrized solution surface")
    s.add_argument("--g", required=True, help="g(w), e.g. 'exp(w)'")
    s.add_argument("--C", help="C(t) (default 0)")
    s.add_argument("--t", required=True, help="time grid a:b:step")
    s.add_argument("--w", required=True, help="parameter grid a:b[:step]")
    s.add_argument("--X-part", dest="X_part",
                   help="explicit antiderivative of (tw+2)^2 g/4 in w")
    s.add_argument("--U-part", dest="U_part",
                   help="explicit antiderivative of (tw+2) w g/2 in w")
    s.add_argument("--validity", action="append",
                   help="expression that must stay nonzero (repeatable)")
    s.add_argument("--out", help="output CSV (default hs_surface.csv)")
    s.add_argument("--residual-grid", action="store_true",
                   help="also evaluate the PDE residual on the grid")
    s.add_argument("--fd-step", type=float, default=1e-5,
                   help="finite-difference step for the residual")
    s.add_argument("--tol", type=float, default=1e-8,
                   help="residual tolerance when --residual-grid is set")
    s.set_defaults(func=cmd_hs_solve)

    c = hsub.add_parser("cauchy", help="solve a Cauchy problem u(t0, x) = u0(x)")
    c.add_argument("--t0", required=True, help="initial time t0")
    c.add_argument("--u0", required=True, help="initial profile u0(x)")
    c.add_argument("--C", help="override C(t) instead of the decay rule")
    c.add_argument("--w-end", dest="w_end", default="0",
                   help="surface end for the decay rule (default 0)")
    c.add_argument("--side", default="-", choices=["-", "+"],
                   help="side of the limit at --w-end")
    c.add_argument("--times", help="comma-separated times for the residual check")
    c.add_argument("--w-window", dest="w_window", default="-0.9:0.9",
                   help="w range for the residual check")
    c.add_argument("--fd-step", type=float, default=1e-5)
    c.add_argument("--singular", action="store_true",
                   help="include singular-curve samples in the report")
    c.add_argument("--out", help="output JSON (default hs_cauchy.json)")
    c.set_defaults(func=cmd_hs_cauchy)

    g = hsub.add_parser("singular", help="sample the curve where X_w = 0")
    g.add_argument("--from-cauchy", dest="from_cauchy",
                   help="derive g from this initial profile u0(x)")
    g.add_argument("--t0", default="1",
                   help="initial time for --from-cauchy (default 1)")
    g.add_argument("--g", help="g(w) directly (alternative to --from-cauchy)")
    g.add_argument("--C", help="C(t) (default: decay rule / 0)")
    g.add_argument("--w-end", dest="w_end", default="0")
    g.add_argument("--side", default="-", choices=["-", "+"])
    g.add_argument("--times", default="1.5,2,2.5,3",
                   help="comma-separated t values to scan")
    g.add_argument("--w-window", dest="w_window", default="-40:-0.001",
                   help="w scan window a:b")
    g.add_argument("--samples", type=int, default=2000,
                   help="resolution of the one scan of g's non-polynomial factors")
    g.add_argument("--check", help="implicit curve Phi(t, x, u) to test")
    g.add_argument("--tol", type=float, default=1e-10,
                   help="tolerance for --check")
    g.add_argument("--out", help="output CSV (default hs_singular.csv)")
    g.set_defaults(func=cmd_hs_singular)

    tr = hsub.add_parser("transform", help="act on g by a symmetry flow")
    tr.add_argument("--generator", required=True,
                    help=f"one of: {', '.join(hs.GENERATORS)}")
    tr.add_argument("--s", required=True, help="flow parameter")
    tr.add_argument("--g", required=True, help="g(w)")
    tr.set_defaults(func=cmd_hs_transform)

    cat = sub.add_parser("catalog", help="worked-example database")
    csub = cat.add_subparsers(dest="catalog_command", required=True)

    cl = csub.add_parser("list", help="list all entries")
    cl.set_defaults(func=cmd_catalog_list)

    cs = csub.add_parser("solve", help="instantiate an entry's closed-form solution")
    cs.add_argument("entry")
    cs.add_argument("--g", help="expression for the free function g")
    cs.add_argument("--C", help="expression for the free function C")
    cs.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="entry parameter, e.g. A=2 (repeatable)")
    cs.add_argument("--which", type=int, default=0,
                    help="index of the recorded solution to use")
    cs.set_defaults(func=cmd_catalog_solve)

    cc = csub.add_parser("characteristics",
                         help="integrate the characteristic system of a quotient")
    cc.add_argument("entry")
    cc.add_argument("--initial", action="append", metavar="I,J,H",
                    help="initial triple (repeatable)")
    cc.add_argument("--span", default="0:1", help="parameter span a:b")
    cc.add_argument("--step", type=float, default=0.01)
    cc.add_argument("--param", action="append", metavar="NAME=VALUE")
    cc.add_argument("--out", help="output CSV (default characteristics.csv)")
    cc.set_defaults(func=cmd_catalog_characteristics)

    ex = sub.add_parser("expr", help="expression utilities")
    esub = ex.add_subparsers(dest="expr_command", required=True)

    ep = esub.add_parser("parse", help="parse and normalize an expression")
    ep.add_argument("expression")
    ep.set_defaults(func=cmd_expr_parse)

    ed = esub.add_parser("diff", help="differentiate an expression")
    ed.add_argument("expression")
    ed.add_argument("variable", help="t or x (total); any symbol with --partial")
    ed.add_argument("--partial", action="store_true",
                    help="partial instead of total derivative")
    ed.set_defaults(func=cmd_expr_diff)

    ez = esub.add_parser("zero", help="test whether an expression is zero")
    ez.add_argument("expression")
    ez.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for the probabilistic stage")
    ez.add_argument("--samples", type=int, default=8,
                    help="number of random evaluations")
    ez.set_defaults(func=cmd_expr_zero)

    r = sub.add_parser("run", help="execute a JSON problem file")
    r.add_argument("file")
    r.set_defaults(func=cmd_run)

    return ap


#: flags whose values may begin with '-' (ranges, negative numbers); their
#: value is glued on with '=' so argparse does not mistake it for an option
_DASH_VALUED = {"--w", "--t", "--w-window", "--w-end", "--times", "--s",
                "--C", "--g", "--u0", "--t0", "--span", "--initial",
                "--X-part", "--U-part", "--check"}


def _glue_dash_values(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _DASH_VALUED and k + 1 < len(argv) and argv[k + 1].startswith("-"):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _glue_dash_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (SymcoreError, catalog.UnknownEntryError) as exc:
        print(str(exc), file=sys.stderr)
        return 2 if isinstance(exc, catalog.UnknownEntryError) else 1


if __name__ == "__main__":
    sys.exit(main())
