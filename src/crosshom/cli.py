"""Command-line interface.

One binary with subcommands sharing the definition-file formats.  Exit codes:
0 all checks passed / computation succeeded, 1 a verified mathematical
violation was found (findings listed), 2 malformed input (parse, shape, or
certified-invariant error).  Reports are emitted as human-readable lines by
default or as deterministic JSON with --json; --out writes to a file instead
of stdout.  A report that cannot be written exits 2 with a one-line message
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import formats
from .errors import NotCrossedHom, NotNijenhuis, ParseError, ToolkitError, require_window_count
from .liealg import (
    FinLieAlgebra,
    Setup,
    _grid_values,
    check_action,
    check_crossed_hom,
    check_lie_algebra,
    solve_crossed_homs_grid,
    twist_iso_check,
)
from .linalg import rational
from .report import Report

# Each subcommand is declared once, in `build_parser`, which sets its handler
# as the subparser's `handler` default; `main` calls args.handler.  Each
# handler imports the submodules it calls beyond these, so a subcommand
# loads only what it runs. A handler parses and checks its flags before it
# reads the input file, so a usage error exits 2 whatever the file holds.
# REPS names the `rinehart` builder of each --rep.
REPS = {"trivial": "trivial_rep", "natural": "natural_rep_gl", "adjoint": "adjoint_rep_gl"}


def _rationals(text: str, flag: str) -> tuple[Fraction, ...]:
    return tuple(rational(c, flag) for c in text.split(","))


def _require_positive_n(n: int):
    if n < 1:
        raise ParseError(f"--n must be >= 1, got {n}")


def _sound_setup(args, report: Report, crossed_hom: bool = False) -> Setup | None:
    """The setup file args.input, checked as every setup-based subcommand
    needs: Jacobi for g and h and the action laws, then, with crossed_hom,
    the crossed-homomorphism identity.  The findings go into report, and
    where there are any the result is None."""
    s = formats.load_file(args.input)
    if not isinstance(s, Setup):
        raise ParseError(f"{args.input}: expected a setup file")
    report.add_findings(check_lie_algebra(s.g) + check_lie_algebra(s.h) + check_action(s.rho))
    if crossed_hom and not report.findings:
        report.add_findings(check_crossed_hom(s))
    return None if report.findings else s


def cmd_check_lie(args, report: Report):
    obj = formats.load_file(args.input)
    if not isinstance(obj, FinLieAlgebra):
        raise ParseError(f"{args.input}: expected a Lie algebra file")
    report.add_findings(check_lie_algebra(obj))
    report.payload["dim"] = obj.dim


def cmd_check_crossed_hom(args, report: Report):
    s = _sound_setup(args, report)
    if s is not None:
        report.add_findings(check_crossed_hom(s))
        report.payload["twist_map_is_homomorphism"] = twist_iso_check(s)


def cmd_check_rinehart(args, report: Report):
    from .rinehart import LieRinehart, check_lie_rinehart, check_weak_rep

    obj = formats.load_file(args.input)
    if not isinstance(obj, tuple) or not isinstance(obj[0], LieRinehart):
        raise ParseError(f"{args.input}: expected a lie_rinehart bundle")
    lr, module_block = obj
    # the whole file is read before a check adds a finding to the report
    if module_block:
        where = f"{args.input}.module"
        mod, rho = formats.module_from_dict(lr.algebra, lr.lie.basis_names, module_block, where)
        strict = formats.bool_flag(module_block, "strict", where)
    report.add_findings(check_lie_rinehart(lr))
    if module_block:
        report.add_findings(check_weak_rep(lr, mod, rho, strict=strict))
    report.payload["dim_A"] = lr.algebra.dim
    report.payload["dim_L"] = lr.lie.dim


def cmd_check_leibniz(args, report: Report):
    from .rinehart import LeibnizPair, check_leibniz_pair

    obj = formats.load_file(args.input)
    if not isinstance(obj, LeibnizPair):
        raise ParseError(f"{args.input}: expected a leibniz_pair file")
    report.add_findings(check_leibniz_pair(obj))
    report.payload["dim_A"] = obj.algebra.dim
    report.payload["dim_S"] = obj.lie.dim


def cmd_cohomology(args, report: Report):
    from . import cohomology as coh

    s = _sound_setup(args, report, crossed_hom=True)
    if s is None:
        return
    rep = coh.cohomology_dims(s, args.max_degree)
    report.payload.update(rep.to_json())


def cmd_mc_residual(args, report: Report):
    from . import cohomology as coh

    s = _sound_setup(args, report)
    if s is None:
        return
    res = coh.mc_residual(s)
    report.payload["residual"] = [
        {"site": [s.g.basis_names[t] for t in T], "value": [str(c) for c in coh.eval_basis(res, T)]}
        for T in sorted(res.values)
    ]
    report.add_findings(coh.cochain_findings("maurer-cartan", s.g.basis_names, res))


def cmd_nijenhuis(args, report: Report):
    from . import cohomology as coh

    if (args.element is None) == (args.grid is None):
        raise ParseError("nijenhuis requires exactly one of --element and --grid")
    x = None if args.element is None else _rationals(args.element, "--element")
    grid = None if args.grid is None else _grid_values(_rationals(args.grid, "--grid"))
    s = _sound_setup(args, report, crossed_hom=True)
    if s is None:
        return
    if x is not None:
        findings = coh.check_nijenhuis(s, x)
        report.add_findings(findings)
        conditions = {}
        for rule in ("Nij1", "Nij2", "Nij3", "Nij4"):
            first = next((f for f in findings if f.rule == rule), None)
            conditions[rule] = (
                {"status": "pass"}
                if first is None
                else {"status": "fail", "first_counterexample": list(first.site)}
            )
        report.payload["conditions"] = conditions
    else:
        passing = coh.nijenhuis_grid(s, grid)
        report.payload["passing"] = [[str(c) for c in x] for x in passing]
        report.payload["count"] = len(passing)


def cmd_deform(args, report: Report):
    from . import cohomology as coh

    if args.element is None:
        raise ParseError("deform requires --element (the Nijenhuis witness)")
    x = _rationals(args.element, "--element")
    s = _sound_setup(args, report, crossed_hom=True)
    if s is None:
        return
    nij = coh.check_nijenhuis(s, x)
    if nij:
        report.add_findings(nij)
        return
    frk = coh.trivial_deformation_generator(s, x)
    report.payload["generator"] = frk.render_rows()
    report.add_findings(coh.check_linear_deformation(s, frk))


def cmd_witt_verify(args, report: Report):
    from .witt import LaurentPoly, Window, verify_witt_crossed_hom

    _require_positive_n(args.n)
    p = q = None
    if args.family == "pq":
        q = rational(args.q, "--q") if args.q is not None else Fraction(0)
        if args.p_file is not None:
            p = formats.twisting_polynomials_from_file(args.p_file, args.n)
        else:
            p = [LaurentPoly.zero(args.n) for _ in range(args.n)]
    findings = verify_witt_crossed_hom(args.n, args.family, Window(args.window), p=p, q=q)
    report.add_findings(findings)
    report.payload["n"] = args.n
    report.payload["family"] = args.family
    report.payload["window"] = args.window


def cmd_shen_larsson(args, report: Report):
    from . import rinehart
    from .witt import Window, window_size, witt_window_basis

    _require_positive_n(args.n)
    window = Window(args.window)
    size = window_size(args.n, args.window)
    # the table has n * size actors times dim V * size module elements; dim V
    # >= 1 bounds it before the representation's matrices are built
    require_window_count(args.n * size * size, "table entries")
    theta = getattr(rinehart, REPS[args.rep])(args.n)
    require_window_count(args.n * size * theta.dim_v * size, "table entries")
    actors = witt_window_basis(args.n, args.window)
    module = rinehart.vtensor_window_basis(theta, args.n, args.window)
    action = rinehart.shen_larsson_action(theta)
    if args.check:
        report.add_findings(rinehart.check_module_axiom_window(action, args.n, window, module))
        report.add_findings(rinehart.check_weak_compat_window(action, args.n, window, module))
    entries = []
    for w in actors:
        for t in module:
            image = action(w, t)
            result = {image.term_label(p, r): str(c) for (p, r), c in image.sorted_terms()}
            entries.append({"actor": str(w), "on": str(t), "result": result})
    report.payload["rep"] = args.rep
    report.payload["entries"] = entries


def cmd_solve_grid(args, report: Report):
    grid = _grid_values(_rationals(args.grid, "--grid"))
    s = _sound_setup(args, report)
    if s is None:
        return
    sols = solve_crossed_homs_grid(s.g, s.h, s.rho, grid)
    report.payload["count"] = len(sols)
    report.payload["solutions"] = [H.matrix.render_rows() for H in sols]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosshom",
        description="verify and compute with crossed homomorphisms between Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, needs_input=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument("input", help="definition file (JSON)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        return p

    add("check-lie", cmd_check_lie, "Jacobi identity of an algebra file")
    add("check-action", _sound_setup, "derivation + homomorphism laws of a setup's action")
    add("check-crossed-hom", cmd_check_crossed_hom, "the crossed-homomorphism identity of a setup")
    add("check-rinehart", cmd_check_rinehart, "Lie-Rinehart axioms of a bundle file")
    add("check-leibniz", cmd_check_leibniz, "Leibniz-pair axioms of a pair file")

    p = add("cohomology", cmd_cohomology, "cocycle/coboundary/cohomology dimensions")
    p.add_argument("--max-degree", type=int, default=2)

    add("mc-residual", cmd_mc_residual, "Maurer-Cartan residual of the setup's H")

    p = add("nijenhuis", cmd_nijenhuis, "Nijenhuis conditions at an element or over a grid")
    p.add_argument("--element", help="comma-separated rational coordinates in g")
    p.add_argument("--grid", help="comma-separated rational grid values")

    p = add("deform", cmd_deform, "trivial linear deformation from a Nijenhuis element")
    p.add_argument("--element", help="comma-separated rational coordinates in g")

    p = add("witt-verify", cmd_witt_verify, "windowed crossed-homomorphism verification", needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["full", "sdiv", "ham", "pq"], required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--p-file", help="twisting polynomials (family pq)")
    p.add_argument("--q", help="twisting scalar (family pq)")

    p = add("shen-larsson", cmd_shen_larsson, "emit the tensor-module action table", needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rep", choices=sorted(REPS), required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--check", action="store_true", help="also verify the module law on the window")

    p = add("solve-grid", cmd_solve_grid, "enumerate crossed homomorphisms over a grid")
    p.add_argument("--grid", required=True, help="comma-separated rational grid values")
    return parser


def render_report(report: Report, as_json: bool) -> str:
    if as_json:
        return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    return "\n".join(report.human_lines()) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(command=args.command)
    try:
        args.handler(args, report)
        code = 0 if report.status == "pass" else 1
    except (NotCrossedHom, NotNijenhuis) as exc:
        # precondition violations are verified mathematical findings
        report.status = "fail"
        report.error = {"type": type(exc).__name__, "message": str(exc)}
        code = 1
    except (ToolkitError, OSError) as exc:
        report.status = "error"
        report.error = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    try:
        _emit(render_report(report, args.json), args.out)
    except OSError as exc:
        sys.stderr.write(f"crosshom: cannot write the report to {args.out or 'stdout'}: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
