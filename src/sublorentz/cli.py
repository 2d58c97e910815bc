"""Command-line front end.

Commands: analyze, classify, symmetry, rotate, dilate, algebra, ode, catalog.
Targets are structure files or built-in fixture names.  Exit codes: 0 every
check passed, 1 a check failed, 2 an indeterminate verdict, 3 input error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import builtins as fixtures
from .errors import EngineError, IndeterminateDomain
from .expr import Chart, Expr
from .lie_algebra import KAPPA_ALGEBRAS
from .ode_bridge import ODE_CHART
from .parsing import parse_expr, parse_structure_file
from .report import (
    EXIT_CODES,
    algebra_report,
    analyze_definition,
    catalog_report,
    classify_report,
    coordinate_frame,
    dilate_report,
    ode_report,
    rotate_report,
    symmetry_report,
    to_json,
    to_text,
)


def _load_definition(target: str):
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_structure_file(text, source_name=os.path.basename(target))
    if target in fixtures.STRUCTURE_FILES:
        return parse_structure_file(
            fixtures.STRUCTURE_FILES[target], source_name=f"builtin:{target}"
        )
    raise EngineError(
        f"no such file or built-in structure: {target!r} "
        f"(built-ins: {', '.join(sorted(fixtures.STRUCTURE_FILES))})"
    )


def _parse_kappa(text: str) -> Expr:
    kappa = parse_expr(text, Chart((), ()))
    if not kappa.is_rational_constant():
        raise EngineError(f"--kappa must be a rational number, got {text!r}")
    return kappa


def _emit(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(to_json(report))
    else:
        print(to_text(report), end="")
    return EXIT_CODES[report["status"]]


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one `error:` line and exit 3
    (argparse would exit 2, the code of an indeterminate verdict)."""

    def error(self, message):
        self.exit(3, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sublorentz",
        description="Exact invariants and symmetry tests for contact "
                    "sub-Lorentzian structures on 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="full pipeline on a structure file or built-in")
    p.add_argument("target")
    add_common(p)

    p = sub.add_parser("classify", help="invariants and classification only")
    p.add_argument("target")
    add_common(p)

    p = sub.add_parser("symmetry", help="test the [symmetry] fields of a structure file")
    p.add_argument("target")
    add_common(p)

    p = sub.add_parser("rotate", help="hyperbolically rotate the frame and compare invariants")
    p.add_argument("target")
    p.add_argument("--theta", required=True, help="rotation angle expression")
    add_common(p)

    p = sub.add_parser("dilate", help="rescale the frame by a constant parameter")
    p.add_argument("target")
    p.add_argument("--scale", required=True, help="name of the positive scale parameter")
    add_common(p)

    p = sub.add_parser("algebra", help="catalog Lie algebra: Jacobi, Killing form, invariants")
    p.add_argument("name", choices=sorted(fixtures.ALGEBRA_NAMES))
    p.add_argument("--kappa", default=None, help="rational kappa of sl2_e and sl2_n")
    add_common(p)

    p = sub.add_parser("ode", help="sub-Lorentzian structure of u'' = Q(x, u, p)")
    p.add_argument("--Q", required=True, dest="q", help="right-hand side over (x, u, p)")
    add_common(p)

    p = sub.add_parser("catalog", help="list built-in structures and algebras")
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            return _emit(catalog_report(), args.format)
        if args.command == "algebra":
            if args.kappa is not None and args.name not in KAPPA_ALGEBRAS:
                raise EngineError(f"algebra {args.name} has no kappa "
                                  f"(--kappa: {', '.join(KAPPA_ALGEBRAS)})")
            kappa = _parse_kappa(args.kappa) if args.kappa is not None else None
            return _emit(algebra_report(args.name, kappa), args.format)
        if args.command == "ode":
            q = parse_expr(args.q, ODE_CHART)
            return _emit(ode_report(q), args.format)

        defn = _load_definition(args.target)
        if args.command == "analyze":
            return _emit(analyze_definition(defn), args.format)
        if args.command == "classify":
            return _emit(classify_report(defn), args.format)
        if args.command == "symmetry":
            return _emit(symmetry_report(defn), args.format)
        if args.command == "rotate":
            theta = parse_expr(args.theta, coordinate_frame(defn, "rotation").chart)
            return _emit(rotate_report(defn, theta), args.format)
        if args.command == "dilate":
            return _emit(dilate_report(defn, args.scale), args.format)
        raise EngineError(f"unknown command {args.command!r}")
    except IndeterminateDomain as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return 2
    except (EngineError, ValueError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # the last boundary: any other failure is one line, never a traceback
        detail = " ".join(str(err).split())
        print(f"error: unexpected {type(err).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
