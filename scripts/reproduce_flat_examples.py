#!/usr/bin/env python3
"""Print the engine's flagship closed-form results in one run.

Usage: python scripts/reproduce_flat_examples.py
"""

from sublorentz.builtins import STRUCTURE_FILES
from sublorentz.contact import Frame, build_apparatus
from sublorentz.invariants import CoordinateContext, classify
from sublorentz.lie_algebra import (
    catalog_algebra,
    catalog_marking,
    constant_mode_invariants,
    jacobi_check,
    killing_form,
)
from sublorentz.ode_bridge import build_from_ode, rigid_example_rhs
from sublorentz.parsing import parse_structure_file, render_expr, render_field


def show_frame(name: str) -> None:
    defn = parse_structure_file(STRUCTURE_FILES[name], source_name=name)
    frame = Frame(defn.chart, defn.x1, defn.x2)
    app = build_apparatus(frame)
    ctx = CoordinateContext(app)
    inv = ctx.inv
    label = classify(ctx)
    print(f"== {name} ==")
    print("  omega      :", [render_expr(c) for c in app.omega.components])
    print("  Reeb field :", render_field(app.x0))
    print("  c-functions:", {k: render_expr(v) for k, v in ctx.sf.as_dict().items()})
    print("  h_tilde    :", [[render_expr(e) for e in row] for row in inv.h_tilde])
    print("  chi        :", render_expr(inv.chi))
    print("  kappa      :", render_expr(inv.kappa))
    print("  class      :", label.label, f"({label.scope})")
    print()


def show_algebra(name: str) -> None:
    algebra = catalog_algebra(name)
    data = killing_form(algebra)
    print(f"== algebra {name} (dim {algebra.dim}) ==")
    print("  jacobi     :", jacobi_check(algebra).value)
    print("  killing det:", render_expr(data.det))
    if data.signature:
        print("  inertia    :", data.signature)
    marking = catalog_marking(name)
    if marking:
        _, inv = constant_mode_invariants(algebra, marking)
        print("  h_tilde    :", [[render_expr(e) for e in row] for row in inv.h_tilde])
        print("  chi, kappa :", render_expr(inv.chi), ",", render_expr(inv.kappa))
    print()


def show_ode() -> None:
    q = rigid_example_rhs()
    s = build_from_ode(q)
    inv = CoordinateContext(build_apparatus(s.frame)).inv
    print("== ode u'' = (1+2x)e^u + (x+x^2)e^u p ==")
    print("  frame X1   :", render_field(s.frame.x1))
    print("  chi        :", render_expr(inv.chi))
    print("  kappa      :", render_expr(inv.kappa)[:100], "...")
    print()


if __name__ == "__main__":
    show_frame("martinet")
    show_frame("heisenberg")
    for name in ("heisenberg", "sl2_e", "sl2_n", "sl2_f", "isometry4", "conformal8"):
        show_algebra(name)
    show_ode()
