"""Contact apparatus of an orthonormal frame: normalized contact form, Reeb
field, dual coframe, and the degeneracy locus of the distribution.

The frame (X1, X2) spans the distribution, X1 timelike and X2 spacelike, with
the metric fixed to g(X1,X1) = -1, g(X2,X2) = 1, g(X1,X2) = 0.  The contact
form is normalized by dw(X1, X2) = w([X2, X1]) = 1; since w annihilates the
frame, this is the purely algebraic condition <w, [X2,X1]> = 1, so w comes
from one exact 3x3 solve.  The Reeb field is then the unique combination
[X2,X1] - a X1 - b X2 killing dw.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    DifferentialForm,
    VectorField,
    det3,
    evaluate,
    exterior_derivative,
    invert3,
    lie_bracket,
    one_form,
    solve3,
    wedge,
)
from .expr import Chart, Expr, Tri, vanishing_loci


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal frame: X1 timelike, X2 spacelike."""

    chart: Chart
    x1: VectorField
    x2: VectorField

    @property
    def fields(self) -> tuple[VectorField, VectorField]:
        return (self.x1, self.x2)


@dataclass(frozen=True)
class ContactApparatus:
    frame: Frame
    omega: DifferentialForm
    x0: VectorField
    nu0: DifferentialForm
    nu1: DifferentialForm
    nu2: DifferentialForm
    contact_det: Expr
    excluded: tuple[Expr, ...]

    @property
    def chart(self) -> Chart:
        return self.frame.chart

    @property
    def coframe(self) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
        return (self.nu0, self.nu1, self.nu2)

    @property
    def marked_fields(self) -> tuple[VectorField, VectorField, VectorField]:
        """(X0, X1, X2) in coframe order."""
        return (self.x0, self.frame.x1, self.frame.x2)


def contact_locus(frame: Frame) -> Expr:
    """det[X1 | X2 | [X1,X2]]; its zero set is where the contact condition fails."""
    b = lie_bracket(frame.x1, frame.x2)
    return det3([frame.x1.components, frame.x2.components, b.components])


def normalized_contact_form(frame: Frame) -> DifferentialForm:
    chart = frame.chart
    bracket = lie_bracket(frame.x2, frame.x1)
    rows = [frame.x1.components, frame.x2.components, bracket.components]
    rhs = (chart.zero(), chart.zero(), chart.one())
    w = solve3(rows, rhs)
    return one_form(chart, *w)


def reeb_field(omega: DifferentialForm, frame: Frame) -> VectorField:
    """Unique X0 with w(X0) = 1 and dw(X0, .) = 0."""
    bracket = lie_bracket(frame.x2, frame.x1)
    dw = exterior_derivative(omega)
    a = evaluate(dw, [bracket, frame.x2])
    b = -evaluate(dw, [bracket, frame.x1])
    return bracket - frame.x1.scaled(a) - frame.x2.scaled(b)


def dual_coframe(x0: VectorField, x1: VectorField, x2: VectorField):
    chart = x0.chart
    rows = [x0.components, x1.components, x2.components]
    inv = invert3(rows, strict=True)
    return tuple(
        one_form(chart, inv[0][i], inv[1][i], inv[2][i]) for i in range(3)
    )


def build_apparatus(frame: Frame) -> ContactApparatus:
    chart = frame.chart
    det = contact_locus(frame)
    omega = normalized_contact_form(frame)
    x0 = reeb_field(omega, frame)
    nu0, nu1, nu2 = dual_coframe(x0, frame.x1, frame.x2)
    component_exprs = list(omega.components) + list(x0.components)
    for f in (nu0, nu1, nu2):
        component_exprs.extend(f.components)
    denominators = [c.denominator() for c in component_exprs]
    excluded = vanishing_loci(chart, [det] + denominators)
    return ContactApparatus(frame, omega, x0, nu0, nu1, nu2, det, excluded)


def apparatus_checks(app: ContactApparatus) -> dict[str, Tri]:
    """Tri-state ledger of the defining identities of the apparatus."""
    x0, x1, x2 = app.marked_fields
    dw = exterior_derivative(app.omega)
    checks = {
        "omega(X1)=0": evaluate(app.omega, [x1]).is_zero(),
        "omega(X2)=0": evaluate(app.omega, [x2]).is_zero(),
        "omega(X0)=1": (evaluate(app.omega, [x0]) - 1).is_zero(),
        "dw(X1,X2)=1": (evaluate(dw, [x1, x2]) - 1).is_zero(),
        "dw(X0,X1)=0": evaluate(dw, [x0, x1]).is_zero(),
        "dw(X0,X2)=0": evaluate(dw, [x0, x2]).is_zero(),
    }
    coframe = app.coframe
    fields = app.marked_fields
    dual_ok = Tri.TRUE
    for i in range(3):
        for j in range(3):
            target = 1 if i == j else 0
            v = (evaluate(coframe[i], [fields[j]]) - target).is_zero()
            if v is Tri.FALSE:
                dual_ok = Tri.FALSE
            elif v is Tri.UNKNOWN and dual_ok is Tri.TRUE:
                dual_ok = Tri.UNKNOWN
    checks["<nu_i,X_j>=delta_ij"] = dual_ok
    dnu0 = exterior_derivative(app.nu0)
    residual = dnu0 - wedge(app.nu1, app.nu2)
    checks["dnu0=nu1^nu2"] = residual.is_zero()
    return checks
