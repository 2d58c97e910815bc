"""Contact apparatus of an orthonormal frame: normalized contact form, Reeb
field, dual coframe, and the degeneracy locus of the distribution.

The frame (X1, X2) spans the distribution, X1 timelike and X2 spacelike, with
the metric fixed to g(X1,X1) = -1, g(X2,X2) = 1, g(X1,X2) = 0.  The contact
form is normalized by dw(X1, X2) = w([X2, X1]) = 1; since w annihilates the
frame, this is the purely algebraic condition <w, [X2,X1]> = 1.  So the whole
apparatus comes from one exact inverse: the columns of the inverse of the
matrix with rows X1, X2, B = [X2,X1] are the coframe (mu1, mu2, w) dual to
(X1, X2, B).  The Reeb field is the unique combination X0 = B - a X1 - b X2
killing dw, with a = dw(B, X2) and b = -dw(B, X1), and the coframe dual to
(X0, X1, X2) is (w, mu1 + a w, mu2 + b w).
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    DifferentialForm,
    VectorField,
    evaluate,
    exterior_derivative,
    invert3,
    lie_bracket,
    one_form,
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
    domega: DifferentialForm
    x0: VectorField
    nu1: DifferentialForm
    nu2: DifferentialForm
    contact_det: Expr
    excluded: tuple[Expr, ...]

    @property
    def chart(self) -> Chart:
        return self.frame.chart

    @property
    def nu0(self) -> DifferentialForm:
        return self.omega

    @property
    def coframe(self) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm]:
        return (self.nu0, self.nu1, self.nu2)

    @property
    def marked_fields(self) -> tuple[VectorField, VectorField, VectorField]:
        """(X0, X1, X2) in coframe order."""
        return (self.x0, self.frame.x1, self.frame.x2)


def build_apparatus(frame: Frame) -> ContactApparatus:
    chart = frame.chart
    x1, x2 = frame.fields
    bracket = lie_bracket(x2, x1)
    det, inv = invert3([x1.components, x2.components, bracket.components])
    mu1, mu2, omega = (one_form(chart, *(row[k] for row in inv)) for k in range(3))
    domega = exterior_derivative(omega)
    a = evaluate(domega, [bracket, x2])
    b = -evaluate(domega, [bracket, x1])
    x0 = bracket - x1.scaled(a) - x2.scaled(b)
    nu1 = mu1 + omega.scaled(a)
    nu2 = mu2 + omega.scaled(b)
    # det[X1 | X2 | [X1,X2]]; its zero set is where the contact condition fails.
    contact_det = -det
    components = omega.components + x0.components + nu1.components + nu2.components
    excluded = vanishing_loci(chart, [contact_det] + [c.denominator() for c in components])
    return ContactApparatus(frame, omega, domega, x0, nu1, nu2, contact_det, excluded)


def apparatus_checks(app: ContactApparatus) -> dict[str, Tri]:
    """Tri-state ledger of the defining identities of the apparatus."""
    x0, x1, x2 = app.marked_fields
    dw = app.domega
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
    checks["dnu0=nu1^nu2"] = (app.domega - wedge(app.nu1, app.nu2)).is_zero()
    return checks
