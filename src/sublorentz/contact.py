"""Contact apparatus of an orthonormal frame: normalized contact form, Reeb
field, dual coframe, the degeneracy locus of the distribution, and the
residuals of its defining identities.

The frame (X1, X2) spans the distribution, X1 timelike and X2 spacelike, with
the metric fixed to g(X1,X1) = -1, g(X2,X2) = 1, g(X1,X2) = 0.  The contact
form is normalized by dw(X1, X2) = w([X2, X1]) = 1; since w annihilates the
frame, this is the purely algebraic condition <w, [X2,X1]> = 1.  So the whole
apparatus comes from one exact inverse: the columns of the inverse of the
matrix with rows X1, X2, B = [X2,X1] are the coframe (mu1, mu2, w) dual to
(X1, X2, B).  The Reeb field is the unique combination X0 = B - a X1 - b X2
killing dw, with a = dw(B, X2) and b = -dw(B, X1), and the coframe dual to
(X0, X1, X2) is (w, mu1 + a w, mu2 + b w).

So [X2,X1] - X0 = a X1 + b X2: the structure functions c12^1 = a and
c12^2 = b come with the apparatus.  The Reeb components of the structure
brackets need no check: w([Xi,X0]) = -dw(Xi,X0) = 0 and w([X2,X1]) = w(B) = 1
hold by construction, and the residuals of dw(X0,Xi) = 0 and dw(X1,X2) = 1
in `apparatus_residuals` verify them.  This module only states residuals;
`report` decides them.
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
from .expr import Chart, Expr, vanishing_loci


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
    a: Expr  # dw([X2,X1], X2), the X1 coefficient of [X2,X1] - X0
    b: Expr  # -dw([X2,X1], X1), its X2 coefficient
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
    return ContactApparatus(frame, omega, domega, x0, nu1, nu2, a, b, contact_det, excluded)


def apparatus_residuals(app: ContactApparatus) -> dict[str, tuple[Expr, ...]]:
    """The defining identities of the apparatus, each as the residuals that
    must vanish.  The pairings <nu_i, X_j> are taken once; the row of
    nu0 = w holds w(X0), w(X1) and w(X2)."""
    fields = app.marked_fields
    x0, x1, x2 = fields
    dw = app.domega
    pairing = [[evaluate(nu, [X]) for X in fields] for nu in app.coframe]
    return {
        "omega(X1)=0": (pairing[0][1],),
        "omega(X2)=0": (pairing[0][2],),
        "omega(X0)=1": (pairing[0][0] - 1,),
        "dw(X1,X2)=1": (evaluate(dw, [x1, x2]) - 1,),
        "dw(X0,X1)=0": (evaluate(dw, [x0, x1]),),
        "dw(X0,X2)=0": (evaluate(dw, [x0, x2]),),
        "<nu_i,X_j>=delta_ij": tuple(
            pairing[i][j] - (1 if i == j else 0) for i in range(3) for j in range(3)
        ),
        "dnu0=nu1^nu2": (dw - wedge(app.nu1, app.nu2)).components,
    }
