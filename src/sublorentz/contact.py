"""Contact apparatus of an orthonormal frame: normalized contact form, Reeb
field, dual coframe, the degeneracy locus of the distribution, and the
residuals of its defining identities.

The frame (X1, X2) spans the distribution, X1 timelike and X2 spacelike, with
the metric fixed to g(X1,X1) = -1, g(X2,X2) = 1, g(X1,X2) = 0.  The contact
form is normalized by dw(X1, X2) = w([X2, X1]) = 1; since w annihilates the
frame, this is the purely algebraic condition <w, [X2,X1]> = 1.  So the whole
apparatus comes from one exact inverse: the columns of the inverse of the
matrix with rows X1, X2, B = [X2,X1] are the coframe (mu1, mu2, w) dual to
(X1, X2, B).  Since w(Xi) = 0 and w(B) = 1 are constant,
dw(B, Xi) = -w([B,Xi]) = w([Xi,B]).  The Reeb field is the unique
combination X0 = B - a X1 - b X2 killing dw, with a = dw(B, X2) = w([X2,B])
and b = -dw(B, X1) = -w([X1,B]), read off the brackets [X1,B] and [X2,B],
which for a polynomial frame are polynomial fields.  The coframe dual to
(X0, X1, X2) is (w, nu1, nu2) with nu1 = mu1 + a w and nu2 = mu2 + b w.

So [X2,X1] - X0 = a X1 + b X2: the structure functions c12^1 = a and
c12^2 = b come with the apparatus.  The others need no bracket with the
rational Reeb field.  Write c = c12^i, so nu_i = mu_i + c w.  Since
nu_i(Xj) = delta_ij and nu_i(X0) = 0 are constant,
c0j^i = nu_i([Xj,X0]) = -dnu_i(Xj,X0).  With w(X0) = 1, w(Xj) = 0 and
dw(Xj,X0) = 0, d(c w)(Xj,X0) = Xj(c), so dnu_i(Xj,X0) = dmu_i(Xj,X0) + Xj(c).
mu_i(Xj) is constant, mu_i(X0) = -c, and mu_i vanishes on B, so on
[Xj,Xk]; with X0 = B - a X1 - b X2 that gives
mu_i([Xj,X0]) = mu_i([Xj,B]) - Xj(c), and
dmu_i(Xj,X0) = Xj(mu_i(X0)) - mu_i([Xj,X0]) = -mu_i([Xj,B]).  Hence
c0j^i = mu_i([Xj,B]) - Xj(c12^i), one `dot` per function
(`invariants.structure_functions`).

The Reeb components of the structure brackets need no check:
w([Xi,X0]) = -dw(Xi,X0) = 0 and w([X2,X1]) = w(B) = 1 hold by construction,
and the residuals of dw(X0,Xi) = 0 and dw(X1,X2) = 1 in `apparatus_residuals`
verify them.  There dw is taken once, by the calculus's `exterior_derivative`,
and every dw check is a `pairing` of it, as are the checks on w and the
coframe; X0, nu1 and nu2 are each one `combine`.  This module only
states residuals; `report` decides them.  The excluded loci are factored by
`excluded_loci`, which only the report block that prints them calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
    PAIRS,
    DifferentialForm,
    VectorField,
    combine,
    evaluate,
    exterior_derivative,
    invert3,
    lie_bracket,
    one_form,
    pairing,
)
from .expr import Chart, Expr, Residual, vanishing_loci


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
    mu1: DifferentialForm  # mu1, mu2, w: the coframe dual to (X1, X2, [X2,X1])
    mu2: DifferentialForm
    x0: VectorField
    nu1: DifferentialForm
    nu2: DifferentialForm
    a: Expr  # w([X2,B]), the X1 coefficient of [X2,X1] - X0
    b: Expr  # -w([X1,B]), its X2 coefficient
    brackets: tuple[VectorField, VectorField]  # [X1,B] and [X2,B], B = [X2,X1]
    contact_det: Expr

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
    brackets = (lie_bracket(x1, bracket), lie_bracket(x2, bracket))
    a = evaluate(omega, [brackets[1]])
    b = -evaluate(omega, [brackets[0]])
    one = chart.one()
    x0 = combine([(one, bracket), (-a, x1), (-b, x2)])
    nu1 = combine([(one, mu1), (a, omega)])
    nu2 = combine([(one, mu2), (b, omega)])
    # det[X1 | X2 | [X1,X2]]; its zero set is where the contact condition fails.
    return ContactApparatus(frame, omega, mu1, mu2, x0, nu1, nu2, a, b, brackets, -det)


def excluded_loci(app: ContactApparatus) -> tuple[Expr, ...]:
    """The irreducible factors of the contact determinant and of the
    denominators of w, X0, nu1 and nu2: where the apparatus is undefined."""
    components = app.omega.components + app.x0.components + app.nu1.components + app.nu2.components
    return vanishing_loci(app.chart, [app.contact_det] + [c.denominator() for c in components])


def apparatus_residuals(app: ContactApparatus) -> dict[str, tuple[Residual, ...]]:
    """The defining identities of the apparatus, each as the residuals that
    must vanish, kept unreduced.  dw is taken once, and every dw check is a
    `pairing` of it."""
    x0, x1, x2 = fields = app.marked_fields
    dw = exterior_derivative(app.omega)
    nu1, nu2 = app.nu1.components, app.nu2.components
    return {
        "omega(X1)=0": (pairing(app.omega, [x1]),),
        "omega(X2)=0": (pairing(app.omega, [x2]),),
        "omega(X0)=1": (pairing(app.omega, [x0], -1),),
        "dw(X1,X2)=1": (pairing(dw, [x1, x2], -1),),
        "dw(X0,X1)=0": (pairing(dw, [x0, x1]),),
        "dw(X0,X2)=0": (pairing(dw, [x0, x2]),),
        "<nu_i,X_j>=delta_ij": tuple(
            pairing(nu, [X], -1 if i == j else 0)
            for i, nu in enumerate(app.coframe) for j, X in enumerate(fields)
        ),
        "dnu0=nu1^nu2": tuple(
            Residual(app.chart, [(d,), (-nu1[i], nu2[j]), (nu1[j], nu2[i])])
            for (i, j), d in zip(PAIRS, dw.components)
        ),
    }
