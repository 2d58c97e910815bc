"""Second-order ODE u'' = Q(x, u, p) as a conformal class of contact
sub-Lorentzian metrics on the jet chart (x, u, p).

The three 1-forms are w1 = du - p dx, w2 = dp - Q dx, w3 = dx.  The
distribution is ker w1; it splits into the null line fields spanned by the
total-derivative field N1 = d/dx + p d/du + Q d/dp (= ker w1 n ker w2) and
N2 = d/dp (= ker w1 n ker w3).  The representative orthonormal frame is the
symmetric choice X1 = (N1 + N2)/2 timelike, X2 = (N1 - N2)/2 spacelike; any
positive rescaling of N1, N2 yields a conformally equivalent metric, so this
is a convention, not an invariant of the equation.

`null_bundle_residuals` states the null-line identities as residuals that
must vanish: each null field is annihilated by its two 1-forms, and its
length g(V,V) is read off the coframe of the frame's apparatus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import DifferentialForm, VectorField, combine, evaluate, one_form, pairing
from .contact import ContactApparatus, Frame
from .expr import Chart, Expr, Residual

ODE_CHART = Chart(("x", "u", "p"))


@dataclass(frozen=True)
class OdeStructure:
    chart: Chart
    q: Expr
    omega1: DifferentialForm
    omega2: DifferentialForm
    omega3: DifferentialForm
    n1: VectorField
    n2: VectorField
    frame: Frame


def build_from_ode(q: Expr) -> OdeStructure:
    chart = q.chart
    if chart.coords != ODE_CHART.coords:
        raise ValueError("the ODE chart must have coordinates (x, u, p)")
    zero = chart.zero()
    one = chart.one()
    p = chart.var("p")
    omega1 = one_form(chart, -p, one, zero)
    omega2 = one_form(chart, -q, zero, one)
    omega3 = one_form(chart, one, zero, zero)
    n1 = VectorField(chart, (one, p, q))
    n2 = VectorField(chart, (zero, zero, one))
    half = one / 2
    x1 = combine([(half, n1), (half, n2)])
    x2 = combine([(half, n1), (-half, n2)])
    return OdeStructure(chart, q, omega1, omega2, omega3, n1, n2, Frame(chart, x1, x2))


def null_bundle_residuals(s: OdeStructure, app: ContactApparatus) -> dict[str, tuple[Residual, ...]]:
    """X1 + X2 spans ker w1 n ker w2 and X1 - X2 spans ker w1 n ker w3, and
    both directions are null: g(V,V) = -nu1(V)^2 + nu2(V)^2, read through
    the coframe of the frame's apparatus `app`."""
    one = s.chart.one()
    plus = combine([(one, s.frame.x1), (one, s.frame.x2)])
    minus = combine([(one, s.frame.x1), (-one, s.frame.x2)])

    def g(v: VectorField) -> Residual:
        v1, v2 = evaluate(app.nu1, [v]), evaluate(app.nu2, [v])
        return Residual(s.chart, [(-v1, v1), (v2, v2)])

    return {
        "w1(X1+X2)=0": (pairing(s.omega1, [plus]),),
        "w2(X1+X2)=0": (pairing(s.omega2, [plus]),),
        "w1(X1-X2)=0": (pairing(s.omega1, [minus]),),
        "w3(X1-X2)=0": (pairing(s.omega3, [minus]),),
        "g(X1+X2,X1+X2)=0": (g(plus),),
        "g(X1-X2,X1-X2)=0": (g(minus),),
    }
