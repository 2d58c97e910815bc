"""Infinitesimal isometry and conformal-symmetry tests.

A candidate field Z must preserve the distribution (both brackets [Z, Xi]
horizontal).  The restricted Lie derivative of the metric along Z is then a
symmetric 2x2 matrix on the frame; Z is an infinitesimal isometry when it
vanishes and conformal with factor mu when it equals mu * g.  Higher-order
derivatives iterate the same bracket-level formula.

The fiber side realizes the same data through canonical momenta, declared as
coordinates of a phase chart: fiber-linear polynomials h_X, the quadratic
Hamiltonian -h1^2/2 + h2^2/2, and a Poisson bracket whose sign is pinned by
{h_X, h_Y} = h_[X,Y].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .calculus import VectorField, det3, evaluate, invert3, lie_bracket
from .contact import ContactApparatus
from .errors import DistributionNotPreserved
from .expr import Chart, Expr, Tri, all_zero
from .invariants import METRIC_DIAG, StructureFunctions

Matrix2 = tuple[tuple[Expr, Expr], tuple[Expr, Expr]]


def preserves_distribution(Z: VectorField, app: ContactApparatus) -> Tri:
    nu0 = app.nu0
    parts = [
        evaluate(nu0, [lie_bracket(Z, app.frame.x1)]),
        evaluate(nu0, [lie_bracket(Z, app.frame.x2)]),
    ]
    return all_zero(parts)


def _horizontal_parts(app: ContactApparatus, V: VectorField) -> tuple[Expr, Expr]:
    """Expand a horizontal field in the frame; reject a Reeb component."""
    vertical = evaluate(app.nu0, [V])
    if vertical.is_zero() is Tri.FALSE:
        raise DistributionNotPreserved("bracket left the distribution")
    return (evaluate(app.nu1, [V]), evaluate(app.nu2, [V]))


def restricted_lie_derivative(Z: VectorField, app: ContactApparatus,
                              order: int = 1) -> Matrix2:
    """Matrix of the order-th restricted Lie derivative of g on (X1, X2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if preserves_distribution(Z, app) is not Tri.TRUE:
        raise DistributionNotPreserved("Z does not preserve the distribution")
    return _lie_derivative(Z, app, order)


def _lie_derivative(Z: VectorField, app: ContactApparatus, order: int) -> Matrix2:
    x = app.frame.fields
    ad = [
        _horizontal_parts(app, lie_bracket(Z, x[0])),
        _horizontal_parts(app, lie_bracket(Z, x[1])),
    ]
    t = _metric(app.chart)
    for _ in range(order):
        t = _lie_step(Z, t, ad)
    return t


def _metric(chart: Chart) -> Matrix2:
    zero = chart.zero()
    return ((chart.number(METRIC_DIAG[0]), zero), (zero, chart.number(METRIC_DIAG[1])))


def _lie_step(derive, t: Matrix2, ad) -> Matrix2:
    """One restricted Lie derivative of the matrix t along a field whose
    derivation on scalars is `derive` and whose brackets with (X1, X2) have
    frame coefficients `ad`."""
    def entry(i: int, j: int) -> Expr:
        lead = derive(t[i][j])
        ai, bi = ad[i]
        aj, bj = ad[j]
        return lead - (ai * t[0][j] + bi * t[1][j]) - (aj * t[i][0] + bj * t[i][1])

    e00 = entry(0, 0)
    e01 = entry(0, 1)
    e11 = entry(1, 1)
    return ((e00, e01), (e01, e11))


def reeb_lie_derivative(sf: StructureFunctions, chart: Chart) -> Matrix2:
    """Restricted Lie derivative along the Reeb field from structure functions
    alone: an independent route valid in both coordinate and constant modes
    (ad_X0 Xi = -(c0i^1 X1 + c0i^2 X2)).  The metric entries are constant, so
    their derivative along X0 is zero."""
    ad = [(-sf.c011, -sf.c012), (-sf.c021, -sf.c022)]
    return _lie_step(lambda f: chart.zero(), _metric(chart), ad)


@dataclass(frozen=True)
class SymmetryVerdict:
    kind: str  # isometry | conformal | neither | unknown
    mu: Optional[Expr]
    lie_derivative: Matrix2


def conformal_factor(Z: VectorField, app: ContactApparatus) -> SymmetryVerdict:
    """Classify Z from L = restricted Lie derivative: L = 0 means isometry,
    L = mu*g conformal, anything else neither."""
    pres = preserves_distribution(Z, app)
    if pres is Tri.FALSE:
        raise DistributionNotPreserved("Z does not preserve the distribution")
    L = _lie_derivative(Z, app, 1)
    if pres is Tri.UNKNOWN:
        return SymmetryVerdict("unknown", None, L)
    off = L[0][1].is_zero()
    trace = (L[0][0] + L[1][1]).is_zero()
    if off is Tri.FALSE or trace is Tri.FALSE:
        return SymmetryVerdict("neither", None, L)
    if off is Tri.UNKNOWN or trace is Tri.UNKNOWN:
        return SymmetryVerdict("unknown", None, L)
    mu = L[1][1]
    v = mu.is_zero()
    if v is Tri.TRUE:
        return SymmetryVerdict("isometry", app.chart.zero(), L)
    if v is Tri.FALSE:
        return SymmetryVerdict("conformal", mu, L)
    return SymmetryVerdict("unknown", mu, L)


def binomial_identity_check(Z: VectorField, app: ContactApparatus, n: int) -> tuple[Expr, Expr, Expr]:
    """Residuals of sum_k C(n,k) g(ad_Z^k X, ad_Z^{n-k} Y) for the pairs
    (X1,X1), (X1,X2), (X2,X2).  They all vanish for isometries.  For a
    conformal field they are the flow derivatives of mu*g, for example
    (-2)^n g for the weighted dilation of the Heisenberg frame."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if preserves_distribution(Z, app) is not Tri.TRUE:
        raise DistributionNotPreserved("Z does not preserve the distribution")
    chart = app.chart
    powers: list[list[tuple[Expr, Expr]]] = []
    for X in app.frame.fields:
        row = []
        current = X
        for _k in range(n + 1):
            row.append(_horizontal_parts(app, current))
            current = lie_bracket(Z, current)
        powers.append(row)

    def g(u: tuple[Expr, Expr], v: tuple[Expr, Expr]) -> Expr:
        return chart.number(METRIC_DIAG[0]) * u[0] * v[0] + chart.number(METRIC_DIAG[1]) * u[1] * v[1]

    def residual(i: int, j: int) -> Expr:
        out = chart.zero()
        for k in range(n + 1):
            out = out + chart.number(comb(n, k)) * g(powers[i][k], powers[j][n - k])
        return out

    return (residual(0, 0), residual(0, 1), residual(1, 1))


# -- fiber polynomials and the Poisson bracket --------------------------------


# Frame momenta h_i = <lambda, X_i>, in coframe order (X0, X1, X2).
FRAME_MOMENTA = ("H0", "H1", "H2")


def _momentum(coord: str) -> str:
    """Name of the canonical momentum conjugate to `coord`.  The uppercase
    prefix fixes where momenta fall in sympy's generator order, which shapes
    the cost of canonicalization: after single-letter names, before
    lowercase multi-letter names and atoms."""
    return f"P_{coord}"


def phase_chart(chart: Chart) -> Chart:
    """Coordinates of the cotangent bundle: the chart's three coordinates
    first, then their canonical momenta and the frame momenta.  A chart
    already declaring one of the momentum names raises UnknownSymbol."""
    moms = tuple(_momentum(c) for c in chart.coords)
    return Chart(chart.coords + moms + FRAME_MOMENTA, chart.params)


def fiber_linear(X: VectorField) -> Expr:
    """h_X(lambda) = <lambda, X> in canonical momenta."""
    phase = phase_chart(X.chart)
    return sum(
        (c.lift(phase) * phase.var(_momentum(q)) for c, q in zip(X.components, X.chart.coords)),
        phase.zero(),
    )


def geodesic_hamiltonian(x1: VectorField, x2: VectorField) -> Expr:
    """-h1^2/2 + h2^2/2 for the orthonormal frame."""
    h1 = fiber_linear(x1)
    h2 = fiber_linear(x2)
    return (h2 * h2 - h1 * h1) * (h1.chart.one() / 2)


def poisson_bracket(F: Expr, G: Expr) -> Expr:
    """Canonical bracket of functions on a phase chart (whose first three
    coordinates are the base's), sign fixed so that {h_X, h_Y} = h_[X,Y]."""
    out = F.chart.zero()
    for q in F.chart.coords[:3]:
        p = _momentum(q)
        out = out + F.diff(p) * G.diff(q) - F.diff(q) * G.diff(p)
    return out


def momenta_to_frame(app: ContactApparatus, P: Expr) -> Expr:
    """Re-express a fiber polynomial in the frame momenta (H0, H1, H2) by
    inverting the fiber-linear change of basis h_i = <lambda, X_i>."""
    phase = P.chart
    frame_moms = [phase.var(h) for h in FRAME_MOMENTA]
    rows = [f.components for f in app.marked_fields]
    inv = invert3(rows, strict=False)
    return P.subs({
        _momentum(q): sum((inv[j][i].lift(phase) * frame_moms[i] for i in range(3)), phase.zero())
        for j, q in enumerate(app.chart.coords)
    })


def quadratic_frame_matrix(app: ContactApparatus, P: Expr):
    """Coefficients q_ab of a homogeneous quadratic fiber polynomial in the
    frame momenta (h0, h1, h2), extracted by polarization against the dual
    coframe: h_a evaluates to delta_ab on the covector nu_b, so
    q_ab = (P(nu_a + nu_b) - P(nu_a) - P(nu_b)) / 2 with q_aa = P(nu_a).

    The coframe rows share the frame determinant as common denominator, so the
    substitution uses the fraction-free rows det * nu_a and divides by det^2
    once at the end (P is homogeneous of degree 2)."""
    phase = P.chart
    det = det3([f.components for f in app.marked_fields])
    det2 = (det * det).lift(phase)

    def at_covector(w) -> Expr:
        return P.subs({_momentum(q): c for q, c in zip(app.chart.coords, w)})

    covs = [tuple((det * c).lift(phase) for c in f.components) for f in app.coframe]
    diag = [at_covector(w) for w in covs]
    q = [[phase.zero() for _ in range(3)] for _ in range(3)]
    half = phase.one() / 2
    for a in range(3):
        q[a][a] = diag[a] / det2
        for b in range(a + 1, 3):
            both = at_covector(tuple(u + v for u, v in zip(covs[a], covs[b])))
            q[a][b] = q[b][a] = (both - diag[a] - diag[b]) * half / det2
    return tuple(tuple(row) for row in q)


def vertical_form_residual(app: ContactApparatus, sf: StructureFunctions) -> Expr:
    """Residual of the closed-form for {h, h0}:
    {h, h0} = -c01^1 h1^2 + (c02^1 - c01^2) h1 h2 + c02^2 h2^2.

    Both sides are compared as polynomials in the canonical momenta (the
    right side composed with the forward fiber-linear map), which is the same
    identity as in frame momenta since the change of basis is invertible."""
    h = geodesic_hamiltonian(app.frame.x1, app.frame.x2)
    h0 = fiber_linear(app.x0)
    h1 = fiber_linear(app.frame.x1)
    h2 = fiber_linear(app.frame.x2)
    phase = h.chart
    c011, c012, c021, c022 = (c.lift(phase) for c in (sf.c011, sf.c012, sf.c021, sf.c022))
    bracket = poisson_bracket(h, h0)
    target = -c011 * h1 * h1 + (c021 - c012) * h1 * h2 + c022 * h2 * h2
    return bracket - target
