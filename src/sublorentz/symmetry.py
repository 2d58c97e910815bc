"""Infinitesimal isometry and conformal-symmetry tests.

A candidate field Z must preserve the distribution (both brackets [Z, Xi]
horizontal).  The restricted Lie derivative of the metric along Z is then a
symmetric 2x2 matrix on the frame; Z is an infinitesimal isometry when it
vanishes and conformal with factor mu when it equals mu * g.  Higher-order
derivatives iterate the same bracket-level formula.  `Candidate` walks the
chain ad_Z^k Xi once and decides preservation and the verdict once; its Lie
derivative entries and the unreduced residuals of its bracket series read
the same chain.

The fiber side realizes the same data through canonical momenta, declared as
coordinates of a phase chart: fiber-linear polynomials h_X, the quadratic
Hamiltonian -h1^2/2 + h2^2/2, and a Poisson bracket whose sign is pinned by
{h_X, h_Y} = h_[X,Y].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional

from .calculus import VectorField, evaluate, lie_bracket, pairing
from .contact import ContactApparatus
from .errors import DistributionNotPreserved
from .expr import Chart, Expr, Residual, Tri, all_zero, dot
from .invariants import METRIC_DIAG, StructureFunctions

Matrix2 = tuple[tuple[Expr, Expr], tuple[Expr, Expr]]


@dataclass(frozen=True)
class SymmetryVerdict:
    kind: str  # isometry | conformal | neither | unknown
    mu: Optional[Expr]


class Candidate:
    """One candidate field Z against a frame's apparatus, with its chain
    ad_Z^k X1, ad_Z^k X2 (each bracket taken once), preservation verdict and
    symmetry verdict, each computed at most once.

    [Z,X1] and [Z,X2] decide preservation, and the frame parts (nu1, nu2) of
    each level are read on demand.  Their Reeb parts need no test: zero at
    k = 0, not FALSE at k = 1 unless preservation is, and zero at the later
    levels, which only a preserving Z reaches."""

    def __init__(self, Z: VectorField, app: ContactApparatus):
        self.Z, self.app = Z, app
        self._rows = [[X, lie_bracket(Z, X)] for X in app.frame.fields]
        self._levels: list[Matrix2] = []

    @cached_property
    def preserved(self) -> Tri:
        return all_zero(pairing(self.app.nu0, [row[1]]) for row in self._rows)

    @cached_property
    def verdict(self) -> SymmetryVerdict:
        """neither when Z moves the distribution; otherwise, from the
        restricted Lie derivative L, isometry when L = 0, conformal when
        L = mu*g, neither for any other L.  unknown where undecided."""
        if self.preserved is not Tri.TRUE:
            return SymmetryVerdict("neither" if self.preserved is Tri.FALSE else "unknown", None)
        L = self.lie_derivative()
        off = L[0][1].is_zero()
        trace = (L[0][0] + L[1][1]).is_zero()
        if Tri.FALSE in (off, trace):
            return SymmetryVerdict("neither", None)
        if Tri.UNKNOWN in (off, trace):
            return SymmetryVerdict("unknown", None)
        mu = L[1][1]
        v = mu.is_zero()
        if v is Tri.TRUE:
            return SymmetryVerdict("isometry", self.app.chart.zero())
        if v is Tri.FALSE:
            return SymmetryVerdict("conformal", mu)
        return SymmetryVerdict("unknown", None)

    def _levels_to(self, k: int) -> list[Matrix2]:
        """The frame parts of ad_Z^0 .. ad_Z^k of (X1, X2); only a Z decided
        to preserve the distribution has them."""
        if self.preserved is not Tri.TRUE:
            raise DistributionNotPreserved("Z does not preserve the distribution")
        nu1, nu2 = self.app.nu1, self.app.nu2
        for n in range(len(self._levels), k + 1):
            for row in self._rows:
                if len(row) == n:
                    row.append(lie_bracket(self.Z, row[-1]))
            self._levels.append(tuple((evaluate(nu1, [row[n]]), evaluate(nu2, [row[n]]))
                                      for row in self._rows))
        return self._levels[:k + 1]

    def lie_derivative(self, order: int = 1) -> Matrix2:
        """Matrix of the order-th restricted Lie derivative of g on (X1, X2)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        ad = self._levels_to(1)[1]
        t = _metric(self.app.chart)
        for _ in range(order):
            t = _lie_step(self.Z, t, ad)
        return t

    def series_residuals(self, n: int) -> tuple[Residual, Residual, Residual]:
        """Unreduced sum_k C(n,k) g(ad_Z^k X, ad_Z^{n-k} Y) for the pairs
        (X1,X1), (X1,X2), (X2,X2).  They all vanish for isometries.  For a
        conformal field they are the flow derivatives of mu*g, for example
        (-2)^n g for the weighted dilation of the Heisenberg frame."""
        if n < 2:
            raise ValueError("n must be >= 2")
        levels = self._levels_to(n)
        chart = self.app.chart

        def residual(i: int, j: int) -> Residual:
            return Residual(chart, [(chart.number(comb(n, k) * c), levels[k][i][m],
                                     levels[n - k][j][m])
                                    for k in range(n + 1) for m, c in enumerate(METRIC_DIAG)])

        return (residual(0, 0), residual(0, 1), residual(1, 1))


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
    pairs = []
    for q in F.chart.coords[:3]:
        p = _momentum(q)
        pairs += [(F.diff(p), G.diff(q)), (-F.diff(q), G.diff(p))]
    return dot(pairs)


def momenta_to_frame(app: ContactApparatus, P: Expr) -> Expr:
    """Re-express a fiber polynomial in the frame momenta (H0, H1, H2) by
    inverting the fiber-linear change of basis h_i = <lambda, X_i>: the
    inverse of the matrix of (X0, X1, X2) is the transposed dual coframe, so
    p_j = sum_i nu_i^j h_i."""
    phase = P.chart
    frame_moms = [phase.var(h) for h in FRAME_MOMENTA]
    return P.subs({
        _momentum(q): sum(
            (nu.components[j].lift(phase) * h for nu, h in zip(app.coframe, frame_moms)),
            phase.zero(),
        )
        for j, q in enumerate(app.chart.coords)
    })


def quadratic_frame_matrix(app: ContactApparatus, P: Expr):
    """Coefficients q_ab of a homogeneous quadratic fiber polynomial in the
    frame momenta (h0, h1, h2), read off its re-expression
    Q = `momenta_to_frame(app, P)` as q_ab = 1/2 d^2 Q / dH_a dH_b."""
    Q = momenta_to_frame(app, P)
    half = P.chart.one() / 2
    return tuple(tuple(Q.diff(a).diff(b) * half for b in FRAME_MOMENTA) for a in FRAME_MOMENTA)


def vertical_form_residual(app: ContactApparatus, sf: StructureFunctions) -> Residual:
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
    return Residual(phase, [(poisson_bracket(h, h0),), (c011, h1, h1), (c012 - c021, h1, h2),
                            (-c022, h2, h2)])
