"""Infinitesimal isometry and conformal-symmetry tests.

A candidate field Z must preserve the distribution (both brackets [Z, Xi]
horizontal).  The restricted Lie derivative of the metric along Z is then a
symmetric 2x2 matrix on the frame; Z is an infinitesimal isometry when it
vanishes and conformal with factor mu when it equals mu * g.  `Candidate`
walks the chain ad_Z^k Xi once and decides preservation and the verdict
once.  The verdict and the bracket series read one formula, the series
sum_k C(n,k) g(ad_Z^k X, ad_Z^{n-k} Y): the metric entries are constant, so
its first term is minus the restricted Lie derivative.

The fiber side realizes the same data through canonical momenta P_<coord>,
declared beside the coordinates on a six-name phase chart: fiber-linear
polynomials h_X, the quadratic Hamiltonian -h1^2/2 + h2^2/2, and a Poisson
bracket whose sign is pinned by {h_X, h_Y} = h_[X,Y], kept unreduced like a
pairing.  The frame momenta H0..H2 appear only in `momenta_to_frame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Optional

from .calculus import VectorField, evaluate, lie_bracket, pairing
from .contact import ContactApparatus
from .errors import DistributionNotPreserved, UnknownSymbol
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
        """neither when Z moves the distribution; otherwise, from the series'
        first term S = -L, its off-diagonal and trace decided unreduced: isometry
        when L = 0, conformal when L = mu*g, neither otherwise; unknown where undecided."""
        if self.preserved is not Tri.TRUE:
            return SymmetryVerdict("neither" if self.preserved is Tri.FALSE else "unknown", None)
        s00, s01, s11 = self.series_residuals(1)
        off = s01.is_zero()
        trace = Residual(self.app.chart, s00.products + s11.products).is_zero()
        if Tri.FALSE in (off, trace):
            return SymmetryVerdict("neither", None)
        if Tri.UNKNOWN in (off, trace):
            return SymmetryVerdict("unknown", None)
        mu = -s11.value()
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

    def lie_derivative(self) -> Matrix2:
        """Matrix of the restricted Lie derivative of g on (X1, X2)."""
        return _lie_matrix(self.series_residuals(1))

    def series_residuals(self, n: int) -> tuple[Residual, Residual, Residual]:
        """The n-th term of the bracket series, unreduced: zero for isometries,
        and the flow derivatives of mu*g for a conformal field, for example
        (-2)^n g for the weighted dilation of the Heisenberg frame."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return _series(self.app.chart, self._levels_to(n), n)


def _series(chart: Chart, levels, n: int) -> tuple[Residual, Residual, Residual]:
    """Unreduced sum_k C(n,k) g(ad^k X, ad^{n-k} Y) for the pairs (X1,X1),
    (X1,X2), (X2,X2), where levels[k] holds the frame parts of ad^k (X1, X2)."""
    def residual(i: int, j: int) -> Residual:
        return Residual(chart, [(chart.number(comb(n, k) * c), levels[k][i][m], levels[n - k][j][m])
                                for k in range(n + 1) for m, c in enumerate(METRIC_DIAG)])

    return (residual(0, 0), residual(0, 1), residual(1, 1))


def _lie_matrix(first: tuple[Residual, Residual, Residual]) -> Matrix2:
    """The restricted Lie derivative, reduced, from the series' first term."""
    e00, e01, e11 = (-s.value() for s in first)
    return ((e00, e01), (e01, e11))


def reeb_lie_derivative(sf: StructureFunctions, chart: Chart) -> Matrix2:
    """Restricted Lie derivative along the Reeb field from structure functions
    alone: an independent route valid in both coordinate and constant modes,
    the series' first term with ad_X0 Xi = -(c0i^1 X1 + c0i^2 X2)."""
    one, zero = chart.one(), chart.zero()
    levels = [((one, zero), (zero, one)), ((-sf.c011, -sf.c012), (-sf.c021, -sf.c022))]
    return _lie_matrix(_series(chart, levels, 1))


# -- fiber polynomials and the Poisson bracket --------------------------------


# Frame momenta h_i = <lambda, X_i>, in coframe order (X0, X1, X2).
FRAME_MOMENTA = ("H0", "H1", "H2")


def _momentum(coord: str) -> str:
    """Name of the canonical momentum conjugate to `coord`.  The uppercase
    prefix fixes where momenta fall in sympy's generator order, which shapes
    the cost of canonicalization: after single-letter names, before
    lowercase multi-letter names and atoms, and after the frame momenta
    H0..H2 of `momenta_to_frame`."""
    return f"P_{coord}"


def phase_chart(chart: Chart) -> Chart:
    """Coordinates of the cotangent bundle: the chart's three coordinates
    first, then their canonical momenta, six names in all.  A chart already
    declaring one of the momentum names raises UnknownSymbol."""
    return Chart(chart.coords + tuple(_momentum(c) for c in chart.coords), chart.params)


def fiber_linear(X: VectorField) -> Expr:
    """h_X(lambda) = <lambda, X> in canonical momenta."""
    phase = phase_chart(X.chart)
    return dot((c.lift(phase), phase.var(_momentum(q))) for c, q in zip(X.components, X.chart.coords))


def geodesic_hamiltonian(x1: VectorField, x2: VectorField) -> Expr:
    """-h1^2/2 + h2^2/2 for the orthonormal frame."""
    h1 = fiber_linear(x1)
    h2 = fiber_linear(x2)
    return (h2 * h2 - h1 * h1) * (h1.chart.one() / 2)


def poisson_bracket(F: Expr, G: Expr) -> Residual:
    """Canonical bracket of functions on a phase chart (whose first three
    coordinates are the base's), sign fixed so that {h_X, h_Y} = h_[X,Y]: the
    unreduced `Residual` of six products, like a pairing; `.value()` reduces it."""
    if G.chart != F.chart:
        raise UnknownSymbol("operands live on different charts")
    products = []
    for q in F.chart.coords[:3]:
        p = _momentum(q)
        products += [(F.diff(p), G.diff(q)), (-F.diff(q), G.diff(p))]
    return Residual(F.chart, products)


def momenta_to_frame(app: ContactApparatus, P: Expr) -> Expr:
    """Re-express a fiber polynomial in the frame momenta (H0, H1, H2) by
    inverting the fiber-linear change of basis h_i = <lambda, X_i>: the
    inverse of the matrix of (X0, X1, X2) is the transposed dual coframe, so
    p_j = sum_i nu_i^j h_i.  The value lives on the phase chart extended by
    H0..H2, the one place the frame momenta are declared."""
    phase = Chart(P.chart.coords + FRAME_MOMENTA, P.chart.params)
    frame_moms = [phase.var(h) for h in FRAME_MOMENTA]
    return P.lift(phase).subs({
        _momentum(q): dot((nu.components[j].lift(phase), h) for nu, h in zip(app.coframe, frame_moms))
        for j, q in enumerate(app.chart.coords)
    })


def quadratic_frame_matrix(app: ContactApparatus, P: Expr):
    """Coefficients q_ab of a homogeneous quadratic fiber polynomial in the
    frame momenta (h0, h1, h2), read off its re-expression
    Q = `momenta_to_frame(app, P)` as q_ab = 1/2 d^2 Q / dH_a dH_b."""
    Q = momenta_to_frame(app, P)
    half = Q.chart.one() / 2
    return tuple(tuple(Q.diff(a).diff(b) * half for b in FRAME_MOMENTA) for a in FRAME_MOMENTA)


def vertical_form_residual(app: ContactApparatus, sf: StructureFunctions) -> Residual:
    """Residual of the closed-form for {h, h0}:
    {h, h0} = -c01^1 h1^2 + (c02^1 - c01^2) h1 h2 + c02^2 h2^2.

    Both sides are compared as polynomials in the canonical momenta (the
    right side composed with the forward fiber-linear map), which is the same
    identity as in frame momenta since the change of basis is invertible.
    The bracket's six products join the right side's unreduced."""
    h = geodesic_hamiltonian(app.frame.x1, app.frame.x2)
    h0 = fiber_linear(app.x0)
    h1 = fiber_linear(app.frame.x1)
    h2 = fiber_linear(app.frame.x2)
    phase = h.chart
    c011, c012, c021, c022 = (c.lift(phase) for c in (sf.c011, sf.c012, sf.c021, sf.c022))
    return Residual(phase, poisson_bracket(h, h0).products + [
        (c011, h1, h1), (c012, h1, h2), (-c021, h1, h2), (-c022, h2, h2)])
