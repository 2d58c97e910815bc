"""Structure functions and the invariants of a contact sub-Lorentzian
structure: the trace-free operator h_tilde on the distribution, the scalars
chi and kappa, hyperbolic frame rotations, dilations, the eta-form closure
residuals, null kernel directions, and classification.

Both input modes share one code path through a `FrameContext`: coordinate
frames differentiate for real, abstract constant-structure marks have all
directional derivatives equal to zero.  The context computes each invariant
and decides each of its zero tests at most once.  A coordinate frame's
structure functions are read off the brackets [Xj,[X2,X1]] that the
apparatus keeps, never off a bracket with the Reeb field (`contact` has the
derivation).  The identities this module verifies are stated as unreduced
`Residual`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import expr as ex
from .calculus import VectorField, combine, differential, exterior_derivative, wedge
from .calculus import lie_bracket  # noqa: F401  (perfbench/test_layers.py wraps this binding)
from .contact import ContactApparatus, Frame, build_apparatus
from .errors import HTildeNonzero, IndeterminateDomain, ThetaInvalid
from .expr import Chart, Expr, Residual, Tri, all_zero, dot

#: metric of the orthonormal frame on the distribution: g = diag(-1, +1)
METRIC_DIAG = (-1, 1)


@dataclass(frozen=True)
class StructureFunctions:
    """Coefficients of [X1,X0], [X2,X0] and [X2,X1] - X0 in the frame."""

    c011: Expr
    c012: Expr
    c021: Expr
    c022: Expr
    c121: Expr
    c122: Expr

    def as_dict(self) -> dict[str, Expr]:
        return {
            "c011": self.c011, "c012": self.c012, "c021": self.c021,
            "c022": self.c022, "c121": self.c121, "c122": self.c122,
        }


@dataclass(frozen=True)
class Invariants:
    h_tilde: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]
    chi: Expr
    kappa: Expr
    h_bar: tuple[tuple[Expr, Expr], tuple[Expr, Expr]]


@dataclass(frozen=True)
class Classification:
    label: str  # Heisenberg | SL2Cover | NullKernelCase | Generic | Undecided
    scope: str  # group | pointwise
    witness: dict


# -- the frame context ----------------------------------------------------------


class FrameContext:
    """One structure's apparatus (coordinate frames only), structure
    functions, invariants, the zero verdicts of h_tilde, chi and kappa, and
    classification, each computed at most once.

    `FrameContext(apparatus)` differentiates along a coordinate frame;
    `FrameContext(sf=..., chart=...)` holds constant structure functions,
    whose directional derivatives all vanish."""

    def __init__(self, apparatus: Optional[ContactApparatus] = None, *,
                 sf: Optional[StructureFunctions] = None, chart: Optional[Chart] = None):
        self.apparatus = apparatus
        self.mode = "algebra" if apparatus is None else "frame"
        self.chart = chart if apparatus is None else apparatus.chart
        if apparatus is None:
            self.sf = sf  # given, so the cached `sf` below never runs

    @cached_property
    def sf(self) -> StructureFunctions:
        return structure_functions(self.apparatus)

    @cached_property
    def inv(self) -> Invariants:
        return compute_invariants(self.sf, self)

    @cached_property
    def h_tilde_zero(self) -> Tri:
        return all_zero([e for row in self.inv.h_tilde for e in row])

    @cached_property
    def chi_zero(self) -> Tri:
        return self.inv.chi.is_zero()

    @cached_property
    def kappa_zero(self) -> Tri:
        return self.inv.kappa.is_zero()

    @cached_property
    def classification(self) -> Classification:
        return classify(self)

    def derive(self, i: int, f: Expr) -> Expr:
        """The i-th marked field's derivative X_i(f), zero for constant
        structure functions."""
        if self.apparatus is None:
            return self.chart.zero()
        return self.apparatus.marked_fields[i](f)


# -- structure functions ------------------------------------------------------


def structure_functions(app: ContactApparatus) -> StructureFunctions:
    """c0j^i = mu_i([Xj,B]) - Xj(c12^i) with B = [X2,X1], one `dot` each, and
    c12^1 = a, c12^2 = b from the apparatus (the derivation is in `contact`):
    no bracket with the Reeb field X0."""
    x1, x2 = app.frame.fields
    mus = (app.mu1.components, app.mu2.components)
    cs = (app.a, app.b)

    def c0(field: VectorField, bracket: VectorField, i: int) -> Expr:
        return dot(list(zip(mus[i], bracket.components))
                   + [(-f, cs[i].diff(q)) for f, q in zip(field.components, app.chart.coords)])

    b1, b2 = app.brackets
    return StructureFunctions(c0(x1, b1, 0), c0(x1, b1, 1), c0(x2, b2, 0), c0(x2, b2, 1),
                              c121=app.a, c122=app.b)


# -- invariants ---------------------------------------------------------------


def compute_invariants(sf: StructureFunctions, ctx) -> Invariants:
    half = ctx.chart.one() / 2
    b = half * (sf.c021 - sf.c012)
    h_tilde = ((sf.c011, b), (-b, sf.c022))
    h_bar = ((-sf.c011, -b), (-b, sf.c022))
    chi = -(sf.c011 ** 2) + b ** 2
    kappa = (
        ctx.derive(2, sf.c121)
        + ctx.derive(1, sf.c122)
        - sf.c121 ** 2
        + sf.c122 ** 2
        - half * (sf.c012 + sf.c021)
    )
    return Invariants(h_tilde, chi, kappa, h_bar)


# -- eta form and coframe identities -----------------------------------------


def _require_h_tilde_zero(ctx: FrameContext) -> Expr:
    if ctx.h_tilde_zero is Tri.FALSE:
        raise HTildeNonzero("h_tilde does not vanish")
    if ctx.h_tilde_zero is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide whether h_tilde vanishes")
    return ctx.inv.kappa


def eta_residuals(ctx: FrameContext) -> dict[str, tuple[Residual, ...]]:
    """With h_tilde = 0 (so c := c02^1 = c01^2), build
    eta = (kappa + c) nu0 + c12^1 nu1 - c12^2 nu2: the residuals of
    d(eta) = d(kappa) ^ nu0, and of the two first-order coframe identities
    that the closure rests on."""
    sf = ctx.sf
    chart = ctx.chart
    kappa = _require_h_tilde_zero(ctx)
    c = sf.c021
    r1 = Residual(chart, [(-ctx.derive(1, c),), (-c, sf.c122), (ctx.derive(0, sf.c121),)])
    r2 = Residual(chart, [(ctx.derive(2, c),), (-c, sf.c121), (ctx.derive(0, sf.c122),)])
    coeffs = (kappa + c, sf.c121, -sf.c122)

    if ctx.mode == "frame":
        coframe = ctx.apparatus.coframe
        d_eta = exterior_derivative(combine(list(zip(coeffs, coframe)))).components
        dk_nu0 = wedge(differential(kappa), coframe[0]).components
        closure = tuple(Residual(chart, [(d,), (-w,)]) for d, w in zip(d_eta, dk_nu0))
    else:
        closure = _constant_two_form(ctx, coeffs)
    return {"eta_closure": closure, "codifferential_identities": (r1, r2)}


def _constant_two_form(ctx: FrameContext, coeffs) -> tuple[Residual, ...]:
    """d(sum a_i nu_i) for constant a_i, on the basis (nu0^nu1, nu0^nu2, nu1^nu2).

    The coframe differentials of the marked structure are
    d nu0 = nu1^nu2, d nu1 = c011 nu0^nu1 + c021 nu0^nu2 + c121 nu1^nu2,
    d nu2 = c012 nu0^nu1 + c022 nu0^nu2 + c122 nu1^nu2.
    """
    sf = ctx.sf
    a0, a1, a2 = coeffs
    return (
        Residual(ctx.chart, [(a1, sf.c011), (a2, sf.c012)]),
        Residual(ctx.chart, [(a1, sf.c021), (a2, sf.c022)]),
        Residual(ctx.chart, [(a0,), (a1, sf.c121), (a2, sf.c122)]),
    )


# -- frame transformations ----------------------------------------------------


def hyperbolic(theta: Expr) -> tuple[Expr, Expr]:
    """(cosh(theta), sinh(theta)), built once for each use of a rotation."""
    return ex.cosh(theta), ex.sinh(theta)


def hyperbolic_rotate(frame: Frame, ch: Expr, sh: Expr) -> Frame:
    """Y1 = X1 cosh(theta) + X2 sinh(theta), Y2 = X1 sinh(theta) + X2 cosh(theta)
    for (ch, sh) = `hyperbolic(theta)`; the rotated frame is again
    orthonormal with Y1 timelike."""
    y1 = combine([(ch, frame.x1), (sh, frame.x2)])
    y2 = combine([(sh, frame.x1), (ch, frame.x2)])
    return Frame(frame.chart, y1, y2)


def dilate(frame: Frame, scale: str) -> Frame:
    """Rescale the frame by a positive constant parameter (declared on demand)."""
    chart = frame.chart.with_params(scale)
    s = chart.var(scale)

    def lift(v: VectorField) -> VectorField:
        return combine([(s, VectorField(chart, tuple(c.lift(chart) for c in v.components)))])

    return Frame(chart, lift(frame.x1), lift(frame.x2))


# -- classification -----------------------------------------------------------


def classify(ctx: FrameContext) -> Classification:
    """The class read off the context's verdicts: h_tilde first, then kappa
    where h_tilde = 0 and chi where it does not.  Where chi = 0 and
    h_tilde != 0, the witness is the null direction X1 - X2 or X1 + X2 that
    h_tilde annihilates."""
    scope = "group" if ctx.mode == "algebra" else "pointwise"
    if ctx.h_tilde_zero is Tri.TRUE:
        if ctx.kappa_zero is Tri.UNKNOWN:
            return Classification("Undecided", scope, {})
        if ctx.kappa_zero is Tri.TRUE:
            return Classification("Heisenberg", scope, {})
        return Classification("SL2Cover", scope, {"kappa": ctx.inv.kappa})
    if ctx.h_tilde_zero is Tri.UNKNOWN or ctx.chi_zero is Tri.UNKNOWN:
        return Classification("Undecided", scope, {})
    if ctx.chi_zero is Tri.FALSE:
        return Classification("Generic", scope, {})
    (c011, b), _ = ctx.inv.h_tilde
    for direction, sign in (("X1-X2", -1), ("X1+X2", 1)):
        if (c011 + sign * b).is_zero() is Tri.TRUE:
            return Classification(
                "NullKernelCase", scope, {"direction": direction, "coefficients": (1, sign)})
    raise IndeterminateDomain("cannot decide the kernel branch")


# -- normalizing rotation verification ----------------------------------------


def rotated_structure_functions(sf: StructureFunctions, ctx, theta: Expr) -> StructureFunctions:
    """Structure functions of the theta-rotated frame via the transformation
    formulas (an independent route from rebuilding the rotated apparatus):

    d02^1 = -X0(th) + c02^1 ch^2 - c01^2 sh^2 + (c01^1 - c02^2) sh ch
    d02^2 = (c01^2 - c02^1) sh ch + c02^2 ch^2 - c01^1 sh^2
    d01^1 = c01^1 ch^2 - c02^2 sh^2 + (c02^1 - c01^2) sh ch
    d01^2 = -X0(th) + c01^2 ch^2 - c02^1 sh^2 + (c02^2 - c01^1) sh ch
    d12^1 = (c12^1 - X1(th)) ch - (X2(th) + c12^2) sh
    d12^2 = (X1(th) - c12^1) sh + (X2(th) + c12^2) ch
    """
    ch, sh = hyperbolic(theta)
    ch2 = ch * ch
    sh2 = sh * sh
    shch = sh * ch
    t0 = ctx.derive(0, theta)
    t1 = ctx.derive(1, theta)
    t2 = ctx.derive(2, theta)
    return StructureFunctions(
        c011=sf.c011 * ch2 - sf.c022 * sh2 + (sf.c021 - sf.c012) * shch,
        c012=-t0 + sf.c012 * ch2 - sf.c021 * sh2 + (sf.c022 - sf.c011) * shch,
        c021=-t0 + sf.c021 * ch2 - sf.c012 * sh2 + (sf.c011 - sf.c022) * shch,
        c022=(sf.c012 - sf.c021) * shch + sf.c022 * ch2 - sf.c011 * sh2,
        c121=(sf.c121 - t1) * ch - (t2 + sf.c122) * sh,
        c122=(t1 - sf.c121) * sh + (t2 + sf.c122) * ch,
    )


@dataclass(frozen=True)
class ThetaReport:
    valid: bool
    pde_residuals: tuple[Expr, Expr, Expr]
    normal_form_residuals: tuple[Expr, ...]


def verify_normalizing_theta(ctx: FrameContext, theta: Expr) -> ThetaReport:
    """Check X1(theta) = c12^1, X2(theta) = -c12^2, X0(theta) = kappa + c, and
    that the rotated frame realizes the constant-bracket normal form
    [Y1,X0] = -kappa Y2, [Y2,X0] = -kappa Y1, [Y2,Y1] = X0."""
    sf = ctx.sf
    kappa = _require_h_tilde_zero(ctx)
    c = sf.c021
    residuals = (
        ctx.derive(1, theta) - sf.c121,
        ctx.derive(2, theta) + sf.c122,
        ctx.derive(0, theta) - (kappa + c),
    )
    verdict = all_zero(residuals)
    if verdict is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide the normalizing equations")
    if verdict is Tri.FALSE:
        raise ThetaInvalid("theta does not satisfy the normalizing equations", residuals)

    if ctx.mode == "frame":
        rotated = hyperbolic_rotate(ctx.apparatus.frame, *hyperbolic(theta))
        app2 = build_apparatus(rotated)
        sf2 = structure_functions(app2)
    else:
        sf2 = rotated_structure_functions(sf, ctx, theta)
    normal = (
        sf2.c011,
        sf2.c012 + kappa,
        sf2.c021 + kappa,
        sf2.c022,
        sf2.c121,
        sf2.c122,
    )
    ok = all_zero(normal)
    if ok is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot certify the rotated normal form")
    return ThetaReport(ok is Tri.TRUE, residuals, normal)
