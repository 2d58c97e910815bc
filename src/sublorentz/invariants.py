"""Structure functions and the invariants of a contact sub-Lorentzian
structure: the trace-free operator h_tilde on the distribution, the scalars
chi and kappa, hyperbolic frame rotations, dilations, the eta-form closure
check, null kernel directions, and classification.

Both input modes share one code path through a frame context: coordinate
frames differentiate for real, abstract constant-structure marks have all
directional derivatives equal to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import expr as ex
from .calculus import (
    VectorField,
    evaluate,
    exterior_derivative,
    lie_bracket,
    scalar_form,
    wedge,
)
from .contact import ContactApparatus, Frame, build_apparatus
from .errors import (
    HTildeNonzero,
    IndeterminateDomain,
    NonHorizontalBracket,
    ThetaInvalid,
    TraceViolation,
)
from .expr import Chart, Expr, Tri, all_zero

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

    def validate_trace(self):
        if (self.c011 + self.c022).is_zero() is Tri.FALSE:
            raise TraceViolation("c01^1 + c02^2 does not vanish")

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

    def h_tilde_is_zero(self) -> Tri:
        return all_zero([e for row in self.h_tilde for e in row])


@dataclass(frozen=True)
class Classification:
    label: str  # Heisenberg | SL2Cover | NullKernelCase | Generic | Undecided
    scope: str  # group | pointwise
    witness: dict


# -- frame contexts -----------------------------------------------------------


class CoordinateContext:
    """Frame context backed by an actual coordinate-frame apparatus."""

    mode = "frame"

    def __init__(self, apparatus: ContactApparatus):
        self.apparatus = apparatus
        self.chart = apparatus.chart

    @cached_property
    def sf(self) -> StructureFunctions:
        return structure_functions(self.apparatus)

    @cached_property
    def inv(self) -> Invariants:
        return compute_invariants(self.sf, self)

    def derive(self, i: int, f: Expr) -> Expr:
        return self.apparatus.marked_fields[i](f)


class ConstantContext:
    """Frame context for an abstract mark with constant structure functions."""

    mode = "algebra"

    def __init__(self, sf: StructureFunctions, chart: Chart):
        self.sf = sf
        self.chart = chart
        sf.validate_trace()

    @cached_property
    def inv(self) -> Invariants:
        return compute_invariants(self.sf, self)

    def derive(self, i: int, f: Expr) -> Expr:
        return self.chart.zero()


# -- structure functions ------------------------------------------------------


def structure_functions(app: ContactApparatus) -> StructureFunctions:
    x0, x1, x2 = app.marked_fields
    nu0, nu1, nu2 = app.coframe

    def expand(bracket: VectorField) -> tuple[Expr, Expr, Expr]:
        return (
            evaluate(nu0, [bracket]),
            evaluate(nu1, [bracket]),
            evaluate(nu2, [bracket]),
        )

    b10 = expand(lie_bracket(x1, x0))
    b20 = expand(lie_bracket(x2, x0))
    b21 = expand(lie_bracket(x2, x1))

    for name, comp in (("[X1,X0]", b10[0]), ("[X2,X0]", b20[0])):
        if comp.is_zero() is Tri.FALSE:
            raise NonHorizontalBracket(f"{name} has a Reeb component")
    if (b21[0] - 1).is_zero() is Tri.FALSE:
        raise NonHorizontalBracket("[X2,X1] does not have Reeb coefficient 1")

    sf = StructureFunctions(
        c011=b10[1], c012=b10[2],
        c021=b20[1], c022=b20[2],
        c121=b21[1], c122=b21[2],
    )
    sf.validate_trace()
    return sf


# -- invariants ---------------------------------------------------------------


def compute_invariants(sf: StructureFunctions, ctx) -> Invariants:
    half = ctx.chart.one() / 2
    b = half * (sf.c021 - sf.c012)
    h_tilde = ((sf.c011, b), (-b, sf.c022))
    h_bar = ((-sf.c011, -b), (-b, sf.c022))
    chi = -(sf.c011 ** 2) + b * b
    kappa = (
        ctx.derive(2, sf.c121)
        + ctx.derive(1, sf.c122)
        - sf.c121 ** 2
        + sf.c122 ** 2
        - half * (sf.c012 + sf.c021)
    )
    return Invariants(h_tilde, chi, kappa, h_bar)


# -- eta form and coframe identities -----------------------------------------


@dataclass(frozen=True)
class EtaReport:
    holds: Tri
    closure_residuals: tuple[Expr, ...]
    codifferential_residuals: tuple[Expr, Expr]
    eta_coefficients: tuple[Expr, Expr, Expr]


def _require_h_tilde_zero(ctx) -> Expr:
    inv = ctx.inv
    v = inv.h_tilde_is_zero()
    if v is Tri.FALSE:
        raise HTildeNonzero("h_tilde does not vanish")
    if v is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide whether h_tilde vanishes")
    return inv.kappa


def eta_check(ctx) -> EtaReport:
    """With h_tilde = 0 (so c := c02^1 = c01^2), build
    eta = (kappa + c) nu0 + c12^1 nu1 - c12^2 nu2 and verify that its
    exterior derivative reduces to d(kappa) ^ nu0, together with the two
    first-order coframe identities that the closure rests on."""
    sf = ctx.sf
    kappa = _require_h_tilde_zero(ctx)
    c = sf.c021
    r1 = -ctx.derive(1, c) - c * sf.c122 + ctx.derive(0, sf.c121)
    r2 = ctx.derive(2, c) - c * sf.c121 + ctx.derive(0, sf.c122)
    coeffs = (kappa + c, sf.c121, -sf.c122)

    if ctx.mode == "frame":
        app = ctx.apparatus
        nu0, nu1, nu2 = app.coframe
        eta = (
            nu0.scaled(coeffs[0]) + nu1.scaled(coeffs[1]) + nu2.scaled(coeffs[2])
        )
        target = wedge(exterior_derivative(scalar_form(kappa)), nu0)
        residual_form = exterior_derivative(eta) - target
        closure = tuple(residual_form.components)
    else:
        closure = _constant_two_form(ctx, coeffs)

    holds = all_zero(list(closure) + [r1, r2])
    return EtaReport(holds, closure, (r1, r2), coeffs)


def _constant_two_form(ctx: ConstantContext, coeffs) -> tuple[Expr, ...]:
    """d(sum a_i nu_i) for constant a_i, on the basis (nu0^nu1, nu0^nu2, nu1^nu2).

    The coframe differentials of the marked structure are
    d nu0 = nu1^nu2, d nu1 = c011 nu0^nu1 + c021 nu0^nu2 + c121 nu1^nu2,
    d nu2 = c012 nu0^nu1 + c022 nu0^nu2 + c122 nu1^nu2.
    """
    sf = ctx.sf
    a0, a1, a2 = coeffs
    d01 = a1 * sf.c011 + a2 * sf.c012
    d02 = a1 * sf.c021 + a2 * sf.c022
    d12 = a0 + a1 * sf.c121 + a2 * sf.c122
    return (d01, d02, d12)


# -- null kernel direction ----------------------------------------------------


@dataclass(frozen=True)
class NullKernelResult:
    direction: Optional[str]  # "X1-X2" | "X1+X2" | None
    coefficients: Optional[tuple[int, int]]
    reason: str


def null_kernel_bundle(ctx) -> NullKernelResult:
    inv = ctx.inv
    chi_zero = inv.chi.is_zero()
    ht_zero = inv.h_tilde_is_zero()
    if chi_zero is Tri.UNKNOWN or ht_zero is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide the chi = 0, h_tilde != 0 case")
    if chi_zero is Tri.FALSE:
        return NullKernelResult(None, None, "chi does not vanish")
    if ht_zero is Tri.TRUE:
        return NullKernelResult(None, None, "h_tilde vanishes")
    (c011, b), _ = inv.h_tilde
    if (c011 - b).is_zero() is Tri.TRUE:
        return NullKernelResult("X1-X2", (1, -1), "c01^1 = (c02^1 - c01^2)/2")
    if (c011 + b).is_zero() is Tri.TRUE:
        return NullKernelResult("X1+X2", (1, 1), "c01^1 = -(c02^1 - c01^2)/2")
    raise IndeterminateDomain("cannot decide the kernel branch")


# -- frame transformations ----------------------------------------------------


def hyperbolic_rotate(frame: Frame, theta: Expr) -> Frame:
    """Y1 = X1 cosh(theta) + X2 sinh(theta), Y2 = X1 sinh(theta) + X2 cosh(theta);
    the rotated frame is again orthonormal with Y1 timelike."""
    ch = ex.cosh(theta)
    sh = ex.sinh(theta)
    y1 = frame.x1.scaled(ch) + frame.x2.scaled(sh)
    y2 = frame.x1.scaled(sh) + frame.x2.scaled(ch)
    return Frame(frame.chart, y1, y2)


def dilate(frame: Frame, scale: str) -> Frame:
    """Rescale the frame by a positive constant parameter (declared on demand)."""
    chart = frame.chart.with_params(scale)
    s = chart.var(scale)

    def lift(v: VectorField) -> VectorField:
        return VectorField(chart, tuple(c.lift(chart) for c in v.components)).scaled(s)

    return Frame(chart, lift(frame.x1), lift(frame.x2))


# -- classification -----------------------------------------------------------


def classify(ctx) -> Classification:
    scope = "group" if ctx.mode == "algebra" else "pointwise"
    inv = ctx.inv
    ht = inv.h_tilde_is_zero()
    kz = inv.kappa.is_zero()
    chiz = inv.chi.is_zero()
    if ht is Tri.UNKNOWN or (ht is Tri.TRUE and kz is Tri.UNKNOWN):
        return Classification("Undecided", scope, {})
    if ht is Tri.TRUE:
        if kz is Tri.TRUE:
            return Classification("Heisenberg", scope, {})
        return Classification("SL2Cover", scope, {"kappa": inv.kappa})
    if chiz is Tri.UNKNOWN:
        return Classification("Undecided", scope, {})
    if chiz is Tri.TRUE:
        kernel = null_kernel_bundle(ctx)
        return Classification(
            "NullKernelCase", scope,
            {"direction": kernel.direction, "coefficients": kernel.coefficients},
        )
    return Classification("Generic", scope, {})


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
    ch = ex.cosh(theta)
    sh = ex.sinh(theta)
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


def verify_normalizing_theta(ctx, theta: Expr) -> ThetaReport:
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
        rotated = hyperbolic_rotate(ctx.apparatus.frame, theta)
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
