"""Vector fields and differential forms on a 3-dimensional chart.

Forms are stored by components in the coordinate coframe: a 1-form as
(a1, a2, a3) against (dx1, dx2, dx3), a 2-form as (b12, b13, b23) against
(dx1^dx2, dx1^dx3, dx2^dx3).  Only these two degrees exist: the contact
apparatus needs 1-forms, their differentials and wedges, and nothing more.

The evaluation convention carries no 1/2 factor:
(b ^ c)(X, Y) = b(X)c(Y) - b(Y)c(X), so that for any 1-form w,
dw(X, Y) = X w(Y) - Y w(X) - w([X, Y]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFrame, IndeterminateDomain
from .expr import Chart, Expr, Tri, dot


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[Expr, Expr, Expr]

    def __post_init__(self):
        if len(self.chart.coords) != 3:
            raise ValueError("vector fields require a 3-coordinate chart")
        if len(self.components) != 3:
            raise ValueError("a vector field has exactly three components")

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, tuple(a - b for a, b in zip(self.components, other.components)))

    def scaled(self, f: Expr) -> "VectorField":
        return VectorField(self.chart, tuple(f * a for a in self.components))

    def __call__(self, f: Expr) -> Expr:
        """The directional derivative X(f)."""
        return dot((comp, f.diff(coord)) for comp, coord in zip(self.components, self.chart.coords))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = tuple(X(Y.components[k]) - Y(X.components[k]) for k in range(3))
    return VectorField(X.chart, comps)


_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class DifferentialForm:
    chart: Chart
    degree: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if len(self.components) != 3:
            raise ValueError("a form has exactly three components")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return DifferentialForm(
            self.chart, self.degree,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scaled(self.chart.number(-1))

    def scaled(self, f: Expr) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree, tuple(f * a for a in self.components))


def one_form(chart: Chart, a1: Expr, a2: Expr, a3: Expr) -> DifferentialForm:
    return DifferentialForm(chart, 1, (a1, a2, a3))


def differential(f: Expr) -> DifferentialForm:
    """The 1-form df."""
    return DifferentialForm(f.chart, 1, tuple(f.diff(c) for c in f.chart.coords))


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    """d of a 1-form; d of a 2-form would be a 3-form, which does not exist here."""
    if form.degree != 1:
        raise ValueError("exterior derivative requires a 1-form")
    a = form.components
    coords = form.chart.coords
    comps = tuple(a[j].diff(coords[i]) - a[i].diff(coords[j]) for i, j in _PAIRS)
    return DifferentialForm(form.chart, 2, comps)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """The wedge of two 1-forms."""
    if a.degree != 1 or b.degree != 1:
        raise ValueError("wedge requires two 1-forms")
    u, v = a.components, b.components
    return DifferentialForm(a.chart, 2, tuple(u[i] * v[j] - u[j] * v[i] for i, j in _PAIRS))


def evaluate(form: DifferentialForm, fields: Sequence[VectorField]) -> Expr:
    """Multilinear antisymmetric evaluation (no 1/2 factor on 2-forms)."""
    if len(fields) != form.degree:
        raise ValueError(f"a degree-{form.degree} form takes exactly {form.degree} fields")
    if form.degree == 1:
        (X,) = fields
        return dot(zip(form.components, X.components))
    X, Y = fields
    return dot((b, X.components[i] * Y.components[j] - X.components[j] * Y.components[i])
               for (i, j), b in zip(_PAIRS, form.components))


# -- small exact linear algebra ----------------------------------------------


def det3(rows) -> Expr:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def invert3(rows):
    """Determinant and inverse of a 3x3 matrix, the only exact 3x3 solve.

    A canonically-zero determinant raises DegenerateFrame and an undecidable
    one raises IndeterminateDomain.
    """
    det = det3(rows)
    z = det.is_zero()
    if z is Tri.TRUE:
        raise DegenerateFrame("singular linear system")
    if z is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide invertibility of the system")
    adj = adjugate3(rows)
    return det, tuple(tuple(adj[i][j] / det for j in range(3)) for i in range(3))
