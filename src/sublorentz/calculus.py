"""Vector fields and differential forms on a 3-dimensional chart.

Forms are stored by components in the coordinate coframe: a 1-form as
(a1, a2, a3) against (dx1, dx2, dx3), a 2-form as (b12, b13, b23) against
(dx1^dx2, dx1^dx3, dx2^dx3), a 3-form by its single coefficient.

The evaluation convention carries no 1/2 factor:
(b ^ c)(X, Y) = b(X)c(Y) - b(Y)c(X), so that for any 1-form w,
dw(X, Y) = X w(Y) - Y w(X) - w([X, Y]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateFrame, IndeterminateDomain
from .expr import Chart, Expr, Tri


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[Expr, Expr, Expr]

    def __post_init__(self):
        if len(self.chart.coords) != 3:
            raise ValueError("vector fields require a 3-coordinate chart")
        if len(self.components) != 3:
            raise ValueError("a vector field has exactly three components")
        for c in self.components:
            c.canonical()

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.chart, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-a for a in self.components))

    def scaled(self, f: Expr) -> "VectorField":
        return VectorField(self.chart, tuple(f * a for a in self.components))

    def is_zero(self) -> Tri:
        from .expr import all_zero

        return all_zero(self.components)

    def __call__(self, f: Expr) -> Expr:
        return apply_field(self, f)


def basis_field(chart: Chart, index: int) -> VectorField:
    comps = [chart.zero(), chart.zero(), chart.zero()]
    comps[index] = chart.one()
    return VectorField(chart, tuple(comps))


def apply_field(X: VectorField, f: Expr) -> Expr:
    out = X.chart.zero()
    for comp, coord in zip(X.components, X.chart.coords):
        out = out + comp * f.diff(coord)
    return out


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = tuple(
        apply_field(X, Y.components[k]) - apply_field(Y, X.components[k])
        for k in range(3)
    )
    return VectorField(X.chart, comps)


_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class DifferentialForm:
    chart: Chart
    degree: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        sizes = {0: 1, 1: 3, 2: 3, 3: 1}
        if self.degree not in sizes:
            raise ValueError("degree must be 0..3")
        if len(self.components) != sizes[self.degree]:
            raise ValueError("component count does not match the degree")
        for c in self.components:
            c.canonical()

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return DifferentialForm(
            self.chart, self.degree,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + other.scaled(self.chart.number(-1))

    def __neg__(self) -> "DifferentialForm":
        return self.scaled(self.chart.number(-1))

    def scaled(self, f: Expr) -> "DifferentialForm":
        return DifferentialForm(self.chart, self.degree, tuple(f * a for a in self.components))

    def is_zero(self) -> Tri:
        from .expr import all_zero

        return all_zero(self.components)


def zero_form(chart: Chart, degree: int) -> DifferentialForm:
    size = {0: 1, 1: 3, 2: 3, 3: 1}[degree]
    return DifferentialForm(chart, degree, tuple(chart.zero() for _ in range(size)))


def scalar_form(f: Expr) -> DifferentialForm:
    return DifferentialForm(f.chart, 0, (f,))


def one_form(chart: Chart, a1: Expr, a2: Expr, a3: Expr) -> DifferentialForm:
    return DifferentialForm(chart, 1, (a1, a2, a3))


def coordinate_differential(chart: Chart, index: int) -> DifferentialForm:
    comps = [chart.zero(), chart.zero(), chart.zero()]
    comps[index] = chart.one()
    return DifferentialForm(chart, 1, tuple(comps))


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    chart = form.chart
    coords = chart.coords
    if form.degree == 0:
        f = form.components[0]
        return DifferentialForm(chart, 1, tuple(f.diff(c) for c in coords))
    if form.degree == 1:
        a = form.components
        comps = tuple(
            a[j].diff(coords[i]) - a[i].diff(coords[j]) for i, j in _PAIRS
        )
        return DifferentialForm(chart, 2, comps)
    if form.degree == 2:
        b12, b13, b23 = form.components
        c = b23.diff(coords[0]) - b13.diff(coords[1]) + b12.diff(coords[2])
        return DifferentialForm(chart, 3, (c,))
    raise ValueError("exterior derivative requires degree <= 2")


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    chart = a.chart
    deg = a.degree + b.degree
    if deg > 3:
        raise ValueError("wedge product exceeds the top degree")
    if a.degree == 0:
        return b.scaled(a.components[0])
    if b.degree == 0:
        return a.scaled(b.components[0])
    if a.degree == 1 and b.degree == 1:
        u, v = a.components, b.components
        comps = tuple(u[i] * v[j] - u[j] * v[i] for i, j in _PAIRS)
        return DifferentialForm(chart, 2, comps)
    if a.degree == 1 and b.degree == 2:
        u, w = a.components, b.components
        c = u[0] * w[2] - u[1] * w[1] + u[2] * w[0]
        return DifferentialForm(chart, 3, (c,))
    if a.degree == 2 and b.degree == 1:
        return wedge(b, a)
    raise ValueError("unsupported wedge arity")


def evaluate(form: DifferentialForm, fields: Sequence[VectorField]) -> Expr:
    """Multilinear antisymmetric evaluation (no 1/2 factor on 2-forms)."""
    if len(fields) != form.degree:
        raise ValueError(f"a degree-{form.degree} form takes exactly {form.degree} fields")
    chart = form.chart
    if form.degree == 0:
        return form.components[0]
    if form.degree == 1:
        (X,) = fields
        out = chart.zero()
        for a, x in zip(form.components, X.components):
            out = out + a * x
        return out
    if form.degree == 2:
        X, Y = fields
        out = chart.zero()
        for (i, j), b in zip(_PAIRS, form.components):
            out = out + b * (X.components[i] * Y.components[j] - X.components[j] * Y.components[i])
        return out
    X, Y, Z = fields
    return form.components[0] * det3([X.components, Y.components, Z.components])


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


def solve3(rows, rhs):
    """Solve a 3x3 linear system exactly.

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
    return tuple(
        sum((adj[i][j] * rhs[j] for j in range(3)), rows[0][0].chart.zero()) / det
        for i in range(3)
    )


def invert3(rows, *, strict: bool = True):
    det = det3(rows)
    z = det.is_zero()
    if z is Tri.TRUE:
        raise DegenerateFrame("singular matrix")
    if strict and z is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide invertibility of the matrix")
    adj = adjugate3(rows)
    return tuple(tuple(adj[i][j] / det for j in range(3)) for i in range(3))
