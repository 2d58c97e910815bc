"""Vector fields and differential forms on a 3-dimensional chart.

Forms are stored by components in the coordinate coframe: a 1-form as
(a1, a2, a3) against (dx1, dx2, dx3), a 2-form as (b12, b13, b23) against
(dx1^dx2, dx1^dx3, dx2^dx3).  Only these two degrees exist: the contact
apparatus needs 1-forms, their differentials and wedges, and nothing more.

`combine` builds every linear combination of fields or of forms, and
`pairing` is the one evaluation of a form on fields: an unreduced `Residual`,
decided as it stands or reduced by `evaluate`.  It carries no 1/2 factor:
(b ^ c)(X, Y) = b(X)c(Y) - b(Y)c(X), so that for any 1-form w,
dw(X, Y) = X w(Y) - Y w(X) - w([X, Y]).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, TypeVar

from .errors import DegenerateFrame, IndeterminateDomain
from .expr import Chart, Expr, NumberLike, Residual, Tri, dot


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[Expr, Expr, Expr]

    def __post_init__(self):
        if len(self.chart.coords) != 3:
            raise ValueError("vector fields require a 3-coordinate chart")
        if len(self.components) != 3:
            raise ValueError("a vector field has exactly three components")

    def __call__(self, f: Expr) -> Expr:
        """The directional derivative X(f)."""
        return dot((comp, f.diff(coord)) for comp, coord in zip(self.components, self.chart.coords))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    comps = tuple(X(Y.components[k]) - Y(X.components[k]) for k in range(3))
    return VectorField(X.chart, comps)


PAIRS = ((0, 1), (0, 2), (1, 2))


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


Field = TypeVar("Field", VectorField, DifferentialForm)


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
    comps = tuple(a[j].diff(coords[i]) - a[i].diff(coords[j]) for i, j in PAIRS)
    return DifferentialForm(form.chart, 2, comps)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """The wedge of two 1-forms."""
    if a.degree != 1 or b.degree != 1:
        raise ValueError("wedge requires two 1-forms")
    u, v = a.components, b.components
    return DifferentialForm(a.chart, 2, tuple(u[i] * v[j] - u[j] * v[i] for i, j in PAIRS))


def combine(terms: Sequence[tuple[Expr, Field]]) -> Field:
    """The field or form sum c*V over the (c, V) of `terms`, all fields or
    all forms of one degree: one `dot` per component, so each component is
    reduced once."""
    comps = tuple(dot([(c, v.components[k]) for c, v in terms]) for k in range(3))
    return replace(terms[0][1], components=comps)


def pairing(form: DifferentialForm, fields: Sequence[VectorField], constant: NumberLike = 0) -> Residual:
    """form(fields) + constant, multilinear and antisymmetric with no 1/2
    factor on 2-forms, as an unreduced `Residual`."""
    if len(fields) != form.degree:
        raise ValueError(f"a degree-{form.degree} form takes exactly {form.degree} fields")
    if form.degree == 1:
        return Residual(form.chart, zip(form.components, fields[0].components), constant)
    x, y = (X.components for X in fields)
    return Residual(form.chart, [term for (i, j), b in zip(PAIRS, form.components)
                                 for term in ((b, x[i], y[j]), (-b, x[j], y[i]))], constant)


def evaluate(form: DifferentialForm, fields: Sequence[VectorField]) -> Expr:
    """The value form(fields), reduced."""
    return pairing(form, fields).value()


# -- small exact linear algebra ----------------------------------------------


def adjugate3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def invert3(rows):
    """Determinant and inverse of a 3x3 matrix, the only exact 3x3 solve; the
    determinant is row 0 against the adjugate's first column.

    A canonically-zero determinant raises DegenerateFrame and an undecidable
    one raises IndeterminateDomain.
    """
    adj = adjugate3(rows)
    det = sum(x * row[0] for x, row in zip(rows[0], adj))
    z = det.is_zero()
    if z is Tri.TRUE:
        raise DegenerateFrame("singular linear system")
    if z is Tri.UNKNOWN:
        raise IndeterminateDomain("cannot decide invertibility of the system")
    return det, tuple(tuple(adj[i][j] / det for j in range(3)) for i in range(3))
