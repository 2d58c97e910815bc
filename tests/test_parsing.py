"""Parser, renderer and structure-file tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from sublorentz.errors import (
    DuplicateMode,
    ExprSyntaxError,
    MissingSection,
    UnknownSymbol,
)
from sublorentz.expr import Chart, Tri
from sublorentz.parsing import (
    MAX_NESTING,
    parse_expr,
    parse_field,
    parse_structure_file,
    render_expr,
    render_field,
)

from .test_expr import exprs

CH = Chart(("x", "y", "z"), ("k", "s", "t"))


class TestParseExpr:
    @pytest.mark.parametrize("nested", [
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "exp(" * n + "x" + ")" * n,
        lambda n: "x^" + "(" * n + "2" + ")" * n,
    ], ids=["group", "call", "exponent"])
    def test_nesting_bound(self, nested):
        """Groups, calls and exponent groups each count one level."""
        parse_expr(nested(MAX_NESTING), CH)
        with pytest.raises(ExprSyntaxError, match="nesting deeper than"):
            parse_expr(nested(MAX_NESTING + 1), CH)

    def test_half_square(self):
        assert parse_expr("(1/2)*y^2", CH) == CH.var("y") ** 2 / 2

    def test_flagship_kappa_literal(self):
        e = parse_expr("-(5/2)*(1/y^2)", CH)
        assert e == CH.number(Fraction(-5, 2)) / CH.var("y") ** 2
        assert render_expr(e) == "-5/(2*y^2)"

    def test_hyperbolic_identity_parses_to_one(self):
        assert parse_expr("cosh(t)^2 - sinh(t)^2", CH) == CH.one()

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x + * y", CH)
        assert err.value.line == 1
        assert err.value.column == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownSymbol):
            parse_expr("x + w", CH)

    def test_float_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1.5*x", CH)

    def test_negative_exponent(self):
        assert parse_expr("y^-2", CH) == 1 / CH.var("y") ** 2
        assert parse_expr("y^(-2)", CH) == 1 / CH.var("y") ** 2

    def test_unary_minus_precedence(self):
        assert parse_expr("-x^2", CH) == -(CH.var("x") ** 2)


class TestRender:
    def test_quarter_quartic(self):
        e = 1 / (4 * CH.var("y") ** 4)
        assert render_expr(e) == "1/(4*y^4)"

    def test_zero(self):
        assert render_expr(CH.zero()) == "0"

    def test_parameter_monomial(self):
        e = CH.var("k") * CH.var("s") ** 2
        assert render_expr(e) == "k*s^2"

    def test_field_round_trip(self):
        v = parse_field("d/dx + (1/2)*y^2*d/dz - x*d/dy", CH)
        again = parse_field(render_field(v), CH)
        assert all(a == b for a, b in zip(v.components, again.components))


@given(exprs())
def test_parse_render_round_trip(e):
    rendered = render_expr(e)
    chart = e.chart
    assert parse_expr(rendered, chart) == e


def test_round_trip_rationals_seeded():
    from .randgen import random_rational

    rng = random.Random(90125)
    chart = CH
    for _ in range(60):
        e = random_rational(rng, chart)
        assert parse_expr(render_expr(e), chart) == e


MARTINET_FILE = """\
# flat example
[chart]
coords = x, y, z

[frame]
X1 = d/dx + (1/2)*y^2 * d/dz
X2 = d/dy - (1/2)*x*y * d/dz
"""

ABSTRACT_FILE = """\
[params]
names = kappa

[algebra]
c012 = -kappa
c021 = -kappa
"""


class TestStructureFiles:
    def test_frame_mode(self):
        defn = parse_structure_file(MARTINET_FILE)
        assert defn.mode == "frame"
        assert defn.chart.coords == ("x", "y", "z")
        assert defn.x1.components[2] == defn.chart.var("y") ** 2 / 2

    def test_algebra_mode(self):
        defn = parse_structure_file(ABSTRACT_FILE)
        assert defn.mode == "algebra"
        kappa = defn.chart.var("kappa")
        assert defn.structure_constants["c012"] == -kappa
        assert defn.structure_constants["c021"] == -kappa
        assert defn.structure_constants["c011"].is_zero() is Tri.TRUE

    def test_duplicate_mode_rejected(self):
        text = MARTINET_FILE + "\n[algebra]\nc011 = 0\n"
        with pytest.raises(DuplicateMode):
            parse_structure_file(text)

    def test_missing_mode_rejected(self):
        with pytest.raises(MissingSection):
            parse_structure_file("[chart]\ncoords = x, y, z\n")

    def test_symmetry_section(self):
        text = MARTINET_FILE + "\n[symmetry]\nZ = y*d/dx + x*d/dy\n"
        defn = parse_structure_file(text)
        assert len(defn.symmetry_fields) == 1
        name, field = defn.symmetry_fields[0]
        assert name == "Z"
        assert field.components[0] == defn.chart.var("y")

    def test_error_carries_file_position(self):
        bad = "[chart]\ncoords = x, y, z\n\n[frame]\nX1 = d/dx + 1.5*d/dz\nX2 = d/dy\n"
        with pytest.raises(ExprSyntaxError) as err:
            parse_structure_file(bad)
        assert err.value.line == 5

    def test_transform_section(self):
        """No command reads a [transform] section, so the parser refuses it."""
        text = MARTINET_FILE + "\n[transform]\ntheta = x*y\nscale = s\n"
        with pytest.raises(ExprSyntaxError, match=r"unknown section \[transform\]"):
            parse_structure_file(text)

    def test_unknown_section(self):
        with pytest.raises(ExprSyntaxError):
            parse_structure_file("[frames]\nX1 = d/dx\n")
