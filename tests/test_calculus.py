"""Exterior calculus: brackets, derivatives, wedge evaluation, and the
classical identities on randomized polynomial data."""

import random

import pytest

from sublorentz.calculus import (
    DifferentialForm,
    differential,
    evaluate,
    exterior_derivative,
    lie_bracket,
    one_form,
    wedge,
)
from sublorentz.expr import Chart, Tri, all_zero
from sublorentz.parsing import parse_expr, parse_field

from .randgen import random_field, random_polynomial

CH = Chart(("x", "y", "z"))


def fld(text):
    return parse_field(text, CH)


def exp_(text):
    return parse_expr(text, CH)


class TestLieBracket:
    def test_martinet_bracket_expansion(self, martinet_frame):
        # [X2, X1] = (1/y) X1 + X0 with X0 = -(1/y) d/dx + y d/dz
        b = lie_bracket(martinet_frame.x2, martinet_frame.x1)
        assert [c for c in b.components] == [exp_("0"), exp_("0"), exp_("3*y/2")]
        x0 = fld("-1/y*d/dx + y*d/dz")
        combo = martinet_frame.x1.scaled(exp_("1/y")) + x0
        assert all((a - b_).is_zero() is Tri.TRUE for a, b_ in zip(b.components, combo.components))

    def test_antisymmetry_self(self):
        X = fld("y*d/dx + x*z*d/dy + d/dz")
        assert all_zero(lie_bracket(X, X).components) is Tri.TRUE

    def test_hand_expanded_pair(self):
        a = fld("d/dy + (x/2)*d/dz")
        b = fld("d/dx - (y/2)*d/dz")
        got = lie_bracket(a, b)
        assert [str(c.sym) for c in got.components] == ["0", "0", "-1"]


class TestApplyField:
    def test_directional_derivative(self, martinet_frame):
        assert martinet_frame.x2(exp_("1/y")) == exp_("-1/y^2")

    def test_parameter_annihilated(self):
        chart = Chart(("x", "y", "z"), ("k",))
        X = parse_field("d/dx + k*d/dy", chart)
        assert X(chart.var("k")).is_zero() is Tri.TRUE

    def test_coordinate_vector(self):
        assert fld("d/dx")(exp_("x*y")) == exp_("y")


class TestExteriorDerivative:
    def test_d_of_coordinate_differential(self):
        assert all_zero(exterior_derivative(differential(CH.var("x"))).components) is Tri.TRUE

    def test_d_x_dy(self):
        form = one_form(CH, CH.zero(), CH.var("x"), CH.zero())
        d = exterior_derivative(form)
        assert [str(c.sym) for c in d.components] == ["1", "0", "0"]

    def test_degree_three_rejected(self):
        two_form = DifferentialForm(CH, 2, (CH.one(), CH.zero(), CH.zero()))
        with pytest.raises(ValueError):
            exterior_derivative(two_form)


class TestWedgeEvaluate:
    def test_convention_anchor(self):
        dx = differential(CH.var("x"))
        dy = differential(CH.var("y"))
        two_form = wedge(dx, dy)
        assert evaluate(two_form, [fld("d/dx"), fld("d/dy")]) == CH.one()

    def test_arity_mismatch(self):
        dx = differential(CH.var("x"))
        with pytest.raises(ValueError):
            evaluate(dx, [fld("d/dx"), fld("d/dy")])


class TestRandomizedIdentities:
    def test_jacobi_identity(self):
        rng = random.Random(20250809)
        for _ in range(25):
            X = random_field(rng, CH)
            Y = random_field(rng, CH)
            Z = random_field(rng, CH)
            total = (
                lie_bracket(lie_bracket(X, Y), Z)
                + lie_bracket(lie_bracket(Y, Z), X)
                + lie_bracket(lie_bracket(Z, X), Y)
            )
            assert all_zero(total.components) is Tri.TRUE

    def test_d_squared_zero(self):
        rng = random.Random(7041776)
        for _ in range(25):
            f = random_polynomial(rng, CH)
            assert all_zero(exterior_derivative(differential(f)).components) is Tri.TRUE

    def test_leibniz_rule(self):
        rng = random.Random(1618)
        for _ in range(20):
            X = random_field(rng, CH)
            Y = random_field(rng, CH)
            f = random_polynomial(rng, CH)
            lhs = lie_bracket(X, Y.scaled(f))
            rhs = Y.scaled(X(f)) + lie_bracket(X, Y).scaled(f)
            assert all_zero((lhs - rhs).components) is Tri.TRUE

    def test_cartan_formula_for_one_forms(self):
        rng = random.Random(2718281)
        for _ in range(20):
            alpha = one_form(CH, *(random_polynomial(rng, CH) for _ in range(3)))
            X = random_field(rng, CH)
            Y = random_field(rng, CH)
            lhs = evaluate(exterior_derivative(alpha), [X, Y])
            rhs = (
                X(evaluate(alpha, [Y]))
                - Y(evaluate(alpha, [X]))
                - evaluate(alpha, [lie_bracket(X, Y)])
            )
            assert (lhs - rhs).is_zero() is Tri.TRUE
