"""Exterior calculus: brackets, derivatives, wedge evaluation, linear
combinations and pairings, and the classical identities on randomized
polynomial data."""

import random

import pytest
from hypothesis import given, strategies as st

from sublorentz import expr as ex
from sublorentz.calculus import (
    DifferentialForm,
    VectorField,
    combine,
    differential,
    evaluate,
    exterior_derivative,
    lie_bracket,
    one_form,
    pairing,
    wedge,
)
from sublorentz.expr import Chart, Tri, all_zero
from sublorentz.parsing import parse_expr, parse_field

from .randgen import random_field, random_polynomial, random_rational

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
        combo = combine([(exp_("1/y"), martinet_frame.x1), (CH.one(), x0)])
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
            one = CH.one()
            total = combine([
                (one, lie_bracket(lie_bracket(X, Y), Z)),
                (one, lie_bracket(lie_bracket(Y, Z), X)),
                (one, lie_bracket(lie_bracket(Z, X), Y)),
            ])
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
            one = CH.one()
            lhs = lie_bracket(X, combine([(f, Y)]))
            rhs = combine([(X(f), Y), (f, lie_bracket(X, Y))])
            assert all_zero(combine([(one, lhs), (-one, rhs)]).components) is Tri.TRUE

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


ATOMS = (ex.exp(CH.var("x")), ex.sinh(CH.var("y")), ex.cosh(CH.var("z")),
         ex.log(CH.var("x") ** 2 + 1))


def _values(rng, atoms, n=3):
    """n random polynomials; with `atoms`, each plus a polynomial multiple
    of a first-level atom."""
    values = [random_polynomial(rng, CH) for _ in range(n)]
    if atoms:
        values = [v + random_polynomial(rng, CH) * rng.choice(ATOMS) for v in values]
    return values


def _field(rng, atoms):
    return VectorField(CH, tuple(_values(rng, atoms)))


def _form(rng, atoms, degree):
    return DifferentialForm(CH, degree, tuple(_values(rng, atoms)))


def _equal(a, b) -> bool:
    return (a - b).is_zero() is Tri.TRUE


seeds_with_atoms = given(st.integers(0, 2 ** 32), st.booleans())


class TestCombineAndPairing:
    """`combine` and `pairing` are the one route for linear combinations and
    for evaluations; their oracle is component-wise `Expr` arithmetic."""

    @seeds_with_atoms
    def test_combine_is_componentwise(self, seed, atoms):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        kind = rng.choice([None, 1, 2])
        vs = [_field(rng, atoms) if kind is None else _form(rng, atoms, kind) for _ in range(n)]
        cs = [random_rational(rng, CH) for _ in range(n)]
        total = combine(list(zip(cs, vs)))
        assert type(total) is type(vs[0]) and getattr(total, "degree", None) == kind
        for k in range(3):
            assert _equal(total.components[k], sum((c * v.components[k] for c, v in zip(cs, vs)),
                                                   CH.zero()))

    @seeds_with_atoms
    def test_one_form_pairing_is_the_contraction(self, seed, atoms):
        rng = random.Random(seed)
        w, X = _form(rng, atoms, 1), _field(rng, atoms)
        c = rng.randint(-2, 2)
        expected = sum((a * b for a, b in zip(w.components, X.components)), CH.number(c))
        assert _equal(pairing(w, [X], c).value(), expected)

    @seeds_with_atoms
    def test_two_form_pairing_is_antisymmetric_with_no_half(self, seed, atoms):
        rng = random.Random(seed)
        a, b = _form(rng, atoms, 1), _form(rng, atoms, 1)
        X, Y = _field(rng, atoms), _field(rng, atoms)
        ab = wedge(a, b)
        xy = pairing(ab, [X, Y]).value()
        assert _equal(xy, -pairing(ab, [Y, X]).value())
        assert pairing(ab, [X, X]).is_zero() is Tri.TRUE
        ax, ay, bx, by = (evaluate(f, [V]) for f in (a, b) for V in (X, Y))
        assert _equal(xy, ax * by - ay * bx)

    @seeds_with_atoms
    def test_pairing_decides_as_its_value(self, seed, atoms):
        """A zero pairing (w against a field of its kernel) and a generic one
        are decided alike unreduced and reduced."""
        rng = random.Random(seed)
        w = _form(rng, atoms, 1)
        w1, w2, _ = w.components
        for X in (VectorField(CH, (w2, -w1, CH.zero())), _field(rng, atoms)):
            assert pairing(w, [X]).is_zero() is evaluate(w, [X]).is_zero()
        b, X, Y = _form(rng, atoms, 2), _field(rng, atoms), _field(rng, atoms)
        for fields in ([X, Y], [X, X]):
            assert pairing(b, fields).is_zero() is evaluate(b, fields).is_zero()
