"""Kernel tests: canonical forms, differentiation, zero testing, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sublorentz import expr as ex
from sublorentz.errors import DivisionByZero, UnknownSymbol
from sublorentz.expr import Chart, Expr, Tri


CH = Chart(("x", "y", "z"), ("k", "t", "u"))


def var(name):
    return CH.var(name)


def num(v):
    return CH.number(v)


class TestCanonicalForm:
    def test_hyperbolic_identity(self):
        t = var("t")
        e = ex.cosh(t) ** 2 - ex.sinh(t) ** 2
        assert e == num(1)

    def test_hyperbolic_identity_nested_powers(self):
        t = var("t")
        e = ex.cosh(t) ** 4 - (1 + ex.sinh(t) ** 2) ** 2
        assert e.is_zero() is Tri.TRUE

    def test_gcd_reduction(self):
        x, y = var("x"), var("y")
        e = (x ** 2 - y ** 2) / (x - y)
        assert e == x + y

    def test_rational_normalization(self):
        y = var("y")
        e = num(Fraction(1, 2)) * y ** 2 - y ** 2 / 2
        assert e.is_zero() is Tri.TRUE

    def test_same_function_same_normal_form(self):
        x, y = var("x"), var("y")
        a = (x + y) ** 2 / (x * y)
        b = (x ** 2 + 2 * x * y + y ** 2) / (y * x)
        assert a == b

    def test_simplify_is_identity_on_canonical(self):
        x = var("x")
        e = (x + 1) / (x - 1)
        assert ex.simplify(e) == e

    def test_no_floating_point(self):
        with pytest.raises(TypeError):
            CH.number(0.5)  # type: ignore[arg-type]


class TestDifferentiate:
    def test_reciprocal(self):
        y = var("y")
        assert (1 / y).diff("y") == -1 / y ** 2

    def test_chain_rule_through_exp(self):
        jet = Chart(("x", "u", "p"))
        u, x = jet.var("u"), jet.var("x")
        e = ex.exp(u) * (x + x ** 2)
        assert e.diff("u") == e

    def test_parameter_derivative_zero(self):
        k = var("k")
        assert k.diff("x").is_zero() is Tri.TRUE

    def test_unknown_coordinate(self):
        with pytest.raises(UnknownSymbol):
            var("x").diff("w")

    def test_log_derivative_stays_rational(self):
        x = var("x")
        e = ex.log(x ** 2 + 1)
        assert e.diff("x") == 2 * x / (x ** 2 + 1)


class TestIsZero:
    def test_commutator_of_products(self):
        t = var("t")
        e = ex.sinh(t) * ex.cosh(t) - ex.cosh(t) * ex.sinh(t)
        assert e.is_zero() is Tri.TRUE

    def test_nonzero_rational(self):
        y = var("y")
        assert (1 / (4 * y ** 4)).is_zero() is Tri.FALSE

    def test_transcendental_unknown(self):
        x = var("x")
        e = ex.exp(x) - 1 - x - x ** 2 / 2
        assert e.is_zero() is Tri.UNKNOWN

    def test_single_monomial_certificates(self):
        x, u = var("x"), var("u")
        assert ex.exp(u).is_zero() is Tri.FALSE
        assert (x * ex.cosh(u)).is_zero() is Tri.FALSE
        assert ex.sinh(x ** 2 + 1).is_zero() is Tri.FALSE

    def test_never_lies_about_zero(self):
        t = var("t")
        e = (ex.cosh(t) ** 2 - 1) - ex.sinh(t) ** 2
        assert e.is_zero() is Tri.TRUE


class TestSubstitute:
    def test_flagship_curvature_value(self):
        # chi = 1/(4 y^4) specializes to 1/4 at y = 1
        y = var("y")
        chi = 1 / (4 * y ** 4)
        assert chi.subs({"y": num(1)}) == num(Fraction(1, 4))

    def test_simultaneous(self):
        x, y = var("x"), var("y")
        assert (x + y).subs({"x": y}) == 2 * y

    def test_parameter_substitution(self):
        k, t = var("k"), var("t")
        e = t ** 2 * k
        assert e.subs({"t": num(1)}) == k

    def test_division_by_zero(self):
        x, y = var("x"), var("y")
        with pytest.raises(DivisionByZero):
            (1 / x + y).subs({"x": num(0)})

    def test_division_by_zero_via_identity(self):
        t, x = var("t"), var("x")
        denom = ex.cosh(t) ** 2 - ex.sinh(t) ** 2 - 1
        with pytest.raises(DivisionByZero):
            x / denom


class TestLift:
    def test_wider_chart_keeps_value(self):
        wide = CH.with_params("s")
        lifted = ((var("x") + 1) / var("y")).lift(wide)
        assert lifted == (wide.var("x") + 1) / wide.var("y")

    def test_narrower_chart_rejected(self):
        with pytest.raises(UnknownSymbol):
            var("k").lift(Chart(("x", "y", "z")))


class TestDivision:
    def test_explicit_zero_divisor(self):
        x = var("x")
        with pytest.raises(DivisionByZero):
            x / (x - x)

    def test_negative_power_of_zero(self):
        x = var("x")
        with pytest.raises(DivisionByZero):
            (x - x) ** (-1)


# -- randomized algebraic laws -------------------------------------------------


def exprs(max_depth=3):
    base = st.one_of(
        st.integers(-4, 4).map(num),
        st.sampled_from(["x", "y", "z", "k"]).map(var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            children.map(lambda e: e ** 2),
            children.map(ex.sinh),
            children.map(ex.cosh),
        )

    return st.recursive(base, extend, max_leaves=6)


@given(exprs(), exprs())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(exprs(), exprs(), exprs())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(exprs())
def test_simplify_idempotent(e):
    once = ex.simplify(e)
    assert ex.simplify(once) == once


@given(exprs())
def test_self_difference_is_zero(e):
    assert (e - e).is_zero() is Tri.TRUE


@given(exprs())
def test_mixed_partials_commute(e):
    assert e.diff("x").diff("y") == e.diff("y").diff("x")


@given(exprs(), exprs())
def test_identities_are_never_refuted(a, b):
    """Soundness oracle: the zero test may answer UNKNOWN on a true identity
    over opaque atoms, never FALSE.  log's identity needs positive arguments."""
    p, q = a ** 2 + 1, b ** 2 + 1
    identities = [
        ex.sinh(2 * a) - 2 * ex.sinh(a) * ex.cosh(a),
        ex.cosh(2 * a) - ex.cosh(a) ** 2 - ex.sinh(a) ** 2,
        ex.sinh(a + b) - ex.sinh(a) * ex.cosh(b) - ex.cosh(a) * ex.sinh(b),
        ex.exp(a + b) - ex.exp(a) * ex.exp(b),
        ex.log(p * q) - ex.log(p) - ex.log(q),
    ]
    for e in identities:
        assert e.is_zero() is not Tri.FALSE
    pythagoras = ex.cosh(a) ** 2 - ex.sinh(a) ** 2 - 1
    assert pythagoras.is_zero() is Tri.TRUE
    assert (pythagoras / (a + ex.cosh(a))).is_zero() is Tri.TRUE


def test_only_the_kernel_knows_the_representation():
    """No module but expr.py imports sympy or reads an Expr's `sym`."""
    import ast
    from pathlib import Path

    import sublorentz

    offenders = []
    for path in sorted(Path(sublorentz.__file__).parent.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m == "sympy" or m.startswith("sympy.") for m in modules):
                offenders.append(f"{path.name}:{node.lineno} imports sympy")
            if isinstance(node, ast.Attribute) and node.attr == "sym":
                offenders.append(f"{path.name}:{node.lineno} reads .sym")
    assert offenders == []
