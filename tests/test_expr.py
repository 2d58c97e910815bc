"""Kernel tests: canonical forms, differentiation, zero testing, substitution."""

from fractions import Fraction

import ast
import contextlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, reject, strategies as st
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

import sublorentz
from sublorentz import expr as ex
from sublorentz.cli import main
from sublorentz.errors import DivisionByZero, EngineError, NonRationalValue, NonRealValue, UnknownSymbol
from sublorentz.expr import Chart, Expr, Tri, render_expr
from sublorentz.parsing import parse_expr, parse_structure_file, render_field
from sublorentz.report import analyze_definition

from .randgen import random_frame, random_polynomial


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
        assert Expr(e.chart, e.sym) == e

    def test_names_that_sympy_sorts_as_equal(self):
        # _sort_gens reads x1 and x01 both as x with index 1; cancel breaks
        # that tie in set order, so the sign once followed the hash seed
        chart = Chart(("x1", "x01"))
        e = 1 / (chart.var("x01") - chart.var("x1"))
        assert render_expr(e) == "-1/(x1 - x01)"

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

    def test_parameter_is_not_a_coordinate(self):
        """A parameter is constant in the coordinates, and no derivative
        in it is defined: d/dt of t*x + t^2 is refused, not read as 0."""
        chart = Chart(params=("t",))
        with pytest.raises(UnknownSymbol, match="not a chart coordinate: 't'"):
            parse_expr("t*x + t^2", chart).diff("t")
        assert parse_expr("t*x", chart).diff("x") == chart.var("t")

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

    @pytest.mark.parametrize("text", ["-exp(2)", "x*exp(2) + y*exp(2)", "y*exp(2*x)"])
    def test_monomial_in_an_atom_that_sympy_splits(self, text):
        # sympy reads exp(2) as E^2 and exp(2*x) as exp(x)^2
        assert parse_expr(text, CH).is_zero() is Tri.FALSE

    def test_never_lies_about_zero(self):
        t = var("t")
        e = (ex.cosh(t) ** 2 - 1) - ex.sinh(t) ** 2
        assert e.is_zero() is Tri.TRUE

    def test_monomial_over_coshes(self):
        text = "sinh(x)*cosh(y)*cosh(2*x)/(x + cosh(x) + cosh(y) + cosh(2*x))"
        assert parse_expr(text, CH).is_zero() is Tri.FALSE

    @pytest.mark.parametrize("text", ["-cosh(y)^2", "cosh(y)^3", "x*sinh(x)*cosh(y)^2",
                                      "cosh(x)^2*cosh(y)^4/(x + cosh(y))"])
    def test_cosh_squared_vanishes_nowhere(self, text):
        # cosh(u)^2 is folded to 1 + sinh(u)^2: no monomial, but a unit
        assert parse_expr(text, CH).is_zero() is Tri.FALSE

    @pytest.mark.parametrize("text", ["cosh(2*y) - 1 - 2*sinh(y)^2", "x*cosh(y)^2 + sinh(x)*cosh(y)^2"])
    def test_cosh_squared_times_no_monomial_is_undecided(self, text):
        assert parse_expr(text, CH).is_zero() is Tri.UNKNOWN

    @pytest.mark.parametrize("text", ["2*sinh(y)^2 + 1", "-2*sinh(y)^2 - 1", "x^2*sinh(y)^2 + exp(x)",
                                      "sinh(x)^2 + sinh(y)^2", "log(x^2 + 1)^2 + cosh(y)*x^4",
                                      "(2*sinh(y)^2 + 1)*cosh(y)^2/(x - 1)"])
    def test_one_signed_sum_vanishes_nowhere_identically(self, text):
        # each term keeps one sign everywhere, and some term is a nonzero function
        assert parse_expr(text, CH).is_zero() is Tri.FALSE

    @pytest.mark.parametrize("text", ["exp(x) - 1 - x", "sinh(y)^2 - 1", "x*sinh(y)^2 + 1",
                                      "sinh(y)^3 + 1", "log(x)^2 - sinh(y)^2"])
    def test_mixed_signs_are_undecided(self, text):
        assert parse_expr(text, CH).is_zero() is Tri.UNKNOWN


class TestCoshBelow:
    """A cosh that divides a denominator leaves it; any other stays, since its
    conjugate may vanish everywhere.  1 + sinh(u)^2 is no excluded locus."""

    def test_dividing_cosh_leaves(self):
        e = parse_expr("x/cosh(y)", CH)
        assert render_expr(e) == "x*cosh(y)/(sinh(y)^2 + 1)"
        assert [render_expr(f) for f in ex.vanishing_loci(CH, [e])] == ["x", "cosh(y)"]

    @pytest.mark.parametrize("text, rendered", [
        # the conjugates 1 + 2*sinh(y)^2 - cosh(2*y) and
        # exp(y)^2 + 1 - 2*exp(y)*cosh(y) are zero everywhere
        ("x/(1 + 2*sinh(y)^2 + cosh(2*y))", "x/(cosh(2*y) + 2*sinh(y)^2 + 1)"),
        ("x/(exp(y) + exp(-y) + 2*cosh(y))", "x*exp(y)/(2*cosh(y)*exp(y) + exp(y)^2 + 1)"),
    ])
    def test_conjugate_that_vanishes_everywhere(self, text, rendered):
        e = parse_expr(text, CH)
        assert render_expr(e) == rendered
        X, Y = sp.symbols("x y")
        for point in ({X: 1, Y: 0}, {X: 1, Y: sp.log(2)}):
            value = sp.parse_expr(text.replace("^", "**")).subs(point)
            numer, denom = (p.as_expr().subs(point) for p in (e._frac.numer, e._frac.denom))
            assert denom != 0 and sp.simplify(numer / denom - value) == 0
        for locus in ex.vanishing_loci(CH, [e]):
            assert any(locus.sym.subs(point) != 0 for point in ({X: 1, Y: 0}, {X: 1, Y: sp.log(2)}))


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

    @pytest.mark.parametrize("text, bindings, expected", [
        ("exp(x*y) + sinh(z)", {"x": "y"}, "exp(y^2) + sinh(z)"),
        ("sinh(x)*cosh(x)", {"x": "-x"}, "-cosh(x)*sinh(x)"),
        ("exp(x/2)^3", {"x": "2*z"}, "exp(3*z)"),
        ("cosh(x - y)", {"y": "x"}, "1"),
    ])
    def test_atoms_rebuilt(self, text, bindings, expected):
        """An atom whose argument the substitution changes is rebuilt by the
        table; one whose argument it keeps stays."""
        e = parse_expr(text, CH).subs({k: parse_expr(v, CH) for k, v in bindings.items()})
        assert (e - parse_expr(expected, CH)).is_zero() is Tri.TRUE


class TestNonRealLog:
    """Logs are read where their argument is positive; a constant argument
    that sympy would make complex is refused."""

    @pytest.mark.parametrize("text", ["log(-1)", "log(1 - exp(1))", "x + log(-2)"])
    def test_refused(self, text):
        with pytest.raises(NonRealValue):
            parse_expr(text, Chart())

    def test_positive_constant_accepted(self):
        assert render_expr(parse_expr("log(1/2)", Chart())) == "-log(2)"

    @pytest.mark.parametrize("text", ["log(-exp(x))", "log(-cosh(u)*x^2-1)"])
    def test_atom_argument_positive_nowhere(self, text):
        # exp and cosh are positive at any power
        with pytest.raises(NonRealValue):
            parse_expr(text, CH)

    @pytest.mark.parametrize("text", ["log(exp(x))", "log(-sinh(x))", "log(-x*exp(x))",
                                      "log(-log(x^2+1))", "log(cosh(u)*x^2+1)"])
    def test_atom_argument_positive_somewhere(self, text):
        # sinh, log and the names take both signs at odd powers
        assert isinstance(render_expr(parse_expr(text, CH)), str)


class TestExpOfConstant:
    """sympy writes exp(1) as the number E and exp(x + 1) as E*exp(x); the
    renderer names E exp(1).  The exps of one term that a polynomial holds at
    the powers k print as exp(g*t)^(k/g), g the gcd of the k."""

    @pytest.mark.parametrize("text, rendered", [
        ("exp(1)", "exp(1)"),
        ("x*exp(x + 1)", "x*exp(1)*exp(x)"),
        ("x*exp(-1)", "x/(exp(1))"),
        ("exp(2*x)", "exp(2*x)"),
        ("exp(2*x) + exp(x)", "exp(x)^2 + exp(x)"),
        ("exp(4*x) + y*exp(2*x)", "y*exp(2*x) + exp(2*x)^2"),
        ("exp(2*z) + exp(3*z)", "exp(z)^3 + exp(z)^2"),
        ("cosh(exp(z)) + exp(2*z)", "cosh(exp(z)) + exp(2*z)"),
        ("exp(3*x/2) + exp(x/2)", "exp(x/2)^3 + exp(x/2)"),
        ("exp(2) + exp(1)", "exp(1)^2 + exp(1)"),
    ])
    def test_round_trip(self, text, rendered):
        e = parse_expr(text, Chart())
        assert render_expr(e) == rendered
        assert parse_expr(rendered, Chart()) == e


class TestConvert:
    def test_generator_order_flip_keeps_the_denominator_sign(self):
        """Atoms sort by their text: exp(x) before exp(x*y), exp(x/2) after
        it.  Adding exp(x/2) rewrites exp(x) as exp(x/2)^2 and flips the order
        of the generators, so the leading coefficient of the denominator turns
        negative unless the conversion moves the sign to the numerator."""
        chart = Chart(("x", "y", "z"))
        a = parse_expr("1/(exp(x) - exp(x*y))", chart)
        b = parse_expr("exp(x/2)", chart)
        back = (a + b) - b
        assert back == a and hash(back) == hash(a)
        assert render_expr(back) == "1/(exp(x) - exp(x*y))"


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

    @pytest.mark.parametrize("text", ["(0)^0", "(x-x)^0"])
    def test_zero_to_the_zero_is_one(self, text):
        # the field's own power refuses 0**0; the kernel keeps sympy's reading
        assert render_expr(parse_expr(text, CH)) == "1"

    @pytest.mark.parametrize("text", ["(x-x)^-1", "1/(x-x)"])
    def test_field_division_by_zero(self, text):
        with pytest.raises(DivisionByZero):
            parse_expr(text, CH)


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
    once = Expr(e.chart, e.sym)
    assert Expr(once.chart, once.sym) == once


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


ODE = Chart(("x", "u", "p"))
#: sympy sorts these names (w, a, b, kappa): chart order is not field order
PARAMS = Chart(("w", "b"), ("kappa", "a"))


def _or_reject(build):
    """`build`, with a draw that the kernel refuses as no rational function
    rejected: exp(log(5)/2) is sqrt(5)."""
    def built(drawn):
        try:
            return build(drawn)
        except NonRationalValue:
            reject()
    return built


def paired_exprs(chart, atoms=False):
    """Values built twice: as Exprs and as plain sympy trees; with `atoms`,
    also through exp, sinh, cosh and log."""
    base = st.one_of(
        st.sampled_from([-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)]).map(
            lambda q: (chart.number(q), sp.Rational(q.numerator, q.denominator))),
        st.sampled_from(chart.names).map(lambda n: (chart.var(n), sp.Symbol(n))),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        steps = [
            pairs.map(lambda ab: (ab[0][0] + ab[1][0], ab[0][1] + ab[1][1])),
            pairs.map(lambda ab: (ab[0][0] - ab[1][0], ab[0][1] - ab[1][1])),
            pairs.map(lambda ab: (ab[0][0] * ab[1][0], ab[0][1] * ab[1][1])),
            pairs.filter(lambda ab: ab[1][0].is_zero() is Tri.FALSE).map(
                lambda ab: (ab[0][0] / ab[1][0], ab[0][1] / ab[1][1])),
            children.map(lambda e: (e[0] ** 2, e[1] ** 2)),
        ]
        if atoms:  # an atom's argument is a value in its reference form
            steps += [
                children.map(_or_reject(lambda e: (ex.exp(e[0]), sp.exp(reference_form(e[1]))))),
                children.map(_or_reject(lambda e: (ex.sinh(e[0]), sp.sinh(reference_form(e[1]))))),
                children.map(_or_reject(lambda e: (ex.cosh(e[0]), sp.cosh(reference_form(e[1]))))),
                children.map(_or_reject(
                    lambda e: (ex.log(e[0] ** 2 + 1), sp.log(reference_form(e[1] ** 2 + 1))))),
            ]
        return st.one_of(*steps)

    return st.recursive(base, extend, max_leaves=6)


def _rewrite_cosh_powers(e):
    def pred(node):
        return node.is_Pow and node.exp.is_Integer and node.exp >= 2 and isinstance(node.base, sp.cosh)

    def repl(node):
        q, r = divmod(int(node.exp), 2)
        return (1 + sp.sinh(node.base.args[0]) ** 2) ** q * sp.cosh(node.base.args[0]) ** r

    return e.replace(pred, repl)


def reference_form(e):
    """The canonical form of a tree with atoms as the kernel once computed it:
    sympy.cancel, then cosh(u)^2 -> 1 + sinh(u)^2 until no cosh power is left."""
    e = sp.cancel(e)
    if e.has(sp.cosh):
        for _ in range(64):
            num, den = e.as_numer_denom()
            num2 = _rewrite_cosh_powers(num)
            den2 = _rewrite_cosh_powers(den)
            if num2 == num and den2 == den:
                break
            num2, den2 = sp.expand(num2), sp.expand(den2)
            e = sp.expand(num2 / den2) if den2.is_Rational else sp.cancel(num2 / den2)
    return e


def _tree_gen_text(chart, g):
    if g.is_Symbol:
        return g.name
    if g is sp.E:
        return "exp(1)"
    fname = {sp.exp: "exp", sp.sinh: "sinh", sp.cosh: "cosh", sp.log: "log"}[g.func]
    return f"{fname}({tree_text(chart, g.args[0])})"


def _tree_polynomial_text(chart, e):
    if e.is_Rational:
        return str(e)
    gens = set(e.free_symbols) | e.atoms(sp.exp, sp.sinh, sp.cosh, sp.log, type(sp.E))

    def key(g):
        if g.is_Symbol:
            return (0, chart.names.index(g.name), "")
        return (1, 0, _tree_gen_text(chart, g))

    gens = sorted(gens, key=key)
    try:
        poly = sp.Poly(e, *gens)
    except sp.PolynomialError:
        # Poly reads exp(2*x) as exp(x)^2 and then finds x inside a generator;
        # stand-ins keep every atom opaque.
        dummies = [sp.Dummy() for _ in gens]
        poly = sp.Poly(e.xreplace(dict(zip(gens, dummies))), *dummies)
    return ex._render_terms([_tree_gen_text(chart, g) for g in gens], poly.terms())


def tree_text(chart, e):
    """The text of a sympy tree as the kernel once printed every value with an
    atom: sympy's numerator and denominator, each read back by `sp.Poly` over
    its names and atoms, which folds exp(k*t) into exp(t)^k where exp(t) is
    also a generator."""
    num, den = e.as_numer_denom()
    num_str = _tree_polynomial_text(chart, num)
    if den == 1:
        return num_str
    return ex._render_fraction(num_str, _tree_polynomial_text(chart, den))


def _cosh_below(tree):
    """True when a cosh stands in a denominator, in an atom's argument too."""
    return any(node.is_Pow and node.exp.is_negative and node.base.has(sp.cosh)
               for node in sp.preorder_traversal(tree))


def _unreduced_argument(tree):
    """True when an atom's argument is not as the kernel prints it, a reduced
    value of its own: sympy.cancel would reduce it, or it is an exp's argument
    whose sign as a number is not its written sign (sympy's as_numer_denom
    then writes exp(-a) where the kernel has 1/exp(a), or the reverse)."""
    for atom in tree.atoms(sp.exp, sp.sinh, sp.cosh, sp.log):
        u = atom.args[0]
        if u != sp.cancel(u):
            return True
        if isinstance(atom, sp.exp):
            written_negative = u.as_coeff_Mul()[0] < 0
            if (u.is_negative and not written_negative) or (u.is_positive and written_negative):
                return True
    return False


def _exps_of_one_term_at_two_coefficients(tree):
    """True when two exps of one term have different coefficients, such as
    exp(x/2) and exp(x/3), exp(2*x) and exp(3*x), or exp(2) and exp(1): the
    kernel prints them as powers of one exp, and `tree_text` by sympy's case
    split."""
    coeffs = {}
    for atom in tree.atoms(sp.exp, type(sp.E)):
        c, t = (atom.args[0] if atom is not sp.E else sp.S.One).as_coeff_Mul(rational=True)
        coeffs.setdefault(t, set()).add(c)
    return any(len(cs) > 1 for cs in coeffs.values())


@pytest.mark.parametrize("chart, atoms", [(CH, False), (ODE, False), (PARAMS, False), (CH, True),
                                          (ODE, True)], ids=["CH", "ode", "params", "CH-atoms",
                                                             "ode-atoms"])
def test_field_values_match_sympy_cancel(chart, atoms):
    """Byte-identity oracle: an atom-free value's tree is the tree sympy.cancel
    makes of the same value; a value with atoms renders as its reference form
    does, wherever that has no cosh below.  (Texts, not trees: cancel reads
    an exp(-c) left in a numerator as a generator apart from exp(c), which
    changes the tree's shape, not its text.)  Every value is equal, with equal
    hash, to the same value reached as a tree, as its own tree, or through
    atoms that cancel."""

    x, X = chart.var(chart.coords[0]), sp.Symbol(chart.coords[0])

    # sympy's FracField.from_expr leaves the sign of a bare 1/(1 - x) as read
    @given(paired_exprs(chart, atoms))
    @example((1 / (1 - x), 1 / (1 - X)))
    @example(((1 - x) ** -2, (1 - X) ** -2))
    @example((x / ex.cosh(x), X / sp.cosh(X)))
    @example((ex.exp(2 * x) / (ex.exp(x) - 1), sp.exp(2 * X) / (sp.exp(X) - 1)))
    def check(pair):
        e, tree = pair
        if not tree.has(sp.exp, sp.sinh, sp.cosh, sp.log, sp.E):
            assert e.sym == sp.cancel(tree)
        else:
            reference = reference_form(tree)
            if not (_cosh_below(reference) or _unreduced_argument(reference)
                    or _exps_of_one_term_at_two_coefficients(reference)):
                assert render_expr(e) == tree_text(chart, reference)
        detour = e + (ex.cosh(x) ** 2 - ex.sinh(x) ** 2 - 1)
        for other in (Expr(chart, e.sym), Expr(chart, tree), detour):
            assert other == e and hash(other) == hash(e)

    check()


def field_values(atoms):
    """Values on CH from small rationals and names by + - * / and by each
    function of `atoms`."""
    base = st.one_of(
        st.sampled_from([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]).map(num),
        st.sampled_from(CH.names).map(var),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        steps = [
            pairs.map(lambda ab: ab[0] + ab[1]),
            pairs.map(lambda ab: ab[0] - ab[1]),
            pairs.map(lambda ab: ab[0] * ab[1]),
            pairs.filter(lambda ab: ab[1] != CH.zero()).map(lambda ab: ab[0] / ab[1]),
        ]
        return st.one_of(*steps, *(children.map(_or_reject(atom)) for atom in atoms))

    return st.recursive(base, extend, max_leaves=6)


def _terms(f):
    return f.numer, f.denom


@pytest.mark.parametrize("atoms", [(), (ex.exp, ex.sinh, lambda e: ex.log(e ** 2 + 1))],
                         ids=["atom-free", "exp-sinh-log"])
def test_reduced_arithmetic_matches_cancel(atoms):
    """Oracle for the arithmetic on reduced fractions: + - * /, each partial
    derivative and `dot` give the numerator and denominator that cancelling
    the unreduced result with sympy's `field.new` gives."""

    x, y = var("x"), var("y")

    # the sum's numerator x shares a factor with the gcd x of the denominators
    @given(field_values(atoms), field_values(atoms), field_values(atoms), field_values(atoms))
    @example(1 / (x * y), -1 / (x * (x + y)), x, y)
    def check(a, b, c, d):
        field = ex._union(CH, *(e._frac.field for e in (a, b, c, d)))
        f, g, h, k = (ex._convert(e._frac, field) for e in (a, b, c, d))
        (n1, d1), (n2, d2) = _terms(f), _terms(g)
        cases = [(ex._add(f, g), n1 * d2 + n2 * d1, d1 * d2),
                 (ex._sub(f, g), n1 * d2 - n2 * d1, d1 * d2),
                 (ex._mul(f, g), n1 * n2, d1 * d2)]
        if g:
            cases.append((ex._div(f, g), n1 * d2, d1 * n2))
        for i, gen in enumerate(field.ring.gens):
            cases.append((ex._diff(f, i), n1.diff(gen) * d1 - n1 * d1.diff(gen), d1 ** 2))
        for got, numer, denom in cases:
            assert _terms(got) == _terms(field.new(numer, denom))
        fused = ex.dot([(a, b), (c, d)])
        reference = Expr(CH, field.new(n1 * n2 * h.denom * k.denom + h.numer * k.numer * d1 * d2,
                                       d1 * d2 * h.denom * k.denom))
        assert fused == reference and _terms(fused._frac) == _terms(reference._frac)

    check()


def test_dot_with_a_cosh_cancels_the_total_once():
    """A field with a cosh sums like any other: the products are added
    unreduced and the total is cancelled once.  Where a cosh folds shows in
    the result, so the running sum of the products may differ in form, but
    not in value.  In the example the sum (x^2 - cosh(y)^2)/(x + cosh(y))
    cancels to x - cosh(y); the running sum folds the second product to
    -(1 + sinh(y)^2)/(x + cosh(y)) first and stays at
    (x^2 - sinh(y)^2 - 1)/(x + cosh(y))."""
    x, y = var("x"), var("y")
    a, b, c, d = x ** 2, 1 / (x + ex.cosh(y)), -ex.cosh(y), ex.cosh(y) / (x + ex.cosh(y))
    assert ex.dot([(a, b), (c, d)]) == x - ex.cosh(y)
    assert CH.zero() + a * b + c * d == (x ** 2 - ex.sinh(y) ** 2 - 1) / (x + ex.cosh(y))

    @given(field_values((ex.sinh, ex.cosh)), field_values((ex.sinh, ex.cosh)),
           field_values((ex.sinh, ex.cosh)), field_values((ex.sinh, ex.cosh)))
    def check(a, b, c, d):
        assert (ex.dot([(a, b), (c, d)]) - (CH.zero() + a * b + c * d)).is_zero() is Tri.TRUE

    check()


@pytest.mark.parametrize("atoms", [(), (ex.sinh, ex.cosh)], ids=["atom-free", "cosh"])
def test_residual_verdict_matches_the_reduced_sum(atoms):
    """Oracle for deciding a check on its unreduced numerator: a `Residual`'s
    verdict is the verdict of its reduced sum, `dot` plus the constant,
    wherever that one is decided.  Each draw is also tested with products
    that cancel, one of them a triple product, so that both verdicts occur."""

    @given(field_values(atoms), field_values(atoms), field_values(atoms), field_values(atoms),
           st.sampled_from([0, 1, Fraction(-1, 2)]))
    def check(a, b, c, d, constant):
        cases = [
            ([(a, b), (c, d)], [(a, b), (c, d)]),
            ([(a, b), (c, d), (-d, c)], [(a, b), (c, d), (-d, c)]),
            ([(a, b, c), (-c, a * b)], [(a * b, c), (-c, a * b)]),
        ]
        for products, pairs in cases:
            reference = (ex.dot(pairs) + constant).is_zero()
            if reference is not Tri.UNKNOWN:
                assert ex.Residual(CH, products, constant).is_zero() is reference

    check()


def test_residual_with_atoms_is_never_refuted_by_its_numerator():
    """sinh(2x) and sinh(x), cosh(x) are generators with no relation in the
    field, so the numerator of sinh(2x) - 2*sinh(x)*cosh(x) is no zero
    polynomial although the value is 0: only a certificate may say FALSE."""
    x = var("x")
    products = [(ex.sinh(2 * x),), (-2 * ex.sinh(x), ex.cosh(x))]
    assert ex.Residual(CH, products).is_zero() is Tri.UNKNOWN


def _numerator_and_its_factors(e):
    f = e._frac
    polys = [f.numer] + [fac for fac, _ in f.numer.factor_list()[1]]
    return [Expr(e.chart, f.field.new(p)) for p in polys]


@given(st.one_of(exprs(), field_values((ex.exp, ex.sinh, lambda e: ex.log(e ** 2 + 1)))))
# two terms, a positive number and a negative multiple: `as_ordered_terms`
# keeps them in that order
@example(1 - 2 * var("x"))
@example(3 * var("z") - 1)
@example(parse_expr("exp(1) - 2*x*exp(y)", CH))
@example(parse_expr("(exp(1) - 2)*(x - y)*(1 - x*sinh(y))", CH))
def test_loci_are_sorted_by_the_key_of_their_trees(e):
    """`vanishing_loci` sorts by sympy's `default_sort_key` of each factor's
    tree, computed without evaluating the tree's sum."""
    for value in _numerator_and_its_factors(e):
        assert ex._sort_key(value) == sp.default_sort_key(value.sym)


def test_operators_do_not_use_the_fields_arithmetic(monkeypatch):
    """Expr's operators and diff reduce each fraction once, by their own
    rules, and never through FracElement's cancelling operators."""
    def refused(*args):
        raise AssertionError("FracElement arithmetic reached")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "diff"):
        monkeypatch.setattr(FracElement, name, refused)
    x, y = var("x"), var("y")
    for e in (x / (x + y), ex.exp(x) / (1 + y * ex.sinh(x)), ex.cosh(x) / (y + ex.log(x ** 2 + 1))):
        values = [e, e + 1, 2 - e, e * e, e / (x - 3), 1 / e, e ** -2, e.diff("x"), e.diff("y"),
                  ex.dot([(e, x), (y, e)])]
        assert all(v.is_zero() is not Tri.TRUE for v in values)


FRAME_2 = "[frame]\nX1 = d/dx + y*d/dy\nX2 = d/dy + (x^2 - 2*z^2)*d/dz\n"


def test_analyze_reduces_each_fraction_once(monkeypatch):
    """A guard on the number of polynomial gcds one `analyze` takes: each
    arithmetic operation reduces its result once, and a sum of products
    once in all; the Reeb field, the coframe and each structure function
    are one such sum per component, and the checks are decided on unreduced
    numerators, with no gcd.  Cancelling every sum and product anew took
    173; bracketing [X2,X1] and pairing it with the coframe a second time
    took 86; bracketing with the Reeb field and reducing every check took
    82; reading dw's partials unexpanded took 29.  The three gcds since are
    the subtractions inside `exterior_derivative(w)`."""
    calls = []
    gcd = PolyElement._gcd_ZZ

    def counted(f, g):
        calls.append(None)
        return gcd(f, g)

    defn = parse_structure_file(FRAME_2)
    monkeypatch.setattr(PolyElement, "_gcd_ZZ", counted)
    assert analyze_definition(defn)["status"] == "pass"
    assert len(calls) == 32


def test_dw_checks_sum_over_few_denominators(monkeypatch):
    """A guard on the size of the largest unreduced denominator one `analyze`
    builds, on a mid-size frame: each dw check pairs dw itself, six products
    over the denominators of dw and X0.  Expanding dw from the twelve
    products of the partials of w made a denominator of 12,536 terms."""
    sizes = []
    unreduced_sum = ex._unreduced_sum

    def measured(field, products):
        numer, denom = unreduced_sum(field, products)
        sizes.append(len(denom))
        return numer, denom

    defn = parse_structure_file(
        "[frame]\nX1 = d/dx + 3*z*d/dy\nX2 = d/dy - (3/2*x^2*y + 9*x*y + z + 1)*d/dz\n")
    monkeypatch.setattr(ex, "_unreduced_sum", measured)
    assert analyze_definition(defn)["status"] == "pass"
    assert max(sizes) == 2905


@contextlib.contextmanager
def _counting_cancel():
    """The calls to sympy.cancel made inside the block, counted with
    sys.setprofile."""
    code = sp.cancel.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def test_atom_free_values_never_reach_cancel(capsys):
    with _counting_cancel() as calls:
        assert main(["analyze", "martinet"]) == 0
    capsys.readouterr()
    assert calls == []


def test_a_sum_of_atoms_is_canonicalised_once():
    """A sum of atoms is put in its one form as it is built: rendering and
    the zero test read it as it stands, and the order of the terms does not
    show."""
    x = var("x")
    with _counting_cancel() as calls:
        total = CH.zero()
        for k in range(1, 6):
            total = total + ex.sinh(k * x) + ex.cosh(k * x)
        backwards = CH.zero()
        for k in range(5, 0, -1):
            backwards = ex.cosh(k * x) + ex.sinh(k * x) + backwards
        text = render_expr(total)
        # a sum of atoms is no certified monomial
        assert total.is_zero() is Tri.UNKNOWN
    assert calls == []
    assert backwards == total and hash(backwards) == hash(total)
    assert render_expr(backwards) == text


def test_no_command_calls_sympy_cancel(capsys):
    """Every value, atoms included, lives in a rational-function field."""
    runs = (["analyze", "martinet"], ["rotate", "heisenberg", "--theta", "x*y"],
            ["ode", "--Q", "(1+2*x)*exp(u) + (x+x^2)*exp(u)*p"])
    with _counting_cancel() as calls:
        codes = [main(argv) for argv in runs]
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert calls == []


def test_atom_text_does_not_depend_on_the_hash_seed():
    # _sort_gens reads x1 and x01 both as x with index 1; sympy.cancel broke
    # that tie in set order, so the text of an atom value followed the seed
    program = (
        "from sublorentz.expr import Chart, render_expr, exp\n"
        "c = Chart(('x1', 'x01'))\n"
        "print(render_expr(exp(c.var('x1')) / (c.var('x01') - c.var('x1'))))\n"
    )
    texts = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC.parent))
        done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        texts.add(done.stdout)
    assert texts == {"-exp(x1)/(x1 - x01)\n"}


def test_atom_free_analyze_does_not_load_sympy_tensor(tmp_path):
    """sympy imports `sympy.tensor` on the first sum it evaluates (about
    40 ms of CPU).  The loci are sorted over unevaluated sums, so an
    `analyze` without atoms evaluates none and never pays it."""
    rng = random.Random(100123)
    frame = [random_frame(rng, Chart()) for _ in range(2)][1]  # frames-100123-1
    path = tmp_path / "frame.toml"
    path.write_text(f"[frame]\nX1 = {render_field(frame.x1)}\nX2 = {render_field(frame.x2)}\n")
    program = (
        "import sys\n"
        "from sublorentz.cli import main\n"
        "assert main(['analyze', sys.argv[1], '--format', 'json']) == 0\n"
        "print('sympy.tensor.tensor' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", program, str(path)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    report, loaded = done.stdout.rsplit("\n", 2)[:2]
    assert json.loads(report)["apparatus"]["excluded_loci"] == ["x - y", "3*z - 1"]
    assert loaded == "False"


def grammar_texts(depth=4):
    """Scalar texts over x, y, z and the integers 0-9, with + - * / ^
    (exponents -3..4) and the four atoms, nested at most `depth` deep."""
    text = st.one_of(st.sampled_from(["x", "y", "z"]), st.integers(0, 9).map(str))
    for _ in range(depth):
        sub = text
        text = st.one_of(
            sub,
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(sub, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["exp", "sinh", "cosh", "log"]), sub).map(
                lambda t: f"{t[0]}({t[1]})"),
        )
    return text


@given(grammar_texts())
@example("log(-1)")
def test_parsed_text_renders_or_is_refused(text):
    """Every text of the grammar renders, or is refused with an EngineError,
    and the rendered text parses back to an equal value."""
    try:
        e = parse_expr(text, Chart())
    except EngineError:
        return
    assert parse_expr(render_expr(e), Chart()) == e


SRC = Path(sublorentz.__file__).parent

#: Public functions that compute paper results no command prints yet: tests
#: reach them, the CLI does not (ROADMAP item 5).
ONLY_TESTS_REACH = (
    "symmetry.vertical_form_residual",
    "symmetry.quadratic_frame_matrix",
    "lie_algebra.is_automorphism",
    "lie_algebra.ad_invariance_residuals",
    "lie_algebra.killing_invariance_residuals",
    "symmetry.reeb_lie_derivative",
    "invariants.verify_normalizing_theta",
    "lie_algebra.isometry_structure_equations",
)


def test_every_public_function_is_reached():
    """Every public module-level function is referenced in src/ outside its
    own def, apart from the entry point cli.main and ONLY_TESTS_REACH."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    defined = {
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    reached = set()
    for mod, tree in trees.items():
        modules, names = {}, {}  # `from . import expr as ex`, `from .expr import f as g`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for stmt in tree.body:
            own = f"{mod}.{stmt.name}" if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = names.get(node.id, f"{mod}.{node.id}")
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    ref = f"{modules[node.value.id]}.{node.attr}"
                else:
                    continue
                if ref != own:
                    reached.add(ref)
    unreached = defined - reached - {"cli.main"}
    assert sorted(unreached) == sorted(ONLY_TESTS_REACH)


def test_only_the_kernel_knows_the_representation():
    """No module but expr.py imports sympy or reads an Expr's `sym`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
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


# -- the atom table -------------------------------------------------------------


def _read_as_before(chart, tree):
    """The tree the kernel once read an atom from: sympy's evaluation of the
    function, then `signsimp`, `factor_terms` and `expand`."""
    return sp.factor_terms(sp.signsimp(tree), radical=True).expand()


def _atom_texts(tree):
    """The text of each sinh, cosh and log in `tree`, nested ones too, and
    the term t of each exp(c*t) with a rational c: the generators a value
    with these atoms lives on."""
    texts = {str(a) for a in tree.atoms(sp.sinh, sp.cosh, sp.log)}
    exps = tree.atoms(sp.exp) | ({sp.S.One} if tree.has(sp.E) else set())
    return texts | {"exp " + str(a.args[0].as_coeff_Mul(rational=True)[1] if a.args else a)
                    for a in exps}


@st.composite
def atom_arguments(draw):
    """u drawn with the acceptance generators: a polynomial with mixed signs
    (ties in the sign count among them), perhaps plus a rational constant
    and an exp or log term."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    u = random_polynomial(rng, CH, max_terms=3, max_degree=2, max_coeff=4)
    if draw(st.booleans()):
        u = u + num(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    extra = draw(st.sampled_from([None, ex.exp, ex.log]))
    if extra is not None:
        p = random_polynomial(rng, CH, max_terms=2, max_degree=2, allow_zero=False)
        u = u + rng.choice([1, -2, Fraction(1, 2)]) * extra(p if extra is ex.exp else p ** 2 + 1)
    return u


@given(atom_arguments())
@example(var("x") - var("y") - var("z"))
@example(var("x") - var("y"))
@example(var("y") - var("x"))
@example(3 * var("z") - 3 * var("z") ** 2)
@example(3 - 2 * var("z"))
@example(var("y") - var("x") ** 2)
@example(var("z") - var("x"))
@example(parse_expr("-4*x + 20/3", CH))
@example(parse_expr("x/2 - 4*x*exp(2)", CH))
@example(parse_expr("x/(1 - y)", CH))
@example(parse_expr("(x - y)/(x + y)", CH))
def test_atom_table_is_the_evaluation_it_replaced(u):
    """Oracle for the atom table: for each function f, f(u) is the value the
    kernel once read from sympy's f(u.sym), with the same atoms, wherever both
    are defined.  The atoms are compared by their text, which orders the
    generators and carries the sign rule: cosh(x - y - z) is
    cosh(-x + y + z)."""
    for name in ("exp", "sinh", "cosh", "log"):
        try:
            value = getattr(ex, name)(u)
        except EngineError:
            continue
        tree = getattr(sp, name)(u.sym)
        if tree.has(sp.I):
            continue
        before = _read_as_before(CH, tree)
        assert value == Expr(CH, before), name
        assert _atom_texts(value.sym) == _atom_texts(before), name


def test_cosh_of_more_negative_terms_is_written_negated():
    u = parse_expr("x - y - z", CH)
    assert render_expr(ex.cosh(u)) == "cosh(-x + y + z)"
    assert render_expr(ex.sinh(u)) == "-sinh(-x + y + z)"


def test_parsed_and_read_atoms_are_one_value():
    """An atom parsed from text and one read from a sympy tree are built by
    the one table: log(exp(x-1)^2+1) is one value either way."""
    parsed = parse_expr("log(exp(x-1)^2+1)", CH)
    read = Expr(CH, sp.log(sp.exp(-2) * sp.exp(2 * sp.Symbol("x")) + 1))
    assert parsed == read
    assert (parsed - read).is_zero() is Tri.TRUE


def test_atom_commands_do_not_load_sympy_tensor(tmp_path):
    """The atom table evaluates no sympy sum, so neither a rotation nor an
    `analyze` with exp and log atoms imports `sympy.tensor`."""
    path = tmp_path / "frame.toml"
    path.write_text("[frame]\nX1 = d/dx\nX2 = d/dy + (x*exp(y) + log(1 + y^2))*d/dz\n")
    program = (
        "import sys\n"
        "from sublorentz.cli import main\n"
        "assert main(sys.argv[1:] + ['--format', 'json']) == 0\n"
        "print('sympy.tensor.tensor' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for argv in (["rotate", "heisenberg", "--theta", "x*y + z"], ["analyze", str(path)]):
        done = subprocess.run([sys.executable, "-c", program, *argv], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout.rsplit("\n", 2)[1] == "False", argv
