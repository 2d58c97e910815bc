"""Exact symbolic scalars: rational functions over Q of chart coordinates,
parameters and the atoms exp, sinh, cosh and log.

A value is an element of sympy's sparse `FracField` over ZZ in lex order (over
QQ every gcd would first convert both polynomials to ZZ and back), whose
generators are the chart's names and the atoms the value holds.  One table
builds every atom from its argument's value, by the rules sympy's evaluation
and `expand` once applied to the atom's tree: an exp of a sum is a product of
exps, and exp(c*t) for a rational c is a power of exp(t/n), the one generator
of the term t; exp(k*log(v)) is v^k for an integer k and refused otherwise;
sinh is odd and cosh even, written with the argument negated when more of its
terms are negative than positive (a tie goes by sympy's sort key); a log
splits off the logs of its argument's rational content and constant factors
with a sign.  An atom is the sympy function, unevaluated, of its argument's
expanded tree, and keeps its argument's value.  The generators are sorted as
`cancel` sorts them (`_sort_gens`, by their text, ties kept in chart order).
cosh(u) comes with sinh(u) and is of degree <= 1 by cosh(u)^2 = 1 +
sinh(u)^2, which also takes a cosh(u) that divides the denominator out of it;
any other cosh stays below (`_fold_cosh`).  The fraction is gcd-reduced with a
positive leading coefficient below, in the field of exactly its atoms.

The arithmetic keeps every operand reduced and reduces each result once,
with no gcd against a full product (Henrici; Knuth, TAOCP 2, 4.5.1).  For
n1/d1 and n2/d2: the product is (n1/g1 * n2/g2)/(d1/g2 * d2/g1) with
g1 = gcd(n1, d2) and g2 = gcd(n2, d1); a quotient is a product by d2/n2; a
sum over d = gcd(d1, d2) has numerator t = n1*(d2/d) + n2*(d1/d), and only
e = gcd(t, d) can cancel, leaving (t/e)/((d1/d)*(d2/e)).  With d = g*q and
d' = g*r, g = gcd(d, d'), the derivative is (n'*q - n*r)/(g*q^2), and only g
can share a factor with its numerator.  A gcd with 1 is skipped.  A value
keeps each partial it takes (`Expr.diff`), so none is taken twice.  `dot`
sums products unreduced, over one denominator per distinct denominator, and
cancels the total once.

A check needs a verdict, not a value.  A `Residual` is a sum of products
that is never reduced: its zero test reads the numerator that `dot` would
cancel, the sum over the product of the distinct denominators.  The sum is
zero where that numerator is the zero polynomial, or, with a cosh, a
multiple of cosh(u)^2 - 1 - sinh(u)^2; without atoms it is nonzero
otherwise, and no gcd is taken.  With atoms a nonzero numerator proves
nothing (sinh(2*x) and sinh(x) are generators with no relation between
them), so the reduced value's test, with its certificates, decides.

A value prints from its field's terms (`render_expr`): the numerator over the
denominator, each a sum of terms with the chart's names in chart order and
then the atoms that polynomial holds, sorted by their text.  An atom's
argument prints as a value of its own.  The exps of one term that a
polynomial holds at the powers k of its generator exp(t/n) print as
exp(g*t/n)^(k/g), g the gcd of the k: exp(4*x) + y*exp(2*x) is
y*exp(2*x) + exp(2*x)^2, and exp(2) + exp(1) is exp(1)^2 + exp(1).

No floating point is admitted anywhere; coefficients are exact rationals.
No other module sees the representation, so rendering lives here too.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens

from .errors import DivisionByZero, NonRationalValue, NonRealValue, UnknownSymbol

NumberLike = Union[int, Fraction, sp.Rational]

_ZERO_DIVISOR = "division by an expression that normalizes to zero"
_SINGULAR = "expression is singular (division by zero)"
_NON_RATIONAL = "{} is not a rational function of the names and exp/sinh/cosh/log atoms"


class Tri(enum.Enum):
    """Three-valued verdict for decision procedures that may not decide."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("Tri is not implicitly boolean; compare explicitly")


RESERVED_NAMES = frozenset({"exp", "sinh", "cosh", "log", "d"})


def _valid_name(name: str) -> bool:
    return name.isidentifier() and not name.startswith("_") and name not in RESERVED_NAMES


@dataclass(frozen=True)
class Chart:
    """An ordered list of coordinate names plus declared constant parameters.

    Coordinates support differentiation; parameters differentiate to zero.
    Names must be unique across both groups.
    """

    coords: tuple[str, ...] = ("x", "y", "z")
    params: tuple[str, ...] = ()

    def __post_init__(self):
        names = list(self.coords) + list(self.params)
        for n in names:
            if not _valid_name(n):
                raise UnknownSymbol(f"invalid name {n!r}")
        if len(set(names)) != len(names):
            raise UnknownSymbol("coordinate and parameter names must be disjoint and unique")

    @property
    def names(self) -> tuple[str, ...]:
        return self.coords + self.params

    def has(self, name: str) -> bool:
        return name in self.coords or name in self.params

    def with_params(self, *extra: str) -> "Chart":
        new = tuple(p for p in extra if p not in self.params)
        return Chart(self.coords, self.params + new)

    def zero(self) -> "Expr":
        return Expr(self, _field(self, frozenset()).zero)

    def one(self) -> "Expr":
        return Expr(self, _field(self, frozenset()).one)

    def number(self, value: NumberLike) -> "Expr":
        q = _to_rational(value)
        field = _field(self, frozenset())
        return Expr(self, field.raw_new(field.ring(int(q.p)), field.ring(int(q.q))))

    def var(self, name: str) -> "Expr":
        if not self.has(name):
            raise UnknownSymbol(f"undeclared name {name!r}")
        field = _field(self, frozenset())
        return Expr(self, field.gens[_index(field, name)])


# -- the fields ------------------------------------------------------------------


def _to_rational(value: NumberLike) -> sp.Rational:
    if isinstance(value, (int, sp.Integer)):
        return sp.Integer(int(value))
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, sp.Rational):
        return value
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _is_exp(g) -> bool:
    """True for an exp; sympy writes exp(1) as the number E."""
    return g is sp.E or isinstance(g, sp.exp)


# The value of each exp term t and each sinh, cosh and log generator's
# argument, kept as the table makes them.
_EXP_TERMS: dict = {}
_ARGUMENTS: dict = {}


def _exp_key(g):
    """(key, c): for g = exp(c*t) with a rational c, key is ("exp", t); for
    any other generator, g and 1."""
    if not _is_exp(g):
        return g, Fraction(1)
    c, t = (g.args[0] if g is not sp.E else sp.S.One).as_coeff_Mul(rational=True)
    return ("exp", t), Fraction(int(c.p), int(c.q))


def _exp_generator(t: sp.Expr, n: int) -> sp.Expr:
    """The generator exp(t/n) of the exps of the term t."""
    return sp.E if t is sp.S.One and n == 1 else sp.exp(t / n, evaluate=False)


@functools.cache
def _partner(atom: sp.Expr) -> sp.Expr:
    """cosh(u) for sinh(u) and sinh(u) for cosh(u)."""
    kind = sp.sinh if isinstance(atom, sp.cosh) else sp.cosh
    partner = kind(atom.args[0], evaluate=False)
    _ARGUMENTS[partner] = _ARGUMENTS[atom]
    return partner


def _spec(g, k: int = 1):
    """How `_field` names the generator g at the power k: (t, c) for
    exp(t)^c, g itself for any other atom."""
    if _is_exp(g):
        (_, t), c = _exp_key(g)
        return t, c * k
    return g


@functools.cache
def _field(chart: Chart, atoms: frozenset) -> FracField:
    """The field of the chart's names and `atoms`, each a sinh, cosh or log
    generator or a pair (t, c) for exp(c*t): the exps of one term t share
    the generator exp(t/n), and each cosh(u) comes with sinh(u)."""
    denoms, gens = {}, set()
    for a in atoms:
        if isinstance(a, tuple):
            t, c = a
            denoms[t] = math.lcm(denoms.get(t, 1), c.denominator)
        else:
            gens.add(a)
            if isinstance(a, sp.cosh):
                gens.add(_partner(a))
    gens.update(_exp_generator(t, n) for t, n in denoms.items())
    gens = sorted(gens, key=sp.default_sort_key)
    return _field_of(_sort_gens([sp.Symbol(n) for n in chart.names] + gens))


@functools.cache
def _field_of(symbols: tuple) -> FracField:
    """One object per generator tuple, because elements of equal but
    distinct fields do not combine."""
    return FracField(symbols, ZZ, lex)


@functools.cache
def _specs(field: FracField) -> frozenset:
    return frozenset(map(_spec, _atoms(field)))


def _union(chart: Chart, *fields: FracField) -> FracField:
    """The field on `chart` where values of `fields` meet."""
    return _field(chart, frozenset().union(*map(_specs, fields)))


@functools.cache
def _index(field: FracField, name: str) -> int:
    return field.symbols.index(sp.Symbol(name))


@functools.cache
def _atoms(field: FracField) -> dict:
    """Each generator that is no chart name, with its index."""
    return {g: i for i, g in enumerate(field.symbols) if not g.is_Symbol}


@functools.cache
def _coshes(field: FracField) -> tuple:
    """(index, cosh(u), 1 + sinh(u)^2) in the ring, per cosh generator."""
    gens = field.ring.gens
    return tuple((i, gens[i], 1 + gens[field.symbols.index(_partner(a))] ** 2)
                 for a, i in _atoms(field).items() if isinstance(a, sp.cosh))


@functools.cache
def _units(field: FracField) -> tuple:
    """1 + sinh(u)^2 in the ring, per sinh generator: cosh(u)^2, which a
    cosh leaves below and which vanishes nowhere."""
    gens = field.ring.gens
    return tuple(1 + gens[i] ** 2 for a, i in _atoms(field).items() if isinstance(a, sp.sinh))


def _fold_cosh(f: FracElement) -> FracElement:
    """f with each cosh(u) of degree at most 1 and out of a denominator that
    it divides: n/(d*cosh(u)) = n*cosh(u)/(d*(1 + sinh(u)^2)).  Any other
    cosh stays below, because the conjugate d0 - d1*cosh(u) may vanish where
    d0 + d1*cosh(u) does not: 1 + 2*sinh(y)^2 - cosh(2*y) is 0 everywhere."""
    coshes = _coshes(f.field)
    numer, denom = f.numer, f.denom
    if all(numer.degree(i) < 2 and denom.degree(i) < 2 and not _divides(i, denom)
           for i, _, _ in coshes):
        return f
    relations = [c ** 2 - c2 for _, c, c2 in coshes]
    numer, denom = numer.rem(relations), denom.rem(relations)
    for i, c, c2 in coshes:
        if _divides(i, denom):
            numer, denom = (numer * c).rem(relations), denom.exquo(c) * c2
    return f.field.new(numer, denom)


def _divides(i: int, poly) -> bool:
    """True when the i-th generator divides `poly`."""
    return all(monom[i] for monom in poly.itermonoms())


@functools.cache
def _plan(src: FracField, dst: FracField) -> tuple:
    """For each generator of src: its index in dst (None when no value
    converted from src holds it) and the factor p/q on its exponent, as
    exp(t/n) of src is exp(t/m)^(m/n) in dst."""
    where = {key: (j, c) for j, (key, c) in enumerate(map(_exp_key, dst.symbols))}
    plan = []
    for key, c in map(_exp_key, src.symbols):
        j, d = where.get(key, (None, c))
        plan.append((j, (c / d).numerator, (c / d).denominator))
    return tuple(plan)


def _convert(f: FracElement, dst: FracField) -> FracElement:
    """f as an element of dst, which holds every atom f uses."""
    if f.field is dst:
        return f
    plan = _plan(f.field, dst)

    def remap(poly):
        terms = {}
        for monom, c in poly.iterterms():
            m = [0] * dst.ngens
            for (j, p, q), k in zip(plan, monom):
                if k:
                    m[j] += k * p // q
            terms[tuple(m)] = c
        return dst.ring.dtype(terms)

    numer, denom = remap(f.numer), remap(f.denom)
    # The map is injective on monomials and keeps the fraction reduced; only
    # the sign of the leading coefficient below depends on the generator order.
    if denom.LC < 0:
        numer, denom = -numer, -denom
    return dst.raw_new(numer, denom)


# -- arithmetic on reduced fractions -------------------------------------------


def _signed(field: FracField, numer, denom) -> FracElement:
    """numer/denom, coprime, with the sign of the denominator's leading
    coefficient moved to the numerator."""
    if denom.LC < 0:
        numer, denom = -numer, -denom
    return field.raw_new(numer, denom)


def _reduce(field: FracField, numer, denom) -> FracElement:
    """numer/denom in lowest terms; a denominator 1 needs no gcd."""
    if not numer:
        return field.zero
    if denom != 1:
        _, numer, denom = numer.cofactors(denom)
    return _signed(field, numer, denom)


def _mul(f: FracElement, g: FracElement) -> FracElement:
    """f*g, each numerator cancelled against the other's denominator."""
    if not f or not g:
        return f.field.zero
    n1, d1, n2, d2 = f.numer, f.denom, g.numer, g.denom
    if d2 != 1:
        _, n1, d2 = n1.cofactors(d2)
    if d1 != 1:
        _, n2, d1 = n2.cofactors(d1)
    return _signed(f.field, n1 * n2, d1 * d2)


def _add(f: FracElement, g: FracElement) -> FracElement:
    """f+g over the lcm of the denominators; only their gcd can share a
    factor with the sum's numerator."""
    if not f:
        return g
    if not g:
        return f
    n1, d1, n2, d2 = f.numer, f.denom, g.numer, g.denom
    if d1 == d2:
        return _reduce(f.field, n1 + n2, d1)
    # the sum is 0 only when g = -f, whose denominator is f's
    d, p1, p2 = d1.cofactors(d2)
    t = n1 * p2 + n2 * p1
    if d == 1:
        return _signed(f.field, t, d1 * p2)
    _, t, d = t.cofactors(d)
    return _signed(f.field, t, d * p1 * p2)


def _sub(f: FracElement, g: FracElement) -> FracElement:
    return _add(f, -g)


def _div(f: FracElement, g: FracElement) -> FracElement:
    """f/g for a nonzero g: f times g's reduced reciprocal."""
    return _mul(f, g.raw_new(g.denom, g.numer))


def _diff(f: FracElement, i: int) -> FracElement:
    """The partial derivative of f in the i-th generator.  With g the gcd of
    the denominator and its derivative, d = g*q and d' = g*r, it is
    (n'*q - n*r)/(g*q^2), and only g can share a factor with the numerator."""
    n, d = f.numer, f.denom
    if d == 1:
        return f.field.raw_new(n.diff(i))
    g, q, r = d.cofactors(d.diff(i))
    numer = n.diff(i) * q - n * r
    if not numer:
        return f.field.zero
    if g != 1:
        _, numer, g = numer.cofactors(g)
    return _signed(f.field, numer, g * q ** 2)


def _own_field(chart: Chart, f: FracElement) -> FracField:
    """The field of exactly the atoms f holds; an exp(t/n) whose exponents
    share the factor k in f is a power of exp(k*t/n)."""
    atoms, used = _atoms(f.field), {}
    for monom in itertools.chain(f.numer.itermonoms(), f.denom.itermonoms()):
        for a, i in atoms.items():
            if monom[i]:
                used[a] = math.gcd(used.get(a, 0), monom[i])
    return _field(chart, frozenset(_spec(a, k) for a, k in used.items()))


# -- the atom table ------------------------------------------------------------
#
# exp, sinh, cosh and log build each atom from its argument's value, by the
# rules that sympy's evaluation and `expand` once applied to the atom's tree.
# An atom is the sympy function, unevaluated, of its argument's expanded tree
# (`_expansion`): the generators are ordered by that text (`_sort_gens`).


def _power(g: sp.Expr, k: int) -> sp.Expr:
    """g^k as sympy writes it: exp(t)^k is exp(k*t)."""
    if k == 1:
        return g
    if _is_exp(g):
        (_, t), c = _exp_key(g)
        c *= k
        return sp.E if t is sp.S.One and c == 1 else sp.exp(_rational(c) * t, evaluate=False)
    return sp.Pow(g, k)


def _rational(c: Fraction) -> sp.Rational:
    return sp.Rational(c.numerator, c.denominator)


def _monomial(field: FracField, monom) -> sp.Expr:
    """The product of field's generators at the exponents `monom`, some of
    which may be negative."""
    return sp.Mul(*(_power(g, k) for g, k in zip(field.symbols, monom) if k))


def _expansion(u: "Expr") -> tuple:
    """(terms, D): u = n/d as sympy expands it, the sum of c*t over the terms
    (c, t, m) of n, c rational and t the product of the generators at the
    exponents m over D.  A constant d goes into c and D is 1; a monomial
    d = c_d*M divides each term, so m may hold negative exponents, and D is
    1; any other d stays whole as the factor 1/D of each t, D = d or -d as
    sympy's sign rule writes it (`_minus_leads`)."""
    f = u._frac
    field, numer, denom = f.field, f.numer, f.denom
    one = field.ring.one
    if denom.is_ground:
        q = int(denom.LC)
        return [(Fraction(int(c), q), _monomial(field, m), m) for m, c in numer.terms()], one
    if len(denom) == 1:
        (dm, dc), = denom.terms()
        terms = []
        for m, c in numer.terms():
            m = tuple(a - b for a, b in zip(m, dm))
            terms.append((Fraction(int(c), int(dc)), _monomial(field, m), m))
        return terms, one
    dterms = [(Fraction(int(c)), _monomial(field, m)) for m, c in denom.terms()]
    s = -1 if _minus_leads(dterms) else 1
    inverse = sp.Pow(_sum_tree((s * c, t) for c, t in dterms), -1, evaluate=False)
    return [(s * Fraction(int(c)), sp.Mul(_monomial(field, m), inverse), m)
            for m, c in numer.terms()], s * denom


def _sum_tree(terms) -> sp.Expr:
    """The unevaluated sum of the terms c*t of (c, t, ...) in `terms`."""
    trees = [_rational(c) * t for c, t, *_ in terms]
    return trees[0] if len(trees) == 1 else sp.Add(*trees, evaluate=False)


def _minus_leads(terms) -> bool:
    """True when sympy writes the sum of the terms (c, t, ...) negated: when
    more of them have a negative c than a positive one, and on a tie when
    the sum's sort key is below the negated sum's."""
    terms = list(terms)
    negative = 2 * sum(c < 0 for c, *_ in terms)
    if negative != len(terms):
        return negative > len(terms)
    return _sum_tree(terms).sort_key() < _sum_tree((-c, t) for c, t, *_ in terms).sort_key()


@functools.cache
def _generator_value(chart: Chart, g: sp.Expr) -> "Expr":
    field = _field(chart, frozenset({_spec(g)}))
    return Expr(chart, field.gens[_atoms(field)[g]])


def _atom(kind, tree: sp.Expr, u: "Expr") -> "Expr":
    """The value of the generator kind(tree), whose argument is u."""
    atom = kind(tree, evaluate=False)
    _ARGUMENTS.setdefault(atom, u)
    return _generator_value(u.chart, atom)


@functools.cache
def _hyperbolic_argument(u: "Expr") -> tuple:
    """(tree, negated): sinh(u) is -sinh(-u) and cosh(u) is cosh(-u) when
    sympy writes u negated."""
    terms, _ = _expansion(u)
    negated = _minus_leads(terms)
    return _sum_tree((-c, t) if negated else (c, t) for c, t, _ in terms), negated


def _hyperbolic(kind, u: "Expr") -> "Expr":
    if not u._frac:
        return u.chart.zero() if kind is sp.sinh else u.chart.one()
    tree, negated = _hyperbolic_argument(u)
    value = _atom(kind, tree, -u if negated else u)
    return -value if negated and kind is sp.sinh else value


def _exp_term(u: "Expr", c: Fraction, t: sp.Expr, m, denom) -> "Expr":
    """exp(c*t) for a term of `_expansion(u)`: v^c when t is log(v) (sympy's
    single log factor), refused unless c is an integer and t has no other
    factor; else a power of the generator exp(t/n)."""
    chart = u.chart
    factors = sp.Mul.make_args(t)
    logs = [g for g in factors if isinstance(g, sp.log)]
    if len(logs) == 1 and all(g in logs or not g.free_symbols for g in factors):
        if len(factors) > 1 or c.denominator != 1:
            power = sp.Mul(_rational(c), *(g for g in factors if g not in logs))
            raise NonRationalValue(_NON_RATIONAL.format(sp.sstr(sp.Pow(logs[0].args[0], power))))
        return _argument(chart, logs[0]) ** c.numerator
    if t not in _EXP_TERMS:
        ring = u._frac.field.ring
        numer = ring.from_dict({tuple(max(k, 0) for k in m): 1})
        denom = ring.from_dict({tuple(max(-k, 0) for k in m): 1}) * denom
        _EXP_TERMS[t] = Expr(chart, _reduce(u._frac.field, numer, denom))
    return _generator_value(chart, _exp_generator(t, c.denominator)) ** c.numerator


def _is_constant(u: "Expr") -> bool:
    """True when u holds no name, also inside its atoms."""
    f = u._frac
    names = [i for i, g in enumerate(f.field.symbols) if g.is_Symbol]
    return (not any(m[i] for m in itertools.chain(f.numer.itermonoms(), f.denom.itermonoms())
                    for i in names)
            and not any(g.free_symbols for g in _atoms(f.field)))


def _log_rational(chart: Chart, q: Fraction) -> "Expr":
    """log(a/b) = log(a) - log(b) for a rational q = a/b > 0, with each
    perfect power n = r^k written k*log(r)."""
    out = chart.zero()
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        if n != 1:
            root, k = sp.perfect_power(n) or (n, 1)
            out = out + sign * k * _log_atom(chart.number(root))
    return out


def _log_atom(u: "Expr") -> "Expr":
    return _atom(sp.log, _sum_tree(_expansion(u)[0]), u)


def _log_factors(u: "Expr") -> list:
    """The factors (tree, value, base, k) of u = base^k that sympy's log
    expansion tests for a sign: the rational content c = a/b of u (base
    None), each atom power of the monomial gcds of numerator and
    denominator, and what is left of each of them when it is a sum, with the
    sign sympy writes it in.  Over a constant denominator, c is taken as a
    when some coefficient of u/a is an integer."""
    f, chart = u._frac, u.chart
    field, ring = f.field, f.field.ring
    cn, numer = f.numer.primitive()
    cd, denom = f.denom.primitive()
    content = Fraction(int(cn), int(cd))
    if f.denom.is_ground and any(c % content.denominator == 0 for c in numer.itercoeffs()):
        content = Fraction(content.numerator)
    factors = [] if content == 1 else [(_rational(content), chart.number(content), None, None, 1)]
    for poly, sign in ((numer, 1), (denom, -1)):
        gcd = _common_monomial(field, poly)
        for g, k in zip(field.symbols, gcd):
            if k and not g.free_symbols:
                value = _generator_value(chart, g)
                factors.append((_power(g, sign * k), value ** (sign * k), g, value, sign * k))
        if len(poly) == 1:
            continue
        monomial = Expr(chart, field.new(ring.from_dict({gcd: 1})))
        # over a constant, what is left keeps the coefficients of u/content
        rest = (u / content if f.denom.is_ground else Expr(chart, field.new(poly))) / monomial
        if _is_constant(rest):
            terms, _ = _expansion(rest)
            if _minus_leads(terms):
                rest, terms = -rest, [(-c, t, m) for c, t, m in terms]
            tree = _sum_tree(terms)
            factors.append((tree if sign == 1 else sp.Pow(tree, -1, evaluate=False),
                            rest ** sign, tree, rest, sign))
    return factors


def _common_monomial(field: FracField, poly) -> tuple:
    """The exponents of the monomial gcd of poly's terms as sympy's
    `gcd_terms` finds it: it writes exp(t/n)^k as exp(t/q)^p with p/q = k/n
    in lowest terms, so the terms share a power of it only where their q
    agree."""
    monoms = list(poly.itermonoms())
    gcd = []
    for i, g in enumerate(field.symbols):
        powers = [m[i] for m in monoms]
        n = _exp_key(g)[1].denominator
        shared = len({n // math.gcd(k, n) for k in powers}) == 1
        gcd.append(min(powers) if shared else 0)
    return tuple(gcd)


def _log(u: "Expr") -> "Expr":
    """log(u) for a u that is positive somewhere: sympy's log expansion
    splits off each factor of `_log_factors` with a sign, log(f*g) =
    log(f) + log(g): a power k of an atom b that is positive gives k*log(b),
    where log(exp(t)) is t; any other factor f of sign s gives the atom
    log(s*f).  What is left, u over the product of the s*f, is one atom."""
    chart = u.chart
    if u.is_rational_constant():
        return _log_rational(chart, u.as_fraction())
    out, rest = chart.zero(), u
    for tree, value, base, base_value, k in _log_factors(u):
        sign = 1 if tree.is_positive else -1 if tree.is_negative else 0
        if not sign:
            continue
        rest = rest / (sign * value)
        if base is None:
            out = out + _log_rational(chart, sign * value.as_fraction())
        elif base.is_positive:
            out = out + k * (_argument(chart, base) if _is_exp(base) else _log_atom(base_value))
        else:
            out = out + _log_atom(sign * value)
    if rest != chart.one():
        out = out + _log_atom(rest)
    return out


def _read(chart: Chart, tree: sp.Expr) -> "Expr":
    """The value of a sympy tree: its sums, products and integer powers
    computed in the field, and each atom built by the table."""
    def read(t):
        if t.is_Symbol:
            return chart.var(t.name)
        if t.is_Rational:
            return chart.number(t)
        if t is sp.E:
            return exp(chart.one())
        if t.is_Add or t.is_Mul:
            return functools.reduce(operator.add if t.is_Add else operator.mul, map(read, t.args))
        if t.func in _TABLE:
            return _TABLE[t.func](read(t.args[0]))
        base, k = t.as_base_exp()
        if k.is_Integer and k != 1:
            return read(base) ** int(k)
        raise NonRationalValue(_NON_RATIONAL.format(sp.sstr(t)))

    if tree.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZero(_SINGULAR)
    return read(tree)


@functools.cache
def _argument(chart: Chart, atom: sp.Expr) -> "Expr":
    """The value u of an atom exp(u), sinh(u), cosh(u) or log(u), kept since
    the table made it."""
    if _is_exp(atom):
        (_, t), c = _exp_key(atom)
        u = _EXP_TERMS[t] * c
    else:
        u = _ARGUMENTS[atom]
    return u if u.chart == chart else Expr(chart, _convert(u._frac, _union(chart, u._frac.field)))


@functools.cache
def _derivative(chart: Chart, atom: sp.Expr, coord: str) -> "Expr":
    """d atom / d coord, by the chain rule."""
    u = _argument(chart, atom)
    du = u.diff(coord)
    if isinstance(atom, (sp.sinh, sp.cosh)):
        return du * _generator_value(chart, _partner(atom))
    if isinstance(atom, sp.log):
        return du / u
    return du * _generator_value(chart, atom)


class Expr:
    """An immutable exact scalar over a chart, built from a field element or
    a sympy tree: one element of a `_field`, in the form the module
    docstring describes."""

    __slots__ = ("chart", "_frac", "_partials")

    def __init__(self, chart: Chart, value):
        if not isinstance(value, FracElement):
            value = _read(chart, value)._frac
        elif _atoms(value.field):
            value = _fold_cosh(value)
            value = _convert(value, _own_field(chart, value))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_frac", value)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def sym(self) -> sp.Expr:
        """The value as a sympy tree: numerator over denominator, printed as
        the tree sympy.cancel makes of it."""
        return self._frac.as_expr()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart != self.chart:
                raise UnknownSymbol("operands live on different charts")
            return other
        return self.chart.number(other)

    def _combine(self, other: "Expr", op) -> "Expr":
        a, b = self._frac, other._frac
        if a.field is not b.field:
            field = _union(self.chart, a.field, b.field)
            a, b = _convert(a, field), _convert(b, field)
        return Expr(self.chart, op(a, b))

    def __add__(self, other):
        return self._combine(self._coerce(other), _add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._coerce(other), _sub)

    def __rsub__(self, other):
        return self._coerce(other)._combine(self, _sub)

    def __mul__(self, other):
        return self._combine(self._coerce(other), _mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if not o._frac:
            raise DivisionByZero(_ZERO_DIVISOR)
        return self._combine(o, _div)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        if exponent == 0:
            return self.chart.one()  # 0^0 = 1, as sympy reads it
        f = self._frac
        if exponent > 0:
            return Expr(self.chart, f ** exponent)
        if not f:
            raise DivisionByZero("negative power of zero")
        return Expr(self.chart, _signed(f.field, f.denom ** -exponent, f.numer ** -exponent))

    def __neg__(self):
        return Expr(self.chart, -self._frac)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Expr) and self.chart == other.chart
                and self._frac.field is other._frac.field and self._frac == other._frac)

    def __hash__(self):
        # A polynomial caches its hash, and PolyElement.square() hashes its
        # result before it is complete (imul_num's set lookup), so hash the
        # terms afresh.
        f = self._frac
        return hash((self.chart, frozenset(f.numer.items()), frozenset(f.denom.items())))

    def __repr__(self):
        return f"Expr({self.sym})"

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> Tri:
        """Sound identically-zero test: never lies, may return UNKNOWN.
        A value with atoms is nonzero when its numerator is a certified
        monomial or one-signed (`_nonzero_certificate`)."""
        f = self._frac
        if not f:
            return Tri.TRUE
        if not _atoms(f.field):
            return Tri.FALSE
        return Tri.FALSE if _nonzero_certificate(self.chart, f.field, f.numer) else Tri.UNKNOWN

    def is_rational_constant(self) -> bool:
        f = self._frac
        return not _atoms(f.field) and f.numer.is_ground and f.denom.is_ground

    def as_fraction(self) -> Fraction:
        if not self.is_rational_constant():
            raise TypeError("expression is not a rational constant")
        return Fraction(int(self._frac.numer.LC), int(self._frac.denom.LC))

    def denominator(self) -> "Expr":
        """The denominator of the canonical fraction."""
        f = self._frac
        return Expr(self.chart, f.field.new(f.denom))

    def lift(self, chart: Chart) -> "Expr":
        """The same value on a chart that declares every name of this one."""
        if not set(self.chart.names) <= set(chart.names):
            raise UnknownSymbol("lift target chart does not declare every name")
        return Expr(chart, _convert(self._frac, _union(chart, self._frac.field)))

    # -- calculus -----------------------------------------------------------

    def diff(self, coord: str) -> "Expr":
        """d/d coord: the partial derivative in the coordinate, plus, by the
        chain rule, the partial in each atom times the atom's derivative.
        The value keeps each partial it takes, so none is taken twice."""
        if coord in self.chart.params:
            return self.chart.zero()
        try:
            return self._partials[coord]
        except AttributeError:  # the slot fills on the first partial
            object.__setattr__(self, "_partials", {})
        except KeyError:
            pass
        if coord not in self.chart.coords:
            raise UnknownSymbol(f"not a chart coordinate: {coord!r}")
        f = self._frac
        out = Expr(self.chart, _diff(f, _index(f.field, coord)))
        for atom, i in _atoms(f.field).items():
            d_atom = _derivative(self.chart, atom, coord)
            if d_atom._frac:
                out = out + Expr(self.chart, _diff(f, i)) * d_atom
        self._partials[coord] = out
        return out

    def subs(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        """The value with each bound name replaced, by composition: numerator
        and denominator evaluated at the names' values and at each atom
        rebuilt by the table from its argument's substitution."""
        values = {}
        for name, value in bindings.items():
            if not self.chart.has(name):
                raise UnknownSymbol(f"binding targets undeclared name {name!r}")
            values[name] = self._coerce(value)
        return _substitute(self, values)


def _substitute(e: Expr, values: dict) -> Expr:
    chart, f = e.chart, e._frac
    images = []
    for g in f.field.symbols:
        if g.is_Symbol:
            images.append(values.get(g.name) or chart.var(g.name))
            continue
        u = _argument(chart, g)
        v = _substitute(u, values)
        images.append(_generator_value(chart, g) if v == u
                      else exp(v) if _is_exp(g) else _TABLE[g.func](v))

    def at(poly) -> Expr:
        return _reduced_sum(chart, [
            (chart.number(int(c)), *(image ** k for image, k in zip(images, monom) if k))
            for monom, c in poly.iterterms()])

    denom = at(f.denom)
    if not denom._frac:
        raise DivisionByZero(_SINGULAR)
    return at(f.numer) / denom


def _field_of_products(chart: Chart, products) -> FracField:
    """The field where every factor of `products` meets."""
    return _union(chart, *(e._frac.field for product in products for e in product))


def _unreduced_sum(field: FracField, products) -> tuple:
    """(numerator, denominator) of the sum of the products of the Expr tuples
    in `products`, as elements of field's ring: a product with a zero factor
    is skipped, the numerators over one denominator are added, each distinct
    denominator is multiplied in once, and nothing is cancelled."""
    groups = []  # [denominator, sum of the numerators over it]
    for product in products:
        if not all(e._frac for e in product):
            continue
        factors = iter(product)
        f = _convert(next(factors)._frac, field)
        numer, denom = f.numer, f.denom
        for e in factors:
            f = _convert(e._frac, field)
            numer, denom = numer * f.numer, denom * f.denom
        for group in groups:
            if group[0] == denom:
                group[1] += numer
                break
        else:
            groups.append([denom, numer])
    if not groups:
        return field.ring.zero, field.ring.one
    (denom, numer), *rest = groups
    for d, n in rest:
        numer, denom = numer * d + n * denom, denom * d
    return numer, denom


def _reduced_sum(chart: Chart, products) -> Expr:
    """The sum of the products, reduced once."""
    field = _field_of_products(chart, products)
    return Expr(chart, _reduce(field, *_unreduced_sum(field, products)))


def dot(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """The sum of the products a*b over the (a, b) of `pairs`, reduced once:
    the products are summed unreduced, over one denominator per distinct
    denominator, and the total is cancelled once."""
    pairs = [(a, a._coerce(b)) for a, b in pairs]
    return _reduced_sum(pairs[0][0].chart, pairs)


class Residual:
    """A value that a check needs to be zero: a sum of products of Exprs plus
    a rational constant, kept unreduced and decided as the module docstring
    describes."""

    __slots__ = ("chart", "products")

    def __init__(self, chart: Chart, products: Iterable, constant: NumberLike = 0):
        products = [tuple(p) for p in products]
        if constant:
            products.append((chart.number(constant),))
        self.chart = chart
        self.products = products

    def is_zero(self) -> Tri:
        """TRUE when the unreduced numerator is the zero polynomial, or, in a
        field with a cosh, is zero modulo cosh(u)^2 - 1 - sinh(u)^2.  FALSE
        when it is not and the field has no atoms.  Anything else is the
        verdict of the reduced value, the only path with certificates."""
        field = _field_of_products(self.chart, self.products)
        numer, _ = _unreduced_sum(field, self.products)
        coshes = _coshes(field)
        if coshes and numer:
            numer = numer.rem([c ** 2 - c2 for _, c, c2 in coshes])
        if not numer:
            return Tri.TRUE
        if not _atoms(field):
            return Tri.FALSE
        return self.value().is_zero()

    def value(self) -> Expr:
        """The sum, reduced."""
        return _reduced_sum(self.chart, self.products)


def _nonzero_certificate(chart: Chart, field: FracField, poly) -> bool:
    """True when the polynomial `poly` of `field` is certified not to be the
    zero function.  Each factor 1 + sinh(u)^2, which is cosh(u)^2, is divided
    out first.  Then some term's atom factors must be certified nonvanishing
    as functions (exp and cosh never vanish; sinh(u) vanishes identically only
    for u == 0; log(u) only for u == 1), and either poly is a single monomial
    in the atoms, exp(c) for a rational c counting as a coefficient
    (Lindemann: it is transcendental), or it is `_one_signed`, so that it
    vanishes only where each of its terms does."""
    for unit in _units(field):
        quotient, rest = divmod(poly, unit)
        while not rest:
            poly = quotient
            quotient, rest = divmod(poly, unit)
    atoms = [(i, a) for a, i in _atoms(field).items() if _exp_key(a)[0] != ("exp", 1)]
    monoms = {tuple(m[i] for i, _ in atoms) for m in poly.itermonoms()}
    if len(monoms) > 1 and not _one_signed(poly):
        return False
    return any(all(power == 0 or _nonvanishing(chart, atom) for (_, atom), power in zip(atoms, monom))
               for monom in monoms)


def _nonvanishing(chart: Chart, atom: sp.Expr) -> bool:
    """True when `atom` is certified not to be the zero function."""
    if isinstance(atom, (sp.exp, sp.cosh)):
        return True
    u = _argument(chart, atom)
    if isinstance(atom, sp.sinh):
        return u.is_zero() is Tri.FALSE
    return isinstance(atom, sp.log) and (u - 1).is_zero() is Tri.FALSE


def _one_signed(poly) -> bool:
    """True when the coefficients of `poly` share one sign and the generators
    that take negative values (names, sinh, log; exp and cosh are positive)
    have only even exponents: then every term keeps that sign everywhere."""
    signed = [i for i, g in enumerate(poly.ring.symbols)
              if not (_is_exp(g) or isinstance(g, sp.cosh))]
    return (len({c > 0 for c in poly.itercoeffs()}) == 1
            and not any(m[i] % 2 for m in poly.itermonoms() for i in signed))


# -- atoms and the family zero test -----------------------------------------


def exp(e: Expr) -> Expr:
    """The product of exp(c*t) over the terms c*t of e (`_exp_term`)."""
    terms, denom = _expansion(e)
    out = e.chart.one()
    for c, t, m in terms:
        out = out * _exp_term(e, c, t, m, denom)
    return out


def sinh(e: Expr) -> Expr:
    return _hyperbolic(sp.sinh, e)


def cosh(e: Expr) -> Expr:
    return _hyperbolic(sp.cosh, e)


def log(e: Expr) -> Expr:
    """Logs are read on the domain where their argument is positive.  A
    negative constant, whose log is complex (log(-1) = I*pi), is refused, and
    so is an argument that is certainly positive nowhere."""
    if not e._frac:
        raise DivisionByZero(_SINGULAR)
    if _is_constant(e):
        if e.as_fraction() < 0 if e.is_rational_constant() else e.sym.is_negative:
            raise NonRealValue("the log of a negative constant is not real")
    elif _nowhere_positive(e._frac):
        raise NonRealValue("the log of a value that is positive nowhere is not real")
    return _log(e)


_TABLE = {sp.exp: exp, sp.sinh: sinh, sp.cosh: cosh, sp.log: log}


def _nowhere_positive(f: FracElement) -> bool:
    """True when f's numerator and denominator are each `_one_signed`, and
    their signs differ."""
    return _one_signed(f.numer) and _one_signed(f.denom) and (f.numer.LC > 0) != (f.denom.LC > 0)


def all_zero(exprs: Iterable[Expr]) -> Tri:
    """Conjunction of is_zero over a family, with UNKNOWN propagation."""
    verdict = Tri.TRUE
    for e in exprs:
        v = e.is_zero()
        if v is Tri.FALSE:
            return Tri.FALSE
        if v is Tri.UNKNOWN:
            verdict = Tri.UNKNOWN
    return verdict


# -- determinants and factoring -----------------------------------------------


def determinant(rows) -> Expr:
    """Exact determinant of a square matrix of Exprs on one chart, in the
    field of all their atoms."""
    n = len(rows)
    chart = rows[0][0].chart
    field = _union(chart, *(e._frac.field for row in rows for e in row))
    fracs = [[_convert(e._frac, field) for e in row] for row in rows]
    return Expr(chart, DomainMatrix(fracs, (n, n), field.to_domain()).det())


def vanishing_loci(chart: Chart, exprs) -> tuple[Expr, ...]:
    """Irreducible non-constant factors of the numerators and denominators of
    `exprs`, whose zero sets were excluded along the way, each once up to sign.
    1 + sinh(u)^2, which a cosh leaves below, vanishes nowhere and is left out.
    Each polynomial is first divided by the factors already found in its
    field, and only a non-constant remainder is factored: the first value
    (the contact determinant) holds most of them.  They come in the order of
    sympy's `default_sort_key` of their trees, computed over an unevaluated
    sum (`_sort_key`)."""
    seen: list[Expr] = []
    done: list[Expr] = []
    found: dict = {}  # field -> the irreducible polynomials found in it
    for e in exprs:
        if e in done:  # denominators repeat; factor each value once
            continue
        done.append(e)
        f = e._frac
        units = _units(f.field)
        known = found.setdefault(f.field, [])
        for poly in (f.numer, f.denom):
            for fac in known:
                while not poly.is_ground:
                    quotient, rest = divmod(poly, fac)
                    if rest:
                        break
                    poly = quotient
            if poly.is_ground:
                continue
            for fac, _mult in poly.factor_list()[1]:
                known.append(fac)
                if fac in units or -fac in units:
                    continue
                fac = Expr(chart, f.field.new(fac))
                if not any(fac == s or -fac == s for s in seen):
                    seen.append(fac)
    return tuple(sorted(seen, key=_sort_key))


def _sort_key(e: Expr) -> tuple:
    """`sp.default_sort_key(e.sym)` of a polynomial value e, from the terms
    `as_expr` builds.  Their sum is left unevaluated (a single term is the
    term itself): `as_ordered_terms` sorts the same terms afresh for the
    key, and `Add.flatten` would import `sympy.tensor` (about 40 ms of CPU)
    for nothing."""
    field = e._frac.field
    to_sympy = field.ring.domain.to_sympy
    terms = (sp.Mul(to_sympy(c), *(g ** k for g, k in zip(field.symbols, monom) if k))
             for monom, c in e._frac.numer.iterterms())
    return sp.default_sort_key(sp.Add(*terms, evaluate=False))


# -- rendering ---------------------------------------------------------------


def _render_terms(names, terms) -> str:
    """A polynomial from (monomial, integer coefficient) pairs over the
    generators `names`, highest monomial first in lex order of `names`."""
    terms = sorted(terms, key=lambda t: tuple(-k for k in t[0]))
    if not terms:
        return "0"
    return join_terms(_render_term(names, monom, int(c)) for monom, c in terms)


def join_terms(terms: Iterable[str]) -> str:
    """Join rendered terms into a sum, writing a term "-t" as " - t"."""
    first, *rest = terms
    return first + "".join(" - " + t[1:] if t.startswith("-") else " + " + t for t in rest)


def _render_term(names, monom, coeff: int) -> str:
    factors = [name + (f"^{k}" if k > 1 else "") for name, k in zip(names, monom) if k > 0]
    mon = "*".join(factors)
    if not mon:
        return str(coeff)
    if abs(coeff) == 1:
        return ("-" if coeff < 0 else "") + mon
    return f"{coeff}*{mon}"


def _is_atomic_string(s: str) -> bool:
    """True when the rendered string binds tighter than '/' (no parens needed)."""
    if s.isalnum() or s.isidentifier():
        return True
    if "^" in s and all(part.isalnum() or part.isidentifier() for part in s.split("^")):
        return True
    return False


def _render_fraction(num_str: str, den_str: str) -> str:
    if " + " in num_str or " - " in num_str:
        num_str = f"({num_str})"
    if not _is_atomic_string(den_str):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def _render_atom(chart: Chart, atom: sp.Expr) -> str:
    fname = "exp" if _is_exp(atom) else atom.func.__name__
    return f"{fname}({render_expr(_argument(chart, atom))})"


def render_expr(e: Expr) -> str:
    """Canonical text of e in the parser's grammar, read off its field's
    terms as the module docstring describes."""
    chart, f = e.chart, e._frac
    names = [(_index(f.field, n), n, 1) for n in chart.names]

    def render(poly):
        monoms = list(poly.itermonoms())
        atoms = []
        for atom, i in _atoms(f.field).items():
            powers = [m[i] for m in monoms if m[i]]
            if powers:
                g = math.gcd(*powers) if _is_exp(atom) else 1
                atoms.append((i, _render_atom(chart, _power(atom, g)), g))
        columns = names + sorted(atoms, key=lambda column: column[1])
        return _render_terms(
            [name for _, name, _ in columns],
            ((tuple(monom[i] // g for i, _, g in columns), c) for monom, c in poly.iterterms()),
        )

    num_str = render(f.numer)
    if f.denom == 1:
        return num_str
    return _render_fraction(num_str, render(f.denom))
