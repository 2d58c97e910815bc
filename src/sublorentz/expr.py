"""Exact symbolic scalars: rational functions over Q of chart coordinates,
parameters and the atoms exp, sinh, cosh and log.

A value is an element of sympy's sparse `FracField` over ZZ in lex order (over
QQ every gcd would first convert both polynomials to ZZ and back), whose
generators are the chart's names and the atoms the value holds, read as
`sympy.cancel` reads a tree: an exp of a sum is a product of exps, and exp(c*t)
for a rational c is a power of exp(t/n), the one generator of the term t.  They
are sorted as `cancel` sorts them (`_sort_gens`, ties kept in chart order), so
`Expr.sym` prints as the tree `cancel` returns.  cosh(u) comes with sinh(u) and
is of degree <= 1 by cosh(u)^2 = 1 + sinh(u)^2, which also takes a cosh(u)
that divides the denominator out of it; any other cosh stays below
(`_fold_cosh`).  The fraction is gcd-reduced with a positive leading
coefficient below, in the field of exactly its atoms.

The arithmetic keeps every operand reduced and reduces each result once,
with no gcd against a full product (Henrici; Knuth, TAOCP 2, 4.5.1).  For
n1/d1 and n2/d2: the product is (n1/g1 * n2/g2)/(d1/g2 * d2/g1) with
g1 = gcd(n1, d2) and g2 = gcd(n2, d1); a quotient is a product by d2/n2; a
sum over d = gcd(d1, d2) has numerator t = n1*(d2/d) + n2*(d1/d), and only
e = gcd(t, d) can cancel, leaving (t/e)/((d1/d)*(d2/e)).  With d = g*q and
d' = g*r, g = gcd(d, d'), the derivative is (n'*q - n*r)/(g*q^2), and only g
can share a factor with its numerator.  A gcd with 1 is skipped.  `dot`
sums products unreduced, over one denominator per distinct denominator, and
cancels the total once.  Where a cosh is folded shows in the result, since
the fold rewrites cosh(u)^2 before the gcd sees it, so in a field with a
cosh `dot` adds the folded products one at a time, as a running sum of
`Expr` products does.

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

_ATOM_FUNCS = (sp.exp, sp.sinh, sp.cosh, sp.log)  # and the number E, which is exp(1)

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


def _exp_key(g):
    """(key, c): for g = exp(c*t) with a rational c, key is ("exp", t); for
    any other generator, g and 1."""
    if not _is_exp(g):
        return g, Fraction(1)
    c, t = (g.args[0] if g is not sp.E else sp.S.One).as_coeff_Mul(rational=True)
    return ("exp", t), Fraction(int(c.p), int(c.q))


@functools.cache
def _field(chart: Chart, atoms: frozenset) -> FracField:
    """The field of the chart's names and `atoms`: the exps of one term t
    share the generator exp(t/n), and each cosh(u) comes with sinh(u)."""
    denoms = {}
    for a in atoms:
        key, c = _exp_key(a)
        denoms[key] = math.lcm(denoms.get(key, 1), c.denominator)
        if isinstance(a, sp.cosh):
            denoms[sp.sinh(a.args[0])] = 1
    gens = sorted((sp.exp(k[1] / n) if isinstance(k, tuple) else k for k, n in denoms.items()),
                  key=sp.default_sort_key)
    return _field_of(_sort_gens([sp.Symbol(n) for n in chart.names] + gens))


@functools.cache
def _field_of(symbols: tuple) -> FracField:
    """One object per generator tuple, because elements of equal but
    distinct fields do not combine."""
    return FracField(symbols, ZZ, lex)


def _union(chart: Chart, *fields: FracField) -> FracField:
    """The field on `chart` where values of `fields` meet."""
    return _field(chart, frozenset().union(*map(_atoms, fields)))


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
    return tuple((i, gens[i], 1 + gens[field.symbols.index(sp.sinh(a.args[0]))] ** 2)
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
    return _field(chart, frozenset(
        a ** k if _is_exp(a) else a for a, k in used.items()))


def _read(chart: Chart, tree: sp.Expr) -> "Expr":
    """The value of a sympy tree, read as sympy.cancel reads it: expanded, so
    an exp of a sum is a product of exps, and exp(c*t) is a power of exp(t/n)."""
    def read(t):
        if t.is_Symbol:
            return chart.var(t.name)
        if t.is_Rational:
            return chart.number(t)
        if t.is_Add or t.is_Mul:
            return functools.reduce(operator.add if t.is_Add else operator.mul, map(read, t.args))
        base, k = t.as_base_exp()
        if base is sp.E:
            c, term = k.as_coeff_Mul(rational=True)
            return _atom_value(chart, sp.exp(term / c.q)) ** int(c.p)
        if k.is_Integer and k != 1:
            return read(base) ** int(k)
        if isinstance(t, (sp.sinh, sp.cosh, sp.log)):
            return _atom_value(chart, t)
        raise NonRationalValue(_NON_RATIONAL.format(sp.sstr(t)))

    if tree.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZero(_SINGULAR)
    if tree.has(*_ATOM_FUNCS, sp.E):
        # sympy's Add imports sympy.tensor on its first call (about 35 ms of
        # CPU), and values with atoms build sums: pay that with the first
        # atom, so no later value's computation carries it.
        import sympy.tensor.tensor  # noqa: F401
        tree = sp.factor_terms(sp.signsimp(tree), radical=True).expand()
    return read(tree)


@functools.cache
def _argument(chart: Chart, atom: sp.Expr) -> "Expr":
    """The value u of an atom exp(u), sinh(u), cosh(u) or log(u)."""
    return chart.one() if atom is sp.E else _read(chart, atom.args[0])


@functools.cache
def _atom_value(chart: Chart, atom: sp.Expr) -> "Expr":
    _argument(chart, atom)  # refuses an argument that is no value
    field = _field(chart, frozenset({atom}))
    return Expr(chart, field.gens[_atoms(field)[atom]])


@functools.cache
def _derivative(chart: Chart, atom: sp.Expr, coord: str) -> "Expr":
    """d atom / d coord, by the chain rule."""
    u = _argument(chart, atom)
    du = u.diff(coord)
    if isinstance(atom, sp.sinh):
        return du * _atom_value(chart, sp.cosh(atom.args[0]))
    if isinstance(atom, sp.cosh):
        return du * _atom_value(chart, sp.sinh(atom.args[0]))
    if isinstance(atom, sp.log):
        return du / u
    return du * _atom_value(chart, atom)


class Expr:
    """An immutable exact scalar over a chart, built from a field element or
    a sympy tree: one element of a `_field`, in the form the module
    docstring describes."""

    __slots__ = ("chart", "_frac")

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
        chain rule, the partial in each atom times the atom's derivative."""
        if coord in self.chart.params:
            return self.chart.zero()
        if coord not in self.chart.coords:
            raise UnknownSymbol(f"not a chart coordinate: {coord!r}")
        f = self._frac
        out = Expr(self.chart, _diff(f, _index(f.field, coord)))
        for atom, i in _atoms(f.field).items():
            d_atom = _derivative(self.chart, atom, coord)
            if d_atom._frac:
                out = out + Expr(self.chart, _diff(f, i)) * d_atom
        return out

    def subs(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        mapping = {}
        for name, value in bindings.items():
            if not self.chart.has(name):
                raise UnknownSymbol(f"binding targets undeclared name {name!r}")
            mapping[sp.Symbol(name)] = self._coerce(value).sym
        return Expr(self.chart, self.sym.xreplace(mapping))


def dot(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """The sum of the products a*b over the (a, b) of `pairs`, reduced once:
    the products are summed unreduced, over one denominator per distinct
    denominator, and the total is cancelled once.  In a field with a cosh
    the folded products are added one at a time, because where the fold
    runs shows in the result."""
    pairs = [(a, a._coerce(b)) for a, b in pairs]
    chart = pairs[0][0].chart
    field = _union(chart, *(e._frac.field for pair in pairs for e in pair))
    if _coshes(field):
        return sum((a * b for a, b in pairs), chart.zero())
    groups = []  # [denominator, sum of the numerators over it]
    for a, b in pairs:
        f, g = _convert(a._frac, field), _convert(b._frac, field)
        if not f or not g:
            continue
        numer, denom = f.numer * g.numer, f.denom * g.denom
        for group in groups:
            if group[0] == denom:
                group[1] += numer
                break
        else:
            groups.append([denom, numer])
    if not groups:
        return chart.zero()
    (denom, numer), *rest = groups
    for d, n in rest:
        numer, denom = numer * d + n * denom, denom * d
    return Expr(chart, _reduce(field, numer, denom))


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
    return _read(e.chart, sp.exp(e.sym))


def sinh(e: Expr) -> Expr:
    return _read(e.chart, sp.sinh(e.sym))


def cosh(e: Expr) -> Expr:
    return _read(e.chart, sp.cosh(e.sym))


def log(e: Expr) -> Expr:
    """Logs are read on the domain where their argument is positive.  A value
    that sympy makes complex (log(-1) = I*pi) is refused, and so is an
    argument that is certainly positive nowhere."""
    value = sp.log(e.sym)
    if value.has(sp.I):
        raise NonRealValue("the log of a negative constant is not real")
    if _nowhere_positive(e._frac):
        raise NonRealValue("the log of a value that is positive nowhere is not real")
    return _read(e.chart, value)


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
    They come in the order of sympy's `default_sort_key` of their trees,
    computed over an unevaluated sum (`_sort_key`)."""
    seen: list[Expr] = []
    done: list[Expr] = []
    for e in exprs:
        if e in done:  # denominators repeat; factor each value once
            continue
        done.append(e)
        f = e._frac
        units = _units(f.field)
        for poly in (f.numer, f.denom):
            for fac, _mult in poly.factor_list()[1]:
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
    """A polynomial from (monomial, coefficient) pairs over the generators
    `names`, highest monomial first in lex order of `names`."""
    terms = sorted(terms, key=lambda t: tuple(-k for k in t[0]))
    if not terms:
        return "0"
    return join_terms(
        _render_term(names, monom, Fraction(int(c.numerator), int(c.denominator)))
        for monom, c in terms
    )


def join_terms(terms: Iterable[str]) -> str:
    """Join rendered terms into a sum, writing a term "-t" as " - t"."""
    first, *rest = terms
    return first + "".join(" - " + t[1:] if t.startswith("-") else " + " + t for t in rest)


def _render_rational(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _render_term(names, monom, coeff: Fraction) -> str:
    factors = [name + (f"^{k}" if k > 1 else "") for name, k in zip(names, monom) if k > 0]
    mon = "*".join(factors)
    if not mon:
        return _render_rational(coeff)
    sign = "-" if coeff < 0 else ""
    c = abs(coeff)
    if c == 1:
        return sign + mon
    if c.denominator == 1:
        return f"{sign}{c.numerator}*{mon}"
    if c.numerator == 1:
        return f"{sign}{mon}/{c.denominator}"
    return f"{sign}({c.numerator}/{c.denominator})*{mon}"


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
    fname = "exp" if atom is sp.E else atom.func.__name__
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
                atoms.append((i, _render_atom(chart, atom ** g), g))
        columns = names + sorted(atoms, key=lambda column: column[1])
        return _render_terms(
            [name for _, name, _ in columns],
            ((tuple(monom[i] // g for i, _, g in columns), c) for monom, c in poly.iterterms()),
        )

    num_str = render(f.numer)
    if f.denom == 1:
        return num_str
    return _render_fraction(num_str, render(f.denom))
