"""Exact symbolic scalars: rational functions over Q in chart coordinates and
parameters, extended by opaque transcendental atoms exp/sinh/cosh/log.

A value free of atoms is an element of the chart's sparse rational-function
field: sympy's `FracField` in lex order, one per chart, over ZZ.  Fractions of
integer polynomials are the rational functions over Q; over QQ every gcd would
first clear denominators and convert both polynomials to ZZ and back.  The
field keeps every element a gcd-reduced fraction with coprime contents and a
positive leading coefficient in the denominator, so equal rational functions
are equal elements, and its arithmetic, derivative, zero test, factoring and
determinant never build a sympy tree.  The generators are the chart's names in
the order sympy's own `cancel` sorts them (`_sort_gens`), so an element's tree
(`Expr.sym`) is exactly the tree `sympy.cancel` returns; the renderer permutes
terms back to chart order.

A value that holds an atom is a sympy tree.  Arithmetic on it stays lazy: the
canonical form (`cancel`, then the confluent rewrite cosh(u)^2 = 1 + sinh(u)^2
that eliminates cosh powers >= 2) is computed once, on first use.  A tree
whose canonical form is free of atoms moves into the field; a field value
that enters a tree contributes its `sym`.

No floating point is admitted anywhere; coefficients are exact rationals.
No other module sees the representation, so rendering lives here too.
"""

from __future__ import annotations

import enum
import functools
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

from .errors import DivisionByZero, NonRealValue, UnknownSymbol

_ATOM_FUNCS = (sp.exp, sp.sinh, sp.cosh, sp.log)

NumberLike = Union[int, Fraction, sp.Rational]

_ZERO_DIVISOR = "division by an expression that normalizes to zero"


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
        return Expr(self, _field(self).zero)

    def one(self) -> "Expr":
        return Expr(self, _field(self).one)

    def number(self, value: NumberLike) -> "Expr":
        q = _to_rational(value)
        return Expr(self, _field(self)(int(q.p)) / int(q.q))

    def var(self, name: str) -> "Expr":
        if not self.has(name):
            raise UnknownSymbol(f"undeclared name {name!r}")
        return Expr(self, _gen(self, name))


@functools.cache
def _field(chart: Chart) -> FracField:
    """The chart's rational-function field; one object per chart, because
    elements of equal but distinct fields do not combine."""
    return FracField(_sort_gens([sp.Symbol(n) for n in chart.names]), ZZ, lex)


def _gen(chart: Chart, name: str) -> FracElement:
    field = _field(chart)
    return field.gens[field.symbols.index(sp.Symbol(name))]


def _to_rational(value: NumberLike) -> sp.Rational:
    if isinstance(value, (int, sp.Integer)):
        return sp.Integer(int(value))
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, sp.Rational):
        return value
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _tree_to_field(chart: Chart, tree: sp.Expr):
    """The field element of an atom-free tree, or None when the tree is no
    rational function of the chart's names (x**(1/2), a singular zoo)."""
    field = _field(chart)
    try:
        f = field.from_expr(tree)
    except ValueError:
        return None
    except ZeroDivisionError:
        raise DivisionByZero("expression is singular (division by zero)") from None
    # from_expr returns a bare 1/(1 - x) as read, with a negative leading
    # coefficient in the denominator; reduce it to the canonical element
    return field.new(f.numer, f.denom)


def _rewrite_cosh_powers(e: sp.Expr) -> sp.Expr:
    """Eliminate cosh(u)^n for n >= 2 via cosh^2 = 1 + sinh^2."""

    def pred(node):
        return (
            node.is_Pow
            and node.exp.is_Integer
            and node.exp >= 2
            and isinstance(node.base, sp.cosh)
        )

    def repl(node):
        u = node.base.args[0]
        q, r = divmod(int(node.exp), 2)
        return (1 + sp.sinh(u) ** 2) ** q * sp.cosh(u) ** r

    return e.replace(pred, repl)


def _reduce_fraction(num: sp.Expr, den: sp.Expr) -> sp.Expr:
    """num, den expanded polynomials in the generators; gcd-reduce exactly."""
    if den == 0:
        raise DivisionByZero("denominator normalizes to zero")
    if num == 0:
        return sp.Integer(0)
    if den.is_Rational:
        return sp.expand(num / den)
    return sp.cancel(num / den)


def _canonical(e: sp.Expr) -> sp.Expr:
    """Reduce a tree with atoms to the canonical fraction; raises
    DivisionByZero on a vanishing denominator (possibly revealed only by the
    hyperbolic rewrite)."""
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise DivisionByZero("expression is singular (division by zero)")
    e = sp.cancel(e)
    if e.has(sp.cosh):
        # cosh-degree strictly decreases per pass, so this terminates quickly.
        for _ in range(64):
            num, den = e.as_numer_denom()
            num2 = _rewrite_cosh_powers(num)
            den2 = _rewrite_cosh_powers(den)
            if num2 == num and den2 == den:
                break
            e = _reduce_fraction(sp.expand(num2), sp.expand(den2))
    if e.has(sp.zoo, sp.nan):
        raise DivisionByZero("expression is singular (division by zero)")
    return e


def _has_atoms(tree: sp.Expr) -> bool:
    """exp(1) is the number E to sympy, so E counts as an atom."""
    return tree.has(*_ATOM_FUNCS, sp.E)


class Expr:
    """An immutable exact scalar over a chart.

    Built from a field element or a sympy tree; an atom-free tree moves into
    the field.  A tree with atoms is canonicalised once, on first use, and
    cached (`sym` always exposes the canonical tree).
    """

    __slots__ = ("chart", "_frac", "_raw", "_canon")

    def __init__(self, chart: Chart, value):
        frac = value if isinstance(value, FracElement) else None
        if frac is None and not _has_atoms(value):
            frac = _tree_to_field(chart, value)
        self._init(chart, frac, value if frac is None else None, None)

    def _init(self, chart, frac, raw, canon):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_frac", frac)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_canon", canon)

    @classmethod
    def _tree(cls, chart: Chart, raw: sp.Expr, *, canonical: bool = False) -> "Expr":
        """A tree taken as it is: the result of arithmetic on an atom, or a
        tree already in canonical form."""
        e = object.__new__(cls)
        e._init(chart, None, raw, raw if canonical else None)
        return e

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def sym(self) -> sp.Expr:
        """The canonical sympy form (computed lazily, cached)."""
        c = self._canon
        if c is None:
            if self._frac is not None:
                c = self._frac.as_expr()
            else:
                c = _canonical(self._raw)
                if not _has_atoms(c):
                    object.__setattr__(self, "_frac", _tree_to_field(self.chart, c))
            object.__setattr__(self, "_canon", c)
        return c

    def _field_value(self):
        """The field element when the canonical form is atom-free, else None
        (canonicalises a raw tree)."""
        if self._frac is None and self._canon is None:
            self.sym
        return self._frac

    def _operand(self) -> sp.Expr:
        """Best available tree for building compound expressions."""
        if self._frac is not None or self._canon is not None:
            return self.sym
        return self._raw

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart != self.chart:
                raise UnknownSymbol("operands live on different charts")
            return other
        return self.chart.number(other)

    def _combine(self, other: "Expr", op) -> "Expr":
        if self._frac is not None and other._frac is not None:
            return Expr(self.chart, op(self._frac, other._frac))
        return Expr._tree(self.chart, op(self._operand(), other._operand()))

    def __add__(self, other):
        return self._combine(self._coerce(other), operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(self._coerce(other), operator.sub)

    def __rsub__(self, other):
        return self._coerce(other)._combine(self, operator.sub)

    def __mul__(self, other):
        return self._combine(self._coerce(other), operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o._frac is None and o.is_zero() is Tri.TRUE:
            raise DivisionByZero(_ZERO_DIVISOR)
        if self._frac is not None and o._frac is not None:
            try:
                return Expr(self.chart, self._frac / o._frac)
            except ZeroDivisionError:
                raise DivisionByZero(_ZERO_DIVISOR) from None
        return Expr._tree(self.chart, self._operand() / o.sym)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        if exponent == 0:
            return self.chart.one()  # 0^0 = 1, as sympy reads it
        if exponent < 0 and self._frac is None and self.is_zero() is Tri.TRUE:
            raise DivisionByZero("negative power of zero")
        f = self._frac
        if f is None:
            return Expr._tree(self.chart, self._operand() ** exponent)
        if exponent > 0:
            return Expr(self.chart, f ** exponent)
        if not f:
            raise DivisionByZero("negative power of zero")
        # 1/f, not f**-n: the field does not fix the sign of f**-n's denominator
        return Expr(self.chart, 1 / f ** -exponent)

    def __neg__(self):
        if self._frac is not None:
            return Expr(self.chart, -self._frac)
        return Expr._tree(self.chart, -self._operand())

    # -- structure ----------------------------------------------------------

    def canonical(self) -> "Expr":
        """Self with the cached canonical form forced."""
        self._field_value()
        return self

    def _key(self):
        f = self._field_value()
        return self.sym if f is None else f

    def __eq__(self, other):
        return (
            isinstance(other, Expr)
            and self.chart == other.chart
            and self._key() == other._key()
        )

    def __hash__(self):
        key = self._key()
        if isinstance(key, FracElement):
            # A polynomial caches its hash, and PolyElement.square() hashes
            # its result before it is complete (imul_num's set lookup), so
            # hash the terms afresh.
            key = (frozenset(key.numer.items()), frozenset(key.denom.items()))
        return hash((self.chart, key))

    def __repr__(self):
        return f"Expr({self.sym})"

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> Tri:
        """Sound identically-zero test: never lies, may return UNKNOWN."""
        f = self._field_value()
        if f is not None:
            return Tri.FALSE if f else Tri.TRUE
        num, _ = self.sym.as_numer_denom()
        atoms = num.atoms(*_ATOM_FUNCS)
        if not atoms:
            return Tri.FALSE
        if _nonzero_monomial_certificate(self.chart, num, atoms):
            return Tri.FALSE
        return Tri.UNKNOWN

    def is_rational_constant(self) -> bool:
        f = self._field_value()
        return f is not None and f.numer.is_ground and f.denom.is_ground

    def as_fraction(self) -> Fraction:
        if not self.is_rational_constant():
            raise TypeError("expression is not a rational constant")
        return Fraction(int(self._frac.numer.LC), int(self._frac.denom.LC))

    def free_names(self) -> set[str]:
        return {s.name for s in self.sym.free_symbols}

    def denominator(self) -> "Expr":
        """The denominator of the canonical fraction."""
        f = self._field_value()
        if f is None:
            return Expr(self.chart, self.sym.as_numer_denom()[1])
        return Expr(self.chart, f.field.new(f.denom))

    def lift(self, chart: Chart) -> "Expr":
        """The same value on a chart that declares every name of this one."""
        if not set(self.chart.names) <= set(chart.names):
            raise UnknownSymbol("lift target chart does not declare every name")
        f = self._field_value()
        if f is None:
            return Expr._tree(chart, self.sym, canonical=True)
        return Expr(chart, f.set_field(_field(chart)))

    # -- calculus -----------------------------------------------------------

    def diff(self, coord: str) -> "Expr":
        if coord in self.chart.params:
            return self.chart.zero()
        if coord not in self.chart.coords:
            raise UnknownSymbol(f"not a chart coordinate: {coord!r}")
        f = self._field_value()
        if f is not None:
            return Expr(self.chart, f.diff(_gen(self.chart, coord)))
        return Expr(self.chart, sp.diff(self.sym, sp.Symbol(coord)))

    def subs(self, bindings: Mapping[str, "Expr"]) -> "Expr":
        mapping = {}
        for name, value in bindings.items():
            if not self.chart.has(name):
                raise UnknownSymbol(f"binding targets undeclared name {name!r}")
            v = value if isinstance(value, Expr) else self.chart.number(value)
            if v.chart != self.chart:
                raise UnknownSymbol("substitution value lives on a different chart")
            mapping[sp.Symbol(name)] = v.sym
        return Expr(self.chart, self.sym.xreplace(mapping)).canonical()


def _nonzero_monomial_certificate(chart: Chart, num: sp.Expr, atoms) -> bool:
    """True when `num` is certain not to be the zero function.

    Sound sufficient condition: `num` is a single monomial c * prod(atom^k)
    with a nonzero rational-function coefficient, where each atom factor is
    itself certified nonvanishing as a function (exp and cosh never vanish;
    sinh(u) vanishes identically only for u == 0; log(u) only for u == 1).
    """
    gens = list(atoms)
    # Stand-ins keep every atom opaque: Poly reads exp(2) as E^2 and exp(2*x)
    # as exp(x)^2, and then finds a generator inside another.
    dummies = [sp.Dummy() for _ in gens]
    try:
        poly = sp.Poly(num.xreplace(dict(zip(gens, dummies))), *dummies)
    except sp.PolynomialError:
        return False
    terms = poly.terms()
    if len(terms) != 1:
        return False
    for atom, power in zip(gens, terms[0][0]):
        if power == 0:
            continue
        if isinstance(atom, (sp.exp, sp.cosh)):
            continue
        arg = Expr(chart, atom.args[0])
        if isinstance(atom, sp.sinh) and arg.is_zero() is Tri.FALSE:
            continue
        if isinstance(atom, sp.log) and (arg - 1).is_zero() is Tri.FALSE:
            continue
        return False
    return True


# -- atoms and the family zero test -----------------------------------------


def exp(e: Expr) -> Expr:
    return Expr(e.chart, sp.exp(e.sym))


def sinh(e: Expr) -> Expr:
    return Expr(e.chart, sp.sinh(e.sym))


def cosh(e: Expr) -> Expr:
    return Expr(e.chart, sp.cosh(e.sym))


def log(e: Expr) -> Expr:
    """Logs are read on the domain where their argument is positive; a value
    that sympy makes complex (log(-1) = I*pi) is refused."""
    value = sp.log(e.sym)
    if value.has(sp.I):
        raise NonRealValue("the log of a negative constant is not real")
    return Expr(e.chart, value)


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
    """Exact determinant of a square matrix of Exprs on one chart: in the
    field when every entry is atom-free, else Berkowitz (division-free) on
    the trees."""
    n = len(rows)
    chart = rows[0][0].chart
    fracs = [[e._field_value() for e in row] for row in rows]
    if all(f is not None for row in fracs for f in row):
        field = _field(chart)
        return Expr(chart, DomainMatrix(fracs, (n, n), field.to_domain()).det())
    mat = sp.Matrix(n, n, lambda i, j: rows[i][j].sym)
    return Expr(chart, mat.det(method="berkowitz"))


def _factors(e: Expr):
    """Irreducible non-constant factors of the numerator and denominator of
    e's canonical fraction, as Exprs."""
    f = e._field_value()
    if f is not None:
        for poly in (f.numer, f.denom):
            if not poly.is_ground:
                for fac, _mult in poly.factor_list()[1]:
                    yield Expr(e.chart, f.field.new(fac))
        return
    for poly in e.sym.as_numer_denom():
        if poly.is_Rational:
            continue
        try:
            _, factors = sp.factor_list(poly)
        except sp.PolynomialError:
            factors = [(poly, 1)]
        for fac, _mult in factors:
            if not fac.is_Rational:
                yield Expr(e.chart, sp.expand(fac))


def vanishing_loci(chart: Chart, exprs) -> tuple[Expr, ...]:
    """Irreducible factors whose zero sets were excluded along the way, each
    once up to sign."""
    seen: list[Expr] = []
    done: list[Expr] = []
    for e in exprs:
        if e in done:  # denominators repeat; factor each value once
            continue
        done.append(e)
        for fac in _factors(e):
            if not any(fac == s or -fac == s for s in seen):
                seen.append(fac)
    return tuple(sorted(seen, key=lambda fac: sp.default_sort_key(fac.sym)))


# -- rendering ---------------------------------------------------------------


def _gen_order(chart: Chart, gens) -> list[sp.Expr]:
    def key(g):
        if g.is_Symbol:
            name = g.name
            if name in chart.coords:
                return (0, chart.coords.index(name), "")
            if name in chart.params:
                return (1, chart.params.index(name), "")
            return (2, 0, name)
        return (3, 0, _render_gen(chart, g))

    return sorted(gens, key=key)


def _atomic_gens(chart: Chart, e: sp.Expr) -> list[sp.Expr]:
    """Symbols and atoms of e; sympy writes exp(1) as the number E."""
    gens = set(e.free_symbols) | e.atoms(*_ATOM_FUNCS, type(sp.E))
    return _gen_order(chart, gens)


def _render_gen(chart: Chart, g: sp.Expr) -> str:
    if g.is_Symbol:
        return g.name
    if g is sp.E:
        return "exp(1)"
    fname = {sp.exp: "exp", sp.sinh: "sinh", sp.cosh: "cosh", sp.log: "log"}[g.func]
    return f"{fname}({_render_sym(chart, g.args[0])})"


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


def _render_polynomial(chart: Chart, e: sp.Expr) -> str:
    if e.is_Rational:
        return _render_rational(e)
    gens = _atomic_gens(chart, e)
    try:
        poly = sp.Poly(e, *gens)
    except sp.PolynomialError:
        # Poly reads exp(2*x) as exp(x)^2 and then finds x inside a generator;
        # stand-ins keep every atom opaque.
        dummies = [sp.Dummy() for _ in gens]
        poly = sp.Poly(e.xreplace(dict(zip(gens, dummies))), *dummies)
    return _render_terms([_render_gen(chart, g) for g in gens], poly.terms())


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


def _render_sym(chart: Chart, e: sp.Expr) -> str:
    num, den = e.as_numer_denom()
    num_str = _render_polynomial(chart, num)
    if den == 1:
        return num_str
    return _render_fraction(num_str, _render_polynomial(chart, den))


def _render_field(chart: Chart, f: FracElement) -> str:
    """Terms read off the numerator and denominator, permuted to chart order."""
    symbols = f.field.symbols
    order = [symbols.index(sp.Symbol(n)) for n in chart.names]

    def render(poly):
        return _render_terms(
            chart.names,
            ((tuple(monom[i] for i in order), c) for monom, c in poly.iterterms()),
        )

    num_str = render(f.numer)
    if f.denom == 1:
        return num_str
    return _render_fraction(num_str, render(f.denom))


def render_expr(e: Expr) -> str:
    """Canonical text of e in the parser's grammar."""
    f = e._field_value()
    if f is None:
        return _render_sym(e.chart, e.sym)
    return _render_field(e.chart, f)
