"""Exact symbolic scalars: rational functions over Q in chart coordinates and
parameters, extended by opaque transcendental atoms exp/sinh/cosh/log.

Every value is kept in a canonical normal form (a gcd-reduced fraction of
expanded polynomials with a deterministic sign), so that two equal rational
functions over the same generators compare structurally equal.  The single
built-in transcendental relation cosh(u)^2 = 1 + sinh(u)^2 is applied as a
confluent rewrite that eliminates cosh powers >= 2.

No floating point is admitted anywhere; coefficients are exact rationals.
The heavy lifting (polynomial gcd, expansion, differentiation, factoring,
determinants) is delegated to sympy, wrapped behind this module's interface:
no other module sees the representation, so rendering lives here too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

import sympy as sp

from .errors import DivisionByZero, NonRealValue, UnknownSymbol

_ATOM_FUNCS = (sp.exp, sp.sinh, sp.cosh, sp.log)

NumberLike = Union[int, Fraction, sp.Rational]


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
        return Expr(self, sp.Integer(0), _canon=True)

    def one(self) -> "Expr":
        return Expr(self, sp.Integer(1), _canon=True)

    def number(self, value: NumberLike) -> "Expr":
        return Expr(self, _to_rational(value), _canon=True)

    def var(self, name: str) -> "Expr":
        if not self.has(name):
            raise UnknownSymbol(f"undeclared name {name!r}")
        return Expr(self, sp.Symbol(name), _canon=True)


def _to_rational(value: NumberLike) -> sp.Rational:
    if isinstance(value, (int, sp.Integer)):
        return sp.Integer(int(value))
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, sp.Rational):
        return value
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


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
    """Reduce to the canonical fraction; raises DivisionByZero on a vanishing
    denominator (possibly revealed only by the hyperbolic rewrite)."""
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


class Expr:
    """An immutable exact scalar over a chart.

    Arithmetic builds raw trees; the canonical normal form is computed once,
    on first use, and cached (`sym` always exposes the canonical form).
    """

    __slots__ = ("chart", "_raw", "_canon")

    def __init__(self, chart: Chart, sym: sp.Expr, *, _canon: bool = False):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_raw", sym)
        object.__setattr__(self, "_canon", sym if _canon else None)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    @property
    def sym(self) -> sp.Expr:
        """The canonical sympy form (computed lazily, cached)."""
        c = self._canon
        if c is None:
            c = _canonical(self._raw)
            object.__setattr__(self, "_canon", c)
        return c

    def _operand(self) -> sp.Expr:
        """Best available form for building compound expressions."""
        return self._canon if self._canon is not None else self._raw

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart != self.chart:
                raise UnknownSymbol("operands live on different charts")
            return other
        return Expr(self.chart, _to_rational(other), _canon=True)

    def __add__(self, other):
        o = self._coerce(other)
        return Expr(self.chart, self._operand() + o._operand())

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Expr(self.chart, self._operand() - o._operand())

    def __rsub__(self, other):
        o = self._coerce(other)
        return Expr(self.chart, o._operand() - self._operand())

    def __mul__(self, other):
        o = self._coerce(other)
        return Expr(self.chart, self._operand() * o._operand())

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero() is Tri.TRUE:
            raise DivisionByZero("division by an expression that normalizes to zero")
        return Expr(self.chart, self._operand() / o.sym)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        if exponent < 0 and self.is_zero() is Tri.TRUE:
            raise DivisionByZero("negative power of zero")
        return Expr(self.chart, self._operand() ** exponent)

    def __neg__(self):
        return Expr(self.chart, -self._operand())

    # -- structure ----------------------------------------------------------

    def canonical(self) -> "Expr":
        """Self with the cached canonical form forced."""
        self.sym
        return self

    def __eq__(self, other):
        return (
            isinstance(other, Expr)
            and self.chart == other.chart
            and self.sym == other.sym
        )

    def __hash__(self):
        return hash((self.chart, self.sym))

    def __repr__(self):
        return f"Expr({self.sym})"

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> Tri:
        """Sound identically-zero test: never lies, may return UNKNOWN."""
        if self.sym == 0:
            return Tri.TRUE
        num, _ = self.sym.as_numer_denom()
        atoms = num.atoms(*_ATOM_FUNCS)
        if not atoms:
            return Tri.FALSE
        if _nonzero_monomial_certificate(self.chart, num, atoms):
            return Tri.FALSE
        return Tri.UNKNOWN

    def is_rational_constant(self) -> bool:
        return self.sym.is_Rational

    def as_fraction(self) -> Fraction:
        if not self.sym.is_Rational:
            raise TypeError("expression is not a rational constant")
        return Fraction(int(self.sym.p), int(self.sym.q))

    def free_names(self) -> set[str]:
        return {s.name for s in self.sym.free_symbols}

    def denominator(self) -> "Expr":
        """The denominator of the canonical fraction."""
        return Expr(self.chart, self.sym.as_numer_denom()[1])

    def lift(self, chart: Chart) -> "Expr":
        """The same value on a chart that declares every name of this one."""
        if not set(self.chart.names) <= set(chart.names):
            raise UnknownSymbol("lift target chart does not declare every name")
        return Expr(chart, self.sym, _canon=True)

    # -- calculus -----------------------------------------------------------

    def diff(self, coord: str) -> "Expr":
        if coord in self.chart.params:
            return self.chart.zero()
        if coord not in self.chart.coords:
            raise UnknownSymbol(f"not a chart coordinate: {coord!r}")
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
    """Exact determinant of a square matrix of Exprs on one chart
    (Berkowitz: division-free)."""
    n = len(rows)
    mat = sp.Matrix(n, n, lambda i, j: rows[i][j].sym)
    return Expr(rows[0][0].chart, mat.det(method="berkowitz"))


def vanishing_loci(chart: Chart, exprs) -> tuple[Expr, ...]:
    """Irreducible factors whose zero sets were excluded along the way."""
    seen: list[sp.Expr] = []
    for e in exprs:
        num, den = e.sym.as_numer_denom()
        for poly in (num, den):
            if poly.is_Rational:
                continue
            try:
                _, factors = sp.factor_list(poly)
            except sp.PolynomialError:
                factors = [(poly, 1)]
            for fac, _mult in factors:
                if fac.is_Rational:
                    continue
                fac = sp.expand(fac)
                if any(sp.expand(fac - s) == 0 or sp.expand(fac + s) == 0 for s in seen):
                    continue
                seen.append(fac)
    ordered = sorted(seen, key=sp.default_sort_key)
    return tuple(Expr(chart, f) for f in ordered)


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
    terms = sorted(poly.terms(), key=lambda t: tuple(-k for k in t[0]))
    return join_terms(_render_term(chart, gens, monom, coeff) for monom, coeff in terms)


def join_terms(terms: Iterable[str]) -> str:
    """Join rendered terms into a sum, writing a term "-t" as " - t"."""
    first, *rest = terms
    return first + "".join(" - " + t[1:] if t.startswith("-") else " + " + t for t in rest)


def _render_rational(q: sp.Rational) -> str:
    if q.q == 1:
        return str(q.p)
    return f"{q.p}/{q.q}"


def _render_term(chart: Chart, gens, monom, coeff: sp.Rational) -> str:
    factors = [
        _render_gen(chart, g) + (f"^{k}" if k > 1 else "")
        for g, k in zip(gens, monom)
        if k > 0
    ]
    mon = "*".join(factors)
    if not mon:
        return _render_rational(coeff)
    sign = "-" if coeff < 0 else ""
    c = abs(coeff)
    if c == 1:
        return sign + mon
    if c.q == 1:
        return f"{sign}{c.p}*{mon}"
    if c.p == 1:
        return f"{sign}{mon}/{c.q}"
    return f"{sign}({c.p}/{c.q})*{mon}"


def _is_atomic_string(s: str) -> bool:
    """True when the rendered string binds tighter than '/' (no parens needed)."""
    if s.isalnum() or s.isidentifier():
        return True
    if "^" in s and all(part.isalnum() or part.isidentifier() for part in s.split("^")):
        return True
    return False


def _render_sym(chart: Chart, e: sp.Expr) -> str:
    num, den = e.as_numer_denom()
    num_str = _render_polynomial(chart, num)
    if den == 1:
        return num_str
    den_str = _render_polynomial(chart, den)
    if " + " in num_str or " - " in num_str:
        num_str = f"({num_str})"
    if not _is_atomic_string(den_str):
        den_str = f"({den_str})"
    return f"{num_str}/{den_str}"


def render_expr(e: Expr) -> str:
    """Canonical text of e in the parser's grammar."""
    return _render_sym(e.chart, e.sym)
