"""Finite-dimensional real Lie algebras by sparse structure constants (every
loop walks only the nonzero ones): Jacobi validation, Killing form with exact
determinant and inertia, structure functions of a marking (any contact pair
(X1, X2) of a 3-dimensional algebra; X0 is derived), dualization of
constant-coefficient structure equations, and the catalog of built-in algebras.

Dualization convention: for a constant coframe, dw^k(e_i, e_j) = -w^k([e_i, e_j]),
so c^k_ij = -(coefficient of w^i ^ w^j in dw^k).  A round-trip test pins this:
dualizing {d nu0 = nu1^nu2, d nu1 = ..., d nu2 = ...} reproduces the frame
bracket relations with the same signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .calculus import invert3
from .errors import BracketPatternViolation, UnknownCatalogName
from .expr import Chart, Expr, Residual, Tri, all_zero, determinant, dot
from .invariants import StructureFunctions

PARAM_CHART = Chart((), ("kappa",))


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants c^k_ij with [e_i, e_j] = sum_k c^k_ij e_k, as
    brackets[(i, j)][k] = c^k_ij: in both orders, nonzero constants only, so
    a pair that commutes has no entry."""

    chart: Chart
    labels: tuple[str, ...]
    brackets: dict[tuple[int, int], dict[int, Expr]]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def _terms(self, i: int, j: int) -> Mapping[int, Expr]:
        """The nonzero c^k_ij of [e_i, e_j], by k."""
        return self.brackets.get((i, j), {})

    def basis_vector(self, i: int) -> tuple[Expr, ...]:
        return tuple(self.chart.number(int(k == i)) for k in range(self.dim))

    def bracket(self, i: int, j: int) -> tuple[Expr, ...]:
        terms, zero = self._terms(i, j), self.chart.zero()
        return tuple(terms.get(k, zero) for k in range(self.dim))

    def bracket_of(self, u: Sequence[Expr], v: Sequence[Expr]) -> tuple[Expr, ...]:
        out = [self.chart.zero()] * self.dim
        for (i, j), terms in self.brackets.items():
            coeff = u[i] * v[j]
            for k, c in terms.items():
                out[k] = out[k] + coeff * c
        return tuple(out)

    def nonzero_brackets(self):
        for i, j in sorted(self.brackets):
            if i < j:
                yield (i, j, self.bracket(i, j))


def algebra_from_brackets(chart: Chart, labels: Sequence[str],
                          brackets: Mapping[tuple[int, int], Mapping[int, Expr]]) -> LieAlgebra:
    """The algebra of the given [e_i, e_j] = sum_k c^k_ij e_k; a pair given in
    both orders adds up antisymmetrically, and constants that cancel go."""
    zero = chart.zero()
    table: dict[tuple[int, int], dict[int, Expr]] = {}
    for (i, j), comps in brackets.items():
        if i == j:
            raise BracketPatternViolation("bracket of equal basis elements must vanish")
        for k, coeff in comps.items():
            c = coeff if isinstance(coeff, Expr) else chart.number(coeff)
            for key, value in (((i, j), c), ((j, i), -c)):
                slot = table.setdefault(key, {})
                slot[k] = slot.get(k, zero) + value
    nonzero = ((ij, {k: c for k, c in terms.items() if c != zero}) for ij, terms in table.items())
    return LieAlgebra(chart, tuple(labels), {ij: terms for ij, terms in nonzero if terms})


# -- validation ----------------------------------------------------------------


def jacobi_residuals(L: LieAlgebra) -> list[Residual]:
    """All residuals of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j],
    unreduced: one per component of each triple i < j < k."""
    n = L.dim
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                products = [[] for _ in range(n)]
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, inner in L._terms(a, b).items():
                        for l, outer in L._terms(m, c).items():
                            products[l].append((inner, outer))
                residuals.extend(Residual(L.chart, p) for p in products)
    return residuals


# -- Killing form --------------------------------------------------------------


@dataclass(frozen=True)
class KillingData:
    matrix: tuple[tuple[Expr, ...], ...]
    det: Expr
    signature: Optional[tuple[int, int, int]]  # (positive, negative, zero)


def killing_form(L: LieAlgebra) -> KillingData:
    """K_ij = tr(ad_i ad_j) = sum over a, b of c^a_ib c^b_ja: the upper
    triangle, mirrored."""
    n = L.dim
    zero = L.chart.zero()
    K = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            acc = zero
            for b in range(n):
                for a, cia in L._terms(i, b).items():
                    cj = L._terms(j, a)
                    if b in cj:
                        acc = acc + cia * cj[b]
            K[i][j] = K[j][i] = acc
    det = determinant(K)
    signature = None
    if all(K[i][j].is_rational_constant() for i in range(n) for j in range(n)):
        signature = exact_inertia([[K[i][j].as_fraction() for j in range(n)] for i in range(n)])
    return KillingData(tuple(tuple(row) for row in K), det, signature)


def exact_inertia(rows: list[list[Fraction]]) -> tuple[int, int, int]:
    """Inertia (p, m, z) of a rational symmetric matrix from its characteristic
    polynomial (Faddeev-LeVerrier on the matrix scaled to integers).  The roots
    are real, so Descartes' rule of signs is exact: p is the number of sign
    changes and z the number of trailing zero coefficients."""
    n = len(rows)
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    A = [[int(x * scale) for x in row] for row in rows]
    coeffs, M = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(A[i][t] * M[t][j] for t in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs.append(-sum(A[i][t] * M[t][i] for i in range(n) for t in range(n)) // k)
    signs = [c > 0 for c in coeffs if c]
    p = sum(a != b for a, b in zip(signs, signs[1:]))
    z = next(k for k, c in enumerate(reversed(coeffs)) if c)
    return (p, n - p - z, z)


def apply_linear_map(L: LieAlgebra, T: Sequence[Sequence[Expr]], v: Sequence[Expr]):
    n = L.dim
    return tuple(
        sum((T[k][i] * v[i] for i in range(n)), L.chart.zero()) for k in range(n)
    )


def is_automorphism(L: LieAlgebra, T: Sequence[Sequence[Expr]]) -> Tri:
    """Check [T e_i, T e_j] = T [e_i, e_j] for all basis pairs."""
    n = L.dim
    residuals = []
    columns = [tuple(row[i] for row in T) for i in range(n)]  # T e_i
    for i in range(n):
        for j in range(i + 1, n):
            lhs = L.bracket_of(columns[i], columns[j])
            rhs = apply_linear_map(L, T, L.bracket(i, j))
            residuals.extend(a - b for a, b in zip(lhs, rhs))
    return all_zero(residuals)


def ad_invariance_residuals(L: LieAlgebra) -> list[Expr]:
    """Entries of K([e_i,e_j], e_k) + K(e_j, [e_i,e_k]) over all basis triples."""
    K = killing_form(L).matrix
    n = L.dim
    zero = L.chart.zero()
    return [sum((c * K[m][k] for m, c in L._terms(i, j).items()), zero)
            + sum((c * K[j][m] for m, c in L._terms(i, k).items()), zero)
            for i in range(n) for j in range(n) for k in range(n)]


def killing_invariance_residuals(L: LieAlgebra, T: Sequence[Sequence[Expr]]) -> list[Expr]:
    """Entries of T^t K T - K."""
    K = killing_form(L).matrix
    n = L.dim
    out = []
    for i in range(n):
        for j in range(n):
            acc = L.chart.zero()
            for a in range(n):
                for b in range(n):
                    acc = acc + T[a][i] * K[a][b] * T[b][j]
            out.append(acc - K[i][j])
    return out


# -- marked bases ---------------------------------------------------------------


def marked_algebra(c: Mapping[str, Expr]) -> LieAlgebra:
    """The brackets on (X0, X1, X2) that the six constants of
    `StructureFunctions.as_dict` state; where they form a Lie algebra, its
    marking (X1, X2) has these constants."""
    return algebra_from_brackets(c["c011"].chart, ("X0", "X1", "X2"), {
        (1, 0): {1: c["c011"], 2: c["c012"]}, (2, 0): {1: c["c021"], 2: c["c022"]},
        (2, 1): {0: 1, 1: c["c121"], 2: c["c122"]}})


def structure_functions_of_marking(L: LieAlgebra, x1: Sequence[Expr],
                                   x2: Sequence[Expr]) -> StructureFunctions:
    """The six structure functions of the marking (X1, X2), by `contact`'s
    formulas with every derivative zero: with B = [X2,X1], (mu1, mu2, w) are
    the columns of the inverse of the rows (X1, X2, B), c12^1 = w([X2,B]),
    c12^2 = -w([X1,B]) and c0j^i = mu_i([Xj,B]).  The report's
    `trace_identity` check decides their trace."""
    b = L.bracket_of(x2, x1)
    _, inv = invert3([x1, x2, b])
    mu1, mu2, omega = ([row[k] for row in inv] for k in range(3))
    b1, b2 = L.bracket_of(x1, b), L.bracket_of(x2, b)
    return StructureFunctions(
        c011=dot(zip(mu1, b1)), c012=dot(zip(mu2, b1)),
        c021=dot(zip(mu1, b2)), c022=dot(zip(mu2, b2)),
        c121=dot(zip(omega, b2)), c122=-dot(zip(omega, b1)),
    )


# -- dualization ----------------------------------------------------------------


def dualize_structure_equations(
    chart: Chart,
    labels: Sequence[str],
    equations: Sequence[Mapping[tuple[int, int], Expr]],
) -> LieAlgebra:
    """From constant 2-form expansions dw^k = sum A^k_ij w^i ^ w^j build the
    dual Lie algebra with c^k_ij = -A^k_ij (keys in either index order)."""
    n = len(labels)
    if len(equations) != n:
        raise ValueError("need exactly one structure equation per coframe element")
    if chart.coords:
        raise ValueError("dualization requires constant coefficients: a chart without coordinates")
    coeff: dict[tuple[int, int], dict[int, Expr]] = {}
    for k, eq in enumerate(equations):
        for (i, j), a in eq.items():
            if i == j:
                raise ValueError("w^i ^ w^i vanishes; bad structure equation")
            coeff.setdefault((i, j), {})[k] = -a
    return algebra_from_brackets(chart, labels, coeff)


# -- catalog --------------------------------------------------------------------


ALGEBRA_NAMES = ("heisenberg", "sl2_e", "sl2_n", "sl2_f", "isometry4", "conformal8")

#: The algebras whose brackets carry the curvature parameter kappa.
KAPPA_ALGEBRAS = ("sl2_e", "sl2_n")


def catalog_algebra(name: str, kappa: Optional[Expr] = None) -> LieAlgebra:
    chart = kappa.chart if kappa is not None else PARAM_CHART
    if kappa is None and name in KAPPA_ALGEBRAS:
        kappa = chart.var("kappa")
    one = chart.one()

    if name == "heisenberg":
        # [X2, X1] = X0 on basis (X1, X2, X0)
        return algebra_from_brackets(chart, ("X1", "X2", "X0"), {(1, 0): {2: one}})
    if name == "sl2_e":
        # [e2,e1] = e0, [e1,e0] = -kappa e2, [e2,e0] = -kappa e1
        return algebra_from_brackets(
            chart, ("e0", "e1", "e2"),
            {(2, 1): {0: one}, (1, 0): {2: -kappa}, (2, 0): {1: -kappa}},
        )
    if name == "sl2_n":
        # null basis: [n2,n1] = n0, [n1,n0] = kappa n1, [n2,n0] = -kappa n2
        return algebra_from_brackets(
            chart, ("n0", "n1", "n2"),
            {(2, 1): {0: one}, (1, 0): {1: kappa}, (2, 0): {2: -kappa}},
        )
    if name == "sl2_f":
        # [f2,f1] = f0, [f1,f0] = f2, [f2,f0] = f1
        return algebra_from_brackets(
            chart, ("f0", "f1", "f2"),
            {(2, 1): {0: one}, (1, 0): {2: one}, (2, 0): {1: one}},
        )
    if name == "isometry4":
        # Heisenberg algebra extended by a derivation:
        # [e1,e2] = e3, [e4,e1] = e2, [e4,e2] = e1
        return algebra_from_brackets(
            chart, ("e1", "e2", "e3", "e4"),
            {(0, 1): {2: one}, (3, 0): {1: one}, (3, 1): {0: one}},
        )
    if name == "conformal8":
        return dualize_structure_equations(chart, CONFORMAL8_LABELS,
                                           conformal_structure_equations(chart))
    raise UnknownCatalogName(f"unknown algebra {name!r}")


CONFORMAL8_LABELS = ("Th1", "Th2", "Th3", "Pi1", "Pi2", "Pi3", "Pi4", "Om")


def conformal_structure_equations(chart: Chart) -> list[dict[tuple[int, int], Expr]]:
    """The eight constant structure equations of the conformal-symmetry
    coframe (Th1, Th2, Th3, Pi1, Pi2, Pi3, Pi4, Om), indices 0..7."""
    one = chart.one()
    half = one / 2
    three_half = chart.number(3) / 2
    two = chart.number(2)
    return [
        {(3, 0): one, (4, 1): one, (5, 2): one},              # d Th1
        {(3, 1): one, (4, 0): one, (6, 2): one},              # d Th2
        {(3, 2): two, (0, 1): -one},                           # d Th3
        {(6, 0): half, (5, 1): -half, (7, 2): -one},           # d Pi1
        {(6, 1): three_half, (5, 0): -three_half},             # d Pi2
        {(5, 3): one, (6, 4): -one, (7, 0): -one},             # d Pi3
        {(6, 3): one, (5, 4): -one, (7, 1): -one},             # d Pi4
        {(7, 3): two, (6, 5): -one},                           # d Om
    ]


def isometry_structure_equations(chart: Chart, kappa: Expr) -> list[dict[tuple[int, int], Expr]]:
    """Constant structure equations of the isometry coframe (Th1, Th2, Th3, Pi):
    dTh1 = Pi^Th2, dTh2 = Pi^Th1, dTh3 = Th2^Th1, dPi = kappa Th2^Th1."""
    one = chart.one()
    return [
        {(3, 1): one},
        {(3, 0): one},
        {(1, 0): one},
        {(1, 0): kappa},
    ]


def catalog_marking(name: str) -> Optional[tuple[int, int]]:
    """The basis positions of the marked X1 and X2 of catalog algebras, when
    defined."""
    return {
        "heisenberg": (0, 1),
        "sl2_e": (1, 2),
        "sl2_n": (1, 2),
        "sl2_f": (1, 2),
    }.get(name)
