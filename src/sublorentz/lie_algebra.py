"""Finite-dimensional real Lie algebras by sparse structure constants (every
loop walks only the nonzero ones): Jacobi validation, Killing form with exact
determinant and inertia, structure functions of a marked basis, dualization
of constant-coefficient structure equations, and the built-in catalog of
algebras used by the test fixtures.

Dualization convention: for a constant coframe, dw^k(e_i, e_j) = -w^k([e_i, e_j]),
so c^k_ij = -(coefficient of w^i ^ w^j in dw^k).  A round-trip test pins this:
dualizing {d nu0 = nu1^nu2, d nu1 = ..., d nu2 = ...} reproduces the frame
bracket relations with the same signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import BracketPatternViolation, UnknownCatalogName
from .expr import Chart, Expr, Tri, all_zero, determinant
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


def jacobi_residuals(L: LieAlgebra) -> list[Expr]:
    """All residuals of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
    n = L.dim
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [L.chart.zero()] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, inner in L._terms(a, b).items():
                        for l, outer in L._terms(m, c).items():
                            acc[l] = acc[l] + inner * outer
                residuals.extend(acc)
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
    """Inertia (p, m, z) of a rational symmetric matrix via exact congruence."""
    A = [row[:] for row in rows]
    n = len(A)
    pos = neg = zero = 0
    step = 0
    while step < n:
        piv = next((j for j in range(step, n) if A[j][j] != 0), None)
        if piv is None:
            pair = next(
                ((j, k) for j in range(step, n) for k in range(j + 1, n) if A[j][k] != 0),
                None,
            )
            if pair is None:
                zero += n - step
                break
            j, k = pair
            for t in range(n):
                A[j][t] += A[k][t]
            for t in range(n):
                A[t][j] += A[t][k]
            piv = j
        if piv != step:
            A[piv], A[step] = A[step], A[piv]
            for t in range(n):
                A[t][piv], A[t][step] = A[t][step], A[t][piv]
        d = A[step][step]
        if d > 0:
            pos += 1
        else:
            neg += 1
        pivot_row = A[step][:]
        factors = [A[j][step] / d for j in range(step + 1, n)]
        for j, f in zip(range(step + 1, n), factors):
            if f:
                for t in range(n):
                    A[j][t] -= f * pivot_row[t]
        pivot_col = [A[t][step] for t in range(n)]
        for j, f in zip(range(step + 1, n), factors):
            if f:
                for t in range(n):
                    A[t][j] -= f * pivot_col[t]
        step += 1
    return (pos, neg, zero)


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


def structure_functions_of_marking(L: LieAlgebra, marking: tuple[int, int, int]) -> StructureFunctions:
    """Extract the six structure functions from a marked basis (X1, X2, X0).

    Requires [X1,X0], [X2,X0] in span{X1,X2} and [X2,X1] = c X1 + c X2 + X0.
    The frame context that reads them validates their trace.
    """
    i1, i2, i0 = marking
    for i, j in ((i1, i0), (i2, i0), (i2, i1)):
        if not set(L._terms(i, j)) <= {i1, i2, i0}:
            raise BracketPatternViolation("bracket leaves the marked subalgebra")
    if i0 in L._terms(i1, i0) or i0 in L._terms(i2, i0):
        raise BracketPatternViolation("[Xi, X0] has a Reeb component")
    b10, b20, b21 = L.bracket(i1, i0), L.bracket(i2, i0), L.bracket(i2, i1)
    if b21[i0] != L.chart.one():
        raise BracketPatternViolation("[X2, X1] must have Reeb coefficient exactly 1")
    return StructureFunctions(
        c011=b10[i1], c012=b10[i2],
        c021=b20[i1], c022=b20[i2],
        c121=b21[i1], c122=b21[i2],
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


def catalog_marking(name: str) -> Optional[tuple[int, int, int]]:
    """Marked (X1, X2, X0) basis positions for catalog algebras, when defined."""
    return {
        "heisenberg": (0, 1, 2),
        "sl2_e": (1, 2, 0),
        "sl2_n": (1, 2, 0),
        "sl2_f": (1, 2, 0),
    }.get(name)
