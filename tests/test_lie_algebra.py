"""Structure-constant Lie algebras: Jacobi, Killing form, constant-mode
invariants, dualization of constant structure equations, and the catalog."""

from fractions import Fraction

import pytest
from hypothesis import given, reject, strategies as st

from sublorentz.builtins import STRUCTURE_FILES
from sublorentz.errors import DegenerateFrame, UnknownCatalogName
from sublorentz.expr import Chart, Tri, all_zero
from sublorentz.invariants import FrameContext, classify, compute_invariants
from sublorentz.lie_algebra import (
    PARAM_CHART,
    ad_invariance_residuals,
    algebra_from_brackets,
    catalog_algebra,
    catalog_marking,
    conformal_structure_equations,
    dualize_structure_equations,
    exact_inertia,
    is_automorphism,
    isometry_structure_equations,
    jacobi_residuals,
    killing_form,
    killing_invariance_residuals,
    marked_algebra,
    structure_functions_of_marking,
    CONFORMAL8_LABELS,
)
from sublorentz.parsing import parse_structure_file, render_expr

K = PARAM_CHART
KAPPA = K.var("kappa")


class TestJacobi:
    def test_sl2_e_symbolic_kappa(self):
        assert all_zero(jacobi_residuals(catalog_algebra("sl2_e"))) is Tri.TRUE

    def test_conformal8(self):
        assert all_zero(jacobi_residuals(catalog_algebra("conformal8"))) is Tri.TRUE

    def test_perturbed_bracket_fails(self):
        # negative control: adding e1 to [e1, e2] in the 4-dim algebra breaks
        # Jacobi on (e4, e1, e2) since [e1, e4] = -e2
        bad = algebra_from_brackets(
            K, ("e1", "e2", "e3", "e4"),
            {(0, 1): {2: K.one(), 0: K.one()},
             (3, 0): {1: K.one()},
             (3, 1): {0: K.one()}},
        )
        assert all_zero(jacobi_residuals(bad)) is Tri.FALSE
        assert any(r.is_zero() is Tri.FALSE for r in jacobi_residuals(bad))

    def test_all_catalog_entries_valid(self):
        for name in ("heisenberg", "sl2_e", "sl2_n", "sl2_f", "isometry4", "conformal8"):
            assert all_zero(jacobi_residuals(catalog_algebra(name))) is Tri.TRUE, name


class TestSparseBrackets:
    """Only nonzero structure constants are stored, in both orders."""

    def test_brackets_that_cancel_are_not_stored(self):
        # [e0, e1] = e2 given in both orders adds up to zero
        L = algebra_from_brackets(K, ("e0", "e1", "e2"), {(0, 1): {2: 1}, (1, 0): {2: 1}})
        assert L.brackets == {}
        assert L.bracket(0, 1) == (K.zero(),) * 3
        assert list(L.nonzero_brackets()) == []

    def test_brackets_are_stored_in_both_orders(self):
        L = catalog_algebra("heisenberg")
        assert L.brackets == {(1, 0): {2: K.one()}, (0, 1): {2: -K.one()}}


class TestKillingForm:
    def test_sl2_e_values(self):
        data = killing_form(catalog_algebra("sl2_e"))
        assert data.matrix[0][0] == 2 * KAPPA ** 2
        assert data.matrix[1][1] == 2 * KAPPA
        assert data.matrix[2][2] == -2 * KAPPA
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert data.matrix[i][j].is_zero() is Tri.TRUE
        assert data.signature is None  # parameterized: kept symbolic

    def test_sl2_f_split_form_values(self):
        data = killing_form(catalog_algebra("sl2_f"))
        # B = K/2 gives B(f0,f0) = 1, B(f1,f1) = -1, B(f2,f2) = 1
        assert [render_expr(data.matrix[i][i]) for i in range(3)] == ["2", "-2", "2"]
        assert data.signature == (2, 1, 0)

    def test_heisenberg_killing_vanishes(self):
        data = killing_form(catalog_algebra("heisenberg"))
        assert all_zero([e for row in data.matrix for e in row]) is Tri.TRUE

    def test_isometry4(self):
        data = killing_form(catalog_algebra("isometry4"))
        expect = {(3, 3): "2"}
        for i in range(4):
            for j in range(4):
                assert render_expr(data.matrix[i][j]) == expect.get((i, j), "0")

    def test_ad_invariance_all_catalog(self):
        for name in ("heisenberg", "sl2_e", "sl2_n", "sl2_f", "isometry4", "conformal8"):
            L = catalog_algebra(name)
            assert all_zero(ad_invariance_residuals(L)) is Tri.TRUE, name

    def test_sl2_f_involution_preserves_killing(self):
        L = catalog_algebra("sl2_f")
        one, zero = K.one(), K.zero()
        # f0 -> f2, f1 -> -f1, f2 -> f0 (columns are images of basis vectors)
        T = ((zero, zero, one), (zero, -one, zero), (one, zero, zero))
        assert is_automorphism(L, T) is Tri.TRUE
        assert all_zero(killing_invariance_residuals(L, T)) is Tri.TRUE


class TestConformal8:
    def test_dimension_and_nondegeneracy(self):
        L = catalog_algebra("conformal8")
        assert L.dim == 8
        data = killing_form(L)
        assert data.det.is_zero() is Tri.FALSE
        assert data.signature == (5, 3, 0)

    def test_killing_matrix_exact(self):
        """Exact Killing data of the algebra dual to the conformal structure
        equations.  The pairing blocks are (Th1, Pi4) = -6, (Th2, Pi3) = 6,
        (Th3, Om) = 6 with diagonal (Pi1, Pi1) = 12, (Pi2, Pi2) = 4, hence
        det = -(6^2)^3 * 12 * 4 = -2239488 and inertia (5, 3, 0)."""
        data = killing_form(catalog_algebra("conformal8"))
        expect = {
            (0, 6): "-6", (6, 0): "-6",
            (1, 5): "6", (5, 1): "6",
            (2, 7): "6", (7, 2): "6",
            (3, 3): "12", (4, 4): "4",
        }
        for i in range(8):
            for j in range(8):
                assert render_expr(data.matrix[i][j]) == expect.get((i, j), "0"), (i, j)
        assert render_expr(data.det) == "-2239488"

    def test_grading_element(self):
        """ad of the dual of Pi1 is diagonal with eigenvalues
        (-1, -1, -2, 0, 0, 1, 1, 2): the contact grading of the algebra."""
        L = catalog_algebra("conformal8")
        expected = [-1, -1, -2, 0, 0, 1, 1, 2]
        for j, lam in enumerate(expected):
            vec = L.bracket(3, j)
            for k in range(8):
                target = K.number(lam) if k == j else K.zero()
                assert (vec[k] - target).is_zero() is Tri.TRUE


MARKED = ("heisenberg", "sl2_e", "sl2_n", "sl2_f")
# [e3,e1] = e1, [e3,e2] = 2 e2
BIANCHI_VI = algebra_from_brackets(K, ("e1", "e2", "e3"),
                                   {(2, 0): {0: K.one()}, (2, 1): {1: K.number(2)}})
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def marking_context(L, x1, x2):
    return FrameContext(sf=structure_functions_of_marking(L, x1, x2), chart=L.chart)


def catalog_vectors(name):
    L = catalog_algebra(name)
    return L, tuple(map(L.basis_vector, catalog_marking(name)))


def marked_context(name):
    L, (x1, x2) = catalog_vectors(name)
    return marking_context(L, x1, x2)


def combination(a, x1, b, x2):
    return tuple(a * u + b * v for u, v in zip(x1, x2))


class TestConstantModeInvariants:
    def test_heisenberg_mark(self):
        ctx = marked_context("heisenberg")
        assert ctx.h_tilde_zero is Tri.TRUE
        assert ctx.chi_zero is Tri.TRUE
        assert ctx.kappa_zero is Tri.TRUE

    def test_sl2_e_mark_recovers_kappa(self):
        ctx = marked_context("sl2_e")
        assert ctx.h_tilde_zero is Tri.TRUE
        assert ctx.inv.kappa == KAPPA

    def test_sl2_n_mark(self):
        inv = marked_context("sl2_n").inv
        assert inv.h_tilde[0][0] == KAPPA
        assert inv.h_tilde[1][1] == -KAPPA
        assert inv.chi == -(KAPPA ** 2)

    def test_non_contact_marking_rejected(self):
        """[e3, e1] = 0 on the Heisenberg algebra, so (e1, e3, [e3, e1]) is
        singular."""
        L = catalog_algebra("heisenberg")
        with pytest.raises(DegenerateFrame):
            structure_functions_of_marking(L, L.basis_vector(0), L.basis_vector(2))

    @pytest.mark.parametrize("L", [*map(catalog_algebra, MARKED), BIANCHI_VI],
                             ids=[*MARKED, "bianchi_vi"])
    def test_any_marking_satisfies_its_bracket_relations(self, L):
        """For a drawn contact marking, X0 = [X2,X1] - c121 X1 - c122 X2 has
        [X1,X0] = c011 X1 + c012 X2 and [X2,X0] = c021 X1 + c022 X2.  On a
        unimodular algebra, as the catalog's are, tr ad_X1 = -c122 and
        tr ad_X2 = c121 vanish; Bianchi VI is not unimodular, so there c121
        and c122 count too."""
        vectors = st.lists(RATIONALS.map(L.chart.number), min_size=3, max_size=3)

        @given(vectors, vectors)
        def check(x1, x2):
            try:
                sf = structure_functions_of_marking(L, x1, x2)
            except DegenerateFrame:
                reject()
            x0 = combination(1, L.bracket_of(x2, x1), -1, combination(sf.c121, x1, sf.c122, x2))
            for xj, c1, c2 in ((x1, sf.c011, sf.c012), (x2, sf.c021, sf.c022)):
                residuals = combination(1, L.bracket_of(xj, x0), -1, combination(c1, x1, c2, x2))
                assert all_zero(residuals) is Tri.TRUE

        check()

    @pytest.mark.parametrize("text", [
        *(pytest.param(text, id=name) for name, text in STRUCTURE_FILES.items()
          if "[algebra]" in text),
        pytest.param("[algebra]\nc011 = 1\nc022 = -1\nc021 = 1\nc012 = -1\n", id="null_kernel"),
    ])
    def test_marking_gives_back_the_constants(self, text):
        """An [algebra] file is the algebra of its brackets on (X0, X1, X2),
        and the marking (X1, X2) of it has the file's six constants."""
        consts = parse_structure_file(text).structure_constants
        L = marked_algebra(consts)
        sf = structure_functions_of_marking(L, L.basis_vector(1), L.basis_vector(2))
        assert sf.as_dict() == consts

    @pytest.mark.parametrize("name", MARKED)
    def test_boost_keeps_chi_kappa_and_label(self, name):
        """X1' = c X1 + s X2, X2' = s X1 + c X2 with c^2 - s^2 = 1 is again an
        orthonormal marking of the same structure."""
        L, (x1, x2) = catalog_vectors(name)
        ctx = marking_context(L, x1, x2)

        @given(RATIONALS.filter(lambda t: t * t != 1))
        def check(t):
            c, s = (1 + t * t) / (1 - t * t), 2 * t / (1 - t * t)
            boosted = marking_context(L, combination(c, x1, s, x2), combination(s, x1, c, x2))
            assert (boosted.inv.chi, boosted.inv.kappa) == (ctx.inv.chi, ctx.inv.kappa)
            assert classify(boosted).label == classify(ctx).label

        check()

    @pytest.mark.parametrize("name", MARKED)
    def test_dilation_scales_chi_and_kappa(self, name):
        """(lam X1, lam X2) gives kappa' = lam^2 kappa and chi' = lam^4 chi."""
        L, (x1, x2) = catalog_vectors(name)
        inv = marking_context(L, x1, x2).inv

        @given(RATIONALS.filter(bool))
        def check(lam):
            dilated = marking_context(L, *(tuple(lam * u for u in x) for x in (x1, x2))).inv
            assert dilated.kappa == lam ** 2 * inv.kappa
            assert dilated.chi == lam ** 4 * inv.chi

        check()

    def test_agrees_with_coordinate_pipeline(self, heisenberg_frame):
        from sublorentz.contact import build_apparatus

        ctx = FrameContext(build_apparatus(heisenberg_frame))
        inv_coord = compute_invariants(ctx.sf, ctx)
        inv_const = marked_context("heisenberg").inv
        assert inv_coord.chi.is_zero() is Tri.TRUE and inv_const.chi.is_zero() is Tri.TRUE
        assert inv_coord.kappa.is_zero() is Tri.TRUE and inv_const.kappa.is_zero() is Tri.TRUE


class TestDualization:
    def test_round_trip_reproduces_frame_brackets(self):
        """Dualizing the generic coframe structure equations with six symbolic
        constants reproduces the frame bracket relations with the same signs:
        [X2,X1] = c121 X1 + c122 X2 + X0, [X1,X0] = c011 X1 + c012 X2,
        [X2,X0] = c021 X1 + c022 X2."""
        chart = Chart((), ("c011", "c012", "c021", "c022", "c121", "c122"))
        c = {name: chart.var(name) for name in chart.params}
        one = chart.one()
        equations = [
            {(1, 2): one},
            {(0, 1): c["c011"], (0, 2): c["c021"], (1, 2): c["c121"]},
            {(0, 1): c["c012"], (0, 2): c["c022"], (1, 2): c["c122"]},
        ]
        L = dualize_structure_equations(chart, ("X0", "X1", "X2"), equations)
        b21 = L.bracket(2, 1)
        assert b21[0] == one and b21[1] == c["c121"] and b21[2] == c["c122"]
        b10 = L.bracket(1, 0)
        assert b10[0].is_zero() is Tri.TRUE
        assert b10[1] == c["c011"] and b10[2] == c["c012"]
        b20 = L.bracket(2, 0)
        assert b20[1] == c["c021"] and b20[2] == c["c022"]

    def test_single_equation_heisenberg(self):
        chart = Chart((), ())
        L = dualize_structure_equations(
            chart, ("X0", "X1", "X2"), [{(1, 2): chart.one()}, {}, {}]
        )
        b21 = L.bracket(2, 1)
        assert [str(e.sym) for e in b21] == ["1", "0", "0"]
        assert all_zero(jacobi_residuals(L)) is Tri.TRUE

    def test_chart_with_coordinates_refused(self):
        """Structure constants are constants: a chart with coordinates is
        refused even when every coefficient is a number."""
        chart = Chart(("x",), ())
        with pytest.raises(ValueError, match="constant coefficients"):
            dualize_structure_equations(chart, ("X0", "X1", "X2"), [{(1, 2): chart.one()}, {}, {}])

    def test_isometry_equations_kappa_zero(self):
        """Dual algebra of the isometry coframe at kappa = 0: the engine's
        convention yields [e1,e2] = e3, [e1,e4] = e2, [e2,e4] = e1, which is
        the Heisenberg-plus-derivation algebra up to the sign of e4."""
        chart = Chart((), ())
        L = dualize_structure_equations(
            chart, ("e1", "e2", "e3", "e4"),
            isometry_structure_equations(chart, chart.zero()),
        )
        assert [str(e.sym) for e in L.bracket(0, 1)] == ["0", "0", "1", "0"]
        assert [str(e.sym) for e in L.bracket(0, 3)] == ["0", "1", "0", "0"]
        assert [str(e.sym) for e in L.bracket(1, 3)] == ["1", "0", "0", "0"]
        assert all_zero(jacobi_residuals(L)) is Tri.TRUE

    def test_isometry_dual_isomorphic_to_catalog_via_e4_flip(self):
        from sublorentz.lie_algebra import apply_linear_map

        chart = Chart((), ())
        L = dualize_structure_equations(
            chart, ("e1", "e2", "e3", "e4"),
            isometry_structure_equations(chart, chart.zero()),
        )
        target = catalog_algebra("isometry4", kappa=chart.zero())
        one, zero = chart.one(), chart.zero()
        flip = (
            (one, zero, zero, zero),
            (zero, one, zero, zero),
            (zero, zero, one, zero),
            (zero, zero, zero, -one),
        )
        basis = [tuple(one if t == i else zero for t in range(4)) for i in range(4)]
        # phi: e4 -> -e4 satisfies [phi(x), phi(y)]_target = phi([x, y]_dual)
        for i in range(4):
            for j in range(4):
                lhs = target.bracket_of(
                    apply_linear_map(target, flip, basis[i]),
                    apply_linear_map(target, flip, basis[j]),
                )
                rhs = apply_linear_map(target, flip, L.bracket(i, j))
                assert all((a - b).is_zero() is Tri.TRUE for a, b in zip(lhs, rhs))

    def test_isometry_kappa_symbolic(self):
        L = dualize_structure_equations(
            K, ("e1", "e2", "e3", "e4"), isometry_structure_equations(K, KAPPA)
        )
        # [e1, e2] = e3 + kappa e4
        vec = L.bracket(0, 1)
        assert vec[2] == K.one() and vec[3] == KAPPA
        assert all_zero(jacobi_residuals(L)) is Tri.TRUE

    def test_conformal_equations_dualize_to_catalog(self):
        L = dualize_structure_equations(K, CONFORMAL8_LABELS,
                                        conformal_structure_equations(K))
        M = catalog_algebra("conformal8")
        for i in range(8):
            for j in range(8):
                assert all(
                    (a - b).is_zero() is Tri.TRUE
                    for a, b in zip(L.bracket(i, j), M.bracket(i, j))
                )


class TestInertia:
    def test_diagonal(self):
        assert exact_inertia([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3)]]) == (1, 1, 0)

    def test_antidiagonal_block(self):
        assert exact_inertia([[Fraction(0), Fraction(5)], [Fraction(5), Fraction(0)]]) == (1, 1, 0)

    def test_degenerate(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert exact_inertia(m) == (1, 0, 1)

    def test_zero_matrix(self):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        assert exact_inertia(m) == (0, 0, 3)

    @given(st.data())
    def test_sylvester_law(self, data):
        """P^t diag(d) P, P unit upper triangular, has the inertia of d."""
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        P = [[Fraction(1) if i == j else data.draw(RATIONALS) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
        m = [[sum(P[k][i] * d[k] * P[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        assert exact_inertia(m) == (sum(x > 0 for x in d), sum(x < 0 for x in d),
                                    sum(x == 0 for x in d))


def test_unknown_catalog_name():
    with pytest.raises(UnknownCatalogName):
        catalog_algebra("su2")
