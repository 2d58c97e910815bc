"""Acceptance suite: every exit criterion at exact symbolic equality (zero
tolerance), one test per criterion (split where sub-claims are independent).

Each test prints one [PASS]/[FAIL] line (visible under pytest -s; the
pass/fail state is also the test outcome).  Four sub-criteria (4b, 4c, 5c,
6c) come with quoted reference values that contradict the defining equations
they accompany (README, "Known discrepancies").  Those tests assert the values
derived from the equations, each decided TRUE, and assert that the engine
decides each quoted value FALSE.
"""

import random
from fractions import Fraction

import pytest

from sublorentz import expr as ex
from sublorentz.calculus import lie_bracket
from sublorentz.contact import Frame, build_apparatus
from sublorentz.expr import Chart, Expr, Tri, all_zero
from sublorentz.invariants import (
    FrameContext,
    StructureFunctions,
    classify,
    compute_invariants,
    dilate,
    eta_residuals,
    hyperbolic_rotate,
    structure_functions,
)
from sublorentz.lie_algebra import (
    CONFORMAL8_LABELS,
    apply_linear_map,
    catalog_algebra,
    catalog_marking,
    conformal_structure_equations,
    dualize_structure_equations,
    exact_inertia,
    isometry_structure_equations,
    jacobi_residuals,
    killing_form,
    structure_functions_of_marking,
)
from sublorentz.ode_bridge import ODE_CHART, build_from_ode, null_bundle_residuals
from sublorentz.parsing import parse_expr, parse_field, render_expr
from sublorentz.symmetry import (
    binomial_identity_check,
    conformal_factor,
    poisson_bracket,
    fiber_linear,
    preserves_distribution,
    reeb_lie_derivative,
    restricted_lie_derivative,
    vertical_form_residual,
)

from .randgen import random_field, random_frame, random_polynomial, random_theta

CH = Chart(("x", "y", "z"))
KCH = Chart((), ("kappa",))
KAPPA = KCH.var("kappa")


def verdict(label: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def tri_ok(t: Tri) -> bool:
    return t is Tri.TRUE


def field_equals(a, b) -> bool:
    return tri_ok(all_zero([x - y for x, y in zip(a.components, b.components)]))


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_martinet_golden(martinet_frame):
    app = build_apparatus(martinet_frame)
    ok = [render_expr(c) for c in app.omega.components] == ["-y/3", "x/3", "2/(3*y)"]
    ok &= [render_expr(c) for c in app.x0.components] == ["-1/y", "0", "y"]

    x1, x2, x0 = app.frame.x1, app.frame.x2, app.x0
    inv_y = parse_expr("1/y", CH)
    ok &= field_equals(lie_bracket(x2, x1), x1.scaled(inv_y) + x0)
    ok &= tri_ok(all_zero(lie_bracket(x1, x0).components))
    ok &= field_equals(lie_bracket(x2, x0), x1.scaled(parse_expr("1/y^2", CH)))

    ctx = FrameContext(app)
    inv = compute_invariants(ctx.sf, ctx)
    ok &= [[render_expr(e) for e in row] for row in inv.h_tilde] == [
        ["0", "1/(2*y^2)"], ["-1/(2*y^2)", "0"]]
    ok &= render_expr(inv.chi) == "1/(4*y^4)"
    ok &= render_expr(inv.kappa) == "-5/(2*y^2)"
    ratio = app.contact_det / CH.var("y")
    ok &= ratio.is_rational_constant()
    assert verdict("criterion 1: flat degenerate-surface golden values", bool(ok))


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_heisenberg_golden(heisenberg_frame):
    app = build_apparatus(heisenberg_frame)
    sf = structure_functions(app)
    ok = all(tri_ok(v.is_zero()) for v in sf.as_dict().values())
    ctx = FrameContext(app)
    inv = compute_invariants(sf, ctx)
    ok &= tri_ok(ctx.h_tilde_zero)
    ok &= tri_ok(inv.chi.is_zero()) and tri_ok(inv.kappa.is_zero())

    zero_sf = StructureFunctions(*[KCH.zero()] * 6)
    abstract = FrameContext(sf=zero_sf, chart=KCH)
    label = classify(abstract)
    ok &= label.label == "Heisenberg" and label.scope == "group"
    assert verdict("criterion 2: flat group fixture all-zero invariants", bool(ok))


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_sl2_fixtures():
    e = catalog_algebra("sl2_e")
    ctx = FrameContext(sf=structure_functions_of_marking(e, catalog_marking("sl2_e")), chart=e.chart)
    inv_e = ctx.inv
    ok = tri_ok(ctx.h_tilde_zero)
    ok &= inv_e.kappa == KAPPA
    ok &= classify(ctx).label == "SL2Cover"

    n = catalog_algebra("sl2_n")
    inv_n = FrameContext(sf=structure_functions_of_marking(n, catalog_marking("sl2_n")), chart=n.chart).inv
    ok &= inv_n.h_tilde[0][0] == KAPPA and inv_n.h_tilde[1][1] == -KAPPA
    ok &= tri_ok(inv_n.h_tilde[0][1].is_zero())
    ok &= inv_n.chi == -(KAPPA ** 2)

    killing = killing_form(e)
    ok &= killing.matrix[1][1] == 2 * KAPPA
    ok &= killing.matrix[2][2] == -2 * KAPPA
    ok &= killing.matrix[0][0] == 2 * KAPPA ** 2
    assert verdict("criterion 3: constant-curvature fixtures and Killing values", bool(ok))


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_04a_conformal_dualization_jacobi_inertia():
    L = dualize_structure_equations(KCH, CONFORMAL8_LABELS,
                                    conformal_structure_equations(KCH))
    ok = L.dim == 8
    ok &= tri_ok(all_zero(jacobi_residuals(L)))
    data = killing_form(L)
    quoted = _quoted_conformal_killing()
    ok &= exact_inertia(quoted) == data.signature == (5, 3, 0)
    ok &= data.det.is_zero() is Tri.FALSE and data.det.is_rational_constant()
    assert verdict("criterion 4a: conformal coframe dual algebra "
                   "(dim 8, Jacobi, inertia matches the quoted matrix)", bool(ok))


def _quoted_conformal_killing():
    m = [[Fraction(0)] * 8 for _ in range(8)]
    m[0][6] = m[6][0] = Fraction(-7)
    m[1][5] = m[5][1] = Fraction(6)
    m[2][7] = m[7][2] = Fraction(6)
    m[3][3] = Fraction(12)
    m[4][4] = Fraction(4)
    return m


def test_criterion_04b_conformal_killing_quoted_table():
    """The quoted Killing table pairs (Th1, Pi4) at -7, with determinant
    -3048192.  The quoted structure equations give -6 and -2239488: Jacobi
    forces the 1/2 coefficient of Pi4 ^ Th1 in dPi1, and with coefficient a
    there the pairing is -2a - 5.  The quoted -7 needs a = 1, where Jacobi
    fails.  Asserts the derived table and determinant, that it differs from
    the quoted table only in the (Th1, Pi4) pairing, and that the coframe
    with coefficient 1 violates Jacobi."""
    data = killing_form(catalog_algebra("conformal8"))
    quoted = _quoted_conformal_killing()
    derived = _quoted_conformal_killing()
    derived[0][6] = derived[6][0] = Fraction(-6)
    cells = [(i, j) for i in range(8) for j in range(8)]
    table_ok = tri_ok(all_zero(
        [data.matrix[i][j] - KCH.number(derived[i][j]) for i, j in cells]))
    det_ok = tri_ok((data.det - KCH.number(-2239488)).is_zero())
    quoted_det_false = (data.det - KCH.number(-3048192)).is_zero() is Tri.FALSE
    refuted = {(i, j) for i, j in cells
               if (data.matrix[i][j] - KCH.number(quoted[i][j])).is_zero() is Tri.FALSE}
    only_pairing = refuted == {(0, 6), (6, 0)}

    equations = conformal_structure_equations(KCH)
    equations[3][(6, 0)] = KCH.one()
    bent = dualize_structure_equations(KCH, CONFORMAL8_LABELS, equations)
    bent_pairing_ok = tri_ok((killing_form(bent).matrix[0][6] + 7).is_zero())
    bent_jacobi_false = all_zero(jacobi_residuals(bent)) is Tri.FALSE

    ok = (table_ok and det_ok and quoted_det_false and only_pairing
          and bent_pairing_ok and bent_jacobi_false)
    verdict("criterion 4b: derived Killing table ((Th1,Pi4) = -6, det -2239488); "
            "quoted -7 / det -3048192 refuted (needs dPi1 coefficient 1, "
            "where Jacobi fails)", ok)
    assert ok, (
        f"derived table: {table_ok}; det -2239488: {det_ok} (computed "
        f"{render_expr(data.det)}); det -3048192 FALSE: {quoted_det_false}; "
        f"quoted table refuted at {sorted(refuted)}; coefficient 1 gives "
        f"-7: {bent_pairing_ok}; Jacobi FALSE at coefficient 1: {bent_jacobi_false}"
    )


def _bracket_is(L, i: int, j: int, expected: dict) -> Tri:
    """Exact test of [e_i, e_j] = sum of expected[k] e_k."""
    one = L.chart.one()
    vec = L.bracket(i, j)
    return all_zero([vec[k] - expected.get(k, 0) * one for k in range(L.dim)])


def test_criterion_04c_isometry_dualization_quoted_brackets():
    """The quoted table [e1,e2] = e3, [e4,e1] = e2, [e4,e2] = e1 against the
    dual of the isometry coframe equations at kappa = 0.  The convention
    c^k_ij = -A^k_ij (pinned by the round trip in
    test_lie_algebra.py::TestDualization) gives [e4,e1] = -e2, [e4,e2] = -e1,
    which is the quoted algebra after e4 -> -e4; the opposite convention
    c = +A turns [e1,e2] = e3 into -e3.  Asserts the derived brackets and the
    isomorphism, and that each convention refutes a quoted bracket."""
    chart = Chart((), ())
    labels = ("e1", "e2", "e3", "e4")
    equations = isometry_structure_equations(chart, chart.zero())
    L = dualize_structure_equations(chart, labels, equations)
    derived = {(0, 1): {2: 1}, (3, 0): {1: -1}, (3, 1): {0: -1}}
    brackets_ok = all(tri_ok(_bracket_is(L, i, j, e)) for (i, j), e in derived.items())

    quoted = catalog_algebra("isometry4", kappa=chart.zero())
    one, zero = chart.one(), chart.zero()
    flip = (
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
        (zero, zero, zero, -one),
    )
    basis = [tuple(one if t == i else zero for t in range(4)) for i in range(4)]
    iso_ok = tri_ok(all_zero([
        a - b
        for i in range(4) for j in range(4)
        for a, b in zip(
            quoted.bracket_of(apply_linear_map(quoted, flip, basis[i]),
                              apply_linear_map(quoted, flip, basis[j])),
            apply_linear_map(quoted, flip, L.bracket(i, j)))
    ]))

    minus_refutes = (_bracket_is(L, 3, 0, {1: 1}) is Tri.FALSE
                     and _bracket_is(L, 3, 1, {0: 1}) is Tri.FALSE)
    plus = dualize_structure_equations(
        chart, labels, [{ij: -a for ij, a in eq.items()} for eq in equations])
    plus_refutes = _bracket_is(plus, 0, 1, {2: 1}) is Tri.FALSE

    ok = brackets_ok and iso_ok and minus_refutes and plus_refutes
    verdict("criterion 4c: isometry coframe dualizes to [e1,e2]=e3, [e4,e1]=-e2, "
            "[e4,e2]=-e1 (quoted table after e4 -> -e4); quoted +e2, +e1 "
            "refuted under either sign convention", ok)
    assert ok, (
        f"derived brackets: {brackets_ok} ([e4,e1] = "
        f"{render_expr(L.bracket(3, 0)[1])}*e2, [e4,e2] = "
        f"{render_expr(L.bracket(3, 1)[0])}*e1); e4 -> -e4 isomorphism: {iso_ok}; "
        f"c = -A refutes +e2, +e1: {minus_refutes}; c = +A refutes [e1,e2]=e3: "
        f"{plus_refutes}"
    )


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05a_trace_identity_random_frames():
    rng = random.Random(100123)
    for i in range(100):
        frame = random_frame(rng, CH)
        sf = structure_functions(build_apparatus(frame))
        assert tri_ok((sf.c011 + sf.c022).is_zero()), f"case {i}"
    assert verdict("criterion 5a: trace identity on 100 random frames", True)


def test_criterion_05b_rotation_invariance(martinet_frame, heisenberg_frame):
    rng = random.Random(100124)
    fixtures = [martinet_frame, heisenberg_frame]
    originals = []
    for frame in fixtures:
        ctx = FrameContext(build_apparatus(frame))
        originals.append(compute_invariants(ctx.sf, ctx))
    for i in range(100):
        theta = random_theta(rng, CH)
        frame = fixtures[i % 2]
        inv0 = originals[i % 2]
        rotated = build_apparatus(hyperbolic_rotate(frame, theta))
        rctx = FrameContext(rotated)
        inv1 = compute_invariants(rctx.sf, rctx)
        assert tri_ok((inv1.kappa - inv0.kappa).is_zero()), f"kappa case {i}"
        assert tri_ok((inv1.chi - inv0.chi).is_zero()), f"chi case {i}"
        ch_, sh_ = ex.cosh(theta), ex.sinh(theta)
        m = ((ch_, sh_), (sh_, ch_))
        minv = ((ch_, -sh_), (-sh_, ch_))
        conj = [
            [
                sum((minv[a][k] * inv0.h_tilde[k][l] * m[l][b]
                     for k in range(2) for l in range(2)), CH.zero())
                for b in range(2)
            ]
            for a in range(2)
        ]
        resid = [inv1.h_tilde[a][b] - conj[a][b] for a in range(2) for b in range(2)]
        assert tri_ok(all_zero(resid)), f"conjugation case {i}"
    assert verdict("criterion 5b: 100 seed-pinned rotations preserve kappa and chi, "
                   "conjugate h_tilde", True)


def test_criterion_05c_dilation_laws_as_quoted(martinet_frame):
    """The quoted laws are chi' = s^2 chi, kappa' = s^2 kappa,
    h_tilde' = s h_tilde.  Rescaling X_i' = s X_i gives
    [X2', X1'] = s^2 [X2, X1], so X0' = s^2 X0, c12j' = s c12j and
    c0j' = s^2 c0j: kappa' = s^2 kappa, chi' = s^4 chi and
    h_tilde' = s^2 h_tilde.  Asserts the derived laws on the flat
    degenerate-surface frame, and that the quoted chi law and the
    off-diagonal entries of the quoted h_tilde law are refuted there (its
    diagonal vanishes)."""
    dilated = dilate(martinet_frame, "s")
    chart2 = dilated.chart
    s = chart2.var("s")
    ctx0 = FrameContext(build_apparatus(martinet_frame))
    inv0 = compute_invariants(ctx0.sf, ctx0)
    ctx1 = FrameContext(build_apparatus(dilated))
    inv1 = compute_invariants(ctx1.sf, ctx1)
    lift = lambda e: Expr(chart2, e.sym)  # noqa: E731

    def h_resid(power: int, i: int, j: int) -> Expr:
        return inv1.h_tilde[i][j] - s ** power * lift(inv0.h_tilde[i][j])

    kappa_ok = tri_ok((inv1.kappa - s ** 2 * lift(inv0.kappa)).is_zero())
    chi_ok = tri_ok((inv1.chi - s ** 4 * lift(inv0.chi)).is_zero())
    h_ok = tri_ok(all_zero([h_resid(2, i, j) for i in range(2) for j in range(2)]))
    chi_quoted_false = (inv1.chi - s ** 2 * lift(inv0.chi)).is_zero() is Tri.FALSE
    h_quoted_false = all(h_resid(1, i, j).is_zero() is Tri.FALSE
                         for i, j in ((0, 1), (1, 0)))

    ok = kappa_ok and chi_ok and h_ok and chi_quoted_false and h_quoted_false
    verdict("criterion 5c: derived dilation laws (kappa s^2, chi s^4, "
            "h_tilde s^2); quoted chi s^2, h_tilde s refuted", ok)
    assert ok, (
        f"kappa s^2: {kappa_ok}; chi s^4: {chi_ok} (chi' = {render_expr(inv1.chi)}); "
        f"h_tilde s^2: {h_ok}; chi s^2 FALSE: {chi_quoted_false}; "
        f"off-diagonal h_tilde s FALSE: {h_quoted_false}"
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06a_symmetry_verdicts_and_cross_checks(
        martinet_frame, heisenberg_frame):
    ok = True
    # Reeb isometry <=> h_tilde = 0, coordinate fixtures
    for frame in (martinet_frame, heisenberg_frame):
        app = build_apparatus(frame)
        ctx = FrameContext(app)
        inv = compute_invariants(ctx.sf, ctx)
        is_isometry = conformal_factor(app.x0, app).kind == "isometry"
        ok &= is_isometry == tri_ok(ctx.h_tilde_zero)
        # cross-module equality: bracket-level derivative equals 2 h_bar
        L = restricted_lie_derivative(app.x0, app)
        resid = [L[i][j] - 2 * inv.h_bar[i][j] for i in range(2) for j in range(2)]
        ok &= tri_ok(all_zero(resid))
    # same cross-check on the constant-structure fixtures
    for name in ("heisenberg", "sl2_e", "sl2_n", "sl2_f"):
        algebra = catalog_algebra(name)
        sf = structure_functions_of_marking(algebra, catalog_marking(name))
        ctx = FrameContext(sf=sf, chart=algebra.chart)
        inv = ctx.inv
        L = reeb_lie_derivative(sf, algebra.chart)
        resid = [L[i][j] - 2 * inv.h_bar[i][j] for i in range(2) for j in range(2)]
        ok &= tri_ok(all_zero(resid))
        reeb_isometry = tri_ok(all_zero([e for row in L for e in row]))
        ok &= reeb_isometry == tri_ok(ctx.h_tilde_zero)

    happ = build_apparatus(heisenberg_frame)
    boost = parse_field("y*d/dx + x*d/dy", CH)
    dilation = parse_field("x*d/dx + y*d/dy + 2*z*d/dz", CH)
    ok &= conformal_factor(boost, happ).kind == "isometry"
    w = conformal_factor(dilation, happ)
    ok &= w.kind == "conformal" and w.mu == CH.number(2)
    assert verdict("criterion 6a: symmetry verdicts and derivative cross-checks", bool(ok))


def test_criterion_06b_bracket_series_boost(heisenberg_frame):
    app = build_apparatus(heisenberg_frame)
    boost = parse_field("y*d/dx + x*d/dy", CH)
    ok = True
    for n in (2, 3):
        ok &= tri_ok(all_zero(binomial_identity_check(boost, app, n)))
    assert verdict("criterion 6b: bracket-series residuals vanish for the boost "
                   "(n = 2, 3)", bool(ok))


def test_criterion_06c_bracket_series_dilation(heisenberg_frame):
    """The quoted claim is that the bracket-series residuals also vanish for
    the conformal dilation field Z = x d/dx + y d/dy + 2z d/dz.  They
    cannot: ad_Z X_i = -X_i, so the n-th residual is
    sum_k C(n,k) (-1)^n g(X_i, X_j) = (-mu)^n g(X_i, X_j) with conformal
    factor mu = 2.  Asserts the residuals (-2)^n (-1, 0, 1) for n = 2, 3 and
    that the diagonal ones are decided nonzero; the identity holds for
    isometries only (criterion 6b)."""
    app = build_apparatus(heisenberg_frame)
    dilation = parse_field("x*d/dx + y*d/dy + 2*z*d/dz", CH)
    g = (CH.number(-1), CH.zero(), CH.one())  # g(X1,X1), g(X1,X2), g(X2,X2)
    derived_ok = quoted_false = True
    rendered = {}
    for n in (2, 3):
        resid = binomial_identity_check(dilation, app, n)
        rendered[n] = [render_expr(e) for e in resid]
        derived_ok &= tri_ok(all_zero([r - (-2) ** n * gij for r, gij in zip(resid, g)]))
        quoted_false &= resid[0].is_zero() is Tri.FALSE and resid[2].is_zero() is Tri.FALSE
    ok = derived_ok and quoted_false
    verdict("criterion 6c: dilation bracket-series residuals equal (-2)^n g "
            "(n = 2, 3); quoted vanishing refuted", ok)
    assert ok, (
        f"residuals {rendered}: equal (-2)^n g: {derived_ok}; "
        f"diagonal decided nonzero: {quoted_false}"
    )


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_flat_identities(heisenberg_frame):
    app = build_apparatus(heisenberg_frame)
    family = eta_residuals(FrameContext(app))
    ok = tri_ok(all_zero(r for residuals in family.values() for r in residuals))

    sl2 = StructureFunctions(
        c011=KCH.zero(), c012=-KAPPA, c021=-KAPPA,
        c022=KCH.zero(), c121=KCH.zero(), c122=KCH.zero(),
    )
    family2 = eta_residuals(FrameContext(sf=sl2, chart=KCH))
    ok &= tri_ok(all_zero(r for residuals in family2.values() for r in residuals))
    ok &= tri_ok(all_zero(family2["codifferential_identities"]))
    assert verdict("criterion 7: eta-form closure and codifferential identities "
                   "on the flat fixtures", bool(ok))


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_poisson_pipeline(martinet_frame, heisenberg_frame):
    for frame in (heisenberg_frame, martinet_frame):
        app = build_apparatus(frame)
        ctx = FrameContext(app)
        assert tri_ok(vertical_form_residual(app, ctx.sf).is_zero())
    rng = random.Random(88001)
    for i in range(20):
        frame = random_frame(rng, CH)
        app = build_apparatus(frame)
        ctx = FrameContext(app)
        assert tri_ok(vertical_form_residual(app, ctx.sf).is_zero()), f"case {i}"
    assert verdict("criterion 8: Poisson-bracket pipeline residual zero on "
                   "fixtures and 20 random frames", True)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_ode_bridge():
    cases = [ODE_CHART.zero(), parse_expr("x*p", ODE_CHART),
             parse_expr("(1+2*x)*exp(u) + (x+x^2)*exp(u)*p", ODE_CHART)]
    for q in cases:
        s = build_from_ode(q)
        ctx = FrameContext(build_apparatus(s.frame))
        checks = null_bundle_residuals(s, ctx.apparatus)
        assert all(tri_ok(all_zero(v)) for v in checks.values()), render_expr(q)
        inv = ctx.inv
        assert inv.chi is not None and inv.kappa is not None
        classify(ctx)
    assert verdict("criterion 9: ODE conformal-class pipeline on the three "
                   "reference equations", True)


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_kernel_suite():
    rng = random.Random(77002)
    from .randgen import random_rational
    from sublorentz.calculus import differential, exterior_derivative, one_form
    from sublorentz.parsing import parse_expr as pe, render_expr as re_

    for i in range(60):
        e = random_rational(rng, CH)
        once = Expr(e.chart, e.sym)
        assert Expr(once.chart, once.sym) == once == e
        assert pe(re_(e), CH) == e

    for i in range(25):
        f = random_polynomial(rng, CH)
        assert tri_ok(all_zero(exterior_derivative(differential(f)).components))
        alpha = one_form(CH, *(random_polynomial(rng, CH) for _ in range(3)))
        # d of the 2-form d(alpha) = b12 dx^dy + b13 dx^dz + b23 dy^dz
        b12, b13, b23 = exterior_derivative(alpha).components
        assert tri_ok((b23.diff("x") - b13.diff("y") + b12.diff("z")).is_zero())

    for i in range(25):
        X, Y, Z = (random_field(rng, CH) for _ in range(3))
        jac = (
            lie_bracket(lie_bracket(X, Y), Z)
            + lie_bracket(lie_bracket(Y, Z), X)
            + lie_bracket(lie_bracket(Z, X), Y)
        )
        assert tri_ok(all_zero(jac.components))
        lhs = poisson_bracket(fiber_linear(X), fiber_linear(Y))
        assert tri_ok((lhs - fiber_linear(lie_bracket(X, Y))).is_zero())

    assert verdict("criterion 10: kernel laws (idempotence, round trip, d^2 = 0, "
                   "Jacobi, Poisson convention), seed-pinned", True)
