"""Infinitesimal symmetry tests and the fiber-polynomial realization."""

import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from sublorentz.calculus import combine, lie_bracket
from sublorentz.contact import Frame, build_apparatus
from sublorentz.errors import DistributionNotPreserved, UnknownSymbol
from sublorentz.expr import Chart, Residual, Tri, all_zero
from sublorentz.invariants import FrameContext, compute_invariants, hyperbolic, hyperbolic_rotate
from sublorentz.parsing import parse_expr, parse_field, parse_structure_file, render_expr
from sublorentz.symmetry import (
    Candidate,
    fiber_linear,
    geodesic_hamiltonian,
    poisson_bracket,
    reeb_lie_derivative,
    vertical_form_residual,
)

from .randgen import random_field, random_frame

CH = Chart(("x", "y", "z"))


def fld(text):
    return parse_field(text, CH)


BOOST = "y*d/dx + x*d/dy"
DILATION = "x*d/dx + y*d/dy + 2*z*d/dz"
UNDECIDED = "(sinh(2*x) - 2*sinh(x)*cosh(x))*z*d/dx"


@pytest.fixture(scope="module")
def martinet_rotated_frame(martinet_frame):
    return hyperbolic_rotate(martinet_frame, *hyperbolic(parse_expr("x*y", CH)))


@pytest.fixture(scope="module")
def heisenberg_rotated_frame(heisenberg_frame):
    return hyperbolic_rotate(heisenberg_frame, *hyperbolic(parse_expr("x*y", CH)))


class TestPreservesDistribution:
    def test_boost_preserves(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        assert Candidate(fld(BOOST), app).preserved is Tri.TRUE

    def test_shear_does_not(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        assert Candidate(fld("z*d/dx"), app).preserved is Tri.FALSE

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_reeb_always_preserves(self, fixture, request):
        app = build_apparatus(request.getfixturevalue(fixture))
        assert Candidate(app.x0, app).preserved is Tri.TRUE


class TestRestrictedLieDerivative:
    def test_martinet_reeb_is_twice_h_bar(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        L = Candidate(app.x0, app).lie_derivative()
        assert [[render_expr(e) for e in row] for row in L] == [
            ["0", "-1/y^2"],
            ["-1/y^2", "0"],
        ]
        ctx = FrameContext(app)
        inv = compute_invariants(ctx.sf, ctx)
        resid = [L[i][j] - 2 * inv.h_bar[i][j] for i in range(2) for j in range(2)]
        assert all_zero(resid) is Tri.TRUE

    def test_heisenberg_reeb_vanishes(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        L = Candidate(app.x0, app).lie_derivative()
        assert all_zero([e for row in L for e in row]) is Tri.TRUE

    def test_dilation_field_gives_twice_metric(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        L = Candidate(fld(DILATION), app).lie_derivative()
        assert [[str(e.sym) for e in row] for row in L] == [["-2", "0"], ["0", "2"]]

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_two_routes_agree(self, fixture, request):
        """Bracket-level derivative along the Reeb field equals the
        structure-function route on every fixture."""
        app = build_apparatus(request.getfixturevalue(fixture))
        ctx = FrameContext(app)
        direct = Candidate(app.x0, app).lie_derivative()
        via_sf = reeb_lie_derivative(ctx.sf, app.chart)
        resid = [direct[i][j] - via_sf[i][j] for i in range(2) for j in range(2)]
        assert all_zero(resid) is Tri.TRUE

    def test_higher_order_iteration(self, martinet_frame):
        # ad_X0 X2 = -(1/y^2) X1 and X0 kills functions of y, so the second
        # derivative is [[0, 0], [0, -2/y^4]]
        app = build_apparatus(martinet_frame)
        second = Candidate(app.x0, app).lie_derivative(order=2)
        assert (second[0][1] - second[1][0]).is_zero() is Tri.TRUE
        assert second[0][0].is_zero() is Tri.TRUE
        assert second[1][1] == -2 / CH.var("y") ** 4

    def test_requires_preserving_field(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        with pytest.raises(DistributionNotPreserved):
            Candidate(fld("z*d/dx"), app).lie_derivative()


class TestConformalFactor:
    def test_boost_is_isometry(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        verdict = Candidate(fld(BOOST), app).verdict
        assert verdict.kind == "isometry"

    def test_dilation_is_conformal_mu_two(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        verdict = Candidate(fld(DILATION), app).verdict
        assert verdict.kind == "conformal"
        assert verdict.mu == CH.number(2)

    def test_martinet_reeb_is_neither(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        assert Candidate(app.x0, app).verdict.kind == "neither"

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame",
                                         "martinet_rotated_frame", "heisenberg_rotated_frame"])
    def test_reeb_isometry_iff_h_tilde_zero(self, fixture, request):
        app = build_apparatus(request.getfixturevalue(fixture))
        ctx = FrameContext(app)
        verdict = Candidate(app.x0, app).verdict
        assert (verdict.kind == "isometry") == (ctx.h_tilde_zero is Tri.TRUE)


class TestCandidateEdges:
    """A candidate that moves the distribution, or whose preservation is
    undecided, has a verdict but no Lie derivative and no bracket series."""

    @pytest.mark.parametrize("field, preserved, kind", [
        ("z*d/dx", Tri.FALSE, "neither"),
        (UNDECIDED, Tri.UNKNOWN, "unknown"),
    ])
    def test_verdict_without_derivative(self, heisenberg_frame, field, preserved, kind):
        candidate = Candidate(fld(field), build_apparatus(heisenberg_frame))
        assert candidate.preserved is preserved
        assert candidate.verdict.kind == kind
        assert candidate.verdict.mu is None
        with pytest.raises(DistributionNotPreserved):
            candidate.lie_derivative()
        with pytest.raises(DistributionNotPreserved):
            candidate.series_residuals(2)


class TestBracketSeriesIdentity:
    def test_boost_residuals_vanish(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        for n in (2, 3):
            resid = Candidate(fld(BOOST), app).series_residuals(n)
            assert all_zero(resid) is Tri.TRUE

    def test_reeb_on_heisenberg_trivial(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        resid = Candidate(app.x0, app).series_residuals(2)
        assert all_zero(resid) is Tri.TRUE

    def test_conformal_residual_is_flow_derivative_of_factor(self, heisenberg_frame):
        """For a non-isometric conformal field the series does NOT vanish:
        with ad X_i = -X_i the n-th residual equals (-mu)^n g(X_i, X_j),
        here mu = 2.  The identity is specific to isometries."""
        app = build_apparatus(heisenberg_frame)
        Z = fld(DILATION)
        for n in (2, 3):
            r = Candidate(Z, app).series_residuals(n)
            expected = ((-2) ** n * CH.number(-1), CH.zero(), (-2) ** n * CH.one())
            assert all((a.value() - b).is_zero() is Tri.TRUE for a, b in zip(r, expected))

class TestPoissonBracket:
    def test_convention_pinned_by_bracket_compatibility(self):
        rng = random.Random(31337)
        for _ in range(20):
            X = random_field(rng, CH)
            Y = random_field(rng, CH)
            lhs = poisson_bracket(fiber_linear(X), fiber_linear(Y))
            rhs = fiber_linear(lie_bracket(X, Y))
            assert (lhs - rhs).is_zero() is Tri.TRUE

    def test_antisymmetry_self(self):
        F = fiber_linear(fld("y*d/dx + x^2*d/dz"))
        G = F * F
        assert poisson_bracket(G, G).is_zero() is Tri.TRUE

    def test_momentum_name_collision_rejected(self):
        chart = Chart(("x", "y", "P_x"))
        with pytest.raises(UnknownSymbol):
            fiber_linear(parse_field("d/dx", chart))

    def test_martinet_commuting_pair(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        h1 = fiber_linear(app.frame.x1)
        h0 = fiber_linear(app.x0)
        # [X1, X0] = 0 so the fiber-linear functions Poisson-commute
        assert poisson_bracket(h1, h0).is_zero() is Tri.TRUE


class TestFrameMomenta:
    def test_martinet_reexpression(self, martinet_frame):
        """{h, h0} on the degenerate-surface fixture equals (1/y^2) h1 h2 in
        frame momenta, and its quadratic form has the one entry 1/(2*y^2)."""
        from sublorentz.symmetry import momenta_to_frame, quadratic_frame_matrix

        app = build_apparatus(martinet_frame)
        h = geodesic_hamiltonian(app.frame.x1, app.frame.x2)
        h0 = fiber_linear(app.x0)
        bracket = poisson_bracket(h, h0)

        in_frame = momenta_to_frame(app, bracket)
        h1, h2, y = (in_frame.chart.var(n) for n in ("H1", "H2", "y"))
        assert (in_frame - h1 * h2 / y ** 2).is_zero() is Tri.TRUE

        q = quadratic_frame_matrix(app, bracket)
        assert render_expr(q[1][2]) == "1/(2*y^2)"
        assert all_zero([q[0][0], q[0][1], q[0][2], q[1][1], q[2][2]]) is Tri.TRUE


HEISENBERG_SYMMETRY = parse_structure_file(
    (Path(__file__).resolve().parents[1] / "perfbench" / "heisenberg_symmetry.txt").read_text())


def hamiltonian_agrees(frame: Frame, Z) -> str:
    """Check a decided `Candidate` verdict of Z against the Hamiltonian
    route, and return the verdict.  With h the geodesic Hamiltonian and h_Z
    the fiber-linear function of Z, Z is an isometry exactly when
    {h, h_Z} = 0, and conformal with factor mu exactly when
    {h, h_Z} = mu*h; otherwise {h, h_Z}/h depends on the momenta."""
    verdict = Candidate(Z, build_apparatus(frame)).verdict
    h = geodesic_hamiltonian(frame.x1, frame.x2)
    phase = h.chart
    bracket = poisson_bracket(h, fiber_linear(Z))
    if verdict.kind != "unknown":
        assert (bracket.is_zero() is Tri.TRUE) == (verdict.kind == "isometry")
    if verdict.kind == "conformal":
        assert Residual(phase, [(bracket,), (-verdict.mu.lift(phase), h)]).is_zero() is Tri.TRUE
    if verdict.kind == "neither":
        ratio = bracket / h
        momenta = phase.coords[3:3 + len(frame.chart.coords)]
        assert any(ratio.diff(p).is_zero() is Tri.FALSE for p in momenta)
    return verdict.kind


class TestHamiltonianRoute:
    """The fiber side decides the same verdicts as `Candidate`."""

    def test_fixture_fields(self):
        defn = HEISENBERG_SYMMETRY
        frame = Frame(defn.chart, defn.x1, defn.x2)
        kinds = {name: hamiltonian_agrees(frame, Z) for name, Z in defn.symmetry_fields}
        assert kinds == {"Z": "isometry", "W": "conformal", "V": "neither"}

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_combinations_of_the_boost_and_the_dilation(self, a, b):
        defn = HEISENBERG_SYMMETRY
        fields = dict(defn.symmetry_fields)
        chart = defn.chart
        Z = combine([(chart.number(a), fields["Z"]), (chart.number(b), fields["W"])])
        kind = hamiltonian_agrees(Frame(chart, defn.x1, defn.x2), Z)
        assert kind == ("conformal" if b else "isometry")

    @pytest.mark.parametrize("fixture", ["heisenberg_frame", "martinet_frame"])
    @given(seed=st.integers(0, 2 ** 32))
    def test_polynomial_fields(self, fixture, request, seed):
        frame = request.getfixturevalue(fixture)
        hamiltonian_agrees(frame, random_field(random.Random(seed), CH, max_degree=2))


class TestVerticalFormResidual:
    def test_heisenberg(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        ctx = FrameContext(app)
        assert vertical_form_residual(app, ctx.sf).is_zero() is Tri.TRUE

    def test_martinet(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        ctx = FrameContext(app)
        assert vertical_form_residual(app, ctx.sf).is_zero() is Tri.TRUE

    def test_random_polynomial_frames(self):
        rng = random.Random(60606)
        for _ in range(5):
            frame = random_frame(rng, CH)
            app = build_apparatus(frame)
            ctx = FrameContext(app)
            assert vertical_form_residual(app, ctx.sf).is_zero() is Tri.TRUE
