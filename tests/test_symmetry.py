"""Infinitesimal symmetry tests and the fiber-polynomial realization."""

import random

import pytest

from sublorentz.calculus import lie_bracket
from sublorentz.contact import build_apparatus
from sublorentz.errors import DistributionNotPreserved, UnknownSymbol
from sublorentz.expr import Chart, Tri, all_zero
from sublorentz.invariants import FrameContext, compute_invariants
from sublorentz.parsing import parse_expr, parse_field, render_expr
from sublorentz.symmetry import (
    binomial_identity_check,
    conformal_factor,
    fiber_linear,
    geodesic_hamiltonian,
    poisson_bracket,
    preserves_distribution,
    reeb_lie_derivative,
    restricted_lie_derivative,
    vertical_form_residual,
)

from .randgen import random_field, random_frame

CH = Chart(("x", "y", "z"))


def fld(text):
    return parse_field(text, CH)


BOOST = "y*d/dx + x*d/dy"
DILATION = "x*d/dx + y*d/dy + 2*z*d/dz"


class TestPreservesDistribution:
    def test_boost_preserves(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        assert preserves_distribution(fld(BOOST), app) is Tri.TRUE

    def test_shear_does_not(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        assert preserves_distribution(fld("z*d/dx"), app) is Tri.FALSE

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_reeb_always_preserves(self, fixture, request):
        app = build_apparatus(request.getfixturevalue(fixture))
        assert preserves_distribution(app.x0, app) is Tri.TRUE


class TestRestrictedLieDerivative:
    def test_martinet_reeb_is_twice_h_bar(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        L = restricted_lie_derivative(app.x0, app)
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
        L = restricted_lie_derivative(app.x0, app)
        assert all_zero([e for row in L for e in row]) is Tri.TRUE

    def test_dilation_field_gives_twice_metric(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        L = restricted_lie_derivative(fld(DILATION), app)
        assert [[str(e.sym) for e in row] for row in L] == [["-2", "0"], ["0", "2"]]

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_two_routes_agree(self, fixture, request):
        """Bracket-level derivative along the Reeb field equals the
        structure-function route on every fixture."""
        app = build_apparatus(request.getfixturevalue(fixture))
        ctx = FrameContext(app)
        direct = restricted_lie_derivative(app.x0, app)
        via_sf = reeb_lie_derivative(ctx.sf, app.chart)
        resid = [direct[i][j] - via_sf[i][j] for i in range(2) for j in range(2)]
        assert all_zero(resid) is Tri.TRUE

    def test_higher_order_iteration(self, martinet_frame):
        # ad_X0 X2 = -(1/y^2) X1 and X0 kills functions of y, so the second
        # derivative is [[0, 0], [0, -2/y^4]]
        app = build_apparatus(martinet_frame)
        second = restricted_lie_derivative(app.x0, app, order=2)
        assert (second[0][1] - second[1][0]).is_zero() is Tri.TRUE
        assert second[0][0].is_zero() is Tri.TRUE
        assert second[1][1] == -2 / CH.var("y") ** 4

    def test_requires_preserving_field(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        with pytest.raises(DistributionNotPreserved):
            restricted_lie_derivative(fld("z*d/dx"), app)


class TestConformalFactor:
    def test_boost_is_isometry(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        verdict = conformal_factor(fld(BOOST), app)
        assert verdict.kind == "isometry"

    def test_dilation_is_conformal_mu_two(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        verdict = conformal_factor(fld(DILATION), app)
        assert verdict.kind == "conformal"
        assert verdict.mu == CH.number(2)

    def test_martinet_reeb_is_neither(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        assert conformal_factor(app.x0, app).kind == "neither"

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_reeb_isometry_iff_h_tilde_zero(self, fixture, request):
        app = build_apparatus(request.getfixturevalue(fixture))
        ctx = FrameContext(app)
        verdict = conformal_factor(app.x0, app)
        assert (verdict.kind == "isometry") == (ctx.h_tilde_zero is Tri.TRUE)


class TestBracketSeriesIdentity:
    def test_boost_residuals_vanish(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        for n in (2, 3):
            resid = binomial_identity_check(fld(BOOST), app, n)
            assert all_zero(resid) is Tri.TRUE

    def test_reeb_on_heisenberg_trivial(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        resid = binomial_identity_check(app.x0, app, 2)
        assert all_zero(resid) is Tri.TRUE

    def test_conformal_residual_is_flow_derivative_of_factor(self, heisenberg_frame):
        """For a non-isometric conformal field the series does NOT vanish:
        with ad X_i = -X_i the n-th residual equals (-mu)^n g(X_i, X_j),
        here mu = 2.  The identity is specific to isometries."""
        app = build_apparatus(heisenberg_frame)
        Z = fld(DILATION)
        for n in (2, 3):
            r = binomial_identity_check(Z, app, n)
            expected = ((-2) ** n * CH.number(-1), CH.zero(), (-2) ** n * CH.one())
            assert all((a - b).is_zero() is Tri.TRUE for a, b in zip(r, expected))

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
        frame momenta, via both the matrix-inversion route and polarization."""
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
