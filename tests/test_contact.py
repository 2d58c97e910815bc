"""Contact apparatus: normalized form, Reeb field, coframe, degeneracy locus."""

import random

import pytest

from sublorentz.calculus import combine, evaluate, exterior_derivative, wedge
from sublorentz.contact import Frame, apparatus_residuals, build_apparatus
from sublorentz.errors import DegenerateFrame
from sublorentz.expr import Chart, Tri, all_zero
from sublorentz.invariants import hyperbolic, hyperbolic_rotate
from sublorentz.parsing import parse_expr, parse_field, render_expr

from .randgen import random_frame, random_theta

CH = Chart(("x", "y", "z"))


def exp_(text, chart=CH):
    return parse_expr(text, chart)


class TestNormalizedContactForm:
    def test_martinet_golden(self, martinet_frame):
        omega = build_apparatus(martinet_frame).omega
        assert [render_expr(c) for c in omega.components] == ["-y/3", "x/3", "2/(3*y)"]

    def test_heisenberg_derived(self, heisenberg_frame):
        omega = build_apparatus(heisenberg_frame).omega
        assert [render_expr(c) for c in omega.components] == ["-y/2", "x/2", "-1"]

    def test_degenerate_frame(self):
        x1 = parse_field("d/dx + y*d/dz", CH)
        f = exp_("x + y")
        x2 = combine([(f, x1)])
        with pytest.raises(DegenerateFrame):
            build_apparatus(Frame(CH, x1, x2))


class TestReebField:
    def test_martinet_golden(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        assert [render_expr(c) for c in app.x0.components] == ["-1/y", "0", "y"]

    def test_heisenberg_derived(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        assert [str(c.sym) for c in app.x0.components] == ["0", "0", "-1"]

    def test_defining_property(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        assert (evaluate(app.omega, [app.x0]) - 1).is_zero() is Tri.TRUE


class TestDualCoframe:
    def test_nu0_equals_omega(self, heisenberg_frame):
        app = build_apparatus(heisenberg_frame)
        diff = combine([(CH.one(), app.nu0), (-CH.one(), app.omega)])
        assert all_zero(diff.components) is Tri.TRUE

    def test_duality_pairings(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        assert evaluate(app.nu1, [app.frame.x2]).is_zero() is Tri.TRUE
        assert (evaluate(app.nu1, [app.frame.x1]) - 1).is_zero() is Tri.TRUE

    def test_coframe_differential_identity(self, martinet_frame):
        app = build_apparatus(martinet_frame)
        residual = combine([(CH.one(), exterior_derivative(app.nu0)),
                            (-CH.one(), wedge(app.nu1, app.nu2))])
        assert all_zero(residual.components) is Tri.TRUE


class TestContactLocus:
    def test_martinet_surface(self, martinet_frame):
        det = build_apparatus(martinet_frame).contact_det
        assert det == exp_("-3*y/2")
        # zero set is exactly {y = 0}
        assert (det / exp_("y")).is_rational_constant()

    def test_heisenberg_everywhere_contact(self, heisenberg_frame):
        det = build_apparatus(heisenberg_frame).contact_det
        assert det.is_rational_constant()
        assert det.is_zero() is Tri.FALSE

    def test_integrable_plane_field(self):
        frame = Frame(CH, parse_field("d/dx", CH), parse_field("d/dy", CH))
        with pytest.raises(DegenerateFrame):
            build_apparatus(frame)


class TestApparatusInvariants:
    @pytest.mark.parametrize("fixture", [
        "martinet_frame", "heisenberg_frame", "random0", "random1", "random2", "martinet_rotated",
    ])
    def test_all_defining_identities(self, fixture, request):
        if fixture.startswith("random"):
            rng = random.Random(7070)
            frame = [random_frame(rng, CH) for _ in range(3)][int(fixture[-1])]
        elif fixture == "martinet_rotated":
            frame = hyperbolic_rotate(request.getfixturevalue("martinet_frame"), *hyperbolic(exp_("x*y")))
        else:
            frame = request.getfixturevalue(fixture)
        checks = apparatus_residuals(build_apparatus(frame))
        assert all(all_zero(v) is Tri.TRUE for v in checks.values()), checks

    def test_reeb_rotation_invariance(self, martinet_frame):
        """The contact form and Reeb field depend only on the structure, not
        on the frame: any hyperbolic rotation yields the same omega and X0."""
        rng = random.Random(5551212)
        app = build_apparatus(martinet_frame)
        for _ in range(3):
            theta = random_theta(rng, CH)
            rotated = build_apparatus(hyperbolic_rotate(martinet_frame, *hyperbolic(theta)))
            one = CH.one()
            assert all_zero(combine([(one, rotated.omega), (-one, app.omega)]).components) is Tri.TRUE
            assert all_zero(combine([(one, rotated.x0), (-one, app.x0)]).components) is Tri.TRUE
