"""Structure functions, the invariants h_tilde/chi/kappa, frame
transformations and their exact transformation laws, and classification."""

import random

import pytest

from sublorentz.calculus import combine, lie_bracket
from sublorentz.contact import Frame, build_apparatus
from sublorentz.errors import HTildeNonzero, ThetaInvalid, TraceViolation
from sublorentz.expr import Chart, Expr, Tri, all_zero
from sublorentz.invariants import (
    FrameContext,
    StructureFunctions,
    classify,
    compute_invariants,
    dilate,
    eta_residuals,
    hyperbolic,
    hyperbolic_rotate,
    rotated_structure_functions,
    structure_functions,
    verify_normalizing_theta,
)
from sublorentz.parsing import parse_expr, parse_structure_file, render_expr, render_field

from .randgen import random_frame, random_theta

CH = Chart(("x", "y", "z"))
KCH = Chart((), ("kappa",))


def exp_(text, chart=CH):
    return parse_expr(text, chart)


def const_sf(**values):
    fields = {k: parse_expr(v, KCH) for k, v in values.items()}
    for key in ("c011", "c012", "c021", "c022", "c121", "c122"):
        fields.setdefault(key, KCH.zero())
    return StructureFunctions(**fields)


SL2_E = const_sf(c012="-kappa", c021="-kappa")
SL2_N = const_sf(c011="kappa", c022="-kappa")
HEIS = const_sf()


class TestStructureFunctions:
    def test_martinet_golden(self, martinet_frame):
        sf = structure_functions(build_apparatus(martinet_frame))
        assert render_expr(sf.c121) == "1/y"
        assert render_expr(sf.c021) == "1/y^2"
        for name in ("c011", "c012", "c022", "c122"):
            assert getattr(sf, name).is_zero() is Tri.TRUE

    def test_heisenberg_all_zero(self, heisenberg_frame):
        sf = structure_functions(build_apparatus(heisenberg_frame))
        assert all(v.is_zero() is Tri.TRUE for v in sf.as_dict().values())

    def test_abstract_fixture_echoed(self):
        ctx = FrameContext(sf=SL2_E, chart=KCH)
        assert ctx.sf.c012 == -KCH.var("kappa")

    def test_trace_violation_rejected(self):
        """Constants read from an [algebra] file are outside input, so the
        parser checks c01^1 + c02^2 = 0; for a frame or a catalog marking
        the identity is a theorem, and its check decides it once."""
        bad = "[params]\nnames = kappa\n[algebra]\nc011 = kappa\nc022 = kappa\n"
        with pytest.raises(TraceViolation, match=r"c01\^1 \+ c02\^2 does not vanish"):
            parse_structure_file(bad)


class TestInvariants:
    def test_martinet_golden(self, martinet_frame):
        ctx = FrameContext(build_apparatus(martinet_frame))
        inv = compute_invariants(ctx.sf, ctx)
        assert render_expr(inv.chi) == "1/(4*y^4)"
        assert render_expr(inv.kappa) == "-5/(2*y^2)"
        assert [[render_expr(e) for e in row] for row in inv.h_tilde] == [
            ["0", "1/(2*y^2)"],
            ["-1/(2*y^2)", "0"],
        ]
        assert (inv.h_tilde[0][0] + inv.h_tilde[1][1]).is_zero() is Tri.TRUE

    def test_h_bar_flips_first_row(self, martinet_frame):
        ctx = FrameContext(build_apparatus(martinet_frame))
        inv = compute_invariants(ctx.sf, ctx)
        assert (inv.h_bar[0][0] + inv.h_tilde[0][0]).is_zero() is Tri.TRUE
        assert (inv.h_bar[0][1] + inv.h_tilde[0][1]).is_zero() is Tri.TRUE
        assert (inv.h_bar[1][1] - inv.h_tilde[1][1]).is_zero() is Tri.TRUE

    def test_sl2_orthonormal_mark(self):
        ctx = FrameContext(sf=SL2_E, chart=KCH)
        inv = compute_invariants(SL2_E, ctx)
        assert ctx.h_tilde_zero is Tri.TRUE
        assert inv.kappa == KCH.var("kappa")

    def test_sl2_null_mark(self):
        ctx = FrameContext(sf=SL2_N, chart=KCH)
        inv = compute_invariants(SL2_N, ctx)
        kappa = KCH.var("kappa")
        assert inv.h_tilde[0][0] == kappa
        assert inv.h_tilde[1][1] == -kappa
        assert inv.h_tilde[0][1].is_zero() is Tri.TRUE
        assert inv.chi == -(kappa ** 2)

    def test_eq1_random_frames(self):
        rng = random.Random(424242)
        for _ in range(10):
            frame = random_frame(rng, CH)
            sf = structure_functions(build_apparatus(frame))
            assert (sf.c011 + sf.c022).is_zero() is Tri.TRUE


def _oracle_frames(martinet_frame, heisenberg_frame):
    """Ten seeded random frames, and martinet and heisenberg each rotated by
    a seeded random theta, which puts cosh and sinh in their brackets."""
    rng = random.Random(20240)
    frames = [random_frame(rng, CH) for _ in range(10)]
    return frames + [hyperbolic_rotate(f, *hyperbolic(random_theta(rng, CH)))
                     for f in (martinet_frame, heisenberg_frame)]


def test_structure_functions_match_the_reeb_brackets(martinet_frame, heisenberg_frame):
    """Oracle for reading c0j^i off [Xj,[X2,X1]]: bracketing with the Reeb
    field itself gives [X1,X0] = c011 X1 + c012 X2, [X2,X0] = c021 X1 +
    c022 X2 and [X2,X1] - X0 = c121 X1 + c122 X2, each decided TRUE."""
    for frame in _oracle_frames(martinet_frame, heisenberg_frame):
        app = build_apparatus(frame)
        sf = structure_functions(app)
        x0, x1, x2 = app.marked_fields
        one = CH.one()
        expected = (
            (lie_bracket(x1, x0), sf.c011, sf.c012),
            (lie_bracket(x2, x0), sf.c021, sf.c022),
            (combine([(one, lie_bracket(x2, x1)), (-one, x0)]), sf.c121, sf.c122),
        )
        for bracket, c1, c2 in expected:
            residual = combine([(one, bracket), (-c1, x1), (-c2, x2)])
            assert all_zero(residual.components) is Tri.TRUE, render_field(frame.x2)


def eta_holds(ctx) -> Tri:
    return all_zero(r for residuals in eta_residuals(ctx).values() for r in residuals)


class TestEtaCheck:
    def test_heisenberg_trivially_holds(self, heisenberg_frame):
        ctx = FrameContext(build_apparatus(heisenberg_frame))
        assert eta_holds(ctx) is Tri.TRUE
        # the coefficients of eta: kappa + c02^1, c12^1 and c12^2
        coefficients = (ctx.inv.kappa + ctx.sf.c021, ctx.sf.c121, ctx.sf.c122)
        assert all(c.is_zero() is Tri.TRUE for c in coefficients)

    def test_abstract_sl2_holds(self):
        ctx = FrameContext(sf=SL2_E, chart=KCH)
        assert eta_holds(ctx) is Tri.TRUE
        # kappa + c = kappa - kappa = 0: eta vanishes identically
        assert (ctx.inv.kappa + ctx.sf.c021).is_zero() is Tri.TRUE

    def test_martinet_rejected(self, martinet_frame):
        ctx = FrameContext(build_apparatus(martinet_frame))
        with pytest.raises(HTildeNonzero):
            eta_residuals(ctx)


class TestNullKernel:
    """classify's witness where chi = 0 and h_tilde != 0: the null direction
    that h_tilde annihilates."""

    def test_case_minus(self):
        sf = const_sf(c011="1", c022="-1", c021="1", c012="-1")
        got = classify(FrameContext(sf=sf, chart=KCH))
        assert got.label == "NullKernelCase"
        assert got.witness == {"direction": "X1-X2", "coefficients": (1, -1)}

    def test_case_plus(self):
        sf = const_sf(c011="1", c022="-1", c021="-1", c012="1")
        got = classify(FrameContext(sf=sf, chart=KCH))
        assert got.witness == {"direction": "X1+X2", "coefficients": (1, 1)}

    def test_kernel_direction_is_annihilated(self):
        sf = const_sf(c011="1", c022="-1", c021="1", c012="-1")
        ctx = FrameContext(sf=sf, chart=KCH)
        a, b = classify(ctx).witness["coefficients"]
        for i in range(2):
            image = ctx.inv.h_tilde[i][0] * a + ctx.inv.h_tilde[i][1] * b
            assert image.is_zero() is Tri.TRUE
        # g(v, v) = -a^2 + b^2 = 0 for a = 1, b = -+1
        assert -a * a + b * b == 0

    def test_h_tilde_zero_gives_none(self):
        got = classify(FrameContext(sf=HEIS, chart=KCH))
        assert (got.label, got.witness) == ("Heisenberg", {})

    def test_chi_nonzero_gives_none(self, martinet_frame):
        got = classify(FrameContext(build_apparatus(martinet_frame)))
        assert (got.label, got.witness) == ("Generic", {})


class TestFrameContextVerdicts:
    """The context decides each verdict at most once, and chi only where
    h_tilde is decided nonzero."""

    def test_classification_decides_each_verdict_once(self, monkeypatch):
        ctx = FrameContext(sf=SL2_N, chart=KCH)
        first = ctx.classification
        calls = []
        monkeypatch.setattr(Expr, "is_zero", lambda self: calls.append(self))
        assert ctx.classification is first
        assert (ctx.h_tilde_zero, ctx.chi_zero) == (Tri.FALSE, Tri.FALSE)
        assert calls == []

    def test_chi_left_undecided_where_h_tilde_vanishes(self):
        ctx = FrameContext(sf=SL2_E, chart=KCH)
        assert ctx.classification.label == "SL2Cover"
        assert "chi_zero" not in vars(ctx)


class TestHyperbolicRotation:
    def test_zero_angle_identity(self, martinet_frame):
        rotated = hyperbolic_rotate(martinet_frame, *hyperbolic(CH.zero()))
        one = CH.one()
        assert all_zero(combine([(one, rotated.x1), (-one, martinet_frame.x1)]).components) is Tri.TRUE
        assert all_zero(combine([(one, rotated.x2), (-one, martinet_frame.x2)]).components) is Tri.TRUE

    def test_heisenberg_xy_rotation_kappa_still_zero(self, heisenberg_frame):
        theta = exp_("x*y")
        app = build_apparatus(hyperbolic_rotate(heisenberg_frame, *hyperbolic(theta)))
        ctx = FrameContext(app)
        inv = compute_invariants(ctx.sf, ctx)
        assert inv.kappa.is_zero() is Tri.TRUE

    @pytest.mark.parametrize("fixture", ["martinet_frame", "heisenberg_frame"])
    def test_rotation_formulas_match_direct_route(self, fixture, request):
        """The six transformation formulas for the rotated structure functions
        agree with rebuilding the rotated apparatus from scratch."""
        frame = request.getfixturevalue(fixture)
        rng = random.Random(97 if fixture.startswith("m") else 98)
        ctx = FrameContext(build_apparatus(frame))
        for _ in range(2):
            theta = random_theta(rng, CH)
            via_formula = rotated_structure_functions(ctx.sf, ctx, theta)
            direct = structure_functions(build_apparatus(hyperbolic_rotate(frame, *hyperbolic(theta))))
            for key, value in direct.as_dict().items():
                assert (value - getattr(via_formula, key)).is_zero() is Tri.TRUE, key


class TestDilation:
    def test_scaling_laws_martinet(self, martinet_frame):
        """c12 scales by s and c0j by s^2 (the Reeb field picks up s^2), so
        kappa' = s^2 kappa, chi' = s^4 chi, h_tilde' = s^2 h_tilde."""
        dilated = dilate(martinet_frame, "s")
        chart2 = dilated.chart
        s = chart2.var("s")
        ctx0 = FrameContext(build_apparatus(martinet_frame))
        inv0 = compute_invariants(ctx0.sf, ctx0)
        ctx1 = FrameContext(build_apparatus(dilated))
        inv1 = compute_invariants(ctx1.sf, ctx1)
        lift = lambda e: Expr(chart2, e.sym)  # noqa: E731
        assert (inv1.kappa - s ** 2 * lift(inv0.kappa)).is_zero() is Tri.TRUE
        assert (inv1.chi - s ** 4 * lift(inv0.chi)).is_zero() is Tri.TRUE
        for i in range(2):
            for j in range(2):
                resid = inv1.h_tilde[i][j] - s ** 2 * lift(inv0.h_tilde[i][j])
                assert resid.is_zero() is Tri.TRUE

    def test_structure_function_scaling(self, martinet_frame):
        dilated = dilate(martinet_frame, "s")
        chart2 = dilated.chart
        s = chart2.var("s")
        sf0 = structure_functions(build_apparatus(martinet_frame))
        sf1 = structure_functions(build_apparatus(dilated))
        lift = lambda e: Expr(chart2, e.sym)  # noqa: E731
        assert (sf1.c121 - s * lift(sf0.c121)).is_zero() is Tri.TRUE
        assert (sf1.c021 - s ** 2 * lift(sf0.c021)).is_zero() is Tri.TRUE

    def test_unit_scale_trivial(self, heisenberg_frame):
        dilated = dilate(heisenberg_frame, "s")
        chart2 = dilated.chart
        sf = structure_functions(build_apparatus(dilated))
        ctx = FrameContext(build_apparatus(dilated))
        inv = compute_invariants(sf, ctx)
        unit = {name: value.subs({"s": chart2.one()}) for name, value in (
            ("chi", inv.chi), ("kappa", inv.kappa))}
        assert unit["chi"].is_zero() is Tri.TRUE
        assert unit["kappa"].is_zero() is Tri.TRUE


class TestClassification:
    def test_heisenberg_group_label(self):
        ctx = FrameContext(sf=HEIS, chart=KCH)
        got = classify(ctx)
        assert got.label == "Heisenberg"
        assert got.scope == "group"

    def test_sl2_label_numeric_kappa(self):
        chart = Chart((), ())
        sf = StructureFunctions(
            c011=chart.zero(), c012=chart.number(-3), c021=chart.number(-3),
            c022=chart.zero(), c121=chart.zero(), c122=chart.zero(),
        )
        ctx = FrameContext(sf=sf, chart=chart)
        assert classify(ctx).label == "SL2Cover"

    def test_martinet_pointwise_generic(self, martinet_frame):
        ctx = FrameContext(build_apparatus(martinet_frame))
        got = classify(ctx)
        assert got.label == "Generic"
        assert got.scope == "pointwise"

    def test_null_kernel_label_with_witness(self):
        sf = const_sf(c011="1", c022="-1", c021="1", c012="-1")
        ctx = FrameContext(sf=sf, chart=KCH)
        got = classify(ctx)
        assert got.label == "NullKernelCase"
        assert got.witness["direction"] == "X1-X2"


class TestNormalizingTheta:
    def test_heisenberg_zero_theta_valid(self, heisenberg_frame):
        ctx = FrameContext(build_apparatus(heisenberg_frame))
        report = verify_normalizing_theta(ctx, CH.zero())
        assert report.valid

    def test_heisenberg_x_theta_invalid(self, heisenberg_frame):
        ctx = FrameContext(build_apparatus(heisenberg_frame))
        with pytest.raises(ThetaInvalid):
            verify_normalizing_theta(ctx, CH.var("x"))

    def test_abstract_sl2_zero_theta_valid(self):
        ctx = FrameContext(sf=SL2_E, chart=KCH)
        report = verify_normalizing_theta(ctx, KCH.zero())
        assert report.valid

    def test_martinet_rejected(self, martinet_frame):
        ctx = FrameContext(build_apparatus(martinet_frame))
        with pytest.raises(HTildeNonzero):
            verify_normalizing_theta(ctx, CH.zero())
