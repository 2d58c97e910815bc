"""Second-order ODEs as conformal classes of contact sub-Lorentzian metrics."""

import random

import pytest

from sublorentz import expr as ex
from sublorentz.calculus import evaluate
from sublorentz.contact import build_apparatus
from sublorentz.expr import Tri, all_zero
from sublorentz.invariants import FrameContext, classify, compute_invariants
from sublorentz.ode_bridge import (
    ODE_CHART,
    build_from_ode,
    null_bundle_residuals,
)
from sublorentz.parsing import parse_expr, render_expr, render_field

from .randgen import random_polynomial


RIGID_Q = "(1+2*x)*exp(u) + (x+x^2)*exp(u)*p"


def q_expr(text):
    return parse_expr(text, ODE_CHART)


class TestBuild:
    def test_linear_equation(self):
        s = build_from_ode(ODE_CHART.zero())
        assert render_field(s.n1) == "d/dx + p*d/du"
        assert render_field(s.frame.x1) == "1/2*d/dx + p/2*d/du + 1/2*d/dp"
        assert render_field(s.frame.x2) == "1/2*d/dx + p/2*d/du - 1/2*d/dp"

    def test_contact_everywhere(self):
        for q in (ODE_CHART.zero(), q_expr("x*p"), q_expr(RIGID_Q)):
            det = build_apparatus(build_from_ode(q).frame).contact_det
            assert det.is_rational_constant()
            assert det.is_zero() is Tri.FALSE

    def test_rigid_rhs_expansion(self):
        # the total-derivative expansion of ((x + x^2) e^u)', built by arithmetic
        x, u, p = (ODE_CHART.var(n) for n in ("x", "u", "p"))
        eu = ex.exp(u)
        expansion = (1 + 2 * x) * eu + (x + x * x) * eu * p
        assert (q_expr(RIGID_Q) - expansion).is_zero() is Tri.TRUE

    def test_wrong_chart_rejected(self):
        from sublorentz.expr import Chart

        with pytest.raises(ValueError):
            build_from_ode(Chart(("x", "y", "z")).zero())


def null_bundle_verdicts(s) -> dict:
    return {name: all_zero(residuals)
            for name, residuals in null_bundle_residuals(s, build_apparatus(s.frame)).items()}


class TestNullBundles:
    @pytest.mark.parametrize("q_text", ["0", "x*p", "u^2"])
    def test_assertions_hold(self, q_text):
        checks = null_bundle_verdicts(build_from_ode(q_expr(q_text)))
        assert all(v is Tri.TRUE for v in checks.values()), checks

    def test_rigid_example(self):
        checks = null_bundle_verdicts(build_from_ode(q_expr(RIGID_Q)))
        assert all(v is Tri.TRUE for v in checks.values())

    def test_randomized(self):
        rng = random.Random(1799)
        for _ in range(15):
            q = random_polynomial(rng, ODE_CHART)
            s = build_from_ode(q)
            assert evaluate(s.omega1, [s.frame.x1]).is_zero() is Tri.TRUE
            assert evaluate(s.omega1, [s.frame.x2]).is_zero() is Tri.TRUE
            assert all(v is Tri.TRUE for v in null_bundle_verdicts(s).values())


class TestInvariantsPipeline:
    def test_linear_equation_regression_anchor(self):
        """Frozen invariants of the symmetric representative for u'' = 0:
        the frame is flat ([X2,X1] = -d/du/2 = X0 exactly, all other brackets
        vanish), so every structure function and invariant is zero."""
        s = build_from_ode(ODE_CHART.zero())
        ctx = FrameContext(build_apparatus(s.frame))
        assert all(v.is_zero() is Tri.TRUE for v in ctx.sf.as_dict().values())
        inv = compute_invariants(ctx.sf, ctx)
        assert ctx.h_tilde_zero is Tri.TRUE
        assert render_expr(inv.chi) == "0"
        assert render_expr(inv.kappa) == "0"
        got = classify(ctx)
        assert got.label == "Heisenberg"
        assert got.scope == "pointwise"

    def test_rigid_example_completes(self):
        s = build_from_ode(q_expr(RIGID_Q))
        ctx = FrameContext(build_apparatus(s.frame))
        inv = compute_invariants(ctx.sf, ctx)
        assert inv.kappa is not None
        got = classify(ctx)
        assert got.label in ("NullKernelCase", "Generic", "Undecided")

    def test_xp_example_completes(self):
        s = build_from_ode(q_expr("x*p"))
        ctx = FrameContext(build_apparatus(s.frame))
        inv = compute_invariants(ctx.sf, ctx)
        assert inv.chi is not None and inv.kappa is not None
