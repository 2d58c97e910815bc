"""Seed-pinned random generators for expressions, fields and frames.

All randomness flows through an explicit random.Random instance so that every
suite is reproducible; sizes are kept small because every downstream check is
exact symbolic arithmetic.
"""

from __future__ import annotations

import random

from sublorentz.calculus import VectorField, invert3, lie_bracket
from sublorentz.contact import Frame
from sublorentz.errors import DegenerateFrame
from sublorentz.expr import Chart, Expr, Tri


def random_polynomial(rng: random.Random, chart: Chart, *, max_terms: int = 2,
                      max_degree: int = 2, max_coeff: int = 3,
                      allow_zero: bool = True) -> Expr:
    n_terms = rng.randint(0 if allow_zero else 1, max_terms)
    out = chart.zero()
    for _ in range(n_terms):
        coeff = rng.randint(-max_coeff, max_coeff)
        if coeff == 0:
            coeff = 1
        term = chart.number(coeff)
        degree = rng.randint(0, max_degree)
        for _ in range(degree):
            term = term * chart.var(rng.choice(chart.coords))
        out = out + term
    return out


def random_rational(rng: random.Random, chart: Chart) -> Expr:
    num = random_polynomial(rng, chart)
    den = random_polynomial(rng, chart, allow_zero=False, max_terms=1)
    if den.is_zero() is Tri.TRUE:
        den = chart.one() + chart.var(chart.coords[0]) ** 2
    return num / den


def random_field(rng: random.Random, chart: Chart, **kw) -> VectorField:
    return VectorField(chart, tuple(random_polynomial(rng, chart, **kw) for _ in range(3)))


def random_frame(rng: random.Random, chart: Chart) -> Frame:
    """Random polynomial frame with a decidably invertible coframe.

    Graph-type frames X1 = d/dx + a d/dy + f d/dz, X2 = b d/dx + d/dy + g d/dz
    are generic enough to exercise every structure function while keeping the
    exact linear algebra small.
    """
    one = chart.one()
    zero = chart.zero()
    while True:
        a = random_polynomial(rng, chart, max_terms=1, max_degree=1)
        b = random_polynomial(rng, chart, max_terms=1, max_degree=1)
        f = random_polynomial(rng, chart, max_terms=2, max_degree=2)
        g = random_polynomial(rng, chart, max_terms=2, max_degree=2)
        x1 = VectorField(chart, (one, a, f))
        x2 = VectorField(chart, (b, one, g))
        try:
            invert3([x1.components, x2.components, lie_bracket(x1, x2).components])
        except DegenerateFrame:
            continue
        return Frame(chart, x1, x2)


def random_theta(rng: random.Random, chart: Chart) -> Expr:
    theta = random_polynomial(rng, chart, max_terms=2, max_degree=2, allow_zero=False)
    if theta.is_zero() is Tri.TRUE:
        theta = chart.var(chart.coords[0])
    return theta
