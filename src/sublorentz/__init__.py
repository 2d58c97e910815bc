"""Exact symbolic invariants and infinitesimal-symmetry tests for contact
sub-Lorentzian structures on 3-dimensional manifolds."""

from .expr import Chart, Expr, Tri

__all__ = ["Chart", "Expr", "Tri"]

__version__ = "0.1.0"
