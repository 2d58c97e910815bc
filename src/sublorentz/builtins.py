"""Embedded structure fixtures so the CLI and tests run with no external files."""

from .lie_algebra import ALGEBRA_NAMES  # noqa: F401  (listed beside the structures)

MARTINET = """\
# Flat structure with degeneracy surface {y = 0}
[chart]
coords = x, y, z

[frame]
X1 = d/dx + (1/2)*y^2 * d/dz
X2 = d/dy - (1/2)*x*y * d/dz
"""

HEISENBERG = """\
# Flat left-invariant structure on the Heisenberg group
[chart]
coords = x, y, z

[frame]
X1 = d/dx - (1/2)*y * d/dz
X2 = d/dy + (1/2)*x * d/dz
"""

SL2_E = """\
# Constant-structure mark with h_tilde = 0 and curvature parameter kappa
[params]
names = kappa

[algebra]
c012 = -kappa
c021 = -kappa
"""

SL2_N = """\
# Constant-structure null-basis mark: h_tilde = kappa * diag(1, -1)
[params]
names = kappa

[algebra]
c011 = kappa
c022 = -kappa
"""

SL2_F = """\
# Constant-structure mark of the split form (kappa = -1)
[algebra]
c012 = 1
c021 = 1
"""

HEISENBERG_ABSTRACT = """\
# Constant-structure mark with all structure functions zero
[algebra]
"""

STRUCTURE_FILES = {
    "martinet": MARTINET,
    "heisenberg": HEISENBERG,
    "heisenberg_abstract": HEISENBERG_ABSTRACT,
    "sl2_e": SL2_E,
    "sl2_n": SL2_N,
    "sl2_f": SL2_F,
}
