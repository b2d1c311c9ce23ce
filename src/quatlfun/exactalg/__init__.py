"""Exact integer/modular linear algebra, group rings, and Fitting tools."""

from .fitting import (AbelianGroupShape, InequalityReport, fitting_exponent,
                      inequality_check, module_length)
from .groupring import (Character, CyclotomicElement, CyclotomicQuotientRing,
                        GroupRingElement, PrimePowerRing, group_ring_mul,
                        involution, mu_invariant, project_level, specialize)
from .intmatrix import (IntMatrix, det, eliminate, eliminate_mod, kernel_basis,
                        kernel_mod, leading_minors, rational_kernel,
                        smith_normal_form)

__all__ = [
    "AbelianGroupShape", "Character", "CyclotomicElement",
    "CyclotomicQuotientRing", "GroupRingElement", "InequalityReport",
    "IntMatrix", "PrimePowerRing", "det", "eliminate",
    "eliminate_mod", "fitting_exponent", "group_ring_mul", "inequality_check",
    "involution", "kernel_basis", "kernel_mod", "leading_minors", "module_length",
    "mu_invariant", "project_level", "rational_kernel", "smith_normal_form",
    "specialize",
]
