"""The measure attached to a U_p-eigenform and its group-ring L-elements.

theta(sigma · Stab(e_j)) = alpha^{-j} * Phi(class of sigma ⋆ e_j) defines a
finite-level measure on the cyclic level groups; the partial group-ring sums
are compatible under level projection exactly because U_p Phi = alpha Phi.
The L-element is the product of the half element with its involution image,
which kills the base-ray translation ambiguity.

A `MeasurePipeline` serves one tower: its depth m is fixed when it is built,
p and n are read off its form, and its one orbit table down to level m is
built with it, so every level of the tower reads the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brandtforms import AutomorphicForm, QuotientGraph, up_apply
from .errors import InvariantViolationError, UsageError
from .exactalg import (GroupRingElement, PrimePowerRing, group_ring_mul,
                       involution, mu_invariant, project_level)
from .toruscm import TorusData, edge_orbit_table


@dataclass(frozen=True)
class LFunctionElement:
    """The half element and its product with its involution image."""

    l_phi: GroupRingElement
    l_p: GroupRingElement

    def __post_init__(self):
        if involution(self.l_p) != self.l_p:
            raise InvariantViolationError("L_p is not involution-invariant")


class MeasurePipeline:
    """The measure of one edge eigenform, mod the p^n of its form, on the
    tower of depth m: the orbit table and ray down to level m are built once,
    with the pipeline, and every level of the tower reads them."""

    def __init__(self, graph: QuotientGraph, torus: TorusData,
                 form: AutomorphicForm, alpha: int, *, m: int,
                 tie_break: str = "lex_min"):
        if form.level_tag != "edge":
            raise UsageError("the measure wants an edge form")
        if form.modulus is None or form.modulus[0] != graph.p:
            raise UsageError("form must be reduced mod a power of the torus prime")
        self.graph = graph
        self.torus = torus
        self.form = form
        self.p, n = form.modulus
        self.m = m
        self.ring = PrimePowerRing(self.p, n)
        alpha = alpha % self.ring.modulus
        if alpha % self.p == 0:
            raise UsageError("U_p eigenvalue must be a unit (ordinary form)")
        self.alpha = alpha
        self.alpha_inv = pow(alpha, -1, self.ring.modulus)
        self._verify_eigenform()
        self.table, self.ray = edge_orbit_table(torus, graph, m, tie_break=tie_break)

    def _verify_eigenform(self):
        image = up_apply(self.graph, self.form)
        q = self.ring.modulus
        expected = tuple(self.alpha * v % q for v in self.form.values)
        got = tuple(v % q for v in image.values)
        if got != expected:
            raise InvariantViolationError(
                "form is not a U_p eigenvector for the supplied eigenvalue")

    def pairing_value(self, t: int, j: int, s: int = 0) -> int:
        """Phi at the class of tau^s u1^t ⋆ e_j (the group-edge pairing)."""
        return self.form.values[self.table[(s, t % self.p ** j, j)]] % self.ring.modulus

    def theta(self, t: int, j: int, s: int = 0) -> int:
        """Measure of the coset tau^s u1^t · Stab(e_j), for j <= m."""
        if j > self.m:
            raise UsageError("coset level exceeds the working level")
        val = self.pairing_value(t, j, s)
        return pow(self.alpha_inv, j, self.ring.modulus) * val % self.ring.modulus

    def theta_pushed(self, t: int, j: int) -> int:
        """Measure of the pro-p coset, summed over the torsion orbit.

        This is the coefficient entering the group-ring element: the image in
        the Iwasawa-algebra quotient collapses the prime-to-p torsion.
        """
        total = sum(self.theta(t, j, s) for s in range(self.torus.torsion_order))
        return total % self.ring.modulus

    def check_distribution(self):
        """theta(sigma V_j) = sum of theta over the p refining cosets, exactly,
        at every level j < m."""
        p, q = self.p, self.ring.modulus
        for j in range(self.m):
            for s in range(self.torus.torsion_order):
                for t in range(p ** j):
                    total = sum(self.theta(t + c * p ** j, j + 1, s)
                                for c in range(p)) % q
                    if total != self.theta(t, j, s):
                        raise InvariantViolationError(
                            f"distribution relation fails at level {j}, coset ({s},{t})")

    def partial_l(self, level: int) -> GroupRingElement:
        """Sum over the quotient group at a level <= m of theta(h V_level) h,
        torsion pushed."""
        if level < 0:
            raise UsageError("tower depth must be nonnegative")
        coeffs = [self.theta_pushed(t, level) for t in range(self.p ** level)]
        return GroupRingElement.make(self.ring, self.p ** level, coeffs)


def full_Lp(pipeline: MeasurePipeline) -> LFunctionElement:
    """L_p at the pipeline's depth m, after the distribution relation up to m."""
    pipeline.check_distribution()
    l_phi = pipeline.partial_l(pipeline.m)
    return LFunctionElement(l_phi, group_ring_mul(l_phi, involution(l_phi)))


def check_projection_tower(pipeline: MeasurePipeline):
    """project_level(L at level) must equal L at level - 1 for every step of
    the tower below the pipeline's depth m."""
    for level in range(pipeline.m, 0, -1):
        upper = pipeline.partial_l(level)
        lower = pipeline.partial_l(level - 1)
        if project_level(upper, level - 1) != lower:
            raise InvariantViolationError(
                f"partial elements are incompatible between levels {level} and {level - 1}")


@dataclass(frozen=True)
class MuReport:
    """The mu = 2*nu bookkeeping for one computed L-element."""

    mu_lp: int
    mu_lphi: int
    nu: int
    cap: int
    anomaly: bool  # mu > 2*nu: expected only outside the theorem's hypotheses

    def __post_init__(self):
        if self.mu_lp < 2 * self.nu:
            raise InvariantViolationError("mu(L_p) < 2 nu: valuation bookkeeping broken")

    @property
    def equality(self) -> bool:
        return self.mu_lp == 2 * self.nu

    def describe(self) -> str:
        status = "equality" if self.equality else (
            "ANOMALY (theorem-conditional)" if self.anomaly else "bound only")
        return (f"mu(L_p) = {self.mu_lp}, nu = {self.nu} (cap {self.cap}); "
                f"mu >= 2 nu holds; {status}")


def mu_two_nu_check(pipeline: MeasurePipeline, element: LFunctionElement) -> MuReport:
    """Report mu(L_p) against twice the constancy depth of the form."""
    # v(a - b) >= min(v(a - c), v(b - c)), so the least over all pairs is the
    # least against any one value
    values = pipeline.form.values
    nu = min(pipeline.ring.valuation(v - values[0]) for v in values)
    mu_lp = mu_invariant(element.l_p)
    return MuReport(mu_lp, mu_invariant(element.l_phi), nu, pipeline.ring.n,
                    anomaly=mu_lp > 2 * nu)
