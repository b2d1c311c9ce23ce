"""The measure attached to a U_p-eigenform and its group-ring L-elements.

theta(sigma · Stab(e_j)) = alpha^{-j} * Phi(class of sigma ⋆ e_j) defines a
finite-level measure on the cyclic level groups; the partial group-ring sums
are compatible under level projection exactly because U_p Phi = alpha Phi.
The L-element is the product of the half element with its involution image,
which kills the base-ray translation ambiguity.
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
    """The half element, its involution partner, and their product."""

    l_phi: GroupRingElement
    l_p: GroupRingElement
    level: int
    p: int
    n: int
    provenance: str

    def __post_init__(self):
        if involution(self.l_p) != self.l_p:
            raise InvariantViolationError("L_p is not involution-invariant")

    def mu(self) -> int:
        return mu_invariant(self.l_p)


class MeasurePipeline:
    """Orbit tables and measure values for one edge eigenform."""

    def __init__(self, graph: QuotientGraph, torus: TorusData,
                 form: AutomorphicForm, alpha: int, n: int,
                 tie_break: str = "lex_min"):
        if form.level_tag != "edge":
            raise UsageError("the measure wants an edge form")
        if form.modulus is None or form.modulus[0] != graph.p:
            raise UsageError("form must be reduced mod a power of the torus prime")
        p = graph.p
        self.graph = graph
        self.torus = torus
        self.form = form
        self.p = p
        self.n = n
        self.ring = PrimePowerRing(p, n)
        alpha = alpha % self.ring.modulus
        if alpha % p == 0:
            raise UsageError("U_p eigenvalue must be a unit (ordinary form)")
        self.alpha = alpha
        self.alpha_inv = pow(alpha, -1, self.ring.modulus)
        self.tie_break = tie_break
        self._level = -1
        self._orbits = None
        self._verify_eigenform()

    def _verify_eigenform(self):
        image = up_apply(self.graph, self.form)
        q = self.ring.modulus
        expected = tuple(self.alpha * v % q for v in self.form.values)
        got = tuple(v % q for v in image.values)
        if got != expected:
            raise InvariantViolationError(
                "form is not a U_p eigenvector for the supplied eigenvalue")

    def table(self, m: int):
        """The orbit table and ray, built once at the deepest level asked for;
        every lower level reads the same table."""
        if m > self._level:
            self._orbits = edge_orbit_table(self.torus, self.graph, m,
                                            tie_break=self.tie_break)
            self._level = m
        return self._orbits

    def pairing_value(self, t: int, j: int, m: int, s: int = 0) -> int:
        """Phi at the class of tau^s u1^t ⋆ e_j (the group-edge pairing)."""
        table, _ = self.table(m)
        return self.form.values[table[(s, t % self.p ** j, j)]] % self.ring.modulus

    def theta(self, t: int, j: int, m: int, s: int = 0) -> int:
        """Measure of the coset tau^s u1^t · Stab(e_j), at working level m >= j."""
        if j > m:
            raise UsageError("coset level exceeds the working level")
        val = self.pairing_value(t, j, m, s)
        return pow(self.alpha_inv, j, self.ring.modulus) * val % self.ring.modulus

    def theta_pushed(self, t: int, j: int, m: int) -> int:
        """Measure of the pro-p coset, summed over the torsion orbit.

        This is the coefficient entering the group-ring element: the image in
        the Iwasawa-algebra quotient collapses the prime-to-p torsion.
        """
        total = sum(self.theta(t, j, m, s) for s in range(self.torus.torsion_order))
        return total % self.ring.modulus

    def check_distribution(self, m: int):
        """theta(sigma V_j) = sum of theta over the p refining cosets, exactly."""
        p, q = self.p, self.ring.modulus
        for j in range(m):
            for s in range(self.torus.torsion_order):
                for t in range(p ** j):
                    total = sum(self.theta(t + c * p ** j, j + 1, m, s)
                                for c in range(p)) % q
                    if total != self.theta(t, j, m, s):
                        raise InvariantViolationError(
                            f"distribution relation fails at level {j}, coset ({s},{t})")

    def partial_l(self, m: int) -> GroupRingElement:
        """Sum over the level-m quotient group of theta(h V_m) h, torsion pushed."""
        if m < 0:
            raise UsageError("tower depth must be nonnegative")
        coeffs = [self.theta_pushed(t, m, m) for t in range(self.p ** m)]
        return GroupRingElement.make(self.ring, self.p ** m, coeffs)


def full_Lp(pipeline: MeasurePipeline, m: int,
            provenance: str = "") -> LFunctionElement:
    """L_p at level m after the distribution relation up to m. Run it before
    any lower level is asked for, so the tower builds one orbit table."""
    pipeline.check_distribution(m)
    l_phi = pipeline.partial_l(m)
    return LFunctionElement(l_phi, group_ring_mul(l_phi, involution(l_phi)), m,
                            pipeline.p, pipeline.n, provenance)


def check_projection_tower(pipeline: MeasurePipeline, m: int):
    """project_level(L at m) must equal L at m-1 for every step of the tower."""
    for level in range(m, 0, -1):
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
    q = pipeline.ring.modulus
    values = [v % q for v in pipeline.form.values]
    nu = pipeline.n
    for a in values:
        for b in values:
            nu = min(nu, pipeline.ring.valuation(a - b))
            if nu == 0:
                break
        if nu == 0:
            break
    mu_lp = mu_invariant(element.l_p)
    return MuReport(mu_lp, mu_invariant(element.l_phi), nu, pipeline.n,
                    anomaly=mu_lp > 2 * nu)
