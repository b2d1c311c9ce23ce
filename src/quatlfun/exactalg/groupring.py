"""Finite-level Iwasawa-algebra arithmetic: (Z/p^n)[Z/p^m] and specializations.

Elements are cyclic group-ring elements indexed by powers of a fixed generator
g of the cyclic group of order p^m. Characters of p-power order take values in
the exact cyclotomic quotient (Z/p^n)[x]/Φ_{p^s}(x); no external field
arithmetic is needed. A value's (1 - x)-adic valuation is read off its
coordinates in the basis (1 - x)^i, binomial sums of its coefficients: 1 - x
is a uniformizer of the totally ramified Z_p[x]/Φ_{p^s}, so no linear system
is solved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from ..errors import UsageError
from ..primes import capped_valuation, is_prime, valuation


@dataclass(frozen=True)
class PrimePowerRing:
    """The coefficient ring Z/p^n with p prime and n >= 1."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise UsageError(f"{self.p} is not prime")
        if self.n < 1:
            raise UsageError("exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def valuation(self, x: int) -> int:
        """p-adic valuation of x in Z/p^n, capped at n; val(0) = n."""
        return capped_valuation(x, self.p, self.n)


@dataclass(frozen=True)
class GroupRingElement:
    """Element of (Z/p^n)[Z/p^m], coefficients indexed by powers of g."""

    ring: PrimePowerRing
    group_order: int  # p^m
    coeffs: tuple

    def __post_init__(self):
        m = self.group_order
        p = self.ring.p
        # group order must be a power of p (p^0 = 1 allowed)
        if m < 1 or p ** valuation(m, p) != m:
            raise UsageError("group order must be a power of p")
        if len(self.coeffs) != m:
            raise UsageError("coefficient count must equal the group order")
        if any(type(c) is not int or not (0 <= c < self.ring.modulus) for c in self.coeffs):
            raise UsageError("coefficients must be canonical residues")

    @staticmethod
    def make(ring: PrimePowerRing, group_order: int, coeffs) -> "GroupRingElement":
        """The element with the given coefficients reduced mod p^n. Each must
        be an int: a bool, a float or a string is refused, not rounded."""
        coeffs = tuple(coeffs)
        if any(type(c) is not int for c in coeffs):
            raise UsageError(f"group-ring coefficients must be integers, got {coeffs}")
        return GroupRingElement(ring, group_order, tuple(map(ring.reduce, coeffs)))

    @staticmethod
    def generator_power(ring: PrimePowerRing, group_order: int, k: int) -> "GroupRingElement":
        """g^k."""
        c = [0] * group_order
        c[k % group_order] = 1
        return GroupRingElement(ring, group_order, tuple(c))

    def level(self) -> int:
        """m with group order p^m."""
        m, t = 0, self.group_order
        while t > 1:
            t //= self.ring.p
            m += 1
        return m

    def to_json(self) -> str:
        return json.dumps({"p": self.ring.p, "n": self.ring.n,
                           "m": self.level(), "coeffs": list(self.coeffs)},
                          sort_keys=True)


def group_ring_mul(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Cyclic convolution in (Z/p^n)[Z/p^m], by Kronecker substitution.

    Each coefficient list is packed into one integer with a slot of w bytes
    per coefficient, 8w >= 2·bits(q) + bits(m) for q = p^n: a coefficient of
    the linear convolution is a sum of at most m products below q^2, so it
    fits its slot. One integer product gives all of them; slots k and k + m
    are folded together and reduced mod q.
    """
    if a.ring != b.ring or a.group_order != b.group_order:
        raise UsageError("group-ring elements live over different rings")
    m = a.group_order
    w = (2 * a.ring.modulus.bit_length() + m.bit_length() + 7) // 8

    def pack(coeffs):
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs),
                              "little")
    prod = (pack(a.coeffs) * pack(b.coeffs)).to_bytes(2 * m * w, "little")
    slots = [int.from_bytes(prod[k:k + w], "little") for k in range(0, 2 * m * w, w)]
    return GroupRingElement.make(a.ring, m, [x + y for x, y in zip(slots, slots[m:])])


def involution(a: GroupRingElement) -> GroupRingElement:
    """Algebra automorphism sending each group element to its inverse."""
    m = a.group_order
    out = [0] * m
    for k, c in enumerate(a.coeffs):
        out[(-k) % m] = c
    return GroupRingElement(a.ring, m, tuple(out))


def mu_invariant(a: GroupRingElement) -> int:
    """Minimum p-adic valuation over coefficients, capped at n; mu(0) = n.

    Finite level cannot distinguish valuations >= n, hence the cap.
    """
    return min(a.ring.valuation(c) for c in a.coeffs)


def project_level(a: GroupRingElement, target_level: int) -> GroupRingElement:
    """Push forward along Z/p^{m} -> Z/p^{target}: sum coefficients over fibers."""
    m = a.level()
    if not (0 <= target_level <= m):
        raise UsageError("target level must be between 0 and the element's level")
    p = a.ring.p
    mt = p ** target_level
    out = [0] * mt
    for k, c in enumerate(a.coeffs):
        out[k % mt] += c
    return GroupRingElement.make(a.ring, mt, out)


# ---------------------------------------------------------------------------
# Cyclotomic quotient ring (Z/p^n)[x]/Φ_{p^s}(x) and character specialization.
# ---------------------------------------------------------------------------

def _cyclotomic_prime_power(p: int, s: int):
    """Coefficients (low degree first) of Φ_{p^s}(x) = sum_i x^{i p^{s-1}}."""
    if s == 0:
        return (-1, 1)  # Φ_1 = x - 1
    deg = p ** (s - 1) * (p - 1)
    c = [0] * (deg + 1)
    for i in range(p):
        c[i * p ** (s - 1)] = 1
    return tuple(c)


@dataclass(frozen=True)
class CyclotomicQuotientRing:
    """(Z/p^n)[x]/Φ_{p^s}(x); x is a root of unity of exact order p^s."""

    p: int
    n: int
    s: int

    @property
    def degree(self) -> int:
        return 1 if self.s == 0 else self.p ** (self.s - 1) * (self.p - 1)

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def _reduce_poly(self, coeffs):
        """Reduce a coefficient list by the monic Φ_{p^s} and mod p^n."""
        q = self.modulus
        phi = _cyclotomic_prime_power(self.p, self.s)
        deg = len(phi) - 1
        c = [x % q for x in coeffs]
        for i in range(len(c) - 1, deg - 1, -1):
            f = c[i]
            if f:
                for j in range(deg + 1):
                    c[i - deg + j] = (c[i - deg + j] - f * phi[j]) % q
        c = c[:deg]
        c += [0] * (deg - len(c))
        return tuple(c)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out)


@dataclass(frozen=True)
class CyclotomicElement:
    ring: CyclotomicQuotientRing
    coeffs: tuple  # length = ring.degree, canonical residues

    def __mul__(self, other):
        return CyclotomicElement(self.ring,
                                 self.ring._reduce_poly(list(_poly_mul(self.coeffs, other.coeffs))))

    def valuation(self) -> int:
        """(1-x)-adic valuation, capped at e*n with e = deg Φ_{p^s}.

        For s = 0 this is the plain p-adic valuation (v(p) = 1); in general
        v(p) = e, so lengths compare in the same normalization. With
        x^k = sum_i C(k, i)·(-(1 - x))^i, the element is sum_i ±b_i·(1 - x)^i
        with b_i = sum_k C(k, i)·c_k, i < e. As 1 - x is a uniformizer of the
        totally ramified Z_p[x]/Φ_{p^s}, the term i has valuation
        e·v_p(b_i) + i, and these differ mod e, so the least of them is the
        valuation. v_p is capped at n, as b_i is known mod p^n, so the term
        i = 0 caps the least at e·n.
        """
        ring = self.ring
        e = ring.degree
        v_p = PrimePowerRing(ring.p, ring.n).valuation
        return min(e * v_p(sum(comb(k, i) * c for k, c in enumerate(self.coeffs))) + i
                   for i in range(e))


@dataclass(frozen=True)
class Character:
    """Character of Z/p^m of order dividing p^s, valued in the cyclotomic quotient.

    Sends the fixed generator g to x^k where x has exact order p^s.
    """

    p: int
    n: int
    order_exponent: int  # s
    generator_image: int  # k, coprime to p unless trivial

    def target_ring(self) -> CyclotomicQuotientRing:
        return CyclotomicQuotientRing(self.p, self.n, self.order_exponent)


def specialize(a: GroupRingElement, chi: Character) -> CyclotomicElement:
    """Ring homomorphism sum c_k g^k  ->  sum c_k chi(g)^k."""
    if chi.p != a.ring.p or chi.n != a.ring.n:
        raise UsageError("character and element live over different coefficient rings")
    m = a.level()
    if chi.order_exponent > m:
        raise UsageError("character order must divide the group order")
    ring = chi.target_ring()
    ps = chi.p ** chi.order_exponent
    out = [0] * ps
    for k, c in enumerate(a.coeffs):
        out[chi.generator_image * k % ps] += c
    return CyclotomicElement(ring, ring._reduce_poly(out))
