"""Definite quaternion algebras (a,b | Q): elements, symbols, ramification."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from ..errors import SearchExhaustedError, UsageError
from ..primes import prime_factors

# largest |a|, |b| tried by the (a, b) search in algebra_from_discriminant
SEARCH_BOUND = 600


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker(d: int, q: int) -> int:
    """Kronecker symbol (d|q) for prime q (q = 2 allowed)."""
    if q == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    return legendre(d, q)


def _split2(x: int):
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v, x


def hilbert_symbol(a: int, b: int, p) -> int:
    """(a, b)_p for nonzero integers; p a finite prime or the string "inf"."""
    if a == 0 or b == 0:
        raise UsageError("Hilbert symbol wants nonzero arguments")
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    if p == 2:
        alpha, u = _split2(a)
        beta, v = _split2(b)
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        omega = alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, v = 0, b
    while v % p == 0:
        v //= p
        beta += 1
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2 and legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and legendre(v, p) == -1:
        sign = -sign
    return sign


def ramified_primes(a: int, b: int):
    """Finite ramification set of (a,b | Q), via Hilbert symbols at p | 2ab."""
    primes = {q for x in (2, abs(a), abs(b)) for q in prime_factors(x)}
    return tuple(sorted(p for p in primes if hilbert_symbol(a, b, p) == -1))


@dataclass(frozen=True)
class QuaternionAlgebra:
    """(a, b | Q) with i^2 = a, j^2 = b, ij = -ji = k. Definite: a, b < 0."""

    a: int
    b: int

    def __post_init__(self):
        if self.a >= 0 or self.b >= 0:
            raise UsageError("only definite algebras (a, b < 0) are supported")

    @property
    def discriminant(self) -> int:
        out = 1
        for p in ramified_primes(self.a, self.b):
            out *= p
        return out

    def mul(self, x, y):
        """Quaternion product on coordinate 4-tuples (1, i, j, k)."""
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
                x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
                x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
                x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)

    @staticmethod
    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    @staticmethod
    def trd(x):
        return 2 * x[0]

    def nrd(self, x):
        return x[0] * x[0] - self.a * x[1] * x[1] - self.b * x[2] * x[2] \
            + self.a * self.b * x[3] * x[3]

    def norm_gram(self, lat):
        """Integer T with nrd(sum c_i r_i / den) = c^T T c / (2 den^2).

        r_i are the integer rows of `lat` over its denominator den. The one
        builder of a norm Gram in the package; T has an even diagonal. Its
        entries are trd(x·conj(y)) = 2·(x0·y0 - a·x1·y1 - b·x2·y2 + ab·x3·y3),
        computed on the upper triangle and mirrored.
        """
        a, b = self.a, self.b
        rows = lat.rows
        n = len(rows)
        t = [[0] * n for _ in range(n)]
        for i, (x0, x1, x2, x3) in enumerate(rows):
            w0, w1, w2, w3 = 2 * x0, -2 * a * x1, -2 * b * x2, 2 * a * b * x3
            ti = t[i]
            for j in range(i, n):
                y0, y1, y2, y3 = rows[j]
                ti[j] = t[j][i] = w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3
        return t


def algebra_from_discriminant(d: int) -> QuaternionAlgebra:
    """Definite algebra with finite ramification exactly at the primes of d.

    d must be squarefree with an odd number of prime factors (otherwise no
    definite algebra over Q has that discriminant). Standard small recipes are
    tried first, then a bounded search over (a, b).
    """
    if d < 2:
        raise UsageError("discriminant must be a squarefree integer > 1")
    primes = prime_factors(d)
    if prod(primes) != d:
        raise UsageError("discriminant must be squarefree")
    if len(primes) % 2 == 0:
        raise UsageError("a definite rational quaternion algebra has an odd "
                         "number of finite ramified primes")

    def ok(a, b):
        return ramified_primes(a, b) == tuple(sorted(primes))

    if d == 2 and ok(-1, -1):
        return QuaternionAlgebra(-1, -1)
    if len(primes) == 1:
        p = primes[0]
        if p % 4 == 3 and ok(-1, -p):
            return QuaternionAlgebra(-1, -p)
        if p % 8 == 5 and ok(-2, -p):
            return QuaternionAlgebra(-2, -p)
    for a in range(1, SEARCH_BOUND + 1):
        for mult in (1, 2):
            b = d * mult
            if ok(-a, -b):
                return QuaternionAlgebra(-a, -b)
        if ok(-a, -d * a):
            return QuaternionAlgebra(-a, -d * a)
    for a in range(1, SEARCH_BOUND + 1):
        for b in range(a, SEARCH_BOUND + 1):
            if ok(-a, -b):
                return QuaternionAlgebra(-a, -b)
    raise SearchExhaustedError(f"no (a,b) pair found for discriminant {d} "
                               f"within bound {SEARCH_BOUND}")
