"""Small-prime helpers shared by every module: trial division at desk scale,
the p-adic valuation and its cap at n, and the Hensel lift of a simple root
of a quadratic."""

from __future__ import annotations

from .errors import UsageError


def is_prime(q: int) -> bool:
    """Deterministic trial-division primality test; fine at desk scale."""
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int):
    """The distinct prime factors of n, increasing; [] for n < 2."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        else:
            f += 1
    if n > 1:
        out.append(n)
    return out


def first_coprime_prime(n: int) -> int:
    """The least prime not dividing n (auxiliary neighbor primes and the like)."""
    ell = 2
    while n % ell == 0 or not is_prime(ell):
        ell += 1
    return ell


def valuation(x: int, p: int) -> int:
    """v_p(x) for a nonzero integer x."""
    if x == 0:
        raise UsageError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def capped_valuation(x: int, p: int, n: int) -> int:
    """v_p(x) capped at n, as read in Z/p^n: n when p^n divides x (x = 0 too)."""
    return n if x % p ** n == 0 else valuation(x, p)


def hensel_lift(r: int, t: int, n: int, p: int, k: int) -> int:
    """The root mod p^k of X^2 - tX + n that lifts its root r, in [0, p^k).

    r is a root mod p (mod 8 when p = 2 and the root is known only there)
    at which 2r - t is a unit, so Newton iteration converges quadratically:
    k.bit_length() + 2 steps reach p^k. The caller checks the result.
    """
    q = p ** k
    for _ in range(k.bit_length() + 2):
        r = (r - (r * r - t * r + n) * pow((2 * r - t) % q, -1, q)) % q
    return r
