"""Small-prime helpers shared by every module: trial division at desk scale."""

from __future__ import annotations


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
