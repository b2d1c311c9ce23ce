"""The shared p-adic helpers of `quatlfun.primes`: the valuation and the
Hensel lift of a simple root of X^2 - tX + n, each against an oracle that
shares no code with it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlfun.brandtforms import hensel_unit_root
from quatlfun.errors import UsageError
from quatlfun.primes import hensel_lift, is_prime, valuation
from quatlfun.quatarith.splitting import _hensel_roots

from oracles import _vp_fraction

_PRIMES = [q for q in range(2, 60) if is_prime(q)]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30).filter(bool), st.sampled_from(_PRIMES),
       st.integers(0, 12))
def test_valuation_matches_oracle(x, p, k):
    # a power of p times x, so that high valuations are drawn too
    x *= p ** k
    assert valuation(x, p) == _vp_fraction(x, p)


def test_valuation_of_zero_is_refused():
    with pytest.raises(UsageError, match="valuation of zero"):
        valuation(0, 5)


def _simple_roots(t, n, p, base_mod):
    """Roots r mod base_mod of X^2 - tX + n with 2r - t a unit mod p, by search."""
    return [r for r in range(base_mod)
            if (r * r - t * r + n) % base_mod == 0 and (2 * r - t) % p]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_hensel_lift_solves_the_quadratic(p):
    # every simple root mod p (mod 8 at p = 2, the bases of `_hensel_roots`)
    # of every X^2 - tX + n with 0 <= t, n < base_mod lifts to a root mod p^k
    base_mod = 8 if p == 2 else p
    lifted = 0
    for t in range(base_mod):
        for n in range(base_mod):
            for r0 in _simple_roots(t, n, p, base_mod):
                for k in range(1, 9):
                    q = p ** k
                    r = hensel_lift(r0, t, n, p, k)
                    assert 0 <= r < q
                    assert (r * r - t * r + n) % q == 0
                    assert (r - r0) % min(q, base_mod) == 0
                    lifted += 1
    assert lifted > 0


def test_callers_are_the_shared_lift():
    # the splitting's two roots and the unit root are the lifts of their bases
    for t, n, ell, prec in ((1, 2, 2, 6), (3, 2, 5, 4), (3, 2, 7, 3)):
        roots = _hensel_roots(t, n, ell, prec)
        base_mod = 8 if ell == 2 else ell
        assert list(roots) == [hensel_lift(r0, t, n, ell, prec)
                               for r0 in _simple_roots(t, n, ell, base_mod)]
    for a_p, p, n in ((1, 5, 3), (2, 3, 5), (4, 7, 2), (1, 2, 6)):
        alpha = hensel_unit_root(a_p, p, n)
        assert alpha == hensel_lift(a_p % p, a_p, p, p, n)
        assert (alpha * alpha - a_p * alpha + p) % p ** n == 0
