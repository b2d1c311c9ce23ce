"""Abelian group shapes, Fitting exponents, and the Selmer-length inequality report."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import UsageError
from ..primes import valuation
from .groupring import Character, GroupRingElement, PrimePowerRing, specialize
from .intmatrix import IntMatrix, _fraction_free, eliminate_mod


@dataclass(frozen=True)
class AbelianGroupShape:
    """A finite abelian group by its invariant factors d1 | d2 | ..., each > 1."""

    invariant_factors: tuple

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise UsageError("invariant factors must form a divisibility chain")
        if any(d <= 1 for d in self.invariant_factors):
            raise UsageError("trivial factors are dropped from the shape")

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    def describe(self) -> str:
        return " + ".join(f"Z/{d}" for d in self.invariant_factors) or "0"


def fitting_exponent(presentation: IntMatrix, ring: PrimePowerRing):
    """Exponent t with Fitt(X ⊗ Z/p^n) generated by p^t, or None (zero ideal).

    The module X is presented with generators indexed by rows and relations by
    columns; the zeroth Fitting ideal is generated by the maximal minors,
    equivalently by the product of the Smith invariant factors. The exponent is
    the exact p-valuation of that product: t >= n means the induced ideal in
    Z/p^n vanishes but the exponent is still reported; None is reserved for
    identically zero minors (the presented module has free rank).
    """
    if presentation.cols < presentation.rows:
        raise UsageError("presentation needs at least as many columns as generators")
    return module_length(presentation, ring.p)


def module_length(presentation: IntMatrix, p: int):
    """Z_p-length of coker(presentation), or None when the cokernel has free rank.

    The fraction-free pass gives the rank and, at full row rank, a nonzero
    maximal minor D, its last pivot. The Fitting ideal divides D, so each
    invariant factor's p-part divides p^e, e = v_p(D), and one pass mod
    p^(e+1) loses none: the length is the sum of its diagonal's valuations.
    """
    steps, _, _ = _fraction_free(presentation)
    if len(steps) < presentation.rows:
        return None
    e = valuation(steps[-1][1], p)
    diag = eliminate_mod([list(row) for row in presentation.entries],
                         presentation.rows, presentation.cols, p, e + 1)
    return sum(valuation(x, p) for x in diag)


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of the Selmer-length vs L-valuation comparison at one character.

    Valuations are in the (1-zeta)-normalization of the character's target
    ring, where v(p) = ramification_index, so length and valuation compare in
    the same unit. A failing comparison is reported, never raised.
    """

    selmer_length: object  # int or None (= infinite / free part present)
    ramification_index: int
    twice_t: int
    holds: object  # bool or None when the length is infinite

    def describe(self) -> str:
        s = "infinite" if self.selmer_length is None else str(self.selmer_length)
        verdict = {True: "s <= 2t holds", False: "VIOLATION: s > 2t",
                   None: "not comparable (infinite length)"}[self.holds]
        return (f"s = {s}, 2t = {self.twice_t} "
                f"(ramification index {self.ramification_index}); {verdict}")


def inequality_check(sel_presentation: IntMatrix, L: GroupRingElement,
                     chi: Character) -> InequalityReport:
    """Compare length(coker) against 2·v(chi(L)); s <= 2t is the Fitting
    containment (p^s) ⊇ (chi(L)^2).

    L is the half element (the L-function element is L·L^*), so the compared
    valuation is 2t = 2·v(chi(L)).
    """
    e = chi.target_ring().degree  # ramification index over Z_p
    raw_len = module_length(sel_presentation, chi.p)
    s = None if raw_len is None else raw_len * e
    twice_t = 2 * specialize(L, chi).valuation()
    holds = None if s is None else (s <= twice_t)
    return InequalityReport(s, e, twice_t, holds)
