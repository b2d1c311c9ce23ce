"""Right-ideal class sets via neighbor traversal, certified by the mass formula.

The traversal starts at the unit ideal and walks neighbor sublattices at a
fixed auxiliary prime, classifying by exact isometry. Completeness is
certified by the Eichler mass identity

    sum over classes of 1/#(left order units)  =  (prod_{q | D} (q-1) / 24) * psi(M)

which holds exactly (psi(M) = M * prod_{l | M} (1 + 1/l)); connectivity of the
neighbor graph makes the walk exhaustive, and the certificate catches any gap.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvariantViolationError, ResourceLimitError, UsageError
from ..primes import prime_factors
from .ideal import RightIdeal, isometric, neighbors, reduce_ideal
from .order import QuaternionOrder
from .splitting import local_splitting

# class-number bound of the neighbour walk
MAX_CLASSES = 500


def eichler_mass(disc: int, level: int) -> Fraction:
    """Exact mass: sum over classes of 1/#O_left(I)^×."""
    mass = Fraction(1, 24)
    for q in prime_factors(disc):
        mass *= (q - 1)
    psi = Fraction(level)
    for ell in prime_factors(level):
        psi *= Fraction(ell + 1, ell)
    return mass * psi


class ClassSet:
    """Complete duplicate-free right-ideal class data for one Eichler order."""

    def __init__(self, order, disc, level, neighbor_prime, reps, unit_counts):
        self.order = order
        self.disc = disc
        self.level = level
        self.neighbor_prime = neighbor_prime
        self.reps = reps
        self.unit_counts = unit_counts
        self._classify_memo = {}

    def __len__(self):
        return len(self.reps)

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, u) for u in self.unit_counts), Fraction(0))

    def classify(self, ideal: RightIdeal) -> int:
        """Index of the class of `ideal`; InvariantViolation if unmatched."""
        memo_key = ideal.key()
        hit = self._classify_memo.get(memo_key)
        if hit is not None:
            return hit
        key = ideal.theta_key()
        for idx, rep in enumerate(self.reps):
            if rep.theta_key() == key and isometric(ideal, rep):
                self._classify_memo[memo_key] = idx
                return idx
        raise InvariantViolationError("ideal matches no class; certificate broken")

    def verify_mass(self):
        expected = eichler_mass(self.disc, self.level)
        if self.mass != expected:
            raise InvariantViolationError(
                f"mass certificate failed: {self.mass} != {expected}")


def ideal_class_set(order: QuaternionOrder, neighbor_prime: int) -> ClassSet:
    """Enumerate all right-ideal classes of an Eichler order.

    neighbor_prime must be coprime to disc*level. The walk is deterministic:
    new classes are appended in the order their first representative appears,
    neighbors scanned in line order. Results go through the content-addressed
    cache when one is configured; cached entries re-verify their mass.
    """
    disc_total = order.reduced_discriminant()
    alg_disc = order.alg.discriminant
    level = disc_total // alg_disc
    if disc_total % neighbor_prime == 0:
        raise UsageError("neighbor prime must be coprime to discriminant and level")
    from .. import cache as _cache
    cached = _cache.load_class_set(order, neighbor_prime)
    if cached is not None:
        return cached
    spl = local_splitting(order, neighbor_prime, 1)

    start = RightIdeal.unit_ideal(order)
    reps = [start]
    queue = [start]
    while queue:
        current = queue.pop(0)
        for nb in neighbors(current, neighbor_prime, spl):
            nb = reduce_ideal(nb)  # keep norms Minkowski-small along the walk
            found = False
            key = nb.theta_key()
            for rep in reps:
                if rep.theta_key() == key and isometric(nb, rep):
                    found = True
                    break
            if not found:
                if len(reps) >= MAX_CLASSES:
                    raise ResourceLimitError("class-number bound exceeded")
                reps.append(nb)
                queue.append(nb)
    unit_counts = [rep.left_order().unit_count() for rep in reps]
    cs = ClassSet(order, alg_disc, level, neighbor_prime, reps, unit_counts)
    cs.verify_mass()
    _cache.store_class_set(cs)
    return cs


def neighbor_matrix(class_set: ClassSet, ell: int):
    """Integer matrix B with B[i][j] = #(ell-neighbors of I_i in class j).

    Row sums are ell+1. This is the Hecke action on class functions.
    """
    spl = local_splitting(class_set.order, ell, 1)
    h = len(class_set)
    rows = []
    for i in range(h):
        row = [0] * h
        for nb in neighbors(class_set.reps[i], ell, spl):
            row[class_set.classify(reduce_ideal(nb))] += 1
        rows.append(row)
    return rows
