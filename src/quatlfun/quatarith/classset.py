"""Right-ideal class sets via neighbor traversal, certified by the mass formula.

The traversal starts at the unit ideal and walks neighbor sublattices at a
fixed auxiliary prime, classifying by exact isometry. Completeness is
certified by the Eichler mass identity

    sum over classes of 1/#(left order units)  =  (prod_{q | D} (q-1) / 24) * psi(M)

which holds exactly (psi(M) = M * prod_{l | M} (1 + 1/l)); connectivity of the
neighbor graph makes the walk exhaustive, and the certificate catches any gap.
A neighbour is looked up as it comes and reduced only if it starts a new
class: reduction multiplies it on the left, which changes no class invariant
and no isometry.
The walk, `ClassSet.classify` and the cache's load check share one lookup,
`_match`, with two tiers of class invariants: representatives are bucketed by
theta key in a dict, and only those in the ideal's own bucket get an isometry
test. In a bucket of two or more, the ideal's theta tail (longer counts,
computed then and cached on the ideal) must agree too. Equal invariants only
admit the test; `isometric` decides every match, so the classes found and
their order do not depend on the tiers.

Brandt matrices come from the theta series of the pairs of representatives
(Pizer, J. Algebra 64 (1980); Gross, "Heights and the special values of
L-series" (1987), sections 1-2): the ell-neighbours of I_i in class j are
counted by the elements of I_i·conj(I_j) of reduced norm
ell·nrd(I_i)·nrd(I_j), one orbit of #O_l(I_j)^× for each neighbour.
The same reading holds at a prime q | disc, where the only right ideal
J ⊂ I_i with nrd(J) = q·nrd(I_i) is I_i·P_q, P_q the two-sided prime over q:
B(q) is the permutation [I_i] -> [I_i·P_q] (`uq_from_counts`). Classifying
each I_i·P_q gives the same matrix (`uq_by_classification`); `uq_matrix`
chooses between the two.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from ..errors import InvariantViolationError, ResourceLimitError, UsageError
from ..primes import is_prime, prime_factors
from .ideal import RightIdeal, isometric, neighbors, reduce_ideal
from .lattice import lagrange_reduce, value_counts
from .order import QuaternionOrder, two_sided_prime
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
        self._buckets = None  # theta key -> [(index, rep)], built on first use
        # theta series of the pairs, in memory only: the cache stores none
        self._pair_grams = None  # (i, j), i <= j -> see _reduced_pair_grams
        self._pair_counts = {}  # (i, j) -> [N_ij(0), ..., N_ij(_counts_upto)]
        self._counts_upto = 0

    def __len__(self):
        return len(self.reps)

    @property
    def counts_upto(self) -> int:
        """The largest m whose representation counts are enumerated already."""
        return self._counts_upto

    @property
    def mass(self) -> Fraction:
        return sum((Fraction(1, u) for u in self.unit_counts), Fraction(0))

    def classify(self, ideal: RightIdeal) -> int:
        """Index of the class of `ideal`; InvariantViolation if unmatched."""
        memo_key = ideal.key()
        hit = self._classify_memo.get(memo_key)
        if hit is not None:
            return hit
        if self._buckets is None:
            self._buckets = {}
            for idx, rep in enumerate(self.reps):
                _add(self._buckets, idx, rep)
        idx = _match(self._buckets, ideal)
        if idx is None:
            raise InvariantViolationError("ideal matches no class; certificate broken")
        self._classify_memo[memo_key] = idx
        return idx

    def representation_counts(self, m: int):
        """N[i][j] = #{x in I_i·conj(I_j) : nrd(x) = m·nrd(I_i)·nrd(I_j)}.

        Conjugation swaps (i, j), so each unordered pair is enumerated once,
        up to the largest m asked so far; a smaller m costs nothing. Each
        time the counts grow, N(1) = diag(unit counts) is certified: the
        representatives are pairwise non-isometric and the counts are right.
        """
        if m > self._counts_upto:
            if self._pair_grams is None:
                self._pair_grams = self._reduced_pair_grams()
            counts = {pair: value_counts(gram, 2 * m)[::2]
                      for pair, gram in self._pair_grams.items()}
            self._certify_units(counts)  # before they are kept, so a retry fails too
            self._pair_counts, self._counts_upto = counts, m
        h = len(self)
        return [[self._pair_counts[min(i, j), max(i, j)][m] for j in range(h)]
                for i in range(h)]

    def _reduced_pair_grams(self):
        """Lagrange-reduced Gram of x -> 2·nrd(x)/(nrd(I_i)·nrd(I_j)) on I_i·conj(I_j).

        The form is integral since nrd(I_i·conj(I_j)) = nrd(I_i)·nrd(I_j).
        """
        alg = self.order.alg
        conjugates = [rep.conjugate_lattice() for rep in self.reps]
        norms = [rep.nrd() for rep in self.reps]
        grams = {}
        for i, rep in enumerate(self.reps):
            for j in range(i, len(self.reps)):
                lat = rep.product_lattice(conjugates[j])
                scale = lat.den ** 2 * norms[i] * norms[j]
                num, den = scale.numerator, scale.denominator
                gram = alg.norm_gram(lat)
                if any(x * den % num for row in gram for x in row):
                    raise InvariantViolationError(
                        f"norm form of I_{i}·conj(I_{j}) is not integral")
                grams[i, j] = lagrange_reduce([[x * den // num for x in row]
                                               for row in gram])[0]
        return grams

    def _certify_units(self, pair_counts):
        for (i, j), counts in pair_counts.items():
            want = self.unit_counts[i] if i == j else 0
            if counts[1] != want:
                raise InvariantViolationError(
                    f"B(1) is not the identity: N_({i},{j})(1) = {counts[1]}, "
                    f"want {want}; duplicate classes or wrong unit counts")

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
    buckets = {}
    _add(buckets, 0, start)
    queue = deque([start])
    while queue:
        for nb in neighbors(queue.popleft(), neighbor_prime, spl):
            if _match(buckets, nb) is None:
                if len(reps) >= MAX_CLASSES:
                    raise ResourceLimitError("class-number bound exceeded")
                nb = reduce_ideal(nb)  # keep norms Minkowski-small along the walk
                _add(buckets, len(reps), nb)
                reps.append(nb)
                queue.append(nb)
    unit_counts = [rep.left_order().unit_count() for rep in reps]
    cs = ClassSet(order, alg_disc, level, neighbor_prime, reps, unit_counts)
    cs.verify_mass()
    _cache.store_class_set(cs)
    return cs


def _add(buckets, idx, rep):
    buckets.setdefault(rep.theta_key(), []).append((idx, rep))


def _match(buckets, ideal):
    """Index of the representative isometric to `ideal`, or None.

    buckets maps a theta key to the (index, representative) pairs with that
    key, so only the representatives sharing the ideal's key are tested. In
    a bucket of two or more, only those that also share its theta tail are.
    """
    bucket = buckets.get(ideal.theta_key(), ())
    if len(bucket) > 1:
        tail = ideal.theta_tail()
        bucket = [(idx, rep) for idx, rep in bucket if rep.theta_tail() == tail]
    for idx, rep in bucket:
        if isometric(ideal, rep):
            return idx
    return None


def neighbor_matrix(class_set: ClassSet, ell: int):
    """Integer matrix B with B[i][j] = #(ell-neighbors of I_i in class j).

    Row sums are ell+1. This is the Hecke action on class functions. It is
    read off the theta series: B[i][j] = N_ij(ell) / w_j with N the
    representation counts and w_j = #O_l(I_j)^×. Certificates: B(1) = I,
    w_j | N_ij(ell), and every row sums to ell+1.
    """
    _check_brandt_prime(class_set, ell)
    rows = _counts_over_units(class_set, ell)
    for i, row in enumerate(rows):
        if sum(row) != ell + 1:
            raise InvariantViolationError(f"row {i} of B({ell}) sums to {sum(row)}")
    return rows


def neighbor_matrices(class_set: ClassSet, primes):
    """{ell: B(ell)} for the primes, each by `neighbor_matrix`.

    Every prime is checked before any enumeration. The largest is asked
    first, so each pair's theta series is enumerated once and serves the
    smaller primes.
    """
    ells = sorted(set(primes), reverse=True)
    for ell in ells:
        _check_brandt_prime(class_set, ell)
    return {ell: neighbor_matrix(class_set, ell) for ell in ells}


def _check_brandt_prime(class_set, ell):
    if not is_prime(ell) or (class_set.disc * class_set.level) % ell == 0:
        raise UsageError(f"Brandt matrix wants a prime coprime to disc·level, "
                         f"got {ell}")


def uq_matrix(class_set: ClassSet, q: int):
    """U_q at a prime q | disc: the permutation [I_i] -> [I_i·P_q].

    Read off the theta series when they already reach q, as they do once
    the Brandt matrices of a larger prime are built (`uq_from_counts`).
    Otherwise each I_i·P_q is classified (`uq_by_classification`):
    enumerating the theta series only for U_q costs about ten times the
    classification (disc 83, level 5, q = 83, h = 42: 0.36-0.42 s against
    0.03 s CPU on a 2-vCPU VM, CPython 3.11). Every U_q of the benchmark's
    workloads takes the first route, so no workload exercises the second;
    tests cover it. Both routes certify a permutation with square I, as
    P_q² = qO, and reject any q that is not a prime dividing the
    discriminant.
    """
    route = uq_from_counts if class_set.counts_upto >= q else uq_by_classification
    return route(class_set, q)


def uq_from_counts(class_set: ClassSet, q: int):
    """U_q at a prime q | disc, read off the theta series: U[i][j] = N_ij(q)/w_j.

    At a ramified q the only right ideal J ⊂ I_i with nrd(J) = q·nrd(I_i) is
    I_i·P_q (Pizer, J. Algebra 64 (1980); Gross (1987), section 1), so the
    matrix is the permutation [I_i] -> [I_i·P_q]. The counts are enumerated
    up to q if they do not reach it yet. Certificates: B(1) = I,
    w_j | N_ij(q), and `_certify_involution`.
    """
    _check_ramified(class_set, q)
    rows = _counts_over_units(class_set, q)
    _certify_involution(rows, q)
    return rows


def uq_by_classification(class_set: ClassSet, q: int):
    """U_q at a prime q | disc by classifying I_i·P_q for each representative.

    Certified as `uq_from_counts` is: a permutation and an involution.
    """
    _check_ramified(class_set, q)
    order = class_set.order
    pq = two_sided_prime(order, q)
    h = len(class_set)
    rows = [[0] * h for _ in range(h)]
    for i, rep in enumerate(class_set.reps):
        image = RightIdeal(order, rep.product_lattice(pq))
        rows[i][class_set.classify(reduce_ideal(image))] = 1
    _certify_involution(rows, q)
    return rows


def _check_ramified(class_set, q):
    if not is_prime(q) or class_set.disc % q:
        raise UsageError(f"U_q wants a prime dividing the discriminant "
                         f"{class_set.disc}, got {q}")


def _counts_over_units(class_set, m):
    """Rows N_ij(m) / w_j; InvariantViolation unless each w_j divides N_ij(m)."""
    units = class_set.unit_counts
    rows = []
    for i, counts in enumerate(class_set.representation_counts(m)):
        if any(n % w for n, w in zip(counts, units)):
            raise InvariantViolationError(
                f"unit count does not divide N_{i}j({m}): {counts} vs {units}")
        rows.append([n // w for n, w in zip(counts, units)])
    return rows


def _certify_involution(rows, q):
    """U_q permutes the classes, and U_q² = I since P_q² = qO."""
    image = []
    for i, row in enumerate(rows):
        if row.count(1) != 1 or sum(row) != 1:
            raise InvariantViolationError(
                f"row {i} of U_{q} is not a unit vector: {row}")
        image.append(row.index(1))
    if len(set(image)) != len(rows):
        raise InvariantViolationError(f"U_{q} is not a permutation: {image}")
    if any(image[j] != i for i, j in enumerate(image)):
        raise InvariantViolationError(f"U_{q}² is not the identity: {image}")
