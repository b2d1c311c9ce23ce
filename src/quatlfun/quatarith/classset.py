"""Right-ideal class sets via neighbor traversal, certified by the mass formula.

The traversal starts at the unit ideal and walks neighbor sublattices at a
fixed auxiliary prime, classifying by exact isometry. It stops at the class
that completes the Eichler mass

    sum over classes of 1/#(left order units)  =  (prod_{q | D} (q-1) / 24) * psi(M)

which holds exactly (psi(M) = M * prod_{l | M} (1 + 1/l)), as Kirschmer and
Voight stop theirs (SIAM J. Comput. 39 (2010)). The walk is not exhaustive,
so completeness rests on three facts: the classes found are pairwise
non-isometric (each new one failed `isometric` against every candidate), their
unit counts w_i are right, and their 1/w_i add up to the mass, which is the
sum over all classes, so none is missing. The unit counts come from the left
orders and are certified before the class set is returned, independently,
by N_ii(1) = w_i on the diagonal pair lattices I_i·conj(I_i)
(`ClassSet.certify_unit_counts`). A walk that overshoots the mass, or runs
out of neighbours short of it, raises. Connectivity of the neighbour graph
means the walk reaches every class, so it stops where the exhaustive walk of
the oracles would end, with the same classes in the same order.
A neighbour is looked up as it comes and reduced only if it starts a new
class: reduction multiplies it on the left, which changes no class invariant
and no isometry.
The walk and `ClassSet.classify` share one lookup,
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
Each pair's Gram is read by `ideal.pair_gram`, the one product-Gram
primitive, which `isometric` reads too: I_a·conj(I_b) is spanned, mod k_b,
by the exact right action (`RightIdeal.act`) on I_a's reduced basis of the
o_g of I_b, built from a shortest vector x_b of I_b, of norm
k_b·nrd(I_b), and its certified generators g. The derivation and its two
checks, the index det T = k_b^2 and the integrality of the form, are
written out at `pair_gram`. Those checks do not re-derive the action rows:
a wrong row that keeps the index and the integrality passes them. The rows
are checked once per representative instead, when its k and o_g are built
(`RightIdeal.pair_generators`, which the walk calls before it keeps a
class): the action must be multiplicative, A(o·o') = A(o)·A(o') for two
basis elements o, o' of O that do not commute, which a transposed reading
fails; the counts' own certificates (B(1) = I, N_ii(1) = w_i, w_j | N_ij,
the row sums) stand behind all of it. The data of each side (reduced
basis, adjugate, k, o_g) is kept on the ideal, not on the class set.
Conjugation keeps the counts, so each unordered pair is built on the side
of smaller k. Its Gram stays in the Hermite basis T/k_b, with no Lagrange
pass, as the counts do not depend on the basis; with its Fincke-Pohst
setup done (`PreparedForm`, in closed form at rank 4) it serves the
unit-count certificate and every later count (the rank-4 `value_counts`
loops). No product lattice is built here: `isometric` decides every
match on the pair Gram, and the witnesses of the quotient graph's steps
come from the same Gram (`ideal.isometry_witness`).
The same reading holds at a prime q | disc, where the only right ideal
J ⊂ I_i with nrd(J) = q·nrd(I_i) is I_i·P_q, P_q the two-sided prime over q:
B(q) is the permutation [I_i] -> [I_i·P_q] (`uq_from_counts`). Classifying
each I_i·P_q gives the same matrix (`uq_by_classification`). I_i·P_q is
read off I_i's own normalized Gram as the preimage of its radical mod q,
and certified a right ideal of norm q·nrd(I_i) (`_times_prime`); `uq_matrix`
chooses between the two routes.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from ..errors import InvariantViolationError, ResourceLimitError, UsageError
from ..exactalg import IntMatrix, kernel_mod
from ..primes import first_coprime_prime, is_prime, prime_factors
from .ideal import RightIdeal, isometric, neighbors, pair_gram, reduce_ideal
from .lattice import PreparedForm, value_counts
from .order import QuaternionOrder
from .splitting import local_splitting

# class-number bound of the neighbour walk
MAX_CLASSES = 500

# largest m that `ClassSet.representation_counts` enumerates to, so the
# largest Hecke prime and sample bound: the vectors of value at most 2m grow
# like m^2 per pair of classes. B(997) alone takes 0.3 s CPU on disc 11 (3
# pairs; 2-vCPU VM, CPython 3.11), and some 300 times that at 42 classes
# (903 pairs), while the largest sample any command uses by default is 50
MAX_COUNT_NRD = 1000


def check_count_bound(m: int, what: str):
    """ResourceLimitError when theta series up to m exceed MAX_COUNT_NRD."""
    if m > MAX_COUNT_NRD:
        raise ResourceLimitError(f"{what} {m} exceeds the theta-series bound "
                                 f"{MAX_COUNT_NRD}")


def check_brandt_prime(ell: int, bad_level: int):
    """UsageError unless ell is a prime coprime to bad_level (disc·level),
    the primes a Brandt matrix B(ell) is defined at."""
    if not is_prime(ell) or bad_level % ell == 0:
        raise UsageError(f"Brandt matrix wants a prime coprime to disc·level, "
                         f"got {ell}")


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
        self._pair_grams = None  # (i, j), i <= j -> PreparedForm, built on demand
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
        up to the largest m asked so far; a smaller m costs nothing, and a
        larger one enumerates again on the kept forms, with no new setup.
        Each time the counts grow, N(1) = diag(unit counts) is certified: the
        representatives are pairwise non-isometric and the counts are right.
        """
        h = len(self)
        if m > self._counts_upto:
            check_count_bound(m, "representation counts")
            grams = self._pair_forms([(i, j) for i in range(h) for j in range(i, h)])
            counts = {pair: value_counts(gram, 2 * m)[::2]
                      for pair, gram in grams.items()}
            self._certify_units(counts)  # before they are kept, so a retry fails too
            self._pair_counts, self._counts_upto = counts, m
        return [[self._pair_counts[min(i, j), max(i, j)][m] for j in range(h)]
                for i in range(h)]

    def certify_unit_counts(self):
        """N_ii(1) = w_i for every class: I_i·conj(I_i) = nrd(I_i)·O_l(I_i),
        so its elements of reduced norm nrd(I_i)^2 are nrd(I_i) times the
        units of the left order. Read off the diagonal pair Grams, which the
        representation counts reuse, independently of the idealizer that
        gave w_i."""
        grams = self._pair_forms([(i, i) for i in range(len(self))])
        for i, units in enumerate(self.unit_counts):
            found = value_counts(grams[i, i], 2)[2]
            if found != units:
                raise InvariantViolationError(
                    f"class {i}: N_({i},{i})(1) = {found}, but its unit count "
                    f"is {units}")

    def _pair_forms(self, pairs):
        """{(i, j): PreparedForm of the Gram of x -> 2·nrd(x)/(nrd(I_i)·nrd(I_j))
        on I_i·conj(I_j)} for the pairs, each built once and kept.

        The form is integral since nrd(I_i·conj(I_j)) = nrd(I_i)·nrd(I_j).
        Conjugation maps I_i·conj(I_j) onto I_j·conj(I_i) and keeps norms, so
        each pair is built by `pair_gram` as I_a·conj(I_b) with k_b <= k_a,
        the smaller index k_b^2 over the known sublattice; k = 1 (the unit
        ideal) costs only I_a's reduced Gram. The Gram stays in its Hermite
        basis: its theta counts do not depend on the basis, and counting it
        unreduced costs less than a Lagrange pass would save.
        """
        if self._pair_grams is None:
            self._pair_grams = {}
        grams, reps = self._pair_grams, self.reps
        for i, j in pairs:
            if (i, j) not in grams:
                a, b = (j, i) if _k(reps[i]) < _k(reps[j]) else (i, j)
                grams[i, j] = PreparedForm(pair_gram(reps[a], reps[b]))
        return {pair: grams[pair] for pair in pairs}

    def _certify_units(self, pair_counts):
        for (i, j), counts in pair_counts.items():
            want = self.unit_counts[i] if i == j else 0
            if counts[1] != want:
                raise InvariantViolationError(
                    f"B(1) is not the identity: N_({i},{j})(1) = {counts[1]}, "
                    f"want {want}; duplicate classes or wrong unit counts")


def ideal_class_set(order: QuaternionOrder, neighbor_prime: int) -> ClassSet:
    """Enumerate all right-ideal classes of an Eichler order.

    neighbor_prime must be coprime to disc*level. The walk is deterministic:
    new classes are appended in the order their first representative appears,
    neighbors scanned in line order, and it stops at the class that completes
    the mass, which it reaches exactly or raises. Before the class set is
    returned, its unit counts are certified as well
    (`ClassSet.certify_unit_counts`). Every class set is walked and
    certified in the run that reads it; none is stored or loaded.
    """
    disc_total = order.reduced_discriminant()
    alg_disc = order.alg.discriminant
    level = disc_total // alg_disc
    if disc_total % neighbor_prime == 0:
        raise UsageError("neighbor prime must be coprime to discriminant and level")
    reps, unit_counts = _walk(order, neighbor_prime, eichler_mass(alg_disc, level))
    cs = ClassSet(order, alg_disc, level, neighbor_prime, reps, unit_counts)
    cs.certify_unit_counts()
    return cs


def _walk(order, neighbor_prime, mass):
    """(representatives, unit counts) of the neighbour walk, stopped when the
    found classes' 1/w_i add up to the mass. Overshooting the mass, or
    running out of neighbours short of it, raises."""
    start = RightIdeal.unit_ideal(order)
    reps, unit_counts = [], []
    buckets = {}
    found = Fraction(0)

    def keep(rep):
        nonlocal found
        rep.pair_generators()  # its o_g, with the check of `act`, before it is kept
        _add(buckets, len(reps), rep)
        reps.append(rep)
        unit_counts.append(rep.left_order().unit_count())
        found += Fraction(1, unit_counts[-1])
        if found > mass:
            raise InvariantViolationError(
                f"the walk overshot the mass: {found} > {mass} after "
                f"{len(reps)} classes")
        return found == mass

    queue = deque([start])
    done = keep(start)
    spl = None if done else local_splitting(order, neighbor_prime, 1)
    while queue and not done:
        for nb in neighbors(queue.popleft(), neighbor_prime, spl):
            if _match(buckets, nb) is None:
                if len(reps) >= MAX_CLASSES:
                    raise ResourceLimitError("class-number bound exceeded")
                nb = reduce_ideal(nb)  # keep norms Minkowski-small along the walk
                done = keep(nb)
                if done:
                    break
                queue.append(nb)
    if not done:
        raise InvariantViolationError(
            f"the walk ran out of neighbours short of the mass: {found} < {mass} "
            f"after {len(reps)} classes")
    return reps, unit_counts


def class_set_avoiding(order: QuaternionOrder, avoid: int = 1) -> ClassSet:
    """The class set of `order`, walked at the least prime not dividing
    disc·level·avoid, `avoid` the tree prime p or 1: the one rule that fixes
    the representatives, and their order, of every run's class sets. An edge
    order's level holds p already, and the least prime prime to disc·level·p²
    is the least prime prime to disc·level·p, so a quotient graph's vertex
    and edge class sets are walked at the same prime."""
    return ideal_class_set(
        order, first_coprime_prime(order.reduced_discriminant() * avoid))


def _k(rep):
    """k = nrd(x)/nrd(I) for the first reduced vector x of I."""
    return rep.pair_generators()[0]


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
    check_brandt_prime(ell, class_set.disc * class_set.level)
    rows = _counts_over_units(class_set, ell)
    _check_row_sums(rows, ell)
    return rows


def _check_row_sums(rows, ell):
    """Every row of B(ell) sums to ell + 1, the number of ell-neighbours."""
    for i, row in enumerate(rows):
        if sum(row) != ell + 1:
            raise InvariantViolationError(f"row {i} of B({ell}) sums to {sum(row)}")


def neighbor_matrices(class_set: ClassSet, primes):
    """{ell: B(ell)} for the primes, each by `neighbor_matrix`.

    Every prime is checked before any enumeration. The largest is asked
    first, so each pair's theta series is enumerated once and serves the
    smaller primes.
    """
    ells = sorted(set(primes), reverse=True)
    for ell in ells:
        check_brandt_prime(ell, class_set.disc * class_set.level)
    return {ell: neighbor_matrix(class_set, ell) for ell in ells}


def uq_matrix(class_set: ClassSet, q: int):
    """U_q at a prime q | disc: the permutation [I_i] -> [I_i·P_q].

    Read off the theta series when they already reach q, as they do once
    the Brandt matrices of a larger prime are built (`uq_from_counts`).
    Otherwise each I_i·P_q is classified (`uq_by_classification`):
    enumerating the theta series only for U_q costs about seven times the
    classification (disc 83, level 5, q = 83, h = 42: 0.11-0.16 s against
    0.015-0.02 s CPU on a 2-vCPU VM, CPython 3.11). Every U_q of the benchmark's
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
    """U_q at a prime q | disc by classifying I_i·P_q for each representative
    (`_times_prime`).

    Certified as `uq_from_counts` is: a permutation and an involution.
    """
    _check_ramified(class_set, q)
    h = len(class_set)
    rows = [[0] * h for _ in range(h)]
    for i, rep in enumerate(class_set.reps):
        rows[i][class_set.classify(reduce_ideal(_times_prime(rep, q)))] = 1
    _certify_involution(rows, q)
    return rows


def _times_prime(ideal: RightIdeal, q: int) -> RightIdeal:
    """I·P_q at a prime q | disc: the preimage in I of the radical mod q of
    I's normalized Gram G.

    At a ramified q the local order is maximal in a division algebra, so
    I·P_q = {x in I : q | nrd(x)/nrd(I)}. As trd(P_q) lies in qZ_q and the
    trace form on O/P_q = F_{q^2} is nondegenerate, that set is exactly the
    radical of G mod q, q = 2 included. Certified before it is returned: a
    right-stable lattice with nrd = q·nrd(I) is I·P_q, the only right
    ideal of that norm between q·I and I.
    """
    radical = kernel_mod(IntMatrix.from_rows(ideal.normalized_gram()), q, 1)
    image = RightIdeal(ideal.order, ideal.lattice.sublattice_mod(q, radical))
    if image.nrd() != q * ideal.nrd():
        raise InvariantViolationError(
            f"I·P_{q}: the radical mod {q} has nrd {image.nrd()}, not {q}·{ideal.nrd()}")
    # the image is q·I plus the lifted radical vectors, and q·I·O = q·I lies
    # in it, so right stability is a question about the lifts alone
    alg, lat, order_lat = ideal.alg, ideal.lattice, ideal.order.lattice
    den = lat.den * order_lat.den
    for c in radical:
        y = tuple(sum(ci * r[k] for ci, r in zip(c, lat.rows)) for k in range(4))
        if not all(image.lattice.contains(alg.mul(y, o), den) for o in order_lat.rows):
            raise InvariantViolationError(
                f"I·P_{q}: the radical mod {q} is not a right ideal")
    return image


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
