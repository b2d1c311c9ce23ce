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
Each pair lattice is a small-index superlattice of one whose Gram is known
(`ClassSet._pair_gram`): for x_b a shortest vector of I_b, of norm
k_b·nrd(I_b), the sublattice I_a·conj(x_b) has Gram k_b·R_a in the basis
v_l·conj(x_b), R_a the reduced Gram of I_a on its reduced basis v_l. For a
certified generator g of I_b, o_g = conj(g)·x_b/nrd(I_b) lies in
conj(I_b)·I_b/nrd(I_b) = O, and v_l·conj(g) = (v_l·o_g)·conj(x_b)/k_b, so
the right action of the o_g on I_a, mod k_b, spans I_a·conj(I_b) in those
coordinates. The action rows are exact: each product v_l·o_g is divided
exactly into reduced coordinates, which also shows o_g in O_r(I_a) = O, so
the span lies in I_a·conj(I_b). Each pair then checks two things: the index
det T = k_b^2 of the sublattice in the span, T its Hermite basis, which
makes the span all of I_a·conj(I_b) and fails when the generators span too
little; and the divisibility of T·R_a·T^t by k_b, the integrality of the
form. These checks do not re-derive the rows: a wrong row that keeps the
index and the integrality passes them. The rows are checked once per
representative instead (`_PairSide`): the action must be multiplicative,
A(o·o') = A(o)·A(o') for two basis elements o, o' of O that do not
commute, which a transposed reading fails; the counts' own certificates
(B(1) = I, N_ii(1) = w_i, w_j | N_ij, the row sums) stand behind all of
it. Conjugation keeps the counts, so each unordered pair is built on the
side of smaller k. Its Gram stays in the Hermite basis T/k_b, with no
Lagrange pass, as the counts do not depend on the basis; with its
Fincke-Pohst setup done (`PreparedForm`, in closed form at rank 4) it
serves the unit-count certificate and every later count (the rank-4
`value_counts` loops). The product lattice I_a·conj(I_b) itself is only
built by `isometric` and `isometry_witness`.
The same reading holds at a prime q | disc, where the only right ideal
J ⊂ I_i with nrd(J) = q·nrd(I_i) is I_i·P_q, P_q the two-sided prime over q:
B(q) is the permutation [I_i] -> [I_i·P_q] (`uq_from_counts`). Classifying
each I_i·P_q gives the same matrix (`uq_by_classification`); `uq_matrix`
chooses between the two.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from ..errors import InvariantViolationError, ResourceLimitError, UsageError
from ..primes import first_coprime_prime, is_prime, prime_factors
from .ideal import RightIdeal, isometric, neighbors, reduce_ideal
from .lattice import PreparedForm, adjugate4, hnf_mod, value_counts
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
        self._pair_grams = None  # (i, j), i <= j -> PreparedForm, built on demand
        self._sides = {}  # i -> _PairSide of reps[i], built on demand
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
        each pair is built by `_pair_gram` as I_a·conj(I_b) with k_b <= k_a,
        the smaller index k_b^2 over the known sublattice; k = 1 (the unit
        ideal) costs only I_a's reduced Gram. The Gram stays in its Hermite
        basis: its theta counts do not depend on the basis, and counting it
        unreduced costs less than a Lagrange pass would save.
        """
        if self._pair_grams is None:
            self._pair_grams = {}
        grams = self._pair_grams
        for i, j in pairs:
            if (i, j) not in grams:
                a, b = (j, i) if self._side(i).k < self._side(j).k else (i, j)
                grams[i, j] = PreparedForm(self._pair_gram(a, b))
        return {pair: grams[pair] for pair in pairs}

    def _side(self, i):
        side = self._sides.get(i)
        if side is None:
            side = self._sides[i] = _PairSide(self.reps[i])
        return side

    def _pair_gram(self, a, b):
        """Integer Gram of x -> 2·nrd(x)/(nrd(I_a)·nrd(I_b)) on I_a·conj(I_b),
        read off the sublattice M = I_a·conj(x_b), x_b the first reduced
        vector of I_b, with nrd(x_b) = k_b·nrd(I_b).

        In the basis v_l·conj(x_b), v_l the reduced basis of I_a, M has Gram
        k_b·R_a, R_a the reduced Gram of I_a. For a generator g of I_b,
        o_g = conj(g)·x_b/nrd(I_b) lies in conj(I_b)·I_b/nrd(I_b) = O, and
        o_g·conj(x_b) = k_b·conj(g), so v_l·conj(g) = (v_l·o_g)·conj(x_b)/k_b.
        As I_a·conj(I_b) is spanned by the v_l·conj(g), in M's coordinates it
        is (1/k_b)·S, S spanned by k_b·Z^4 and the rows of the right action
        of the o_g on the v_l (`_PairSide.act`, exact). Checks: the Hermite
        basis T of S has det T = k_b^2, the index of M in I_a·conj(I_b) (that
        of O·conj(x_b) in conj(I_b)), so S/k_b, which lies in I_a·conj(I_b),
        is all of it; and T·R_a·T^t is divisible by k_b, the quotient being
        the Gram in the basis T/k_b. Neither check re-derives the rows; each
        side checks its `act` once, when it is built.
        """
        side_a, side_b = self._side(a), self._side(b)
        k = side_b.k
        if k == 1:
            t = [[int(r == c) for c in range(4)] for r in range(4)]
        else:
            t = hnf_mod([row for og in side_b.ogs for row in side_a.act(*og)], k)
        index = t[0][0] * t[1][1] * t[2][2] * t[3][3]
        if index != k * k:
            raise InvariantViolationError(
                f"I_{a}·conj(I_{b}) has index {index} over I_{a}·conj(x_{b}), "
                f"not k^2 = {k * k}")
        (r00, r01, r02, r03), (_, r11, r12, r13), (_, _, r22, r23), \
            (_, _, _, r33) = side_a.red
        tr = [(x0 * r00 + x1 * r01 + x2 * r02 + x3 * r03,
               x0 * r01 + x1 * r11 + x2 * r12 + x3 * r13,
               x0 * r02 + x1 * r12 + x2 * r22 + x3 * r23,
               x0 * r03 + x1 * r13 + x2 * r23 + x3 * r33) for x0, x1, x2, x3 in t]
        gram = [[0] * 4 for _ in range(4)]
        for r, (y0, y1, y2, y3) in enumerate(tr):
            for c in range(r, 4):
                x0, x1, x2, x3 = t[c]
                q, rest = divmod(y0 * x0 + y1 * x1 + y2 * x2 + y3 * x3, k)
                if rest:
                    raise InvariantViolationError(
                        f"norm form of I_{a}·conj(I_{b}) is not integral")
                gram[r][c] = gram[c][r] = q
        return gram

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


class _PairSide:
    """One representative's data for the pair Grams (`ClassSet._pair_gram`).

    red is the reduced Gram R = U^t·G·U of I, and basis its reduced basis:
    the integer rows V_l = sum_r U[r][l]·B_r over I's denominator, B_r the
    Hermite rows; (det, adj) is adjugate4 of V, which reads reduced
    coordinates. x = v_0 is a shortest vector, nrd(x) = k·nrd(I) with
    k = R[0][0]/2 (checked), and ogs holds o_g = conj(g)·x/nrd(I), in O, as
    (integer vector, denominator), for the certified generators g of I.
    `act` is checked once against the multiplication of O.
    """

    __slots__ = ("ideal", "red", "basis", "det", "adj", "k", "ogs")

    def __init__(self, ideal: RightIdeal):
        alg, lat = ideal.alg, ideal.lattice
        red, u = ideal.reduced_gram()
        self.ideal, self.red, self.k = ideal, red, red[0][0] // 2
        self.basis = [tuple(sum(u[r][l] * lat.rows[r][c] for r in range(4))
                            for c in range(4)) for l in range(4)]
        self.det, adj = adjugate4(self.basis)
        self.adj = list(zip(*adj))  # by columns
        # for g = G/den and nrd(I) = n/d: o_g = d·conj(G)·V_0 / (den^2·n)
        norm, x = ideal.nrd(), self.basis[0]
        den = lat.den ** 2 * norm.numerator
        if alg.nrd(x) * norm.denominator != self.k * den:
            raise InvariantViolationError(
                f"the first reduced vector has nrd {alg.nrd(x)}/{lat.den ** 2}, "
                f"not k·nrd(I) = {self.k}·{norm}")
        self.ogs = [(tuple(norm.denominator * c for c in alg.mul(alg.conj(g), x)), den)
                    for g in ideal.generators()]
        # A(o·o') = A(o)·A(o') for two basis elements of O that do not
        # commute: `act` is checked against the multiplication of O, so that a
        # wrong reading of it (its transpose, say) fails here, where the
        # index and integrality checks of `_pair_gram` may pass it
        o_rows, e = ideal.order.lattice.rows, ideal.order.lattice.den
        o, o2 = next((o, o2) for o, o2 in combinations(o_rows, 2)
                     if alg.mul(o, o2) != alg.mul(o2, o))
        a, a2 = self.act(o, e), self.act(o2, e)
        if self.act(alg.mul(o, o2), e * e) != [[sum(x * y for x, y in zip(row, col))
                                                for col in zip(*a2)] for row in a]:
            raise InvariantViolationError(
                "the right action of O on the reduced basis is not multiplicative: "
                "A(o·o') != A(o)·A(o')")

    def act(self, vec, den):
        """Rows A with v_l·o = sum_m A[l][m]·v_m, for o = vec/den in O.

        With v_l = V_l/e, the product is Y/(e·den) for Y = V_l·vec, and its
        coordinates c solve c·V = Y/den: c = Y·adj/(den·det). Every division
        is exact, else o is not in the right order O of I.
        """
        mul, adj, div = self.ideal.alg.mul, self.adj, den * self.det
        rows = []
        for v in self.basis:
            y0, y1, y2, y3 = mul(v, vec)
            row = []
            for a0, a1, a2, a3 in adj:
                q, rest = divmod(y0 * a0 + y1 * a1 + y2 * a2 + y3 * a3, div)
                if rest:
                    raise InvariantViolationError("I·O is not contained in I")
                row.append(q)
            rows.append(row)
        return rows


def ideal_class_set(order: QuaternionOrder, neighbor_prime: int) -> ClassSet:
    """Enumerate all right-ideal classes of an Eichler order.

    neighbor_prime must be coprime to disc*level. The walk is deterministic:
    new classes are appended in the order their first representative appears,
    neighbors scanned in line order, and it stops at the class that completes
    the mass, which it reaches exactly or raises. Before the class set is
    returned or cached, its unit counts are certified as well
    (`ClassSet.certify_unit_counts`). Results go through the
    content-addressed cache when one is configured; cached entries are
    re-certified on load.
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
    reps, unit_counts = _walk(order, neighbor_prime, eichler_mass(alg_disc, level))
    cs = ClassSet(order, alg_disc, level, neighbor_prime, reps, unit_counts)
    cs.certify_unit_counts()
    _cache.store_class_set(cs)
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
