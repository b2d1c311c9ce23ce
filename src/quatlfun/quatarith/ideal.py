"""Right ideals of quaternion orders: products, isometry, neighbors.

Every ideal carries certified right generators: the first pair (x, y) of its
basis rows with xO + yO = I (the Hermite form of the eight products x·o, y·o
over the order's basis must be I's), or its four rows when no pair spans.
Products I·M with a left O-module M are spanned by the generators times M,
eight products instead of sixteen, and their Hermite form is the same.
Every ideal also carries one integer Gram G, built once from
`QuaternionAlgebra.norm_gram`, with x^T G x = 2·nrd(x)/nrd(I) in its lattice
basis, and one Lagrange reduction of G. The content of G gives nrd(I); the
reduced Gram gives the shortest vector (the reduced ideal) and two tiers of
value counts: the theta key at 2, 4, ..., 12 (nrd(x)/nrd(I) = 1..6), and,
computed only on demand, the theta tail at 14, ..., 2·THETA_TAIL_NRD. Both
are class invariants: y -> x·y carries J's normalized norm form onto that of
I = x·J. Class equality is decided exactly: [I] = [J] iff the lattice
I·conj(J) represents nrd(I)·nrd(J), tested by short-vector enumeration at
that exact value (no slack); `isometric` enumerates the conjugate lattice
J·conj(I) instead, so that J's generators serve. The element found is a
witness: x in I·conj(J) with nrd(x) = nrd(I)·nrd(J) gives I = (x/nrd(J))·J.
Callers bucket representatives by theta key, so only ideals with equal keys
are tested, and in a crowded bucket only those with equal tails.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from ..errors import InvariantViolationError, UsageError
from .lattice import (Lattice4, enumerate_by_value, lagrange_reduce,
                      shortest_value_and_vector, value_counts)
from .order import QuaternionOrder, left_order_of
from .splitting import LocalSplitting

# largest nrd(x)/nrd(I) counted by the theta tail: over the 57 sweep class
# sets and the 20 quotient-sweep discs, 20 or 24 spare only 3 more of ~400
# failing isometry tests at a higher enumeration cost; 12 leaves twice as
# many as 16 on disc 374
THETA_TAIL_NRD = 16


class RightIdeal:
    """A full lattice that is a right module over its right order."""

    def __init__(self, order: QuaternionOrder, lat: Lattice4):
        self.order = order
        self.alg = order.alg
        self.lattice = lat
        self._nrd = None
        self._gram = None
        self._reduced = None
        self._theta = None
        self._theta_tail = None
        self._left_order = None
        self._conjugate = None
        self._generators = None

    @staticmethod
    def unit_ideal(order: QuaternionOrder) -> "RightIdeal":
        return RightIdeal(order, order.lattice)

    def key(self):
        return self.lattice.key()

    def check_right_stability(self):
        lat, order_lat = self.lattice, self.order.lattice
        for x in lat.rows:
            for y in order_lat.rows:
                if not lat.contains(self.alg.mul(x, y), lat.den * order_lat.den):
                    raise InvariantViolationError("lattice is not right-stable")

    def nrd(self) -> Fraction:
        """Reduced norm of the ideal: the content of the norm form."""
        if self._nrd is None:
            self.normalized_gram()
        return self._nrd

    def normalized_gram(self):
        """Integer G with x^T G x = 2·nrd(x)/nrd(I); x^T G x / 2 is primitive."""
        if self._gram is None:
            t = self.alg.norm_gram(self.lattice)
            c = 0
            for i in range(4):
                c = gcd(c, t[i][i] // 2, *t[i][i + 1:])
            self._nrd = Fraction(c, self.lattice.den ** 2)
            self._gram = [[x // c for x in row] for row in t]
        return self._gram

    def reduced_gram(self):
        """(R, U): the Lagrange reduction R = U^T G U of the normalized Gram G."""
        if self._reduced is None:
            self._reduced = lagrange_reduce(self.normalized_gram())
        return self._reduced

    def theta_key(self):
        """Counts of x with nrd(x)/nrd(I) = 1, ..., 6, i.e. x^T G x = 2, ..., 12."""
        if self._theta is None:
            self._theta = tuple(value_counts(self.reduced_gram()[0], 12)[2::2])
        return self._theta

    def theta_tail(self):
        """Counts of x with nrd(x)/nrd(I) = 7, ..., THETA_TAIL_NRD."""
        if self._theta_tail is None:
            counts = value_counts(self.reduced_gram()[0], 2 * THETA_TAIL_NRD)
            self._theta_tail = tuple(counts[14::2])
        return self._theta_tail

    def left_order(self) -> QuaternionOrder:
        if self._left_order is None:
            self._left_order = left_order_of(self.alg, self.lattice)
        return self._left_order

    def conjugate_lattice(self) -> Lattice4:
        if self._conjugate is None:
            rows = [self.alg.conj(r) for r in self.lattice.rows]
            self._conjugate = Lattice4(self.lattice.den, rows)
        return self._conjugate

    def generators(self):
        """Right generators of I over its order: the first pair (x, y) of basis
        rows with xO + yO = I, certified by the Hermite form of the eight
        products, or else the four rows."""
        if self._generators is None:
            rows, order_lat = self.lattice.rows, self.order.lattice
            den = self.lattice.den * order_lat.den
            self._generators = rows
            for pair in combinations(rows, 2):
                span = [self.alg.mul(x, o) for x in pair for o in order_lat.rows]
                if Lattice4(den, span) == self.lattice:
                    self._generators = pair
                    break
        return self._generators

    def product_lattice(self, other_lat: Lattice4) -> Lattice4:
        """I·M for a lattice M that is a left module over I's order.

        With I = xO + yO and O·M = M, I·M = x·M + y·M, so only the
        generators are multiplied: 8 products instead of 16. The Hermite
        form is canonical, so the lattice is the same either way.
        """
        rows = [self.alg.mul(x, y) for x in self.generators() for y in other_lat.rows]
        return Lattice4(self.lattice.den * other_lat.den, rows)


def reduce_ideal(ideal: RightIdeal) -> RightIdeal:
    """Equivalent right ideal of minimal reduced norm.

    For a minimal-norm x in J the ideal (conj(x)/nrd(J))·J is in the same
    class, is integral (conj(x)·J ⊆ conj(J)·J = nrd(J)·O_right), and has
    nrd = nrd(x)/nrd(J), bounded by the Minkowski constant of the norm form.
    It is built in integers: with J = (1/den)·rows and nrd(J) = n/d, its
    rows are d·conj(den·x)·r over den^2·n. The search runs on the ideal's
    own Lagrange reduction, so each call reduces the Gram at most once.
    """
    value, coords = shortest_value_and_vector(ideal.normalized_gram(),
                                              ideal.reduced_gram())
    norm = ideal.nrd()
    if value * norm.denominator == 2 * norm.numerator:
        return ideal  # norm already minimal within the class
    alg = ideal.alg
    rows = ideal.lattice.rows
    den = ideal.lattice.den
    x = alg.conj(tuple(sum(c * r[k] for c, r in zip(coords, rows)) for k in range(4)))
    out_rows = [[norm.denominator * v for v in alg.mul(x, r)] for r in rows]
    out = RightIdeal(ideal.order, Lattice4(den * den * norm.numerator, out_rows))
    if out.nrd() != Fraction(alg.nrd(x), den * den) / norm:
        raise InvariantViolationError("ideal reduction changed the class data")
    return out


def isometry_witness(i1: RightIdeal, i2: RightIdeal):
    """x with I = (x/nrd(J))·J for I = i1 and J = i2, or None if none exists.

    x is the first element of the product lattice I·conj(J) with
    nrd(x) = nrd(I)·nrd(J) that the enumeration meets, returned as an integer
    4-tuple vec over a positive den (x = vec/den). When I and J lie in the
    order, so does x. Ideals with different theta keys get None untested.
    Why I = (x/nrd(J))·J: x·J ⊆ I·conj(J)·J = nrd(J)·I, and both sides of
    I ⊇ (x/nrd(J))·J have reduced norm nrd(I), so they are equal.
    """
    if not _same_theta_key(i1, i2):
        return None
    prod = i1.product_lattice(i2.conjugate_lattice())
    c = _element_of_norm(prod, i1, i2)
    if c is None:
        return None
    return tuple(sum(ci * r[k] for ci, r in zip(c, prod.rows)) for k in range(4)), prod.den


def isometric(i1: RightIdeal, i2: RightIdeal) -> bool:
    """Same right-ideal class: I = x·J for some x in the algebra.

    Equivalent to I·conj(J) representing nrd(I)·nrd(J). The test runs on
    J·conj(I) = conj(I·conj(J)), which has the same norms, so the answer is
    `isometry_witness`'s; J's generators are the ones multiplied, and in a
    class-set lookup J is the representative, whose generators are kept.
    """
    return _same_theta_key(i1, i2) and _element_of_norm(
        i2.product_lattice(i1.conjugate_lattice()), i1, i2) is not None


def _same_theta_key(i1: RightIdeal, i2: RightIdeal) -> bool:
    if i1.order is not i2.order and i1.order != i2.order:
        raise UsageError("ideals must share a right order")
    return i1.theta_key() == i2.theta_key()


def _element_of_norm(prod: Lattice4, i1: RightIdeal, i2: RightIdeal):
    """Coordinates in prod's basis of its first element of reduced norm
    nrd(i1)·nrd(i2), or None: its norm Gram T must represent
    2·den^2·nrd(i1)·nrd(i2)."""
    n1, n2 = i1.nrd(), i2.nrd()
    target, rest = divmod(2 * prod.den ** 2 * n1.numerator * n2.numerator,
                          n1.denominator * n2.denominator)
    if rest:
        return None
    for value, c in enumerate_by_value(i1.alg.norm_gram(prod), target):
        if value == target:
            return c
    return None


def neighbors(ideal: RightIdeal, ell: int, spl: LocalSplitting):
    """The ell+1 neighbor sublattices J ⊂ I with nrd(J) = ell·nrd(I).

    spl must split the right order at ell. A generator x0 of I/ellI is found
    (any element whose norm has the same ell-valuation as nrd(I)); the
    neighbors are x0·(pullbacks of the ell+1 simple right ideals of M_2(F_ell))
    plus ell·I. The pullbacks are the splitting's `line_preimages`, computed
    once per splitting; x0·y for y = sum_i y_i·o_i is sum_i y_i·(x0·o_i), so
    x0 is multiplied by the order's four basis rows once per ideal.
    """
    order = ideal.order
    alg = ideal.alg
    if spl.ell != ell:
        raise UsageError("splitting prime mismatch")
    x0 = _local_generator(ideal, ell)  # integer row over the ideal denominator
    den_i = ideal.lattice.den
    den_o = order.lattice.den
    x0o = [alg.mul(x0, o) for o in order.lattice.rows]
    out = []
    den = den_i * den_o
    scaled_base = [[x * ell * den_o for x in r] for r in ideal.lattice.rows]
    for ybasis in spl.line_preimages:
        rows = scaled_base + [[sum(yi * xo[k] for yi, xo in zip(y, x0o)) for k in range(4)]
                              for y in ybasis]
        j = RightIdeal(order, Lattice4(den, rows))
        if j.nrd() != ell * ideal.nrd():
            raise InvariantViolationError("neighbor has wrong reduced norm")
        out.append(j)
    return out


def _local_generator(ideal: RightIdeal, ell: int):
    """Integer row (over the ideal denominator) generating I/ellI on the right."""
    target_val = _ell_valuation(ideal.nrd() * ideal.lattice.den ** 2, ell)
    rows = ideal.lattice.rows
    alg = ideal.alg
    candidates = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    for extra in range(1, 3):
        for i in range(4):
            for j in range(i + 1, 4):
                c = [0] * 4
                c[i] = 1
                c[j] = extra
                candidates.append(tuple(c))
    for c in candidates:
        x = tuple(sum(c[i] * rows[i][k] for i in range(4)) for k in range(4))
        if _ell_valuation(Fraction(alg.nrd(x)), ell) == target_val:
            return x
    raise InvariantViolationError("no local generator found; ideal data corrupt")


def _ell_valuation(fr: Fraction, ell: int) -> int:
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % ell == 0:
        num //= ell
        v += 1
    while den % ell == 0:
        den //= ell
        v -= 1
    return v
