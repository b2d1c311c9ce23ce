"""Right ideals of quaternion orders: products, isometry, neighbors.

Class equality is decided exactly: [I] = [J] iff the lattice I·conj(J)
represents nrd(I)·nrd(J), tested by short-vector enumeration at that exact
value (no slack). Theta-coefficient keys prune the quadratic search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import InvariantViolationError, UsageError
from ..exactalg import IntMatrix, kernel_mod
from .algebra import QuaternionAlgebra
from .lattice import (Lattice4, count_values, represents_value,
                      shortest_value_and_vector)
from .order import QuaternionOrder, left_order_of
from .splitting import LocalSplitting


class RightIdeal:
    """A full lattice that is a right module over its right order."""

    def __init__(self, order: QuaternionOrder, lat: Lattice4, check: bool = False):
        self.order = order
        self.alg = order.alg
        self.lattice = lat
        self._nrd = None
        self._gram = None
        self._theta = None
        self._left_order = None
        if check:
            self.check_right_stability()

    @staticmethod
    def unit_ideal(order: QuaternionOrder) -> "RightIdeal":
        return RightIdeal(order, order.lattice)

    def key(self):
        return self.lattice.key()

    def check_right_stability(self):
        for b in self.lattice.basis_fractions():
            for g in self.order.basis():
                prod = self.alg.mul(tuple(b), g)
                if not self.lattice.contains(prod):
                    raise InvariantViolationError("lattice is not right-stable")

    def nrd(self) -> Fraction:
        """Reduced norm of the ideal: the content of the norm form."""
        if self._nrd is None:
            gram, den_sq = self._norm_gram()
            c = 0
            for i in range(4):
                c = gcd(c, gram[i][i] // 2)
                for j in range(i + 1, 4):
                    c = gcd(c, gram[i][j])
            self._nrd = Fraction(c, den_sq)
        return self._nrd

    def _norm_gram(self):
        """(T, den^2) with nrd(sum c_i r_i / den) = c^T T c / (2 den^2)."""
        if self._gram is None:
            rows = self.lattice.rows  # integer rows over the common denominator
            t = [[self.alg.trd_pair(rows[i], rows[j]) for j in range(4)]
                 for i in range(4)]
            self._gram = (t, self.lattice.den ** 2)
        return self._gram

    def normalized_gram(self):
        """Gram of nrd scaled by 1/nrd(I): a primitive integral quaternary form."""
        gram, den_sq = self._norm_gram()
        scale = Fraction(1, 2 * den_sq) / self.nrd()
        return [[x * scale for x in row] for row in gram]

    def theta_key(self, upto: int = 6):
        """Representation counts of the normalized norm form at 1..upto."""
        if self._theta is None:
            self._theta = count_values(self.normalized_gram(), upto)
        return self._theta

    def left_order(self) -> QuaternionOrder:
        if self._left_order is None:
            self._left_order = left_order_of(self.alg, self.lattice)
        return self._left_order

    def conjugate_lattice(self) -> Lattice4:
        rows = [self.alg.conj(r) for r in self.lattice.rows]
        return Lattice4(self.lattice.den, rows)

    def product_lattice(self, other_lat: Lattice4) -> Lattice4:
        rows = []
        for x in self.lattice.rows:
            for y in other_lat.rows:
                rows.append(self.alg.mul(x, y))
        return Lattice4(self.lattice.den * other_lat.den, rows)

    def scaled(self, c) -> "RightIdeal":
        return RightIdeal(self.order, self.lattice.scaled(c))


def reduce_ideal(ideal: RightIdeal) -> RightIdeal:
    """Equivalent right ideal of minimal reduced norm.

    For a minimal-norm x in J the ideal (conj(x)/nrd(J))·J is in the same
    class, is integral (conj(x)·J ⊆ conj(J)·J = nrd(J)·O_right), and has
    nrd = nrd(x)/nrd(J), bounded by the Minkowski constant of the norm form.
    """
    target_base = ideal.nrd()
    gram = ideal.normalized_gram()
    value, coords = shortest_value_and_vector(gram)
    if value == target_base:
        return ideal  # norm already minimal within the class
    basis = ideal.lattice.basis_fractions()
    x = tuple(sum(Fraction(coords[i]) * basis[i][k] for i in range(4))
              for k in range(4))
    factor = tuple(Fraction(v) / target_base for v in ideal.alg.conj(x))
    rows = [ideal.alg.mul(factor, tuple(b)) for b in ideal.lattice.basis_fractions()]
    out = RightIdeal(ideal.order, Lattice4.from_fraction_rows(rows))
    if out.nrd() != Fraction(ideal.alg.nrd(x)) / target_base:
        raise InvariantViolationError("ideal reduction changed the class data")
    return out


def isometric(i1: RightIdeal, i2: RightIdeal) -> bool:
    """Same right-ideal class: I = x·J for some x in the algebra.

    Equivalent to the product lattice I·conj(J) representing nrd(I)·nrd(J).
    """
    if i1.order is not i2.order and i1.order != i2.order:
        raise UsageError("ideals must share a right order")
    if i1.theta_key() != i2.theta_key():
        return False
    prod = i1.product_lattice(i2.conjugate_lattice())
    target = i1.nrd() * i2.nrd()
    gram, den = _gram_of_lattice(i1.alg, prod)
    # Q(c) = nrd(sum c_k b_k) = c^T gram c / (2 den); want value == target
    q = [[Fraction(x, 2 * den) for x in row] for row in gram]
    return represents_value(q, target)


def _gram_of_lattice(alg: QuaternionAlgebra, lat: Lattice4):
    r = lat.rows
    rows = [[alg.trd_pair(r[i], r[j]) for j in range(4)] for i in range(4)]
    return rows, lat.den ** 2


def neighbors(ideal: RightIdeal, ell: int, spl: LocalSplitting):
    """The ell+1 neighbor sublattices J ⊂ I with nrd(J) = ell·nrd(I).

    spl must split the right order at ell. A generator x0 of I/ellI is found
    (any element whose norm has the same ell-valuation as nrd(I)); the
    neighbors are x0·(pullbacks of the ell+1 simple right ideals of M_2(F_ell))
    plus ell·I.
    """
    order = ideal.order
    alg = ideal.alg
    if spl.ell != ell:
        raise UsageError("splitting prime mismatch")
    x0 = _local_generator(ideal, ell)  # integer row over the ideal denominator
    den_i = ideal.lattice.den
    den_o = order.lattice.den
    # pull back the line modules R_u = {matrices with columns in u}
    lines = [(1, 0)] + [(t, 1) for t in range(ell)]
    out = []
    den = den_i * den_o
    scaled_base = [[x * ell * den_o for x in r] for r in ideal.lattice.rows]
    for u in lines:
        ybasis = _line_preimage_basis(order, spl, u, ell)
        rows = [list(r) for r in scaled_base]
        for y in ybasis:
            yvec = [sum(y[i] * order.lattice.rows[i][k] for i in range(4))
                    for k in range(4)]
            rows.append(list(alg.mul(x0, tuple(yvec))))
        lat = Lattice4(den, rows)
        j = RightIdeal(order, lat)
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


def _line_preimage_basis(order: QuaternionOrder, spl: LocalSplitting, u, ell):
    """Coordinates mod ell of {y in O : columns of iota(y) lie on the line u}."""
    u0, u1 = u
    # conditions: for both columns c of iota(y): u1*c0 - u0*c1 ≡ 0 (line test)
    rows = []
    for col in range(2):
        row = []
        for i in range(4):
            m = spl.basis_images[i]
            row.append((u1 * m[0][col] - u0 * m[1][col]) % ell)
        rows.append(row)
    # over F_ell the generators are columns of an invertible transform, so
    # they are independent: two of them exactly when the conditions have rank 2
    gens = kernel_mod(IntMatrix.from_rows(rows), ell, 1)
    if len(gens) != 2:
        raise InvariantViolationError("line preimage is not 2-dimensional")
    return gens

