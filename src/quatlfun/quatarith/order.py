"""Orders in definite quaternion algebras: saturation, levels, units.

An order is a `Lattice4`, integer rows r_i over a denominator den, and every
question about it is asked in those integers: closure reads the products
r_i·r_j over den^2, the reduced discriminant is read off the determinant of
the integer norm Gram, and the left order {x : x·I ⊆ I} of a right ideal I is
(I·I^#)^#, I^# the dual of I under the trace pairing trd(xy): one product
lattice and two triangular adjugates, no intersection (Voight, "Quaternion
Algebras", 16.6-16.7).

The maximal-order routine saturates the obvious order Z<1,i,j,k> prime by
prime, at every prime q by one search: the first index-q superlattice
O + Z·(v/q), v over P^3(F_q), that is an order.
"""

from __future__ import annotations

import math
from math import gcd, isqrt

from ..errors import InvariantViolationError, UsageError
from ..exactalg import IntMatrix, det, kernel_mod
from ..primes import prime_factors
from .algebra import QuaternionAlgebra, algebra_from_discriminant
from .lattice import Lattice4, lagrange_reduce, value_counts

ONE = (1, 0, 0, 0)


class QuaternionOrder:
    """An order (full lattice closed under multiplication, containing 1)."""

    def __init__(self, alg: QuaternionAlgebra, lat: Lattice4):
        self.alg = alg
        self.lattice = lat
        self._check_order()
        self._discrd = None
        self._unit_count = None

    # -- structure ----------------------------------------------------------

    def _check_order(self):
        """1 is in the lattice, and so is every product b_i·b_j: its
        coordinates are the structure constants that `coords_mul` reads."""
        lat = self.lattice
        if not lat.contains(ONE):
            raise UsageError("an order must contain 1")
        self._mult_table = []
        for x in lat.rows:
            row = []
            for y in lat.rows:
                coords = lat.coordinates(self.alg.mul(x, y), lat.den ** 2)
                if coords is None:
                    raise UsageError("lattice is not multiplicatively closed")
                row.append(coords)
            self._mult_table.append(row)

    def key(self):
        return (self.alg.a, self.alg.b) + self.lattice.key()

    def __eq__(self, other):
        return isinstance(other, QuaternionOrder) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def reduced_discriminant(self) -> int:
        """sqrt|det trd(b_i·b_j)| = sqrt(det(T)/den^8), T the integer norm Gram."""
        if self._discrd is None:
            num, rem = divmod(det(IntMatrix.from_rows(self.alg.norm_gram(self.lattice))),
                              self.lattice.den ** 8)
            if rem:
                raise InvariantViolationError("trace form of an order must be integral")
            r = isqrt(num)
            if r * r != num:
                raise InvariantViolationError("trace-form determinant is not a square")
            self._discrd = r
        return self._discrd

    def coords_mul(self, x, y):
        """Product in basis coordinates (integer 4-tuples)."""
        table = self._mult_table
        out = [0, 0, 0, 0]
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        c = table[i][j]
                        f = xi * yj
                        out[0] += f * c[0]
                        out[1] += f * c[1]
                        out[2] += f * c[2]
                        out[3] += f * c[3]
        return tuple(out)

    def one_coords(self):
        c = self.lattice.coordinates(ONE)
        if c is None:
            raise InvariantViolationError("order does not contain 1")
        return c

    def unit_count(self) -> int:
        """#O^× = number of norm-1 elements (definite algebra).

        The norm Gram T has x^T T x = 2·den^2·nrd(x) and its entries are
        den^2·trd(b_i·conj(b_j)), integers on an order, so T/den^2 is
        integral and its value 2 counts the units, read by `value_counts`
        on its Lagrange reduction.
        """
        if self._unit_count is None:
            d2 = self.lattice.den ** 2
            t = self.alg.norm_gram(self.lattice)
            if any(x % d2 for row in t for x in row):
                raise InvariantViolationError("trace form of an order must be integral")
            gram = [[x // d2 for x in row] for row in t]
            self._unit_count = value_counts(lagrange_reduce(gram)[0], 2)[2]
        return self._unit_count


def standard_order(alg: QuaternionAlgebra) -> QuaternionOrder:
    return QuaternionOrder(alg, Lattice4(1, [[1, 0, 0, 0], [0, 1, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, 1]]))


def maximal_order(alg: QuaternionAlgebra) -> QuaternionOrder:
    """Saturate the standard order until the reduced discriminant is disc(A)."""
    target = alg.discriminant
    order = standard_order(alg)
    guard = 0
    while order.reduced_discriminant() != target:
        guard += 1
        if guard > 64:
            raise InvariantViolationError("maximal-order saturation did not terminate")
        ratio = order.reduced_discriminant() // target
        q = prime_factors(ratio)[0]
        bigger = _enlarge_brute(order, q)
        if bigger is None:
            raise InvariantViolationError(f"could not enlarge order at {q}")
        order = bigger
    return order


def _enlarge_brute(order: QuaternionOrder, q: int):
    """The first index-q superlattice O + Z·(v/q), v over `_proj_points(q)`,
    that is an order of smaller reduced discriminant, or None.

    This one search serves every q. Every element of an order is integral, so
    a candidate whose new element y = vec/(den·q) has trd(y) or nrd(y) outside
    Z is skipped before its lattice is built: 2·vec[0] must be divisible by
    den·q and nrd(vec) by (den·q)^2. The others get the full closure check, so
    the order returned is the one that trying every candidate returns.
    """
    den = order.lattice.den
    rows = [[x * q for x in r] for r in order.lattice.rows]
    dq = den * q
    for c in _proj_points(q):
        vec = [sum(c[i] * order.lattice.rows[i][k] for i in range(4)) for k in range(4)]
        if 2 * vec[0] % dq or order.alg.nrd(vec) % (dq * dq):
            continue
        try:
            cand = QuaternionOrder(order.alg, Lattice4(dq, rows + [vec]))
        except UsageError:
            continue
        if cand.reduced_discriminant() < order.reduced_discriminant():
            return cand
    return None


def _proj_points(q):
    """Representatives of P^3(F_q)."""
    pts = []
    for lead in range(4):
        base = [0] * 4
        base[lead] = 1
        rest = [i for i in range(lead + 1, 4)]
        for combo in _tuples(q, len(rest)):
            v = base[:]
            for idx, c in zip(rest, combo):
                v[idx] = c
            pts.append(tuple(v))
    return pts


def _tuples(q, k):
    if k == 0:
        yield ()
        return
    for rest in _tuples(q, k - 1):
        for c in range(q):
            yield (c,) + rest


def _dual_of_products(alg, xs, xden, ys, yden) -> Lattice4:
    """(X·Y)^#, X·Y spanned by the products x·y of the integer rows xs over
    xden and ys over yden."""
    rows = [alg.mul(x, y) for x in xs for y in ys]
    return _trace_dual(alg, Lattice4(xden * yden, rows))


def _trace_dual(alg: QuaternionAlgebra, lat: Lattice4) -> Lattice4:
    """L^# = {y : trd(x·y) ∈ Z for every x in L}.

    trd(x·y) = x·Q·y^T with Q = diag(2, 2a, 2b, -2ab), so for L = rows/den
    the element y lies in L^# iff M·y^T ∈ den·Z^4, M = rows·Q: L^# is spanned
    by the columns of den·M^-1 = den·adj(M)/det(M). The rows are a Hermite
    basis, so M is upper triangular with diagonal d_i and entries m_ij
    (i < j), det(M) = d_0·d_1·d_2·d_3, and adj(M) is upper triangular too,
    written out from M·adj(M) = det(M)·I.
    """
    a, b = alg.a, alg.b
    qa, qb, qab = 2 * a, 2 * b, -2 * a * b
    (r00, r01, r02, r03), (_, r11, r12, r13), (_, _, r22, r23), (_, _, _, r33) = lat.rows
    d0, m01, m02, m03 = 2 * r00, qa * r01, qb * r02, qab * r03
    d1, m12, m13 = qa * r11, qb * r12, qab * r13
    d2, m23 = qb * r22, qab * r23
    d3 = qab * r33
    d23, d01 = d2 * d3, d0 * d1
    e = lat.den
    # the columns of e·adj(M), column c holding adj's entries (0..c, c)
    cols = [[e * d1 * d23, 0, 0, 0],
            [-e * m01 * d23, e * d0 * d23, 0, 0],
            [e * (m01 * m12 - m02 * d1) * d3, -e * m12 * d0 * d3, e * d01 * d3, 0],
            [-e * (m01 * (m12 * m23 - m13 * d2) - m02 * d1 * m23 + m03 * d1 * d2),
             e * (m12 * m23 - m13 * d2) * d0, -e * m23 * d01, e * d01 * d2]]
    # negating every generator keeps the lattice, so |det| serves as denominator
    return Lattice4(abs(d01 * d23), cols)


def left_order_from_generators(alg: QuaternionAlgebra, lat: Lattice4, gens) -> QuaternionOrder:
    """The left order (I·I^#)^# of a right ideal I = lat over an order O,
    from right generators gens of I (integer rows over lat.den, I = sum g·O).

    I^# is a left O-module: for o in O and y in I^#, trd(I·o·y) lies in
    trd(I·y) ⊆ Z, as I·o ⊆ I. So I·I^# = sum g·O·I^# = sum g·I^#, spanned by
    the products g·y over I^#'s basis: 8 for a pair of generators, and the
    Hermite form is the same as from the 16 products of the basis.
    """
    dual = _trace_dual(alg, lat)
    return QuaternionOrder(alg, _dual_of_products(alg, gens, lat.den, dual.rows, dual.den))


def eichler_order(maximal: QuaternionOrder, level: int, splitting_factory) -> QuaternionOrder:
    """Eichler order of squarefree level M inside a maximal order.

    splitting_factory(order, ell, prec) must return a local splitting; the
    suborder keeps x with lower-left entry ≡ 0 mod ell at each ell | M.
    """
    if level == 1:
        return maximal
    alg = maximal.alg
    if gcd(level, maximal.reduced_discriminant()) != 1:
        raise UsageError("level must be coprime to the discriminant")
    order = maximal
    factors = prime_factors(level)
    if math.prod(factors) != level:
        raise UsageError("only squarefree levels are supported")
    for ell in factors:
        spl = splitting_factory(maximal, ell, 1)
        # sublattice of `order` where the (1,0) matrix entry vanishes mod ell
        cond = [spl.apply(maximal.lattice.coordinates(r, order.lattice.den))[1][0] % ell
                for r in order.lattice.rows]
        gens = kernel_mod(IntMatrix.from_rows([cond]), ell, 1)
        order = QuaternionOrder(alg, order.lattice.sublattice_mod(ell, gens))
    expected = maximal.reduced_discriminant() * level
    if order.reduced_discriminant() != expected:
        raise InvariantViolationError("Eichler order has wrong reduced discriminant")
    return order


def eichler_order_for(disc: int, level: int) -> QuaternionOrder:
    """The Eichler order of the given level in the maximal order of disc."""
    from .splitting import local_splitting
    return eichler_order(maximal_order(algebra_from_discriminant(disc)), level,
                         local_splitting)
