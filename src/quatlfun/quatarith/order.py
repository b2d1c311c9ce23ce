"""Orders in definite quaternion algebras: saturation, levels, units.

An order is a `Lattice4`, integer rows r_i over a denominator den, and every
question about it is asked in those integers: closure reads the products
r_i·r_j over den^2, the reduced discriminant is read off the determinant of
the integer norm Gram, and an idealizer {x : x·L ⊆ L} is the intersection
over the rows r of L·conj(r)/nrd(r), since x·b ∈ L iff x ∈ L·b^-1 and
b^-1 = conj(b)/nrd(b) (Voight, "Quaternion Algebras", 16.6-16.7).

The maximal-order routine saturates the obvious order Z<1,i,j,k> prime by
prime: index-q superorders are found by brute force for q in {2, 3} and by the
radical idealizer for q >= 5 (where the trace form detects the radical, since
the characteristic exceeds the dimension), again by brute force when the
order is already hereditary at q and the idealizers add nothing.
"""

from __future__ import annotations

import math
from math import gcd, isqrt

from ..errors import InvariantViolationError, UsageError
from ..exactalg import IntMatrix, det, kernel_mod
from ..primes import is_prime, prime_factors
from .algebra import QuaternionAlgebra, algebra_from_discriminant
from .lattice import Lattice4, enumerate_by_value, hnf_rows

ONE = (1, 0, 0, 0)


class QuaternionOrder:
    """An order (full lattice closed under multiplication, containing 1)."""

    def __init__(self, alg: QuaternionAlgebra, lat: Lattice4, check: bool = True):
        self.alg = alg
        self.lattice = lat
        if check:
            self._check_order()
        self._discrd = None
        self._mult_table = None
        self._unit_count = None

    # -- structure ----------------------------------------------------------

    def _check_order(self):
        lat = self.lattice
        if not lat.contains(ONE):
            raise UsageError("an order must contain 1")
        for x in lat.rows:
            for y in lat.rows:
                if not lat.contains(self.alg.mul(x, y), lat.den ** 2):
                    raise UsageError("lattice is not multiplicatively closed")

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

    def mult_table(self):
        """Structure constants c[i][j] = coordinates of b_i * b_j; integral."""
        if self._mult_table is None:
            lat = self.lattice
            table = []
            for x in lat.rows:
                row = []
                for y in lat.rows:
                    coords = lat.coordinates(self.alg.mul(x, y), lat.den ** 2)
                    if coords is None:
                        raise InvariantViolationError("order closure failed")
                    row.append(coords)
                table.append(row)
            self._mult_table = table
        return self._mult_table

    def coords_mul(self, x, y):
        """Product in basis coordinates (integer 4-tuples)."""
        table = self.mult_table()
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
        """#O^× = number of norm-1 elements (definite algebra)."""
        if self._unit_count is None:
            # nrd(x) = 1 reads x^T T x = 2·den^2, the least nonzero value
            target = 2 * self.lattice.den ** 2
            self._unit_count = sum(
                value == target for value, _ in
                enumerate_by_value(self.alg.norm_gram(self.lattice), target))
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
        bigger = _enlarge_at(order, q)
        if bigger is None:
            raise InvariantViolationError(f"could not enlarge order at {q}")
        order = bigger
    return order


def _enlarge_at(order: QuaternionOrder, q: int):
    """An order of index q over `order`, or None.

    For q >= 5 the radical's idealizers are tried first; when O/qO is already
    hereditary at q they give nothing new, and brute force over the index-q
    superlattices decides.
    """
    if q <= 3:
        return _enlarge_brute(order, q)
    return _enlarge_radical(order, q) or _enlarge_brute(order, q)


def _enlarge_brute(order: QuaternionOrder, q: int):
    """Try all index-q superlattices O + Z*(v/q); keep the first real order."""
    den = order.lattice.den
    rows = [[x * q for x in r] for r in order.lattice.rows]
    candidates = []
    for c in _proj_points(q):
        vec = [sum(c[i] * order.lattice.rows[i][k] for i in range(4)) for k in range(4)]
        candidates.append(vec)
    for vec in candidates:
        lat = Lattice4(den * q, rows + [vec])
        try:
            cand = QuaternionOrder(order.alg, lat)
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


def _radical_mod(order: QuaternionOrder, q: int):
    """Basis (coordinate vectors mod q) of the radical of O/qO.

    For q >= 5 the radical is the kernel of the trace form x -> tr(L_{xy});
    for q in {2, 3} the callers use brute force instead, except for ramified
    primes of a maximal order where the radical equals the set of nilpotents
    (the quotient is local); that case is handled by nilpotent search.
    """
    table = order.mult_table()

    def left_mult_trace(i, j):
        # trace of left multiplication by b_i * b_j on O/qO
        prod = table[i][j]
        tr = 0
        for k in range(4):
            img = order.coords_mul(prod, _unit_vec(k))
            tr += img[k]
        return tr % q

    if q < 5:
        raise UsageError("trace-form radical needs q >= 5; small q goes brute force")
    rows = [[left_mult_trace(i, j) for j in range(4)] for i in range(4)]
    gens = kernel_mod(IntMatrix.from_rows(rows), q, 1)
    return [tuple(x % q for x in g) for g in gens]


def _unit_vec(k):
    v = [0, 0, 0, 0]
    v[k] = 1
    return tuple(v)


def _enlarge_radical(order: QuaternionOrder, q: int):
    # J = qO + (radical lifts), a sublattice of O over the same denominator
    j_lat = order.lattice.sublattice_mod(q, _radical_mod(order, q))
    for side in ("left", "right"):
        idl = _idealizer(order.alg, j_lat, side)
        if idl.covolume() < order.lattice.covolume():
            return QuaternionOrder(order.alg, idl)
    return None


def _idealizer(alg: QuaternionAlgebra, lat: Lattice4, side: str) -> Lattice4:
    """{x : x L ⊆ L} (left) or {x : L x ⊆ L} (right), for any full lattice L.

    For a row r of L, b = r/den has b^-1 = den·conj(r)/nrd(r), so
    {x : x·b ∈ L} = L·b^-1 is spanned by the rows λ·conj(r) over nrd(r)
    (the den cancels), and {x : b·x ∈ L} by conj(r)·λ.
    """
    out = None
    for r in lat.rows:
        c = alg.conj(r)
        if side == "left":
            rows = [alg.mul(lam, c) for lam in lat.rows]
        else:
            rows = [alg.mul(c, lam) for lam in lat.rows]
        pre = Lattice4(alg.nrd(r), rows)
        out = pre if out is None else out.intersection(pre)
    return out


def left_order_of(alg: QuaternionAlgebra, lat: Lattice4) -> QuaternionOrder:
    return QuaternionOrder(alg, _idealizer(alg, lat, "left"))


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


def two_sided_prime(order: QuaternionOrder, q: int) -> Lattice4:
    """The two-sided ideal P_q = qO + rad(O/qO) at a ramified prime q.

    Requires a prime q dividing the algebra's discriminant, where an Eichler
    order is maximal; the quotient O/qO is then local and the radical is its
    set of nilpotents. Any other q is a UsageError, raised before any work.
    """
    if not is_prime(q) or order.alg.discriminant % q:
        raise UsageError(f"two-sided prime wants a prime dividing the "
                         f"discriminant {order.alg.discriminant}, got {q}")
    return order.lattice.sublattice_mod(q, _radical_mod_local(order, q))


def _radical_mod_local(order: QuaternionOrder, q: int):
    if q >= 5:
        return _radical_mod(order, q)
    # brute force nilpotents; O/qO is local at a ramified q so they form the radical
    nilp = []
    for c in _tuples(q, 4):
        if not any(c):
            continue
        y = tuple(c)
        for _ in range(3):  # y -> y^2, up to x^8 >= nilpotency index 4
            y = tuple(v % q for v in order.coords_mul(y, y))
        if all(v == 0 for v in y):
            nilp.append(list(c))
    if not nilp:
        raise InvariantViolationError("radical of a ramified quotient cannot vanish")
    rows = hnf_rows(nilp)
    return [tuple(x % q for x in r) for r in rows]
