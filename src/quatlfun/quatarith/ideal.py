"""Right ideals of quaternion orders: products, isometry, neighbors.

Every ideal carries certified right generators: the first pair (x, y) of its
basis rows with xO + yO = I (the Hermite form of the eight products x·o, y·o
over the order's basis must be I's), or its four rows when no pair spans.
Its left order (I·I^#)^# is spanned by the generators times I^#, eight
products instead of sixteen, and its o_g (below) are built from them.
Every ideal also carries one integer Gram G, built once from
`QuaternionAlgebra.norm_gram`, with x^T G x = 2·nrd(x)/nrd(I) in its lattice
basis, and one Lagrange reduction of G. The content of G gives nrd(I); the
reduced Gram gives the shortest vector (the reduced ideal) and two tiers of
value counts: the theta key at 2, 4, ..., 12 (nrd(x)/nrd(I) = 1..6), and,
computed only on demand, the theta tail at 14, ..., 2·THETA_TAIL_NRD. Both
are class invariants: y -> x·y carries J's normalized norm form onto that of
I = x·J. Class equality is decided exactly: [I] = [J] iff the lattice
I·conj(J) represents nrd(I)·nrd(J), that is iff its Gram
x -> 2·nrd(x)/(nrd(I)·nrd(J)) represents 2, counted at that exact value (no
slack). Every product of ideals is read off a Gram the ideals keep, and no
product lattice is built. `pair_gram` is the one product-Gram primitive,
which `isometric` and the class set's pair forms read: I's reduced basis is
acted on by the o_g of J, which J builds once (with the check of `act`),
and the index of that span is checked once, in `_pair_basis`. The witness
of `isometry_witness`, the element x in I·conj(J) with
nrd(x) = nrd(I)·nrd(J), which gives I = (x/nrd(J))·J, is the first vector
of value 2 on the same pair Gram, mapped back through that pair basis. The
class set reads I·P_q off G mod q (`classset.uq_by_classification`).
Callers bucket representatives by theta key, so only ideals with equal keys
are tested, and in a crowded bucket only those with equal tails; the
filters only admit a test, and `isometric` still decides every match.
Each ideal keeps one PreparedForm of its reduced Gram, which the key, the
tail and `reduce_ideal`'s search share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from ..errors import InvariantViolationError, UsageError
from ..primes import valuation
from .lattice import (Lattice4, PreparedForm, adjugate4, enumerate_by_value, hnf_mod,
                      lagrange_reduce, shortest_value_and_vector, value_counts)
from .order import QuaternionOrder, left_order_from_generators
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
        self._form = None
        self._theta = None
        self._theta_tail = None
        self._left_order = None
        self._generators = None
        self._basis = None  # (reduced basis, its det, its adjugate by columns)
        self._pair_gens = None  # (k, the o_g)

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

    def prepared_form(self) -> PreparedForm:
        """The PreparedForm of R, shared by the theta key, the tail and the
        search of `reduce_ideal`."""
        if self._form is None:
            self._form = PreparedForm(self.reduced_gram()[0])
        return self._form

    def theta_key(self):
        """Counts of x with nrd(x)/nrd(I) = 1, ..., 6, i.e. x^T G x = 2, ..., 12."""
        if self._theta is None:
            self._theta = tuple(value_counts(self.prepared_form(), 12)[2::2])
        return self._theta

    def theta_tail(self):
        """Counts of x with nrd(x)/nrd(I) = 7, ..., THETA_TAIL_NRD."""
        if self._theta_tail is None:
            counts = value_counts(self.prepared_form(), 2 * THETA_TAIL_NRD)
            self._theta_tail = tuple(counts[14::2])
        return self._theta_tail

    def left_order(self) -> QuaternionOrder:
        """(I·I^#)^#, from the certified generators times I^#."""
        if self._left_order is None:
            self._left_order = left_order_from_generators(self.alg, self.lattice,
                                                          self.generators())
        return self._left_order

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

    def reduced_basis(self):
        """The reduced basis v_l = V_l/den of I: V_l = sum_r U[r][l]·B_r, B_r
        the Hermite rows, (R, U) = `reduced_gram()`; row r of B is 0 left of
        column r. Its adjugate, which reads reduced coordinates, is kept for
        `act`."""
        if self._basis is None:
            (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = \
                self.lattice.rows
            basis = [(u0 * a0, u0 * a1 + u1 * b1, u0 * a2 + u1 * b2 + u2 * c2,
                      u0 * a3 + u1 * b3 + u2 * c3 + u3 * d3)
                     for u0, u1, u2, u3 in zip(*self.reduced_gram()[1])]
            det, adj = adjugate4(basis)
            self._basis = basis, det, list(zip(*adj))
        return self._basis[0]

    def act(self, vec, den):
        """Rows A with v_l·o = sum_m A[l][m]·v_m, for o = vec/den in O.

        With v_l = V_l/e, the product is Y/(e·den) for Y = V_l·vec, and its
        coordinates c solve c·V = Y/den: c = Y·adj/(den·det). Every division
        is exact, else o is not in the right order O of I.
        """
        if self._basis is None:
            self.reduced_basis()
        basis, det, adj = self._basis
        mul, div = self.alg.mul, den * det
        (a00, a01, a02, a03), (a10, a11, a12, a13), \
            (a20, a21, a22, a23), (a30, a31, a32, a33) = adj
        rows = []
        for v in basis:
            y0, y1, y2, y3 = mul(v, vec)
            q0, r0 = divmod(y0 * a00 + y1 * a01 + y2 * a02 + y3 * a03, div)
            q1, r1 = divmod(y0 * a10 + y1 * a11 + y2 * a12 + y3 * a13, div)
            q2, r2 = divmod(y0 * a20 + y1 * a21 + y2 * a22 + y3 * a23, div)
            q3, r3 = divmod(y0 * a30 + y1 * a31 + y2 * a32 + y3 * a33, div)
            if r0 or r1 or r2 or r3:
                raise InvariantViolationError("I·O is not contained in I")
            rows.append([q0, q1, q2, q3])
        return rows

    def pair_generators(self):
        """(k, ogs): x = v_0, the first reduced vector, has nrd(x) = k·nrd(I)
        with k = R[0][0]/2 (checked), and ogs holds o_g = conj(g)·x/nrd(I),
        in O, as (integer vector, denominator), for the certified generators
        g of I. Built once; `act` is checked here, once, against the
        multiplication of O."""
        if self._pair_gens is None:
            alg, lat = self.alg, self.lattice
            k = self.reduced_gram()[0][0][0] // 2
            # for g = G/den and nrd(I) = n/d: o_g = d·conj(G)·V_0 / (den^2·n)
            norm, x = self.nrd(), self.reduced_basis()[0]
            den = lat.den ** 2 * norm.numerator
            if alg.nrd(x) * norm.denominator != k * den:
                raise InvariantViolationError(
                    f"the first reduced vector has nrd {alg.nrd(x)}/{lat.den ** 2}, "
                    f"not k·nrd(I) = {k}·{norm}")
            ogs = [(tuple(norm.denominator * c for c in alg.mul(alg.conj(g), x)), den)
                   for g in self.generators()]
            # A(o·o') = A(o)·A(o') for two basis elements of O that do not
            # commute: `act` is checked against the multiplication of O, so
            # that a wrong reading of it (its transpose, say) fails here,
            # where the index and integrality checks of `pair_gram` may pass it
            o_rows, e = self.order.lattice.rows, self.order.lattice.den
            o, o2 = next((o, o2) for o, o2 in combinations(o_rows, 2)
                         if alg.mul(o, o2) != alg.mul(o2, o))
            a, cols = self.act(o, e), list(zip(*self.act(o2, e)))
            if self.act(alg.mul(o, o2), e * e) != [
                    [p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3 for q0, q1, q2, q3 in cols]
                    for p0, p1, p2, p3 in a]:
                raise InvariantViolationError(
                    "the right action of O on the reduced basis is not multiplicative: "
                    "A(o·o') != A(o)·A(o')")
            self._pair_gens = k, ogs
        return self._pair_gens


def pair_gram(ia: RightIdeal, ib: RightIdeal):
    """Integer Gram of x -> 2·nrd(x)/(nrd(I)·nrd(J)) on I·conj(J), I = ia and
    J = ib, read off the sublattice M = I·conj(x), x the first reduced
    vector of J, with nrd(x) = k·nrd(J): the one product-Gram primitive,
    behind both `isometric` and the class set's pair forms.

    In the basis v_l·conj(x), v_l the reduced basis of I, M has Gram k·R,
    R the reduced Gram of I. For a generator g of J, o_g = conj(g)·x/nrd(J)
    lies in conj(J)·J/nrd(J) = O, and o_g·conj(x) = k·conj(g), so
    v_l·conj(g) = (v_l·o_g)·conj(x)/k. As I·conj(J) is spanned by the
    v_l·conj(g), in M's coordinates it is (1/k)·S, S spanned by k·Z^4 and
    the rows of the right action of the o_g on the v_l (`RightIdeal.act`,
    exact). Checks: the Hermite basis T of S has det T = k^2, the index of
    M in I·conj(J) (that of O·conj(x) in conj(J)), so S/k, which lies in
    I·conj(J), is all of it; and T·R·T^t is divisible by k, the quotient
    being the Gram in the basis T/k. Neither check re-derives the rows; J
    checks `act` once, in `pair_generators`.
    """
    k, t = _pair_basis(ia, ib)
    (r00, r01, r02, r03), (_, r11, r12, r13), (_, _, r22, r23), \
        (_, _, _, r33) = ia.reduced_gram()[0]
    (t00, t01, t02, t03), (_, t11, t12, t13), (_, _, t22, t23), (_, _, _, t33) = t
    # T is upper triangular: row r of T·R is needed from column r on only
    a0 = t00 * r00 + t01 * r01 + t02 * r02 + t03 * r03
    a1 = t00 * r01 + t01 * r11 + t02 * r12 + t03 * r13
    a2 = t00 * r02 + t01 * r12 + t02 * r22 + t03 * r23
    a3 = t00 * r03 + t01 * r13 + t02 * r23 + t03 * r33
    b1 = t11 * r11 + t12 * r12 + t13 * r13
    b2 = t11 * r12 + t12 * r22 + t13 * r23
    b3 = t11 * r13 + t12 * r23 + t13 * r33
    c2 = t22 * r22 + t23 * r23
    c3 = t22 * r23 + t23 * r33
    upper = (a0 * t00 + a1 * t01 + a2 * t02 + a3 * t03,
             a1 * t11 + a2 * t12 + a3 * t13, a2 * t22 + a3 * t23, a3 * t33,
             b1 * t11 + b2 * t12 + b3 * t13, b2 * t22 + b3 * t23, b3 * t33,
             c2 * t22 + c3 * t23, c3 * t33, t33 * r33 * t33)
    _check_pair_gram(upper, k)
    g00, g01, g02, g03, g11, g12, g13, g22, g23, g33 = (x // k for x in upper)
    return [[g00, g01, g02, g03], [g01, g11, g12, g13],
            [g02, g12, g22, g23], [g03, g13, g23, g33]]


def _check_pair_gram(upper, k):
    """The upper triangle of T·R·T^t is divisible by k: the norm form of
    I·conj(J) is integral."""
    if any(x % k for x in upper):
        raise InvariantViolationError("norm form of I·conj(J) is not integral")


def _pair_basis(ia: RightIdeal, ib: RightIdeal):
    """(k, T) for I = ia and J = ib: I·conj(J) has the basis T/k in the
    coordinates of I·conj(x), x the first reduced vector of J (see
    `pair_gram`), with T the Hermite basis of k·Z^4 and the action rows of
    J's o_g on I's reduced basis. Checked: det T = k^2."""
    k, ogs = ib.pair_generators()
    if k == 1:
        t = [[int(r == c) for c in range(4)] for r in range(4)]
    else:
        t = hnf_mod([row for og in ogs for row in ia.act(*og)], k)
    index = t[0][0] * t[1][1] * t[2][2] * t[3][3]
    if index != k * k:
        raise InvariantViolationError(
            f"I·conj(J) has index {index} over I·conj(x), not k^2 = {k * k}")
    return k, t


def reduce_ideal(ideal: RightIdeal) -> RightIdeal:
    """Equivalent right ideal of minimal reduced norm.

    For a minimal-norm x in J the ideal (conj(x)/nrd(J))·J is in the same
    class, is integral (conj(x)·J ⊆ conj(J)·J = nrd(J)·O_right), and has
    nrd = nrd(x)/nrd(J), bounded by the Minkowski constant of the norm form.
    It is built in integers: with J = (1/den)·rows and nrd(J) = n/d, its
    rows are d·conj(den·x)·r over den^2·n. The search runs on the ideal's
    own Lagrange reduction and its kept PreparedForm, so each call reduces
    and eliminates the Gram at most once.
    """
    value, coords = shortest_value_and_vector(
        ideal.normalized_gram(), (ideal.prepared_form(), ideal.reduced_gram()[1]))
    norm = ideal.nrd()
    if value * norm.denominator == 2 * norm.numerator:
        return ideal  # norm already minimal within the class
    alg = ideal.alg
    rows = ideal.lattice.rows
    den = ideal.lattice.den
    x = alg.conj(tuple(sum(c * r[k] for c, r in zip(coords, rows)) for k in range(4)))
    out_rows = [[norm.denominator * v for v in alg.mul(x, r)] for r in rows]
    out = RightIdeal(ideal.order, Lattice4(den * den * norm.numerator, out_rows))
    _check_reduction(out, Fraction(alg.nrd(x), den * den) / norm)
    return out


def _check_reduction(out, norm):
    """The reduced ideal has reduced norm nrd(x)/nrd(J)."""
    if out.nrd() != norm:
        raise InvariantViolationError("ideal reduction changed the class data")


def isometry_witness(i1: RightIdeal, i2: RightIdeal):
    """x with I = (x/nrd(J))·J for I = i1 and J = i2, or None if none exists.

    x is the first vector of value 2 on `pair_gram(I, J)`, so an element of
    I·conj(J) with nrd(x) = nrd(I)·nrd(J), mapped back to the algebra: its
    coordinates c are in the pair basis T/k (`_pair_basis`) of I·conj(x_J),
    so x = (sum_l (c·T)_l·v_l)·conj(x_J)/k, v_l the reduced basis of I and
    x_J the first reduced vector of J. Returned as an integer 4-tuple vec
    over a positive den (x = vec/den), its norm checked. When I and J lie
    in the order, so does x. Ideals with different theta keys get None
    untested. Why I = (x/nrd(J))·J: x·J ⊆ I·conj(J)·J = nrd(J)·I, and both
    sides of I ⊇ (x/nrd(J))·J have reduced norm nrd(I), so they are equal.
    """
    if not _same_theta_key(i1, i2):
        return None
    c = next((c for value, c in enumerate_by_value(pair_gram(i1, i2), 2) if value == 2),
             None)
    if c is None:
        return None
    k, t = _pair_basis(i1, i2)
    alg, basis = i1.alg, i1.reduced_basis()
    u = [sum(ci * row[l] for ci, row in zip(c, t)) for l in range(4)]
    y = tuple(sum(ul * v[m] for ul, v in zip(u, basis)) for m in range(4))
    vec = alg.mul(y, alg.conj(i2.reduced_basis()[0]))
    den = i1.lattice.den * i2.lattice.den * k
    _check_witness_norm(i1, i2, vec, den)
    return vec, den


def _check_witness_norm(i1, i2, vec, den):
    """x = vec/den has nrd(x) = nrd(I)·nrd(J)."""
    if Fraction(i1.alg.nrd(vec), den * den) != i1.nrd() * i2.nrd():
        raise InvariantViolationError(
            "the isometry witness read off the pair Gram has the wrong reduced norm")


def isometric(i1: RightIdeal, i2: RightIdeal) -> bool:
    """Same right-ideal class: I = x·J for some x in the algebra.

    Equivalent to I·conj(J) representing nrd(I)·nrd(J), that is to its
    `pair_gram` representing 2, which is counted on it as it stands: I
    acts, and J gives its kept o_g. In a class-set lookup J is the
    representative, whose o_g are built once.
    """
    return _same_theta_key(i1, i2) and value_counts(pair_gram(i1, i2), 2)[2] > 0


def _same_theta_key(i1: RightIdeal, i2: RightIdeal) -> bool:
    if i1.order is not i2.order and i1.order != i2.order:
        raise UsageError("ideals must share a right order")
    return i1.theta_key() == i2.theta_key()


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
    target_val = valuation(int(ideal.nrd() * ideal.lattice.den ** 2), ell)
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
        if valuation(alg.nrd(x), ell) == target_val:
            return x
    raise InvariantViolationError("no local generator found; ideal data corrupt")
