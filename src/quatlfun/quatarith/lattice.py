"""Exact rank-4 rational lattices: Hermite bases, Gram forms, short vectors.

A lattice is stored as (denominator, 4x4 integer row-Hermite basis), and
so is every element it is asked about: `coordinates(vec, den)` and
`contains(vec, den)` read the element vec/den for an integer 4-tuple vec, by
an integer triangular solve. Hermite bases are built by inserting one row
at a time. Fractions appear only in `covolume` and `invert`; nothing is
floating point.

The short-vector front end takes integer Gram matrices only (a norm form
comes from `QuaternionAlgebra.norm_gram`): `enumerate_by_value` lists the
vectors up to a value, `shortest_value_and_vector` finds a minimum in one
enumeration, and `value_counts` gives theta coefficients. All three run one
exact Fincke-Pohst recursion with isqrt-based bounds, behind a pairwise
Lagrange reduction; its setup reads the leading minors of the Gram off one
fraction-free elimination, and its last level is a plain loop that yields
the vectors. A Lagrange step updates the symmetric Gram's row and column
together, in one pass.

x and -x have the same value, so `value_counts` visits one of each pair and
counts it twice: the recursion's halved mode starts a coordinate at 0 while
every higher coordinate is 0, where its range is symmetric about 0. The
other two list every vector, in the same order as before, so no shortest
vector, witness or reduced ideal depends on the halving.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from ..errors import InvariantViolationError, UsageError

# passes of lagrange_reduce before it gives up; the most any call of the
# benchmark's four workloads needs is 9
LAGRANGE_PASSES = 1000


def hnf_rows(rows, expect_rank=None):
    """Row Hermite normal form of an integer matrix given as lists.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Zero rows dropped. The form is unique for the lattice the rows span, so
    it does not depend on the order of the rows.

    Each row is inserted into an echelon basis keyed by pivot column. Where
    its leading column already has a pivot, the row loses a multiple of that
    basis row if the pivot divides its entry; otherwise one unimodular
    extended-gcd step replaces the two by a basis row with the gcd as pivot
    and a row that is zero in that column. The row then goes on to its next
    nonzero column.
    """
    basis = {}  # pivot column -> row with a positive pivot
    for row in rows:
        n = len(row)
        col = 0
        while col < n and not row[col]:
            col += 1
        while col < n:
            piv, b = basis.get(col), row[col]
            if piv is None:
                basis[col] = list(row) if b > 0 else [-x for x in row]
                break
            a = piv[col]
            if b % a:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                t = pow(bg, -1, ag)  # ag > 1, as a does not divide b
                s = (g - t * b) // a  # so s·a + t·b = g
                basis[col] = [s * x + t * y for x, y in zip(piv, row)]
                row = [bg * x - ag * y for x, y in zip(piv, row)]
            else:
                q = b // a
                row = [y - q * x for x, y in zip(piv, row)]
            col += 1
            while col < n and not row[col]:
                col += 1
    cols = sorted(basis)
    res = [basis[c] for c in cols]
    # reduce above pivots, left to right so later columns stay reduced
    for i, pcol in enumerate(cols):
        piv = res[i]
        for j in range(i):
            q = res[j][pcol] // piv[pcol]
            if q:
                res[j] = [x - q * y for x, y in zip(res[j], piv)]
    if expect_rank is not None and len(res) != expect_rank:
        raise InvariantViolationError(f"expected rank {expect_rank}, got {len(res)}")
    return res


def integer_kernel(equation_rows):
    """Kernel of an integer equation system, via Hermite reduction.

    equation_rows: m rows of length n; returns basis vectors x (length n)
    with each row · x = 0. Entry growth stays Hermite-bounded, unlike a
    Smith-form route.
    """
    if not equation_rows:
        return []
    m = len(equation_rows)
    n = len(equation_rows[0])
    aug = []
    for i in range(n):
        row = [equation_rows[r][i] for r in range(m)] + [0] * n
        row[m + i] = 1
        aug.append(row)
    red = hnf_rows(aug)
    out = []
    for row in red:
        if all(x == 0 for x in row[:m]):
            out.append(tuple(row[m:]))
    return out


class Lattice4:
    """Full-rank lattice in Q^4 with canonical (denominator, HNF rows) form."""

    __slots__ = ("den", "rows")

    def __init__(self, den, rows, reduce=True):
        if reduce:
            rows = hnf_rows(rows, expect_rank=4)
        rows = [list(map(int, r)) for r in rows]
        den = int(den)
        if den <= 0:
            raise UsageError("denominator must be positive")
        g = den
        for r in rows:
            for x in r:
                g = gcd(g, x)
        if g > 1:
            den //= g
            rows = [[x // g for x in r] for r in rows]
        self.den = den
        self.rows = tuple(tuple(r) for r in rows)

    def key(self):
        return (self.den, self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice4) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def coordinates(self, vec, den=1):
        """Integer coordinates of the element vec/den in this basis, or None.

        vec is an integer 4-tuple. The rows are triangular, so each
        coordinate is one exact division.
        """
        v = [x * self.den for x in vec]
        coords = []
        for row in self.rows:
            pcol = next(c for c, x in enumerate(row) if x)
            q, r = divmod(v[pcol], den * row[pcol])
            if r:
                return None
            coords.append(q)
            v = [a - q * den * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def contains(self, vec, den=1) -> bool:
        """Membership of the element vec/den, vec an integer 4-tuple."""
        return self.coordinates(vec, den) is not None

    def covolume(self) -> Fraction:
        d = 1
        for i, row in enumerate(self.rows):
            d *= row[self._pivot(i)]
        return Fraction(d, self.den ** 4)

    def _pivot(self, i):
        return next(c for c, x in enumerate(self.rows[i]) if x)

    def sum(self, other: "Lattice4") -> "Lattice4":
        den = self.den * other.den // gcd(self.den, other.den)
        rows = [[x * (den // self.den) for x in r] for r in self.rows]
        rows += [[x * (den // other.den) for x in r] for r in other.rows]
        return Lattice4(den, rows)

    def sublattice_mod(self, q: int, coords) -> "Lattice4":
        """Preimage in L of the span of `coords` (basis coordinates) in L/qL.

        That is q·L plus the lifts of the coordinate vectors, over the same
        denominator.
        """
        rows = [[x * q for x in r] for r in self.rows]
        for c in coords:
            rows.append([sum(c[i] * self.rows[i][k] for i in range(4)) for k in range(4)])
        return Lattice4(self.den, rows)

    def intersection(self, other: "Lattice4") -> "Lattice4":
        den = self.den * other.den // gcd(self.den, other.den)
        a = [[x * (den // self.den) for x in r] for r in self.rows]
        b = [[x * (den // other.den) for x in r] for r in other.rows]
        # solve u*a = v*b; kernel vectors give u (first 4 coordinates) and v
        cols = []
        for c in range(4):
            cols.append([a[i][c] for i in range(4)] + [-b[i][c] for i in range(4)])
        ker = integer_kernel(cols)
        rows = []
        for vec in ker:
            u = vec[:4]
            rows.append([sum(u[i] * a[i][c] for i in range(4)) for c in range(4)])
        return Lattice4(den, rows)


def invert(m):
    """Exact inverse of a square matrix of Fractions via Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise UsageError("matrix not invertible")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def lagrange_reduce(gram):
    """Greedy pairwise reduction of an integer Gram matrix (optimal in dim <= 4).

    Returns (reduced, U) with reduced = U^T gram U and U unimodular; original
    vectors are recovered as U @ x. gram must be square and symmetric: a step
    b_j -= mu·b_i writes row j and column j together, v_k = g[j][k] - mu·g[i][k],
    and g[j][j] - 2·mu·g[i][j] + mu^2·g[i][i] from the values before the step.
    A form that is still changing after LAGRANGE_PASSES passes raises.
    """
    n = len(gram)
    if any(len(r) != n for r in gram):
        raise UsageError("Gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise UsageError("Gram matrix must be symmetric")
    g = [list(r) for r in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(LAGRANGE_PASSES):
        changed = False
        for i in range(n):
            gi = g[i]
            for j in range(n):
                if i == j or gi[i] == 0:
                    continue
                # nearest integer to g[i][j] / g[i][i] (diagonal positive)
                mu = (2 * gi[j] + gi[i]) // (2 * gi[i])
                if mu:
                    gj = g[j]
                    d = gj[j] - mu * (2 * gi[j] - mu * gi[i])
                    for k in range(n):
                        gj[k] = g[k][j] = gj[k] - mu * gi[k]
                    gj[j] = d
                    for k in range(n):
                        u[k][j] -= mu * u[k][i]
                    changed = True
        # keep diagonal sorted ascending to stabilize the loop
        order = sorted(range(n), key=lambda k: g[k][k])
        if order != list(range(n)):
            g = [[g[a][b] for b in order] for a in order]
            u = [[u[k][order[c]] for c in range(n)] for k in range(n)]
            changed = True
        if not changed:
            return [tuple(r) for r in g], u
    raise InvariantViolationError(
        f"Lagrange reduction still changing after {LAGRANGE_PASSES} passes")


def _fincke_pohst(gram, max_value, halved=False):
    """Yield (value, x) with 0 < x^T gram x <= max_value, x integer.

    gram is an integral positive definite Gram, best a Lagrange-reduced one
    (fewer nodes); max_value is an integer. The one exact Fincke-Pohst
    recursion of the package. Both x and -x appear; the last coordinate is
    outermost and each coordinate runs upwards, so the order of the vectors
    found does not depend on max_value. Lazy: callers may stop early.

    With halved, only the x whose last nonzero coordinate is positive appear,
    one of each pair ±x: while every higher coordinate is 0, the centre of a
    coordinate is 0 and it runs from 0 upwards.

    Its data come from one fraction-free (Bareiss) elimination of gram, whose
    pivots are the leading minors D_1, ..., D_n (D_0 = 1). In
    Q(x) = sum_i q_ii·(x_i + sum_{j>i} q_ij·x_j)^2 they give
    q_ii = D_{i+1}/D_i and q_ij = a_ij/D_{i+1}, for a_ij the entries of row i
    when it is the pivot row. A pivot D_{i+1} <= 0 means gram is not
    positive definite. With m_i the least common denominator of the q_ij
    (j > i), the centre of coordinate i is -C_i/m_i for the integer
    C_i = sum_{j>i} m_i·q_ij·x_j, and q_ii·(x_i - centre)^2 = k_i·s^2/scale
    with s = m_i·x_i + C_i, k_i = scale·D_{i+1}/(D_i·m_i^2), and scale the
    least integer that makes every k_i integral. So every x_i with
    k_i·s^2 <= remaining budget is visited, and no other.
    """
    n = len(gram)
    a = [list(r) for r in gram]
    m, num, k_num, k_den = [], [], [], []
    prev = 1  # D_i
    for i in range(n):
        d, row = a[i][i], a[i]  # D_{i+1} and the pivot row
        if d <= 0:
            raise UsageError("form is not positive definite")
        mi = 1
        for j in range(i + 1, n):
            mi = lcm(mi, d // gcd(row[j], d))
        m.append(mi)
        num.append([0] * (i + 1) + [row[j] * mi // d for j in range(i + 1, n)])
        wd = prev * mi * mi
        g = gcd(d, wd)
        k_num.append(d // g)
        k_den.append(wd // g)
        for r in range(i + 1, n):
            ar, ari = a[r], a[r][i]
            for c in range(i + 1, n):
                ar[c] = (d * ar[c] - ari * row[c]) // prev
        prev = d
    if max_value < 0:
        raise UsageError("negative radicand")
    scale = lcm(1, *k_den)
    k = [kn * (scale // kd) for kn, kd in zip(k_num, k_den)]
    top = max_value * scale
    x = [0] * n

    def recurse(i, budget, half):
        # half: halved, and every coordinate above i is 0
        mi, ki, row = m[i], k[i], num[i]
        c = sum(row[j] * x[j] for j in range(i + 1, n))
        b = isqrt(budget // ki)
        ts = range(0 if half else -((c + b) // mi), (b - c) // mi + 1)
        if i:
            for t in ts:
                s = mi * t + c
                x[i] = t
                yield from recurse(i - 1, budget - ki * s * s, half and not t)
            return
        # the leaf level: x is complete once x_0 = t is set
        rest = any(x[1:])
        base = top - budget
        for t in ts:
            if t or rest:
                s = mi * t + c
                x[0] = t
                yield (base + ki * s * s) // scale, tuple(x)

    yield from recurse(n - 1, top, halved)


def _enumerate_reduced(red, u, max_value):
    """`enumerate_by_value` on the Lagrange-reduced data (red, u) of a Gram."""
    n = len(red)
    for value, vec in _fincke_pohst(red, max_value):
        yield value, tuple(sum(u[r][c] * vec[c] for c in range(n)) for r in range(n))


def enumerate_by_value(gram, max_value: int):
    """Yield (value, x) for every integer x != 0 with x^T gram x = value <= max_value.

    gram is an integral positive definite Gram matrix. Its basis is
    Lagrange-reduced first, and the vectors are mapped back to the original
    coordinates. Both x and -x appear. Lazy: callers may stop early.
    """
    return _enumerate_reduced(*lagrange_reduce(gram), max_value)


def shortest_value_and_vector(gram, reduction=None):
    """(value, x) attaining the minimum of x^T gram x on integer x != 0.

    gram is integral and positive definite; reduction is its Lagrange
    reduction (R, U) when the caller already has it, and is computed here
    otherwise. One enumeration: the bound is the smallest diagonal entry of
    R, the value of a basis vector, so the minimum lies within it. Ties go
    to the first minimal vector in enumeration order, which no bound changes.
    """
    red, u = lagrange_reduce(gram) if reduction is None else reduction
    return min(_enumerate_reduced(red, u, red[0][0]), key=lambda hit: hit[0])


def value_counts(gram_int, max_value: int):
    """counts[v] = #{x != 0 : x^T G x = v} for v = 0..max_value, G integral.

    Pass a Lagrange-reduced G: the counts are basis-free, so no vector is
    mapped back. x and -x have the same value, so one of each pair is
    visited and counted twice.
    """
    counts = [0] * (max_value + 1)
    for val, _ in _fincke_pohst(gram_int, max_value, halved=True):
        counts[val] += 2
    return counts
