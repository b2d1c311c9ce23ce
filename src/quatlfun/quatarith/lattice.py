"""Exact rank-4 rational lattices: Hermite bases, Gram forms, short vectors.

A lattice is stored as (denominator, 4x4 integer row-Hermite basis), and
so is every element it is asked about: `coordinates(vec, den)` and
`contains(vec, den)` read the element vec/den for an integer 4-tuple vec, by
an integer triangular solve. Hermite bases are built by inserting one row
at a time. Fractions appear only in `covolume` and `invert`; nothing is
floating point.

The short-vector front end takes integer Gram matrices only (a norm form
comes from `QuaternionAlgebra.norm_gram`): `enumerate_by_value` lists the
vectors up to a value and `shortest_value_and_vector` finds a minimum in one
enumeration, both by one exact Fincke-Pohst recursion with isqrt-based
bounds, behind a pairwise Lagrange reduction; `value_counts` gives theta
coefficients. The setup reads the leading minors of the Gram off one
fraction-free elimination and is kept as a `PreparedForm`, so a Gram whose
counts grow is eliminated once; the recursion's last level is a plain loop
that yields the vectors. A Lagrange step updates the symmetric Gram's row
and column together, in one pass.

Every caller in the package but two works at rank 4, and the hot kernels
have rank-4 closed forms, chosen by the rank they are given, with outputs
bit-identical to the generic code: `lagrange_reduce` with its twelve steps
written out, the elimination of `PreparedForm`, `value_counts` as four
nested loops, and `hnf_rows` on 4-tuples. The generic code serves the two
other callers: the rank-3 `enumerate_by_value` of
`embedding._trace_norm_solutions`, and the wide rows of `integer_kernel`.

x and -x have the same value, so the rank-4 `value_counts` visits one of
each pair and counts it twice: a coordinate starts at 0 while every higher
coordinate is 0, where its range is symmetric about 0. At any other rank it
counts the recursion's vectors. The listing searches visit every vector, so
no shortest vector, witness or reduced ideal depends on the halving.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from ..errors import InvariantViolationError, UsageError

# passes of lagrange_reduce before it gives up; the most any call of the
# benchmark's four workloads needs is 8 (one pass of each, seeds 1-3 where
# the seed matters)
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
    nonzero column. Rows of four columns, every caller's but
    `integer_kernel`'s, take the same steps on 4-tuples (`_hnf_rows4`).
    """
    if rows and len(rows[0]) == 4:
        res = _hnf_rows4(rows)
    else:
        res = _reduce_above(_insert_rows(rows))
    if expect_rank is not None and len(res) != expect_rank:
        raise InvariantViolationError(f"expected rank {expect_rank}, got {len(res)}")
    return res


def _insert_rows(rows):
    """{pivot column: basis row} of `hnf_rows`, for rows of any length."""
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
    return basis


def _reduce_above(basis):
    """The rows of {pivot column: row} in column order, each entry above a
    pivot reduced into [0, pivot), left to right so later columns stay
    reduced."""
    cols = sorted(basis)
    res = [list(basis[c]) for c in cols]
    for i, pcol in enumerate(cols):
        piv = res[i]
        for j in range(i):
            q = res[j][pcol] // piv[pcol]
            if q:
                res[j] = [x - q * y for x, y in zip(res[j], piv)]
    return res


def _hnf_rows4(rows):
    """`hnf_rows` of rows of four columns: `_insert_rows` on 4-tuples, and at
    rank 4 the reduction above the pivots written out."""
    basis = [None, None, None, None]  # by pivot column
    for row in rows:
        r = tuple(row)
        for col in range(4):
            b = r[col]
            if not b:
                continue
            piv = basis[col]
            if piv is None:
                basis[col] = r if b > 0 else (-r[0], -r[1], -r[2], -r[3])
                break
            a = piv[col]
            p0, p1, p2, p3 = piv
            r0, r1, r2, r3 = r
            if b % a:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                t = pow(bg, -1, ag)
                s = (g - t * b) // a
                basis[col] = (s * p0 + t * r0, s * p1 + t * r1,
                              s * p2 + t * r2, s * p3 + t * r3)
                r = (bg * p0 - ag * r0, bg * p1 - ag * r1,
                     bg * p2 - ag * r2, bg * p3 - ag * r3)
            else:
                q = b // a
                r = (r0 - q * p0, r1 - q * p1, r2 - q * p2, r3 - q * p3)
    if None in basis:
        return _reduce_above({c: r for c, r in enumerate(basis) if r is not None})
    # each basis row is 0 left of its pivot
    (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = basis
    q = a1 // b1
    a1, a2, a3 = a1 - q * b1, a2 - q * b2, a3 - q * b3
    q = a2 // c2
    a2, a3 = a2 - q * c2, a3 - q * c3
    q = b2 // c2
    b2, b3 = b2 - q * c2, b3 - q * c3
    return [[a0, a1, a2, a3 % d3], [0, b1, b2, b3 % d3], [0, 0, c2, c3 % d3], [0, 0, 0, d3]]


def hnf_mod(rows, k, n=4):
    """Row Hermite normal form of the lattice spanned by `rows` (integer
    lists of length n) and k·Z^n, k > 0: that of hnf_rows(k·1 + rows).

    As k·Z^n lies in the lattice, every entry right of a pivot column can be
    kept in [0, k): column c's pivot row starts as k·e_c and takes in each
    remaining row's entry by a division or one unimodular extended-gcd step,
    after which that row is 0 in column c; both are reduced mod k after each
    step, so the entries stay small.
    """
    rows = [[x % k for x in r] for r in rows]
    basis = []
    for c in range(n):
        piv = [0] * n
        piv[c] = a = k
        left = []
        for row in rows:
            b = row[c]
            if b % a:
                g = gcd(a, b)
                ag, bg = a // g, b // g
                t = pow(bg, -1, ag)  # as in hnf_rows: s·a + t·b = g
                s = (g - t * b) // a
                piv, row = ([(s * x + t * y) % k for x, y in zip(piv, row)],
                            [(bg * x - ag * y) % k for x, y in zip(piv, row)])
                piv[c] = a = g
            elif b:
                q = b // a
                row = [(y - q * x) % k for x, y in zip(piv, row)]
            if any(row):
                left.append(row)
        basis.append(piv)
        rows = left
    for i in range(n):
        for j in range(i + 1, n):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return basis


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

    def sublattice_mod(self, q: int, coords) -> "Lattice4":
        """Preimage in L of the span of `coords` (basis coordinates) in L/qL.

        That is q·L plus the lifts of the coordinate vectors, over the same
        denominator.
        """
        rows = [[x * q for x in r] for r in self.rows]
        for c in coords:
            rows.append([sum(c[i] * self.rows[i][k] for i in range(4)) for k in range(4)])
        return Lattice4(self.den, rows)


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


def adjugate4(m):
    """(det, adj) for an integer 4x4 matrix m, with m·adj = adj·m = det·1.

    From the six 2x2 minors of the top two rows and the six of the bottom
    two (Laplace expansion along them), in integers.
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s0, s1, s2 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s3, s4, s5 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c5, c4, c3 = a22 * a33 - a32 * a23, a21 * a33 - a31 * a23, a21 * a32 - a31 * a22
    c2, c1, c0 = a20 * a33 - a30 * a23, a20 * a32 - a30 * a22, a20 * a31 - a30 * a21
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = [[a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
            a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3],
           [-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
            -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1],
           [a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
            a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0],
           [-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
            -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0]]
    return det, adj


def _check_gram(gram):
    """UsageError unless gram is square and symmetric."""
    n = len(gram)
    if any(len(r) != n for r in gram):
        raise UsageError("Gram matrix must be square")
    if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
        raise UsageError("Gram matrix must be symmetric")


def _upper4(gram):
    """The ten entries g_ij, i <= j, of a 4x4 Gram, checked as `_check_gram`
    checks any other."""
    try:
        (g00, g01, g02, g03), (g10, g11, g12, g13), \
            (g20, g21, g22, g23), (g30, g31, g32, g33) = gram
    except ValueError:
        raise UsageError("Gram matrix must be square") from None
    if g10 != g01 or g20 != g02 or g30 != g03 or g21 != g12 or g31 != g13 or g32 != g23:
        raise UsageError("Gram matrix must be symmetric")
    return g00, g01, g02, g03, g11, g12, g13, g22, g23, g33


def lagrange_reduce(gram):
    """Greedy pairwise reduction of an integer Gram matrix (optimal in dim <= 4).

    Returns (reduced, U) with reduced = U^T gram U and U unimodular; original
    vectors are recovered as U @ x. gram must be square and symmetric: a step
    b_j -= mu·b_i writes row j and column j together, v_k = g[j][k] - mu·g[i][k],
    and g[j][j] - 2·mu·g[i][j] + mu^2·g[i][i] from the values before the step.
    A pass takes the steps (i, j), i != j, in order, then sorts the basis by
    diagonal (stably) if the diagonal is out of order. A form that is still
    changing after LAGRANGE_PASSES passes raises. A 4x4 Gram, every caller's,
    runs the same steps unrolled (`_lagrange_reduce4`).
    """
    if len(gram) == 4:
        return _lagrange_reduce4(gram)
    _check_gram(gram)
    n = len(gram)
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


def _lagrange_reduce4(gram):
    """`lagrange_reduce` of a 4x4 Gram: the Gram as its ten entries g_ij,
    i <= j, U as its four columns u_j, the twelve steps written out."""
    g00, g01, g02, g03, g11, g12, g13, g22, g23, g33 = _upper4(gram)
    u0, u1, u2, u3 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    for _ in range(LAGRANGE_PASSES):
        changed = False
        # a zero diagonal entry skips its steps, as in the generic loop
        if g00:
            mu = (2 * g01 + g00) // (2 * g00)
            if mu:  # b_1 -= mu·b_0
                g11 -= mu * (2 * g01 - mu * g00)
                g01, g12, g13 = g01 - mu * g00, g12 - mu * g02, g13 - mu * g03
                u1 = [x - mu * y for x, y in zip(u1, u0)]
                changed = True
            mu = (2 * g02 + g00) // (2 * g00)
            if mu:  # b_2 -= mu·b_0
                g22 -= mu * (2 * g02 - mu * g00)
                g02, g12, g23 = g02 - mu * g00, g12 - mu * g01, g23 - mu * g03
                u2 = [x - mu * y for x, y in zip(u2, u0)]
                changed = True
            mu = (2 * g03 + g00) // (2 * g00)
            if mu:  # b_3 -= mu·b_0
                g33 -= mu * (2 * g03 - mu * g00)
                g03, g13, g23 = g03 - mu * g00, g13 - mu * g01, g23 - mu * g02
                u3 = [x - mu * y for x, y in zip(u3, u0)]
                changed = True
        if g11:
            mu = (2 * g01 + g11) // (2 * g11)
            if mu:  # b_0 -= mu·b_1
                g00 -= mu * (2 * g01 - mu * g11)
                g01, g02, g03 = g01 - mu * g11, g02 - mu * g12, g03 - mu * g13
                u0 = [x - mu * y for x, y in zip(u0, u1)]
                changed = True
            mu = (2 * g12 + g11) // (2 * g11)
            if mu:  # b_2 -= mu·b_1
                g22 -= mu * (2 * g12 - mu * g11)
                g12, g02, g23 = g12 - mu * g11, g02 - mu * g01, g23 - mu * g13
                u2 = [x - mu * y for x, y in zip(u2, u1)]
                changed = True
            mu = (2 * g13 + g11) // (2 * g11)
            if mu:  # b_3 -= mu·b_1
                g33 -= mu * (2 * g13 - mu * g11)
                g13, g03, g23 = g13 - mu * g11, g03 - mu * g01, g23 - mu * g12
                u3 = [x - mu * y for x, y in zip(u3, u1)]
                changed = True
        if g22:
            mu = (2 * g02 + g22) // (2 * g22)
            if mu:  # b_0 -= mu·b_2
                g00 -= mu * (2 * g02 - mu * g22)
                g02, g01, g03 = g02 - mu * g22, g01 - mu * g12, g03 - mu * g23
                u0 = [x - mu * y for x, y in zip(u0, u2)]
                changed = True
            mu = (2 * g12 + g22) // (2 * g22)
            if mu:  # b_1 -= mu·b_2
                g11 -= mu * (2 * g12 - mu * g22)
                g12, g01, g13 = g12 - mu * g22, g01 - mu * g02, g13 - mu * g23
                u1 = [x - mu * y for x, y in zip(u1, u2)]
                changed = True
            mu = (2 * g23 + g22) // (2 * g22)
            if mu:  # b_3 -= mu·b_2
                g33 -= mu * (2 * g23 - mu * g22)
                g23, g03, g13 = g23 - mu * g22, g03 - mu * g02, g13 - mu * g12
                u3 = [x - mu * y for x, y in zip(u3, u2)]
                changed = True
        if g33:
            mu = (2 * g03 + g33) // (2 * g33)
            if mu:  # b_0 -= mu·b_3
                g00 -= mu * (2 * g03 - mu * g33)
                g03, g01, g02 = g03 - mu * g33, g01 - mu * g13, g02 - mu * g23
                u0 = [x - mu * y for x, y in zip(u0, u3)]
                changed = True
            mu = (2 * g13 + g33) // (2 * g33)
            if mu:  # b_1 -= mu·b_3
                g11 -= mu * (2 * g13 - mu * g33)
                g13, g01, g12 = g13 - mu * g33, g01 - mu * g03, g12 - mu * g23
                u1 = [x - mu * y for x, y in zip(u1, u3)]
                changed = True
            mu = (2 * g23 + g33) // (2 * g33)
            if mu:  # b_2 -= mu·b_3
                g22 -= mu * (2 * g23 - mu * g33)
                g23, g02, g12 = g23 - mu * g33, g02 - mu * g03, g12 - mu * g13
                u2 = [x - mu * y for x, y in zip(u2, u3)]
                changed = True
        # the generic loop's stable sort, taken only when it moves something
        if not g00 <= g11 <= g22 <= g33:
            g = [[g00, g01, g02, g03], [g01, g11, g12, g13],
                 [g02, g12, g22, g23], [g03, g13, g23, g33]]
            order = sorted(range(4), key=lambda k: g[k][k])
            (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), \
                (_, _, _, g33) = [[g[a][b] for b in order] for a in order]
            u = (u0, u1, u2, u3)
            u0, u1, u2, u3 = (u[c] for c in order)
            changed = True
        if not changed:
            return [(g00, g01, g02, g03), (g01, g11, g12, g13),
                    (g02, g12, g22, g23), (g03, g13, g23, g33)], \
                [[u0[r], u1[r], u2[r], u3[r]] for r in range(4)]
    raise InvariantViolationError(
        f"Lagrange reduction still changing after {LAGRANGE_PASSES} passes")


class PreparedForm:
    """An integral positive definite Gram with the setup of the Fincke-Pohst
    recursion done, so that enumerating it again only walks the tree.

    The data come from one fraction-free (Bareiss) elimination of the Gram,
    whose pivots are the leading minors D_1, ..., D_n (D_0 = 1). In
    Q(x) = sum_i q_ii·(x_i + sum_{j>i} q_ij·x_j)^2 they give
    q_ii = D_{i+1}/D_i and q_ij = a_ij/D_{i+1}, for a_ij the entries of row i
    when it is the pivot row. A pivot D_{i+1} <= 0 means the Gram is not
    positive definite. With m_i the least common denominator of the q_ij
    (j > i), the centre of coordinate i is -C_i/m_i for the integer
    C_i = sum_{j>i} m_i·q_ij·x_j, and q_ii·(x_i - centre)^2 = k_i·s^2/scale
    with s = m_i·x_i + C_i, k_i = scale·D_{i+1}/(D_i·m_i^2), and scale the
    least integer that makes every k_i integral. The form keeps m, the rows
    num[i][j] = m_i·q_ij, k and scale; not the Gram. The Gram must be square
    and symmetric; a 4x4 one is eliminated in closed form (`_prepare4`).
    """

    __slots__ = ("m", "num", "k", "scale")

    def __init__(self, gram):
        if len(gram) == 4:
            m, num, k_num, k_den = _prepare4(gram)
        else:
            m, num, k_num, k_den = _prepare(gram)
        self.scale = lcm(1, *k_den)
        self.k = tuple(kn * (self.scale // kd) for kn, kd in zip(k_num, k_den))
        self.m, self.num = tuple(m), tuple(num)


def _prepare(gram):
    """(m, num, k numerators, k denominators) of `PreparedForm`, for any rank."""
    _check_gram(gram)
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
        num.append(tuple([0] * (i + 1) + [row[j] * mi // d for j in range(i + 1, n)]))
        wd = prev * mi * mi
        g = gcd(d, wd)
        k_num.append(d // g)
        k_den.append(wd // g)
        for r in range(i + 1, n):
            ar, ari = a[r], a[r][i]
            for c in range(i + 1, n):
                ar[c] = (d * ar[c] - ari * row[c]) // prev
        prev = d
    return m, num, k_num, k_den


def _prepare4(gram):
    """`_prepare` of a 4x4 Gram in closed form: the same elimination, with
    each pivot checked before it divides."""
    a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 = _upper4(gram)
    d1 = a00
    if d1 <= 0:
        raise UsageError("form is not positive definite")
    m0 = lcm(d1 // gcd(a01, d1), d1 // gcd(a02, d1), d1 // gcd(a03, d1))
    # the rows below the first pivot, over D_0 = 1
    b11, b12, b13 = d1 * a11 - a01 * a01, d1 * a12 - a01 * a02, d1 * a13 - a01 * a03
    b22, b23, b33 = d1 * a22 - a02 * a02, d1 * a23 - a02 * a03, d1 * a33 - a03 * a03
    d2 = b11
    if d2 <= 0:
        raise UsageError("form is not positive definite")
    m1 = lcm(d2 // gcd(b12, d2), d2 // gcd(b13, d2))
    c22 = (d2 * b22 - b12 * b12) // d1
    c23 = (d2 * b23 - b12 * b13) // d1
    c33 = (d2 * b33 - b13 * b13) // d1
    d3 = c22
    if d3 <= 0:
        raise UsageError("form is not positive definite")
    m2 = d3 // gcd(c23, d3)
    d4 = (d3 * c33 - c23 * c23) // d2
    if d4 <= 0:
        raise UsageError("form is not positive definite")
    num = ((0, a01 * m0 // d1, a02 * m0 // d1, a03 * m0 // d1),
           (0, 0, b12 * m1 // d2, b13 * m1 // d2),
           (0, 0, 0, c23 * m2 // d3),
           (0, 0, 0, 0))
    k_num, k_den = [], []
    for d, w in ((d1, m0 * m0), (d2, d1 * m1 * m1), (d3, d2 * m2 * m2), (d4, d3)):
        g = gcd(d, w)
        k_num.append(d // g)
        k_den.append(w // g)
    return (m0, m1, m2, 1), num, k_num, k_den


def _fincke_pohst(form, max_value):
    """Yield (value, x) with 0 < x^T G x <= max_value, x integer.

    form is the PreparedForm of an integral positive definite Gram G, best a
    Lagrange-reduced one (fewer nodes); max_value is an integer. The one
    exact Fincke-Pohst recursion of the package: every x_i with
    k_i·s^2 <= remaining budget is visited, and no other (see PreparedForm).
    Both x and -x appear; the last coordinate is outermost and each
    coordinate runs upwards, so the order of the vectors found does not
    depend on max_value. Lazy: callers may stop early.
    """
    if max_value < 0:
        raise UsageError("negative radicand")
    m, num, k, scale = form.m, form.num, form.k, form.scale
    n = len(m)
    top = max_value * scale
    x = [0] * n

    def recurse(i, budget):
        mi, ki, row = m[i], k[i], num[i]
        c = sum(row[j] * x[j] for j in range(i + 1, n))
        b = isqrt(budget // ki)
        ts = range(-((c + b) // mi), (b - c) // mi + 1)
        if i:
            for t in ts:
                s = mi * t + c
                x[i] = t
                yield from recurse(i - 1, budget - ki * s * s)
            return
        # the leaf level: x is complete once x_0 = t is set
        rest = any(x[1:])
        base = top - budget
        for t in ts:
            if t or rest:
                s = mi * t + c
                x[0] = t
                yield (base + ki * s * s) // scale, tuple(x)

    yield from recurse(n - 1, top)


def _enumerate_reduced(red, u, max_value):
    """`enumerate_by_value` on the Lagrange-reduced data (red, u) of a Gram."""
    n = len(red)
    for value, vec in _fincke_pohst(PreparedForm(red), max_value):
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

    Pass G, or its PreparedForm when it is counted more than once: the
    counts are basis-free, so no vector is mapped back, and a reduced G only
    visits fewer nodes. A rank-4 form is counted by `_value_counts4`; any
    other rank by the plain enumeration.
    """
    form = gram_int if isinstance(gram_int, PreparedForm) else PreparedForm(gram_int)
    if max_value < 0:
        raise UsageError("negative radicand")
    if len(form.m) == 4:
        return _value_counts4(form, max_value)
    counts = [0] * (max_value + 1)
    for val, _ in _fincke_pohst(form, max_value):
        counts[val] += 1
    return counts


def _value_counts4(form, max_value):
    """`value_counts` of a rank-4 PreparedForm by four nested loops, with the
    bounds of `_fincke_pohst`.

    x and -x have the same value, so only the x whose last nonzero
    coordinate is positive are visited, and each counts twice: while every
    higher coordinate is 0 the centre of a coordinate is 0, and it runs from
    0 upwards (from 1 for x_0, as x != 0). The innermost loop runs over
    s_0 = m_0·x_0 + C_0, as x_0 itself is not needed; m_3 = 1 and C_3 = 0.
    """
    (m0, m1, m2, _), (n0, n1, n2, _), (k0, k1, k2, k3), scale = \
        form.m, form.num, form.k, form.scale
    _, n01, n02, n03 = n0
    n12, n13, n23 = n1[2], n1[3], n2[3]
    top = max_value * scale
    counts = [0] * (max_value + 1)
    for x3 in range(isqrt(top // k3) + 1):
        r3 = top - k3 * x3 * x3
        c2 = n23 * x3
        b2 = isqrt(r3 // k2)
        for x2 in range(-((c2 + b2) // m2) if x3 else 0, (b2 - c2) // m2 + 1):
            s2 = m2 * x2 + c2
            r2 = r3 - k2 * s2 * s2
            c1 = n12 * x2 + n13 * x3
            b1 = isqrt(r2 // k1)
            for x1 in range(-((c1 + b1) // m1) if x3 or x2 else 0, (b1 - c1) // m1 + 1):
                s1 = m1 * x1 + c1
                r1 = r2 - k1 * s1 * s1
                c0 = n01 * x1 + n02 * x2 + n03 * x3
                b0 = isqrt(r1 // k0)
                lo = -((c0 + b0) // m0) if x3 or x2 or x1 else 1
                base = top - r1
                for s0 in range(m0 * lo + c0, b0 + 1, m0):
                    counts[(base + k0 * s0 * s0) // scale] += 2
    return counts
