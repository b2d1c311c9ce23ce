"""Exact rank-4 rational lattices: Hermite bases, Gram forms, short vectors.

A lattice is stored as (denominator, 4x4 integer row-Hermite basis), and
so is every element it is asked about: `coordinates(vec, den)` and
`contains(vec, den)` read the element vec/den for an integer 4-tuple vec, by
an integer triangular solve. Hermite bases are built by inserting one row
at a time. Fractions appear only in `invert`; nothing is floating point.

The short-vector front end takes integer Gram matrices only (a norm form
comes from `QuaternionAlgebra.norm_gram`): `enumerate_by_value` lists the
vectors up to a value and `shortest_value_and_vector` finds a minimum in one
enumeration, both by one exact Fincke-Pohst search with isqrt-based bounds,
behind a pairwise Lagrange reduction; `value_counts` gives theta
coefficients. The setup reads the leading minors of the Gram off one
fraction-free elimination and is kept as a `PreparedForm`, so a Gram whose
counts grow is eliminated once. A Lagrange step updates the symmetric Gram's
row and column together, in one pass.

Every kernel takes rank 4 only and is written out for it: `lagrange_reduce`
with its twelve steps, the elimination of `PreparedForm`, the search and
`value_counts` as four nested loops, `hnf_rows` on 4-tuples, `hnf_mod` one
column at a time on rows that shrink by an entry per column, and
`Lattice4.coordinates` as four exact divisions. A Gram or a row of any
other size raises `UsageError` before any work, and so does a modulus or a
denominator that is not positive. The one search at another rank, the
rank-3 trace-norm search of `embedding._trace_norm_solutions`, pads its
form to rank 4. The generic-rank bodies live on as the reference in
`tests/oracles.py`.

x and -x have the same value, so `value_counts` visits one of each pair and
counts it twice: a coordinate starts at 0 while every higher coordinate is
0, where its range is symmetric about 0. The listing searches visit every
vector, so no shortest vector, witness or reduced ideal depends on the
halving.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from ..errors import InvariantViolationError, UsageError

# passes of lagrange_reduce before it gives up; the most any call of the
# benchmark's four workloads needs is 8 (one pass of each, seeds 1-3 where
# the seed matters)
LAGRANGE_PASSES = 1000


def hnf_rows(rows):
    """Row Hermite normal form of integer rows of four columns that span a
    lattice of rank 4, given as lists.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    The form is unique for the lattice the rows span, so it does not depend
    on the order of the rows. A row of another length raises UsageError
    before any work, and rows of rank r < 4 raise InvariantViolationError
    ("expected rank 4, got r").

    Each row is inserted into an echelon basis keyed by pivot column. Where
    its leading column already has a pivot, the row loses a multiple of that
    basis row if the pivot divides its entry; otherwise one unimodular
    extended-gcd step replaces the two by a basis row with the gcd as pivot
    and a row that is zero in that column. The row then goes on to its next
    nonzero column. The reduction above the pivots is written out.
    """
    _check_width(rows)
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
                g, s, t, ag, bg = _bezout(a, b)
                basis[col] = (s * p0 + t * r0, s * p1 + t * r1,
                              s * p2 + t * r2, s * p3 + t * r3)
                r = (bg * p0 - ag * r0, bg * p1 - ag * r1,
                     bg * p2 - ag * r2, bg * p3 - ag * r3)
            else:
                q = b // a
                r = (r0 - q * p0, r1 - q * p1, r2 - q * p2, r3 - q * p3)
    if None in basis:
        raise InvariantViolationError(f"expected rank 4, got {4 - basis.count(None)}")
    # each basis row is 0 left of its pivot
    (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = basis
    q = a1 // b1
    a1, a2, a3 = a1 - q * b1, a2 - q * b2, a3 - q * b3
    q = a2 // c2
    a2, a3 = a2 - q * c2, a3 - q * c3
    q = b2 // c2
    b2, b3 = b2 - q * c2, b3 - q * c3
    return [[a0, a1, a2, a3 % d3], [0, b1, b2, b3 % d3], [0, 0, c2, c3 % d3], [0, 0, 0, d3]]


def _check_width(rows):
    """UsageError unless every row has four entries."""
    for r in rows:
        if len(r) != 4:
            raise UsageError("rows must have four entries")


def hnf_mod(rows, k):
    """Row Hermite normal form of the lattice spanned by `rows` (integer
    rows of four columns) and k·Z^4, k > 0: that of hnf_rows(k·1 + rows).

    As k·Z^4 lies in the lattice, every entry right of a pivot column can be
    kept in [0, k): column c's pivot row starts as k·e_c and takes in each
    remaining row's entry by a division or one unimodular extended-gcd step
    (`_bezout`), after which that row is 0 in column c; both are reduced mod
    k after each step, so the entries stay small. Written out column by
    column: a pivot row and the rows left over are 0 left of the column, so
    only their entries from it on are kept, 4, then 3, 2 and 1 of them. A k
    that is not positive raises UsageError before any work.
    """
    if k <= 0:
        raise UsageError("modulus must be positive")
    _check_width(rows)
    # column 0: pivot row (a0, p01, p02, p03)
    a0, p01, p02, p03 = k, 0, 0, 0
    left = []
    for r0, r1, r2, r3 in rows:
        b, r1, r2, r3 = r0 % k, r1 % k, r2 % k, r3 % k
        if b % a0:
            a0, s, t, ag, bg = _bezout(a0, b)
            p01, p02, p03, r1, r2, r3 = (
                (s * p01 + t * r1) % k, (s * p02 + t * r2) % k, (s * p03 + t * r3) % k,
                (bg * p01 - ag * r1) % k, (bg * p02 - ag * r2) % k, (bg * p03 - ag * r3) % k)
        elif b:
            q = b // a0
            r1, r2, r3 = (r1 - q * p01) % k, (r2 - q * p02) % k, (r3 - q * p03) % k
        if r1 or r2 or r3:
            left.append((r1, r2, r3))
    # column 1: pivot row (a1, p12, p13)
    a1, p12, p13 = k, 0, 0
    rows, left = left, []
    for b, r2, r3 in rows:
        if b % a1:
            a1, s, t, ag, bg = _bezout(a1, b)
            p12, p13, r2, r3 = ((s * p12 + t * r2) % k, (s * p13 + t * r3) % k,
                                (bg * p12 - ag * r2) % k, (bg * p13 - ag * r3) % k)
        elif b:
            q = b // a1
            r2, r3 = (r2 - q * p12) % k, (r3 - q * p13) % k
        if r2 or r3:
            left.append((r2, r3))
    # column 2: pivot row (a2, p23)
    a2, p23 = k, 0
    rows, left = left, []
    for b, r3 in rows:
        if b % a2:
            a2, s, t, ag, bg = _bezout(a2, b)
            p23, r3 = (s * p23 + t * r3) % k, (bg * p23 - ag * r3) % k
        elif b:
            r3 = (r3 - b // a2 * p23) % k
        if r3:
            left.append(r3)
    # column 3: the pivot is the gcd of k and what is left
    a3 = gcd(k, *left)
    # the entries above each pivot, reduced into [0, pivot) left to right
    q = p01 // a1
    p01, p02, p03 = p01 - q * a1, p02 - q * p12, p03 - q * p13
    q = p02 // a2
    p02, p03 = p02 - q * a2, p03 - q * p23
    q = p12 // a2
    p12, p13 = p12 - q * a2, p13 - q * p23
    return [[a0, p01, p02, p03 % a3], [0, a1, p12, p13 % a3],
            [0, 0, a2, p23 % a3], [0, 0, 0, a3]]


def _bezout(a, b):
    """(g, s, t, a/g, b/g) for g = gcd(a, b) = s·a + t·b, a > 0 not dividing b."""
    g = gcd(a, b)
    ag, bg = a // g, b // g
    t = pow(bg, -1, ag)  # ag > 1, as a does not divide b
    return g, (g - t * b) // a, t, ag, bg


class Lattice4:
    """Full-rank lattice in Q^4 with canonical (denominator, HNF rows) form."""

    __slots__ = ("den", "rows")

    def __init__(self, den, rows):
        """The lattice spanned by the integer rows over den > 0, stored as
        its row-Hermite basis (`hnf_rows`) with the content, the gcd of den
        and every entry, divided out.
        """
        if den <= 0:
            raise UsageError("denominator must be positive")
        rows = hnf_rows(rows)
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = rows
        g = gcd(den, a0, a1, a2, a3, b1, b2, b3, c2, c3, d3)
        if g > 1:
            den //= g
            rows = [[x // g for x in r] for r in rows]
        self.den = den
        self.rows = tuple(map(tuple, rows))

    def key(self):
        return (self.den, self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice4) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def coordinates(self, vec, den=1):
        """Integer coordinates of the element vec/den in this basis, or None.

        vec is an integer 4-tuple and den > 0. Row i has its pivot in column
        i and is 0 left of it, so coordinate i is one exact division, after
        which entry i of what is left of vec is 0.
        """
        if den <= 0:
            raise UsageError("denominator must be positive")
        (a0, a1, a2, a3), (_, b1, b2, b3), (_, _, c2, c3), (_, _, _, d3) = self.rows
        e = self.den
        v0, v1, v2, v3 = vec
        q0, r = divmod(v0 * e, den * a0)
        if r:
            return None
        t = den * q0
        v1, v2, v3 = v1 * e - t * a1, v2 * e - t * a2, v3 * e - t * a3
        q1, r = divmod(v1, den * b1)
        if r:
            return None
        t = den * q1
        v2, v3 = v2 - t * b2, v3 - t * b3
        q2, r = divmod(v2, den * c2)
        if r:
            return None
        q3, r = divmod(v3 - den * q2 * c3, den * d3)
        if r:
            return None
        return q0, q1, q2, q3

    def contains(self, vec, den=1) -> bool:
        """Membership of the element vec/den, vec an integer 4-tuple."""
        return self.coordinates(vec, den) is not None

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


def _upper4(gram):
    """The ten entries g_ij, i <= j, of a Gram; UsageError unless it is a
    symmetric 4x4 matrix."""
    try:
        (g00, g01, g02, g03), (g10, g11, g12, g13), \
            (g20, g21, g22, g23), (g30, g31, g32, g33) = gram
    except ValueError:
        raise UsageError("Gram matrix must be square and 4x4") from None
    if g10 != g01 or g20 != g02 or g30 != g03 or g21 != g12 or g31 != g13 or g32 != g23:
        raise UsageError("Gram matrix must be symmetric")
    return g00, g01, g02, g03, g11, g12, g13, g22, g23, g33


def lagrange_reduce(gram):
    """Greedy pairwise reduction of a 4x4 integer Gram matrix (optimal in dim <= 4).

    Returns (reduced, U) with reduced = U^T gram U and U unimodular; original
    vectors are recovered as U @ x. gram must be 4x4 and symmetric. It is
    kept as its ten entries g_ij, i <= j, and U as its four columns u_j. A
    step b_j -= mu·b_i writes row j and column j together,
    v_k = g[j][k] - mu·g[i][k], and g[j][j] - 2·mu·g[i][j] + mu^2·g[i][i]
    from the values before the step. A pass takes the twelve steps (i, j),
    i != j, in order, then sorts the basis by diagonal (stably) if the
    diagonal is out of order. A form that is still changing after
    LAGRANGE_PASSES passes raises.
    """
    g00, g01, g02, g03, g11, g12, g13, g22, g23, g33 = _upper4(gram)
    u0, u1, u2, u3 = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
    for _ in range(LAGRANGE_PASSES):
        changed = False
        # a zero diagonal entry skips its steps
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
        # the stable sort by diagonal, taken only when it moves something
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
    """An integral positive definite 4x4 Gram with the setup of the
    Fincke-Pohst search done, so that enumerating it again only walks the
    tree.

    The data come from one fraction-free (Bareiss) elimination of the Gram,
    written out, whose pivots are the leading minors D_1, ..., D_4 (D_0 = 1).
    In Q(x) = sum_i q_ii·(x_i + sum_{j>i} q_ij·x_j)^2 they give
    q_ii = D_{i+1}/D_i and q_ij = a_ij/D_{i+1}, for a_ij the entries of row i
    when it is the pivot row. A pivot D_{i+1} <= 0 means the Gram is not
    positive definite, and raises before it divides. With m_i the least
    common denominator of the q_ij (j > i), the centre of coordinate i is
    -C_i/m_i for the integer C_i = sum_{j>i} m_i·q_ij·x_j, and
    q_ii·(x_i - centre)^2 = k_i·s^2/scale with s = m_i·x_i + C_i,
    k_i = scale·D_{i+1}/(D_i·m_i^2), and scale the least integer that makes
    every k_i integral. The form keeps m, the rows num[i][j] = m_i·q_ij, k
    and scale; not the Gram. The Gram must be 4x4 and symmetric.
    """

    __slots__ = ("m", "num", "k", "scale")

    def __init__(self, gram):
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
        self.scale = lcm(1, *k_den)
        self.k = tuple(kn * (self.scale // kd) for kn, kd in zip(k_num, k_den))
        self.m, self.num = (m0, m1, m2, 1), num


def _fincke_pohst(form, max_value):
    """Yield (value, x) with 0 < x^T G x <= max_value, x integer.

    form is the PreparedForm of an integral positive definite 4x4 Gram G,
    best a Lagrange-reduced one (fewer nodes); max_value is an integer. The
    package's one exact Fincke-Pohst search that lists vectors, written out
    as four nested loops with the bounds `value_counts` uses: every x_i with
    k_i·s^2 <= remaining budget is visited, and no other (see PreparedForm).
    Both x and -x appear; x_3 is outermost and each coordinate runs upwards,
    so the order of the vectors found does not depend on max_value. Lazy:
    callers may stop early.
    """
    if max_value < 0:
        raise UsageError("negative radicand")
    (m0, m1, m2, _), (n0, n1, n2, _), (k0, k1, k2, k3), scale = \
        form.m, form.num, form.k, form.scale
    _, n01, n02, n03 = n0
    n12, n13, n23 = n1[2], n1[3], n2[3]
    top = max_value * scale
    b3 = isqrt(top // k3)
    for x3 in range(-b3, b3 + 1):  # m_3 = 1 and C_3 = 0
        r3 = top - k3 * x3 * x3
        c2 = n23 * x3
        b2 = isqrt(r3 // k2)
        for x2 in range(-((c2 + b2) // m2), (b2 - c2) // m2 + 1):
            s2 = m2 * x2 + c2
            r2 = r3 - k2 * s2 * s2
            c1 = n12 * x2 + n13 * x3
            b1 = isqrt(r2 // k1)
            for x1 in range(-((c1 + b1) // m1), (b1 - c1) // m1 + 1):
                s1 = m1 * x1 + c1
                r1 = r2 - k1 * s1 * s1
                c0 = n01 * x1 + n02 * x2 + n03 * x3
                b0 = isqrt(r1 // k0)
                rest = x1 or x2 or x3
                base = top - r1
                for x0 in range(-((c0 + b0) // m0), (b0 - c0) // m0 + 1):
                    if x0 or rest:
                        s0 = m0 * x0 + c0
                        yield (base + k0 * s0 * s0) // scale, (x0, x1, x2, x3)


def _enumerate_reduced(form, u, max_value):
    """`enumerate_by_value` on the PreparedForm of a Lagrange-reduced Gram
    and its transform u."""
    for value, vec in _fincke_pohst(form, max_value):
        yield value, tuple(sum(u[r][c] * vec[c] for c in range(4)) for r in range(4))


def enumerate_by_value(gram, max_value: int):
    """Yield (value, x) for every integer x != 0 with x^T gram x = value <= max_value.

    gram is an integral positive definite 4x4 Gram matrix. Its basis is
    Lagrange-reduced first, and the vectors are mapped back to the original
    coordinates. Both x and -x appear. Lazy: callers may stop early.
    """
    red, u = lagrange_reduce(gram)
    return _enumerate_reduced(PreparedForm(red), u, max_value)


def shortest_value_and_vector(gram, reduction=None):
    """(value, x) attaining the minimum of x^T gram x on integer x != 0.

    gram is integral, 4x4 and positive definite; reduction is its Lagrange
    reduction (R, U) when the caller already has it, R given as the reduced
    Gram or as its PreparedForm, and is computed here otherwise. One
    enumeration: the bound is the value of the first reduced basis vector,
    R[0][0] (D_1 = k_0·m_0^2/scale of the form), which is the least
    diagonal entry of R, so the minimum lies within it. Ties go to the
    first minimal vector in enumeration order, which no bound changes.
    """
    red, u = lagrange_reduce(gram) if reduction is None else reduction
    form = red if isinstance(red, PreparedForm) else PreparedForm(red)
    bound = form.k[0] * form.m[0] ** 2 // form.scale
    return min(_enumerate_reduced(form, u, bound), key=lambda hit: hit[0])


def value_counts(gram_int, max_value: int):
    """counts[v] = #{x != 0 : x^T G x = v} for v = 0..max_value, G an
    integral 4x4 Gram.

    Pass G, or its PreparedForm when it is counted more than once: the
    counts are basis-free, so no vector is mapped back, and a reduced G only
    visits fewer nodes. Four nested loops with the bounds of `_fincke_pohst`.
    x and -x have the same value, so only the x whose last nonzero
    coordinate is positive are visited, and each counts twice: while every
    higher coordinate is 0 the centre of a coordinate is 0, and it runs from
    0 upwards (from 1 for x_0, as x != 0). The innermost loop runs over
    s_0 = m_0·x_0 + C_0, as x_0 itself is not needed; m_3 = 1 and C_3 = 0.
    """
    form = gram_int if isinstance(gram_int, PreparedForm) else PreparedForm(gram_int)
    if max_value < 0:
        raise UsageError("negative radicand")
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
