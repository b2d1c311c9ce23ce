"""Exact integer matrices: diagonal forms over Z/p^n, fraction-free
elimination over Q, and the Smith form of one row over Z.

Everything is arbitrary-precision; no floating point enters anywhere in this
package. IntMatrix values are immutable tuples of tuples, row-major. Each
ring has one elimination. Over Z/p^n (`eliminate_mod`) it reduces a
list-of-lists array in place and carries along only the blocks its caller
appended: an identity to the right for U, below for V. Over Q, where no
unimodular transform is read, it is one fraction-free Gauss-Jordan pass
(`_fraction_free`), whose entries stay minors of the matrix; `det`,
`leading_minors` and `rational_kernel` read that pass. On a totally
unimodular matrix, such as a graph's boundary map, `rational_kernel` is a
Z-basis of the kernel too. Over Z a unimodular transform is read for one row
only, by one extended Euclid (`smith_normal_form`): general Smith pivoting
over Z can blow up, and no matrix of more rows needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ..errors import InvariantViolationError, UsageError
from ..primes import capped_valuation


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with positive dimensions."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise UsageError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise UsageError("entry shape does not match declared dimensions")
        for r in self.entries:
            for x in r:
                if type(x) is not int:  # not isinstance: a bool is an int too
                    raise UsageError(f"entries must be exact integers, got {x!r}")

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        """The matrix with these rows: sequences of ints, taken as they are."""
        if not isinstance(rows, (list, tuple)) or \
                not all(isinstance(r, (list, tuple)) for r in rows):
            raise UsageError("a matrix is a sequence of rows, each a sequence of integers")
        rows = tuple(map(tuple, rows))
        return IntMatrix(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def identity(k: int) -> "IntMatrix":
        return IntMatrix.from_rows([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows([[self.entries[i][j] for i in range(self.rows)]
                                    for j in range(self.cols)])

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise UsageError("dimension mismatch in matrix product")
        ot = other.transpose().entries
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(r, c)) for c in ot] for r in self.entries])

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise UsageError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self.entries)


def _fraction_free(M: IntMatrix):
    """One fraction-free Gauss-Jordan pass over M (Bareiss, Math. Comp. 22
    (1968)): (steps, rows, sign).

    Column by column, the first row at or below the next pivot row with a
    nonzero entry is swapped up and taken as pivot row; columns with none
    are passed over. A pivot step replaces every other row by
    (d·row - x·pivot row) / d', d the pivot, x the row's entry in its column
    and d' the previous pivot. The division is exact and every entry stays a
    minor of M, so the bit size stays polynomial; each pivot row ends with
    the last pivot at its pivot column. steps lists (pivot column, pivot,
    whether a row swap came first) per pivot, rows are the reduced rows and
    sign is (-1)^(number of swaps). The pivot of step k is the minor of the
    row-swapped M in rows 0..k and the pivot columns of steps 0..k.
    """
    r, c = M.rows, M.cols
    a = [list(row) for row in M.entries]
    steps = []
    sign, prev = 1, 1
    for j in range(c):
        k = len(steps)
        i = next((i for i in range(k, r) if a[i][j]), None)
        if i is None:
            continue
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        top, d = a[k], a[k][j]
        steps.append((j, d, i != k))
        for i, row in enumerate(a):
            if i != k:
                x = row[j]
                a[i] = [(d * y - x * z) // prev for y, z in zip(row, top)]
        prev = d
    return steps, a, sign


def det(M: IntMatrix) -> int:
    """sign × the last pivot of `_fraction_free` at full rank, else 0."""
    if M.rows != M.cols:
        raise UsageError("determinant of a non-square matrix")
    steps, _, sign = _fraction_free(M)
    return sign * steps[-1][1] if len(steps) == M.rows else 0


def leading_minors(M: IntMatrix):
    """The leading principal minors D_1, D_2, ... of M before the first zero
    one, as a tuple: when k < min(rows, cols) minors come back, D_(k+1) = 0.

    While no swap and no passed-over column has come before it, the pass
    pivots on the diagonal, and its pivot in row k is D_(k+1).
    """
    steps, _, _ = _fraction_free(M)
    out = []
    for k, (j, d, swapped) in enumerate(steps):
        if j != k or swapped:
            break
        out.append(d)
    return tuple(out)


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def smith_normal_form(M: IntMatrix):
    """Return (U, S, V) with U*M*V = S = (d, 0, ..., 0), for M of one row.

    One extended Euclid over the row (Cohen, A Course in Computational
    Algebraic Number Theory, 1.3): the nonzero entry of smallest absolute
    value, first on ties, is swapped to the front and reduces every other
    entry by column operations, and a nonzero remainder becomes the pivot,
    until the others are 0. So d = gcd of the row, V is unimodular with its
    first column a solution of row·x = d, and U = (±1) makes d >= 0. A
    matrix of more than one row is refused: the Smith pivoting over Z can
    blow up, and the package needs no more than the one row.
    """
    if M.rows != 1:
        raise UsageError(f"smith_normal_form takes one row, got {M.rows}")
    row = list(M.entries[0])
    cols = _identity(M.cols)  # cols[j] is column j of V

    def swap(j):
        row[0], row[j] = row[j], row[0]
        cols[0], cols[j] = cols[j], cols[0]

    nonzero = [j for j, x in enumerate(row) if x]
    if nonzero:
        swap(min(nonzero, key=lambda j: abs(row[j])))
        cleared = False
        while not cleared:
            cleared = True
            for j in range(1, M.cols):
                if row[j]:
                    q = row[j] // row[0]
                    row[j] -= q * row[0]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[0])]
                    if row[j]:  # the remainder is the smaller pivot
                        swap(j)
                        cleared = False
    u = -1 if row[0] < 0 else 1
    return (IntMatrix.from_rows([[u]]), IntMatrix.from_rows([[u * row[0]] + row[1:]]),
            IntMatrix.from_rows(list(zip(*cols))))


def kernel_basis(M: IntMatrix):
    """Integer basis of ker(M) = {x : M x = 0} for M of one row, as a tuple
    of column vectors: the columns of `smith_normal_form`'s V past the rank,
    which span the kernel lattice saturatedly (V unimodular)."""
    _, S, V = smith_normal_form(M)
    return V.transpose().entries[1 if S[0, 0] else 0:]


def rational_kernel(M: IntMatrix):
    """Primitive integer vectors spanning ker(M) = {x : M x = 0} over Q, one
    per column without a pivot, as a tuple.

    Read off `_fraction_free`: every pivot row ends with the last pivot d at
    its pivot column, so free column f gives the vector with d at f and
    minus column f of the pivot rows at their pivots. Unlike `kernel_basis`
    the vectors need not span the kernel lattice over Z. Each is certified
    before it is returned: M v = 0 exactly, summed over the support of v.
    """
    steps, a, _ = _fraction_free(M)
    pivots = [j for j, _, _ in steps]
    d = steps[-1][1] if steps else 1
    out = []
    for f in range(M.cols):
        if f in pivots:
            continue
        v = [0] * M.cols
        v[f] = d
        for i, j in enumerate(pivots):
            v[j] = -a[i][f]
        g = gcd(*v) if d > 0 else -gcd(*v)
        v = tuple(x // g for x in v)
        support = [(j, x) for j, x in enumerate(v) if x]
        if any(sum(row[j] * x for j, x in support) for row in M.entries):
            raise InvariantViolationError(f"kernel vector {v} is not killed by the matrix")
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Linear algebra over Z/p^n.  Entries are plain ints reduced mod p^n; pivots
# are chosen with minimal p-valuation so the diagonal form is diag(p^{a_i}).
# ---------------------------------------------------------------------------

def eliminate_mod(a, r, c, p: int, n: int):
    """Diagonalize the top-left r x c block of a over Z/p^n, in place.

    Row operations act on whole rows and column operations on whole columns,
    so a block R right of the pivot block ends as U*R and a block B below it
    as B*V, with U, V invertible mod p^n and
    U*M*V ≡ diag(p^{a_1}, ...) mod p^n; every entry of a is reduced mod p^n.
    Pivots have minimal p-valuation, first occurrence (row-major) on ties.
    Returns the diagonal of the reduced block.
    """
    q = p ** n
    for i, row in enumerate(a):
        a[i] = [x % q for x in row]
    t = 0
    while t < min(r, c):
        # minimal-valuation pivot
        best = None
        bv = n
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] % q != 0:
                    w = capped_valuation(a[i][j], p, n)
                    if w < bv:
                        bv, best = w, (i, j)
        if best is None:
            break
        i0, j0 = best
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        piv = a[t][t]
        unit = piv // (p ** bv)
        inv_unit = pow(unit, -1, q)
        # scale row t so the pivot is exactly p^bv
        a[t] = [(x * inv_unit) % q for x in a[t]]
        for i in range(t + 1, r):
            if a[i][t] % q:
                f = a[i][t] // (p ** bv)  # divisible: pivot has minimal valuation
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[t])]
        for j in range(t + 1, c):
            if a[t][j] % q:
                f = a[t][j] // (p ** bv)
                for row in a:
                    row[j] = (row[j] - f * row[t]) % q
        t += 1
    return tuple(a[i][i] for i in range(min(r, c)))


def kernel_mod(M: IntMatrix, p: int, n: int):
    """Basis of {x mod p^n : M x ≡ 0 mod p^n} as column tuples.

    Returns generators x_k = p^{n-a_k} * (unit column) for diagonal entries
    p^{a_k}, plus free columns; every kernel element is a Z/p^n-combination.
    """
    q = p ** n
    r, c = M.rows, M.cols
    a = [list(row) for row in M.entries] + _identity(c)
    diag = eliminate_mod(a, r, c, p, n)
    gens = []
    for j in range(c):
        if j < len(diag):
            aj = capped_valuation(diag[j], p, n)
            if aj == 0:
                continue  # unit pivot: no kernel contribution
            coeff = p ** (n - aj)
        else:
            coeff = 1  # beyond diagonal: column of zeros, free variable
        gens.append(tuple((coeff * row[j]) % q for row in a[r:]))
    return tuple(gens)
