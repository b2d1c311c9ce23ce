"""Exact integer matrices: Smith forms over Z, diagonal forms over Z/p^n,
and fraction-free elimination over Q.

Everything is arbitrary-precision; no floating point enters anywhere in this
package. IntMatrix values are immutable tuples of tuples, row-major. Each
ring has one elimination. Over Z and Z/p^n (`eliminate`, `eliminate_mod`)
it reduces a list-of-lists array in place and carries along only the blocks
its caller appended: an identity to the right for U, below for V. Over Q,
where no unimodular transform is read, it is one fraction-free Gauss-Jordan
pass (`_fraction_free`), whose entries stay minors of the matrix where the
Smith pivoting can blow up; `det`, `leading_minors` and `rational_kernel`
read that pass. On a totally unimodular matrix, such as a graph's boundary
map, `rational_kernel` is a Z-basis of the kernel too.
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


def eliminate(a, r, c):
    """Reduce the top-left r x c block of the integer array a to Smith form, in place.

    Row operations act on whole rows and column operations on whole columns,
    so a block R right of the pivot block ends as U*R and a block B below it
    as B*V, where U*M*V = S; rows below need only the block's c columns.
    Appending identities therefore gives U and V, and appending nothing
    builds neither. Pivoting is deterministic: the nonzero entry of smallest
    absolute value, first occurrence (row-major) on ties. Returns the
    diagonal d1 | d2 | ... of S, non-negative.
    """

    def row_op(i1, i2, q):
        # row i2 -= q * row i1
        a[i2] = [x - q * y for x, y in zip(a[i2], a[i1])]

    def col_op(j1, j2, q):
        for row in a:
            row[j2] -= q * row[j1]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]

    def swap_cols(j1, j2):
        for row in a:
            row[j1], row[j2] = row[j2], row[j1]

    def pivot(t):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(r, c):
        pos = pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        # Clear row and column t; the pivot may shrink, so loop.
        while True:
            cleared = True
            for i in range(t + 1, r):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(t, i, q)
                    if a[i][t] != 0:  # remainder became the smaller pivot
                        swap_rows(t, i)
                        cleared = False
            for j in range(t + 1, c):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(t, j, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        cleared = False
            if cleared:
                break
        t += 1

    # Enforce the divisibility chain d_i | d_{i+1}.
    k = min(r, c)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % (di if di else 1) != 0 or (di == 0 and dj != 0):
                # Standard trick: fold entry (i+1,i+1) into row i and re-clear.
                col_op(i + 1, i, -1)  # col i += col i+1
                while True:
                    # one elimination round on the 2x2 block
                    if a[i + 1][i] == 0:
                        break
                    if a[i][i] == 0 or abs(a[i + 1][i]) < abs(a[i][i]):
                        swap_rows(i, i + 1)
                    q = a[i + 1][i] // a[i][i]
                    row_op(i, i + 1, q)
                for j in range(i + 1, c):
                    if a[i][j] != 0:
                        q = a[i][j] // a[i][i]
                        col_op(i, j, q)
                        if a[i][j] != 0:
                            swap_cols(i, j)
                changed = True
    # Normalize signs.
    for i in range(k):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return tuple(a[i][i] for i in range(k))


def smith_normal_form(M: IntMatrix):
    """Return (U, S, V) with U*M*V = S in Smith normal form.

    U, V are unimodular; S is diagonal with non-negative entries forming a
    divisibility chain d1 | d2 | ... (see `eliminate`).
    """
    r, c = M.rows, M.cols
    a = [list(row) + e for row, e in zip(M.entries, _identity(r))] + _identity(c)
    eliminate(a, r, c)
    U = IntMatrix.from_rows([row[c:] for row in a[:r]])
    S = IntMatrix.from_rows([row[:c] for row in a[:r]])
    V = IntMatrix.from_rows(a[r:])
    return U, S, V


def kernel_basis(M: IntMatrix):
    """Integer basis of ker(M) = {x : M x = 0}, as a tuple of column vectors.

    The basis spans the kernel lattice saturatedly (V unimodular).
    """
    r, c = M.rows, M.cols
    a = [list(row) for row in M.entries] + _identity(c)
    rank = sum(1 for d in eliminate(a, r, c) if d)
    return tuple(tuple(row[j] for row in a[r:]) for j in range(rank, c))


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

    As in `eliminate`, row operations act on whole rows and column operations
    on whole columns, so a block R right of the pivot block ends as U*R and a
    block B below it as B*V, with U, V invertible mod p^n and
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
