"""Exact local splittings D ⊗ Q_ell ≅ M_2(Q_ell) at split primes.

The splitting is realized mod ell^prec: find x in the order whose quadratic
subfield splits at ell, Hensel-lift the roots of its minimal polynomial, form
the idempotent e = (x - r2)/(r1 - r2), and act on the rank-2 left ideal
(O/ell^prec)·e. The resulting matrices send the order onto M_2(Z/ell^prec),
so every Hermite computation downstream is exact at the working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import InvariantViolationError, SearchExhaustedError, UsageError
from ..exactalg import IntMatrix, eliminate_mod, kernel_mod
from ..primes import hensel_lift
from .algebra import legendre
from .order import QuaternionOrder, _tuples


@dataclass(frozen=True)
class LocalSplitting:
    """Images of an order's basis in M_2(Z/ell^prec)."""

    ell: int
    prec: int
    basis_images: tuple  # four 2x2 tuples

    @property
    def modulus(self):
        return self.ell ** self.prec

    def apply(self, coords):
        """Matrix image of the element with the given (integer) order coordinates."""
        q = self.modulus
        out = [[0, 0], [0, 0]]
        for c, mat in zip(coords, self.basis_images):
            if c % q:
                for r in range(2):
                    for s in range(2):
                        out[r][s] += c * mat[r][s]
        return ((out[0][0] % q, out[0][1] % q), (out[1][0] % q, out[1][1] % q))

    @cached_property
    def line_preimages(self):
        """For each line u of F_ell^2, in the order (1, 0), (0, 1), (1, 1),
        ..., (ell - 1, 1): the order coordinates mod ell of two generators of
        {y in O : the columns of iota(y) lie on u}, the pullback of a simple
        right ideal of M_2(F_ell). They read only the basis images mod ell,
        so a walk computes them once, on its first neighbours; the cached
        value is not a field, and equality and hashing ignore it.
        """
        ell = self.ell
        out = []
        for u0, u1 in [(1, 0)] + [(t, 1) for t in range(ell)]:
            # both columns c of iota(y) satisfy u1*c0 - u0*c1 ≡ 0 (line test)
            rows = [[(u1 * m[0][col] - u0 * m[1][col]) % ell for m in self.basis_images]
                    for col in range(2)]
            # over F_ell the generators are columns of an invertible transform,
            # so they are independent: two of them exactly when the conditions
            # have rank 2
            gens = kernel_mod(IntMatrix.from_rows(rows), ell, 1)
            if len(gens) != 2:
                raise InvariantViolationError("line preimage is not 2-dimensional")
            out.append(gens)
        return tuple(out)


def _hensel_roots(t, n, ell, prec):
    """The two roots of X^2 - tX + n mod ell^prec, distinct mod ell.

    The derivative 2r - t is a unit mod ell at a simple root, so each base
    root lifts (`primes.hensel_lift`).
    """
    q = ell ** prec
    base_mod = 8 if ell == 2 else ell
    bases = [r for r in range(base_mod) if (r * r - t * r + n) % base_mod == 0
             and (2 * r - t) % ell != 0]
    out = []
    for r0 in bases:
        r = hensel_lift(r0, t, n, ell, prec)
        if (r * r - t * r + n) % q == 0 and all((r - s) % ell != 0 for s in out):
            out.append(r)
    if len(out) != 2:
        raise InvariantViolationError("Hensel lift did not produce two distinct roots")
    return out[0], out[1]


def _find_split_element(order: QuaternionOrder, ell: int):
    """Order element whose reduced characteristic polynomial splits at ell,
    searched in the coordinate boxes of radius 1 to 4."""
    rows, den = order.lattice.rows, order.lattice.den
    alg = order.alg
    for radius in range(1, 5):
        for coords in _tuples(2 * radius + 1, 4):
            c = tuple(x - radius for x in coords)
            if not any(c):
                continue
            x = tuple(sum(c[i] * rows[i][k] for i in range(4)) for k in range(4))
            # the element x/den is integral: trd(x)/den and nrd(x)/den^2 are exact
            t, t_rem = divmod(alg.trd(x), den)
            n, n_rem = divmod(alg.nrd(x), den * den)
            if t_rem or n_rem:
                raise InvariantViolationError("order element has a non-integral trace or norm")
            disc = t * t - 4 * n
            if disc == 0:
                continue
            if ell == 2:
                if disc % 8 == 1:
                    return c, t, n
            else:
                if disc % ell != 0 and legendre(disc, ell) == 1:
                    return c, t, n
    raise SearchExhaustedError(f"no split quadratic subfield found at {ell}")


def local_splitting(order: QuaternionOrder, ell: int, prec: int) -> LocalSplitting:
    """Splitting of the order at a prime ell not dividing its discriminant."""
    if order.reduced_discriminant() % ell == 0:
        raise UsageError("cannot split a ramified or level prime this way")
    q = ell ** prec
    coords, t, n = _find_split_element(order, ell)
    r1, r2 = _hensel_roots(t, n, ell, prec)
    inv = pow((r1 - r2) % q, -1, q)
    one = order.one_coords()
    e = tuple((inv * (c - r2 * o)) % q for c, o in zip(coords, one))
    # V = (O/q)·e, a free rank-2 module; find two unit-pivot generators
    gens = [order.coords_mul(_unit(i), e) for i in range(4)]
    pivots, vbasis = _row_reduce_unit(gens, ell, q)
    if len(vbasis) != 2:
        raise InvariantViolationError("left ideal of the idempotent is not rank 2")
    # v1 and v2 are 1 and 0 at v1's pivot and 0 and 1 at v2's, so the
    # coordinates of w = c1·v1 + c2·v2 are w's entries there; the rebuilt
    # c1·v1 + c2·v2 must be w itself, else w is not in the module
    images = []
    for i in range(4):
        cols = []
        for v in vbasis:
            w = order.coords_mul(_unit(i), v)
            c = tuple(w[k] % q for k in pivots)
            if any((c[0] * x + c[1] * y - z) % q for x, y, z in zip(*vbasis, w)):
                raise InvariantViolationError("element not in the rank-2 module")
            cols.append(c)
        images.append(((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1])))
    spl = LocalSplitting(ell, prec, tuple(images))
    _verify_splitting(order, spl)
    return spl


def _unit(i):
    v = [0, 0, 0, 0]
    v[i] = 1
    return tuple(v)


def _row_reduce_unit(rows, ell, q):
    """Reduce rows over Z/q keeping unit pivots; return the pivot columns and
    the basis, each row 1 at its pivot column and every other row 0 there."""
    work = [list(x % q for x in r) for r in rows]
    pivots, basis = [], []
    for col in range(4):
        piv = None
        for r in work:
            if r[col] % ell:
                piv = r
                break
        if piv is None:
            continue
        inv = pow(piv[col], -1, q)
        piv = [x * inv % q for x in piv]
        for r in work:
            if r is not piv and r[col] % q:
                f = r[col]
                for k in range(4):
                    r[k] = (r[k] - f * piv[k]) % q
        for b in basis:
            if b[col] % q:
                f = b[col]
                for k in range(4):
                    b[k] = (b[k] - f * piv[k]) % q
        pivots.append(col)
        basis.append(piv)
        work = [r for r in work if any(x % q for x in r)]
    # anything left has no unit pivot; a free module's span reduces to nothing
    if any(any(x % q for x in r) for r in work):
        raise InvariantViolationError("module is not free at the working precision")
    return pivots, basis


def _verify_splitting(order: QuaternionOrder, spl: LocalSplitting):
    q = spl.modulus
    ell = spl.ell
    one = spl.apply(order.one_coords())
    if one != ((1 % q, 0), (0, 1 % q)):
        raise InvariantViolationError("splitting does not send 1 to the identity")
    # multiplicativity on basis pairs
    for i in range(4):
        for j in range(4):
            lhs = spl.apply(order.coords_mul(_unit(i), _unit(j)))
            a = spl.basis_images[i]
            b = spl.basis_images[j]
            rhs = ((sum(a[0][k] * b[k][0] for k in range(2)) % q,
                    sum(a[0][k] * b[k][1] for k in range(2)) % q),
                   (sum(a[1][k] * b[k][0] for k in range(2)) % q,
                    sum(a[1][k] * b[k][1] for k in range(2)) % q))
            if lhs != rhs:
                raise InvariantViolationError("splitting is not multiplicative")
    # surjectivity mod ell: the four images span M_2(F_ell)
    rows = [[spl.basis_images[i][r][s] for r in range(2) for s in range(2)]
            for i in range(4)]
    if any(d == 0 for d in eliminate_mod(rows, 4, 4, ell, 1)):
        raise InvariantViolationError("splitting misses M_2 mod ell")
