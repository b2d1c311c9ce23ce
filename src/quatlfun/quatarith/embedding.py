"""Optimal embeddings of imaginary quadratic orders into Eichler orders.

The generator of O_c = Z + c·O_K is c·g1 with g1 = (-1+sqrt(dK))/2 for odd dK
and sqrt(dK)/2 for even dK. An embedding is a solution of trd = t, nrd = n in
the order; optimality means the quadratic subring it cuts out is exactly O_c,
checked by an index computation. Elements are kept as integer coordinates
in the order's basis.
"""

from __future__ import annotations

from math import gcd

from ..errors import InvariantViolationError, SearchExhaustedError, UsageError
from ..exactalg import IntMatrix, rational_kernel, smith_normal_form
from ..primes import prime_factors
from .algebra import kronecker
from .lattice import enumerate_by_value
from .order import QuaternionOrder

# short vectors the trace-norm enumeration may visit before giving up
MAX_CANDIDATES = 200000


class Embedding:
    """Image of the standard generator of O_c in a quaternion order."""

    def __init__(self, order, disc_k, conductor, coords, trace, norm):
        self.order = order
        self.disc_k = disc_k
        self.conductor = conductor
        self.coords = coords  # integer coordinates in the order's basis
        self.trace = trace
        self.norm = norm

    def optimality_index(self) -> int:
        return _subring_index(self.order, self.coords)


def quadratic_generator(disc_k: int, conductor: int = 1):
    """(trace, norm) of the standard generator of the conductor-c order."""
    if disc_k >= 0 or disc_k % 4 not in (0, 1):
        raise UsageError("need a negative quadratic discriminant")
    if disc_k % 2:
        t1, n1 = -1, (1 - disc_k) // 4
    else:
        t1, n1 = 0, -disc_k // 4
    return conductor * t1, conductor * conductor * n1


def optimal_embedding(disc_k: int, conductor: int, order: QuaternionOrder) -> Embedding:
    """Embed O_c = Z + c·O_K optimally into the given Eichler order.

    Preconditions (the paper's factorization constraints): every prime of the
    algebra discriminant is non-split in K, every level prime splits.
    """
    if disc_k >= 0 or disc_k % 4 not in (0, 1):
        raise UsageError("need a negative fundamental-type discriminant")
    disc_alg = order.alg.discriminant
    level = order.reduced_discriminant() // disc_alg
    for q in prime_factors(disc_alg):
        if kronecker(disc_k, q) == 1:
            raise UsageError(f"prime {q} of the discriminant splits in K")
    for ell in prime_factors(level):
        if kronecker(disc_k, ell) != 1:
            raise UsageError(f"level prime {ell} does not split in K")
    t, n = quadratic_generator(disc_k, conductor)

    best = None
    for coords in _trace_norm_solutions(order, t, n):
        emb = Embedding(order, disc_k, conductor, coords, t, n)
        if emb.optimality_index() == 1:
            return emb
        best = best or emb
    if best is not None:
        raise SearchExhaustedError(
            "embeddings exist but none optimal within the search bound")
    raise SearchExhaustedError("no embedding found within the search bound")


def embedding_with_base(class_set, disc_k: int, conductor: int):
    """(base order, embedding) over the first class representative that admits one.

    Optimal embeddings of a fixed quadratic order land in specific types of
    Eichler orders; the left orders of a complete set of class representatives
    cover every type, so the scan is exhaustive. Deterministic: first hit wins.
    """
    last = None
    for rep in class_set.reps:
        order = rep.left_order()
        try:
            return order, optimal_embedding(disc_k, conductor, order)
        except SearchExhaustedError as ex:
            last = ex
    raise SearchExhaustedError(
        f"no class representative of disc {class_set.disc} level {class_set.level} "
        f"admits an optimal embedding of discriminant {disc_k}, conductor {conductor}"
    ) from last


def _trace_norm_solutions(order: QuaternionOrder, t: int, n: int):
    """All coordinate vectors in the order with trd = t and nrd = n.

    Solve the linear trace condition, then enumerate the positive definite
    norm form on the affine rank-3 solution set at the exact value n. With
    centre w of the shifted form, every solution z obeys
    z^T a z <= 2R + 2 w^T a w, an exact budget for the lattice enumeration.
    The centre is read off `rational_kernel` of (a | b) as w = W/e for its
    one primitive vector (W, e), so the budget is an integer floor of
    integers, with no Fraction.
    The enumeration is the rank-4 one of a ⊕ [budget + 1], whose padded
    coordinate is 0 on every vector within the budget: Lagrange steps
    against it have mu = 0 and the sort by diagonal is stable, so the first
    three coordinates come in the order of an enumeration of a alone.
    """
    # trd of row i is traces[i]/den; the trace condition, divided by the
    # content g of (den, traces), is trow·c = t·den/g
    den = order.lattice.den
    traces = [order.alg.trd(r) for r in order.lattice.rows]
    g = gcd(den, *traces)
    # U·row·V = (d, 0, 0, 0): solvable iff d | U·rhs, and V's last three
    # columns span the kernel
    U, S, V = smith_normal_form(IntMatrix.from_rows([[x // g for x in traces]]))
    d, rhs = S[0, 0], U[0, 0] * t * den // g
    if rhs % d:
        return
    part = tuple(V[i, 0] * (rhs // d) for i in range(4))
    kmat = [[V[i, j] for i in range(4)] for j in range(1, 4)]
    gram = order.alg.norm_gram(order.lattice)

    def pair(u, v):
        # 2·den^2 times the polarized norm of the coordinate vectors u, v
        return sum(u[i] * gram[i][j] * v[j] for i in range(4) for j in range(4))

    a = [[pair(kmat[r], kmat[s]) for s in range(3)] for r in range(3)]
    b = [pair(kmat[r], part) for r in range(3)]
    c0 = pair(part, part)
    target = 2 * order.lattice.den ** 2 * n
    # 2·den^2·nrd(part + Kz) = c0 + 2 b.z + z^T a z = (z - w)^T a (z - w) + const,
    # with a w = -b and const = c0 - w^T a w. The form a is positive definite,
    # so (a | b) has rank 3 and its kernel is the line of (W, e), w = W/e;
    # with R = target - const, e²·R = (target - c0)·e² + W^T a W.
    centre = rational_kernel(IntMatrix.from_rows([row + [x] for row, x in zip(a, b)]))
    if len(centre) != 1 or centre[0][3] == 0:
        raise InvariantViolationError(f"the trace form has no centre: kernel {centre}")
    big_w, e2 = centre[0][:3], centre[0][3] ** 2
    waw = sum(big_w[r] * a[r][s] * big_w[s] for r in range(3) for s in range(3))
    if (target - c0) * e2 + waw < 0:  # R < 0
        return
    budget = (2 * (target - c0) * e2 + 4 * waw) // e2  # floor(2R + 2 w^T a w)

    def coords_of(z):
        return tuple(part[i] + sum(z[r] * kmat[r][i] for r in range(3))
                     for i in range(4))

    if c0 == target:  # z = 0, skipped by the enumerator
        yield tuple(part)
    count = 0
    padded = [row + [0] for row in a] + [[0, 0, 0, budget + 1]]
    for _, z in enumerate_by_value(padded, budget):
        count += 1
        if count > MAX_CANDIDATES:
            raise SearchExhaustedError("trace-norm enumeration exceeded its budget")
        coords = coords_of(z)
        if pair(coords, coords) == target:
            yield coords


def _subring_index(order: QuaternionOrder, coords) -> int:
    """Index [Q(x) ∩ O : Z[x]] for the element x of O with the given coordinates.

    With u the coordinates of 1, Q(x) ∩ O is the saturation of Zu + Z·coords
    in Z^4, whose index over Zu + Z·coords is the gcd of the 2x2 minors.
    """
    one = order.one_coords()
    index = gcd(*(one[i] * coords[j] - one[j] * coords[i]
                  for i in range(4) for j in range(i + 1, 4)))
    if index == 0:
        raise UsageError("element is rational; no quadratic subring")
    return index
