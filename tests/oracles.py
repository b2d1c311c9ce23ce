"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's own code paths: naive row/column
reduction, minor enumeration, direct convolution, point counts, exhaustive
graph searches. Slow is fine; they only run on small inputs.

Point counts, Legendre/Kronecker symbols by square search, spanning-tree sums
and the Fitting minors oracle are the acceptance suite's own oracles
(quatlfun.acceptance), imported here under their test-suite names: they
share no code path with the routines they check.
"""

from quatlfun.acceptance import (curve_point_count_a as curve_a_ell,
                                 fitting_minors_oracle, kronecker_oracle,
                                 spanning_tree_sum as spanning_tree_weight_sum)
from quatlfun.bttree import TreeVertex
from quatlfun.errors import InvariantViolationError, UsageError


# -- Smith form via naive repeated gcd reduction (no pivot strategy shared
#    with the library implementation) --------------------------------------

def snf_diagonal_oracle(rows):
    """Invariant factors (including zeros) of an integer matrix."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])

    def reduce_at(t):
        while True:
            # move a nonzero to (t,t)
            pos = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if m[i][j] != 0:
                        pos = (i, j)
                        break
                if pos:
                    break
            if pos is None:
                return False
            i0, j0 = pos
            m[t], m[i0] = m[i0], m[t]
            for r in m:
                r[t], r[j0] = r[j0], r[t]
            dirty = False
            for i in range(t + 1, nr):
                while m[i][t] != 0:
                    q = m[t][t] // m[i][t] if m[i][t] else 0
                    if abs(m[i][t]) < abs(m[t][t]):
                        m[t], m[i] = m[i], m[t]
                        continue
                    q = m[i][t] // m[t][t]
                    for j in range(nc):
                        m[i][j] -= q * m[t][j]
                    dirty = True
            for j in range(t + 1, nc):
                while m[t][j] != 0:
                    if abs(m[t][j]) < abs(m[t][t]):
                        for r in m:
                            r[t], r[j] = r[j], r[t]
                        continue
                    q = m[t][j] // m[t][t]
                    for r in m:
                        r[j] -= q * r[t]
                    dirty = True
            if not dirty:
                return True

    k = min(nr, nc)
    for t in range(k):
        if not reduce_at(t):
            break
    diag = [abs(m[i][i]) for i in range(k)]
    # fix the divisibility chain by gcd/lcm swaps
    import math
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = diag[i], diag[i + 1]
            if a == 0 and b != 0:
                diag[i], diag[i + 1] = b, 0
                changed = True
            elif a != 0 and b % a != 0:
                g = math.gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


def fitting_exponent_oracle(rows, p, n=None):
    """Minimal p-valuation over all maximal minors; None iff every minor is 0."""
    assert len(rows[0]) >= len(rows)
    return fitting_minors_oracle(rows, p)


def convolution_oracle(a, b, mod, order):
    out = [0] * order
    for i in range(order):
        for j in range(order):
            out[(i + j) % order] = (out[(i + j) % order] + a[i] * b[j]) % mod
    return out


# -- Hilbert symbols -----------------------------------------------------------

def hilbert_symbol_oracle(a, b, p):
    """(a,b)_p for odd p by searching ax^2 + by^2 = z^2 mod p^3 (desk scale).

    Brute force over (x, y) with x, y not both divisible by p; z^2 is looked
    up in the set of squares mod p^3.
    """
    mod = p ** 3
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return 1
    return -1


# -- graphs -------------------------------------------------------------------

def inner_product_oracle(x, y):
    return sum(a * b for a, b in zip(x, y))


def kirchhoff_order_oracle(n_vertices, edges):
    """Order of the component group of a connected length graph, loops dropped.

    The weighted matrix-tree theorem: with weights 1/l(e), any reduced
    Laplacian has determinant sum_T prod_{e in T} 1/l(e); times prod_e l(e)
    this is sum_T prod_{e not in T} l(e). Fraction Gaussian elimination.
    """
    from fractions import Fraction
    lap = [[Fraction(0)] * n_vertices for _ in range(n_vertices)]
    lengths = 1
    for s, t, ln in edges:
        if s == t:
            continue
        w = Fraction(1, ln)
        lap[s][s] += w
        lap[t][t] += w
        lap[s][t] -= w
        lap[t][s] -= w
        lengths *= ln
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            for j in range(c, len(m)):
                m[r][j] -= f * m[c][j]
    order = det * lengths
    assert order.denominator == 1
    return int(order)


def rank_mod_p_oracle(rows, p):
    """Rank over F_p of an integer matrix, by plain Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- Brandt matrices by neighbour classification ------------------------------

def neighbor_matrix_oracle(class_set, ell):
    """B[i][j] = #(ell-neighbours of I_i in class j), by walking the neighbours.

    The route the library used before the theta series: each of the ell+1
    neighbour sublattices of each representative is reduced and classified
    by exact isometry. It enumerates no I_i·conj(I_j) and reads no unit count.
    """
    from quatlfun.quatarith import local_splitting, neighbors
    from quatlfun.quatarith.ideal import reduce_ideal
    spl = local_splitting(class_set.order, ell, 1)
    rows = []
    for rep in class_set.reps:
        row = [0] * len(class_set)
        for nb in neighbors(rep, ell, spl):
            row[class_set.classify(reduce_ideal(nb))] += 1
        rows.append(row)
    return rows


# -- pair Grams from the product lattice ---------------------------------------

def pair_gram_oracle(ia, ib):
    """Integer Gram of x -> 2·nrd(x)/(nrd(I)·nrd(J)) on I·conj(J), I = ia and
    J = ib.

    The route the library used before it read the pair lattices off
    I·conj(x_J): the sixteen products of the rows of I and the conjugate rows
    of J, their Hermite basis, its norm Gram, scaled. It reads no generators,
    no reduced basis, no shortest vector and no right action.
    """
    from quatlfun.quatarith import Lattice4
    alg = ia.alg
    conj = [alg.conj(r) for r in ib.lattice.rows]
    lat = Lattice4(ia.lattice.den * ib.lattice.den,
                   [alg.mul(x, y) for x in ia.lattice.rows for y in conj])
    scale = lat.den ** 2 * ia.nrd() * ib.nrd()
    gram = alg.norm_gram(lat)
    if any(x * scale.denominator % scale.numerator for row in gram for x in row):
        raise InvariantViolationError("norm form of I·conj(J) is not integral")
    return [[x * scale.denominator // scale.numerator for x in row] for row in gram]


# -- class sets by the exhaustive neighbour walk ------------------------------

def exhaustive_walk_oracle(order, neighbor_prime):
    """Representatives of every right-ideal class, in the order they appear.

    The walk the library ran before it stopped at the mass: every neighbour
    of every representative is looked up until the queue is empty, and a new
    class is reduced and appended where it first appears. It reads no unit
    count and no mass, so it does not share the library's stopping rule.
    """
    from collections import deque

    from quatlfun.quatarith import RightIdeal, local_splitting, neighbors
    from quatlfun.quatarith.classset import _add, _match
    from quatlfun.quatarith.ideal import reduce_ideal
    spl = local_splitting(order, neighbor_prime, 1)
    start = RightIdeal.unit_ideal(order)
    reps, buckets, queue = [start], {}, deque([start])
    _add(buckets, 0, start)
    while queue:
        for nb in neighbors(queue.popleft(), neighbor_prime, spl):
            if _match(buckets, nb) is None:
                nb = reduce_ideal(nb)
                _add(buckets, len(reps), nb)
                reps.append(nb)
                queue.append(nb)
    return reps


# -- idealizers by Fraction linear algebra -------------------------------------

def idealizer_oracle(alg, lat, side):
    """{x : x·L ⊆ L} (side "left") or {x : L·x ⊆ L} ("right"), over Q.

    The route the library used before it took L·conj(b)/nrd(b): for each
    basis element b of L, the preimage of L under the Fraction matrix of
    x -> x·b (or b·x), through a Gauss-Jordan inverse. The preimages are
    intersected as the dual of the sum of their duals, so the library's
    lattice intersection is not used either.
    """
    basis = _fraction_basis(lat)
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    dual_generators = []
    for b in basis:
        images = [alg.mul(e, b) if side == "left" else alg.mul(b, e) for e in units]
        # column c of M is the image of the c-th unit vector; the preimage of
        # L is spanned by M^-1·v for the basis rows v of L
        minv = _inverse_oracle([[images[c][r] for c in range(4)] for r in range(4)])
        preimage = [[sum(minv[i][j] * v[j] for j in range(4)) for i in range(4)]
                    for v in basis]
        dual_generators += _dual_basis_oracle(preimage)
    return _fraction_lattice(_dual_basis_oracle(_fraction_basis(
        _fraction_lattice(dual_generators))))


def _inverse_oracle(m):
    """Inverse of a nonsingular square Fraction matrix, by Gauss-Jordan."""
    from fractions import Fraction
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _dual_basis_oracle(rows):
    """Rows of (B^-1)^T: the basis d_k with <d_k, b_i> = [i = k]."""
    inv = _inverse_oracle(rows)
    return [[inv[j][k] for j in range(len(rows))] for k in range(len(rows))]


def _fraction_lattice(rows):
    """The Lattice4 spanned by rows of Fractions."""
    from math import lcm

    from quatlfun.quatarith import Lattice4
    den = lcm(*(x.denominator for row in rows for x in row))
    return Lattice4(den, [[int(x * den) for x in row] for row in rows])


def _fraction_basis(lat):
    from fractions import Fraction
    return [[Fraction(x, lat.den) for x in row] for row in lat.rows]


# -- Hermite form by repeated sorting and Euclid, column by column ------------
#    (the library's route before it inserted rows one at a time)

def hnf_oracle(rows, expect_rank=None):
    """Row Hermite normal form of an integer matrix given as lists.

    Positive pivots, entries above each pivot reduced into [0, pivot).
    Zero rows dropped. Deterministic.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    res = []
    col = 0
    while col < ncols and m:
        # gcd-reduce all rows into one pivot at `col`
        live = [r for r in m if r[col] != 0]
        rest = [r for r in m if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            new_live = [piv]
            for r in live[1:]:
                q = r[col] // piv[col]
                rr = [x - q * y for x, y in zip(r, piv)]
                if rr[col] != 0:
                    new_live.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = new_live
        if live:
            piv = live[0]
            if piv[col] < 0:
                piv = [-x for x in piv]
            res.append(piv)
            m = rest
        else:
            m = rest
        col += 1
    # reduce above pivots, left to right so later columns stay reduced
    res = [r for r in res if any(r)]
    res.sort(key=lambda r: next(i for i, x in enumerate(r) if x))
    for i in range(len(res)):
        pcol = next(c for c, x in enumerate(res[i]) if x)
        for j in range(i):
            q = res[j][pcol] // res[i][pcol]
            if q:
                res[j] = [x - q * y for x, y in zip(res[j], res[i])]
    if expect_rank is not None and len(res) != expect_rank:
        raise InvariantViolationError(f"expected rank {expect_rank}, got {len(res)}")
    return res


# -- naive short vector search (rank <= 4, small boxes) ----------------------

def count_vectors_of_norm(gram, value, box):
    """Count integer vectors with x^T G x / 2-convention == value, |x_i| <= box.

    gram is the matrix of the bilinear form with Q(x) = x^T gram x (already
    the quadratic form values on the diagonal convention used by callers).
    """
    import itertools
    n = len(gram)
    count = 0
    for vec in itertools.product(range(-box, box + 1), repeat=n):
        q = 0
        for i in range(n):
            for j in range(n):
                q += vec[i] * gram[i][j] * vec[j]
        if q == value:
            count += 1
    return count


def minimum_of_form(gram, boxes):
    """Least x^T G x over nonzero integer x with |x_i| <= boxes[i]."""
    import itertools
    n = len(gram)
    best = None
    for vec in itertools.product(*(range(-b, b + 1) for b in boxes)):
        if any(vec):
            q = sum(vec[i] * gram[i][j] * vec[j] for i in range(n) for j in range(n))
            best = q if best is None else min(best, q)
    return best


# -- the rank-4 kernels as the library first wrote them -----------------------
#    (a column-then-row Lagrange update, the entrywise trd(x·conj y) Gram,
#    and a Fincke-Pohst recursion with one generator per leaf)

def lagrange_reduce_oracle(gram):
    """Greedy pairwise reduction of an integer Gram matrix (optimal in dim <= 4).

    Returns (reduced, U) with reduced = U^T gram U and U unimodular; original
    vectors are recovered as U @ x.
    """
    n = len(gram)
    g = [list(r) for r in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    guard = 0
    changed = True
    while changed and guard < 1000:
        changed = False
        guard += 1
        for i in range(n):
            for j in range(n):
                if i == j or g[i][i] == 0:
                    continue
                # nearest integer to g[i][j] / g[i][i] (diagonal positive)
                mu = (2 * g[i][j] + g[i][i]) // (2 * g[i][i])
                if mu:
                    for k in range(n):
                        g[k][j] -= mu * g[k][i]
                    for k in range(n):
                        g[j][k] -= mu * g[i][k]
                    for k in range(n):
                        u[k][j] -= mu * u[k][i]
                    changed = True
        # keep diagonal sorted ascending to stabilize the loop
        order = sorted(range(n), key=lambda k: g[k][k])
        if order != list(range(n)):
            g = [[g[a][b] for b in order] for a in order]
            u = [[u[k][order[c]] for c in range(n)] for k in range(n)]
            changed = True
    return [tuple(r) for r in g], u


def norm_gram_oracle(alg, lat):
    """Integer T with nrd(sum c_i r_i / den) = c^T T c / (2 den^2), entrywise."""

    def trd_pair(x, y):
        """trd(x * conj(y)), the bilinear form polarizing nrd."""
        return alg.trd(alg.mul(x, alg.conj(y)))

    rows = lat.rows
    return [[trd_pair(a, b) for b in rows] for a in rows]


def _fincke_pohst_oracle(gram, max_value):
    """Yield (value, x) with 0 < x^T gram x <= max_value, x integer; see
    `quatlfun.quatarith.lattice._fincke_pohst` for the derivation."""
    from math import gcd, isqrt, lcm
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

    def recurse(i, budget):
        if i < 0:
            if any(x):
                yield (top - budget) // scale, tuple(x)
            return
        mi, ki, row = m[i], k[i], num[i]
        c = sum(row[j] * x[j] for j in range(i + 1, n))
        b = isqrt(budget // ki)
        for t in range(-((c + b) // mi), (b - c) // mi + 1):
            s = mi * t + c
            x[i] = t
            yield from recurse(i - 1, budget - ki * s * s)

    yield from recurse(n - 1, top)


def value_counts_oracle(gram, max_value):
    """counts[v] = #{x != 0 : x^T gram x = v}, every vector visited: the
    library's count before it paired x with -x."""
    counts = [0] * (max_value + 1)
    for value, _ in _fincke_pohst_oracle(gram, max_value):
        counts[value] += 1
    return counts


def enumerate_by_value_oracle(gram, max_value):
    """Yield (value, x) for every integer x != 0 with x^T gram x = value <= max_value,
    in the order of the library's enumeration: Lagrange-reduce, recurse, map back."""
    red, u = lagrange_reduce_oracle(gram)
    n = len(red)
    for value, vec in _fincke_pohst_oracle(red, max_value):
        yield value, tuple(sum(u[r][c] * vec[c] for c in range(n)) for r in range(n))


# -- the Bruhat-Tits tree by Fraction column reduction -------------------------
#    (the library's tree before it went integer-only: rational entries, a
#    column reduction over Q, and the distance from the inverse over Q)

def _vp_fraction(x, p):
    """p-adic valuation of a nonzero int/Fraction."""
    from fractions import Fraction
    fr = Fraction(x)
    if fr == 0:
        raise UsageError("valuation of zero")
    v = 0
    n = fr.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = fr.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def canonical_vertex_oracle(p: int, cols):
    """Canonical class representative of the column span of a 2x2 matrix.

    cols is ((m00, m01), (m10, m11)) with rational entries, nonzero det.
    """
    from fractions import Fraction
    m = [[Fraction(cols[0][0]), Fraction(cols[0][1])],
         [Fraction(cols[1][0]), Fraction(cols[1][1])]]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise UsageError("matrix is singular")
    # column operations over Z_(p): make the bottom row (0, unit-scaled)
    v0 = _vp_fraction(m[1][0], p) if m[1][0] else None
    v1 = _vp_fraction(m[1][1], p) if m[1][1] else None
    if v1 is None or (v0 is not None and v0 < v1):
        m[0][0], m[0][1] = m[0][1], m[0][0]
        m[1][0], m[1][1] = m[1][1], m[1][0]
    if m[1][0] != 0:
        f = m[1][0] / m[1][1]  # p-integral by the valuation choice
        m[0][0] -= f * m[0][1]
        m[1][0] = Fraction(0)
    # normalize column 2 so the bottom is an exact power of p
    d_exp = _vp_fraction(m[1][1], p)
    unit = m[1][1] / Fraction(p) ** d_exp
    m[0][1] = m[0][1] / unit
    m[1][1] = Fraction(p) ** d_exp
    # normalize column 1 to an exact power of p
    a_exp = _vp_fraction(m[0][0], p)
    m[0][0] = Fraction(p) ** a_exp
    # homothety normalization: shift so min valuation is 0
    b_val = _vp_fraction(m[0][1], p) if m[0][1] else None
    shift = min(a_exp, d_exp, b_val if b_val is not None else a_exp + d_exp + 1)
    a_exp -= shift
    d_exp -= shift
    top = m[0][1] / Fraction(p) ** shift
    # reduce b into [0, p^a) as the canonical residue of a p-integral rational
    mod = p ** a_exp
    if mod == 1:
        b_canon = 0
    else:
        prec_num = top.numerator % mod
        b_canon = prec_num * pow(top.denominator % mod, -1, mod) % mod
    return TreeVertex(p, a_exp, b_canon, d_exp)


def act_oracle(g, v):
    """Left action of an invertible rational matrix on lattice classes."""
    from fractions import Fraction
    m = v.matrix()
    g = [[Fraction(g[0][0]), Fraction(g[0][1])], [Fraction(g[1][0]), Fraction(g[1][1])]]
    if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
        raise UsageError("group action needs an invertible matrix")
    prod = ((g[0][0] * m[0][0] + g[0][1] * m[1][0],
             g[0][0] * m[0][1] + g[0][1] * m[1][1]),
            (g[1][0] * m[0][0] + g[1][1] * m[1][0],
             g[1][0] * m[0][1] + g[1][1] * m[1][1]))
    return canonical_vertex_oracle(v.p, prod)


def distance_oracle(u, v) -> int:
    """Tree distance: spread of the elementary divisors of the relative position."""
    from fractions import Fraction
    if u.p != v.p:
        raise UsageError("prime mismatch")
    p = u.p
    mu = u.matrix()
    mv = v.matrix()
    # relative matrix mu^{-1} mv over Q
    det = Fraction(mu[0][0]) * mu[1][1]
    inv = ((Fraction(mu[1][1]) / det, Fraction(-mu[0][1]) / det),
           (Fraction(0), Fraction(mu[0][0]) / det))
    rel = [[inv[0][0] * mv[0][0] + inv[0][1] * mv[1][0],
            inv[0][0] * mv[0][1] + inv[0][1] * mv[1][1]],
           [inv[1][0] * mv[0][0] + inv[1][1] * mv[1][0],
            inv[1][0] * mv[0][1] + inv[1][1] * mv[1][1]]]
    # elementary divisor valuations of rel
    entries = [x for row in rel for x in row if x != 0]
    alpha = min(_vp_fraction(x, p) for x in entries)
    dets = rel[0][0] * rel[1][1] - rel[0][1] * rel[1][0]
    beta = _vp_fraction(dets, p) - alpha
    return beta - alpha


def standard_edge_sequence(j: int, torus, tie_break: str = "lex_min"):
    """The j-th edge of the torus-compatible consecutive ray, built alone."""
    if j < 0:
        raise UsageError("edge index must be nonnegative")
    return torus.edge_ray(j + 1, tie_break=tie_break)[j]


# -- torus orbits, one table per level -----------------------------------------
#    (the library's orbit table before it was built once per tower: every t in
#    the level-m group, with no use of the edge stabilizers)

def edge_orbit_table_oracle(torus, graph, m: int, tie_break: str = "lex_min"):
    """table[(s, t, j)] = edge class of tau^s u1^t ⋆ e_j for all t < p^m, j <= m."""
    from quatlfun.toruscm import level_group
    group = level_group(torus, m)
    ray = torus.edge_ray(m + 1, tie_break=tie_break)
    table = {}
    for s in range(torus.torsion_order):
        tors = torus.pair_power(torus.torsion_pair, s)
        for t in group.elements():
            pair = torus.pair_mul(tors, group.pair_of(t))
            for j in range(m + 1):
                moved = torus.act_edge(pair, ray[j])
                table[(s, t, j)] = graph.classify_edge(moved)
    return table, ray


def orbit_size(torus, group, edge) -> int:
    """Size of the H_m-orbit of a tree edge (before quotienting)."""
    seen = set()
    for t in group.elements():
        moved = torus.act_edge(group.pair_of(t), edge)
        seen.add(((moved.source.a, moved.source.b, moved.source.d),
                  (moved.target.a, moved.target.b, moved.target.d)))
    return len(seen)


def project_to(upper, lower, t: int) -> int:
    """The image of t in H_upper under the projection onto H_lower."""
    if lower.level > upper.level:
        raise UsageError("projection goes down the tower")
    return t % lower.order


def serialize_table(table, ray) -> str:
    import json
    return json.dumps({
        "ray": [[[e.source.a, e.source.b, e.source.d],
                 [e.target.a, e.target.b, e.target.d]] for e in ray],
        "table": {f"{s},{t},{j}": v for (s, t, j), v in sorted(table.items())},
    }, sort_keys=True)


def deserialize_table(text: str):
    import json
    data = json.loads(text)
    table = {}
    for key, v in data["table"].items():
        s, t, j = (int(x) for x in key.split(","))
        table[(s, t, j)] = v
    return table, data["ray"]
