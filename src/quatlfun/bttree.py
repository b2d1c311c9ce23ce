"""The Bruhat-Tits tree of PGL_2(Q_p): lattice classes, action, parity.

Vertices are homothety classes of rank-2 Z_p-lattices in Q_p^2, stored as the
canonical column-Hermite triple (a, b, d): the lattice spanned by the columns
of [[p^a, b], [0, p^d]] with 0 <= b < p^a and min(a, v_p(b), d) = 0.

Only integer matrices act; a matrix with rational entries is first cleared of
its denominators, which is a homothety and moves no class. The class of the
column span of M = [[x, y], [z, w]] is read off valuations and one inverse
mod a power of p, with no division in Q:

- swap the columns unless w != 0 and v(w) <= v(z);
- then d = v(w) and a = v(det M) - d (column reduction over Z_(p) turns M
  into [[det M / w, y], [0, w]]);
- with s = min(a, d, v(y)) the class is (a - s, b, d - s), where
  b = (y / p^s) * (w / p^d)^(-1) mod p^(a - s).

Each valuation is taken once, and only where it can matter: v(z) only when
the columns swap (v(z) < v(w) iff p^v(w) does not divide z), v(det M) only
when p divides det M (else a = d = 0), and v(y) only when min(a, d) > 0.

The distance between the classes of M_u and M_v is v(det R) - 2 min v(R_ij)
for R = adj(M_u) M_v: the spread of the elementary divisors of M_u^(-1) M_v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .primes import valuation


@dataclass(frozen=True)
class TreeVertex:
    """Canonical homothety-class representative [[p^a, b], [0, p^d]]."""

    p: int
    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.a < 0 or self.d < 0 or not (0 <= self.b < self.p ** self.a):
            raise UsageError("not a canonical Hermite triple")
        if self.a > 0 and self.d > 0 and (self.b % self.p == 0):
            raise UsageError("triple is not primitive")

    @property
    def det_exponent(self) -> int:
        return self.a + self.d

    def matrix(self):
        return ((self.p ** self.a, self.b), (0, self.p ** self.d))

    def parity(self) -> int:
        """Parity of the distance to the root class [Z_p^2]."""
        return (self.a + self.d) % 2


def root_vertex(p: int) -> TreeVertex:
    return TreeVertex(p, 0, 0, 0)


def canonical_vertex(p: int, cols) -> TreeVertex:
    """Canonical class representative of the column span of a 2x2 matrix.

    cols is ((m00, m01), (m10, m11)) with integer entries and nonzero det.
    """
    (x, y), (z, w) = cols
    if not all(type(e) is int for e in (x, y, z, w)):
        raise UsageError("tree matrices must have integer entries")
    det = x * w - y * z
    if det == 0:
        raise UsageError("matrix is singular")
    d = valuation(w, p) if w else -1
    if d < 0 or z % p ** d:  # w = 0 or v(z) < v(w)
        x, y, z, w = y, x, w, z
        d = valuation(w, p)
    # v(det) >= v(w) = d, so p ∤ det forces d = 0 and a = 0
    a = valuation(det, p) - d if det % p == 0 else 0
    s = min(a, d)
    if s and y:
        s = min(s, valuation(y, p))
    a -= s
    if a == 0:
        return TreeVertex(p, 0, 0, d - s)
    mod = p ** a
    return TreeVertex(p, a, (y // p ** s) * pow(w // p ** d, -1, mod) % mod, d - s)


def act(g, v: TreeVertex) -> TreeVertex:
    """Left action of an invertible integer matrix on lattice classes."""
    m = v.matrix()
    prod = ((g[0][0] * m[0][0] + g[0][1] * m[1][0],
             g[0][0] * m[0][1] + g[0][1] * m[1][1]),
            (g[1][0] * m[0][0] + g[1][1] * m[1][0],
             g[1][0] * m[0][1] + g[1][1] * m[1][1]))
    return canonical_vertex(v.p, prod)


def neighbors(v: TreeVertex):
    """The p+1 classes at distance one: the index-p sublattices."""
    p = v.p
    m = v.matrix()
    out = []
    c1 = (m[0][0], m[1][0])
    c2 = (m[0][1], m[1][1])
    # span{c1, p*c2} and span{p*c1, c2 + t*c1} for t = 0..p-1
    out.append(canonical_vertex(p, ((c1[0], p * c2[0]), (c1[1], p * c2[1]))))
    for t in range(p):
        out.append(canonical_vertex(
            p, ((p * c1[0], c2[0] + t * c1[0]), (p * c1[1], c2[1] + t * c1[1]))))
    return out


def parent(v: TreeVertex) -> TreeVertex:
    """The neighbour of v one step nearer the root; v is not the root.

    The triple is primitive, so L_v has cyclic index p^k in Z_p^2 with
    k = a + d, the distance to the root, and the path to the root runs
    through L_v + p^(k-1)·Z_p^2. That lattice is (a - 1, b mod p^(a-1), d)
    when a > 0, since it contains both columns of [[p^(a-1), b], [0, p^d]]
    and has the same index p^(k-1), and (0, 0, d - 1) when a = 0.
    """
    if v.a > 0:
        return TreeVertex(v.p, v.a - 1, v.b % v.p ** (v.a - 1), v.d)
    if v.d > 0:
        return TreeVertex(v.p, 0, 0, v.d - 1)
    raise UsageError("the root has no parent")


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Tree distance: v(det R) - 2 min v(R_ij) for R = adj(M_u) M_v."""
    if u.p != v.p:
        raise UsageError("prime mismatch")
    p = u.p
    pu_a, pu_d = p ** u.a, p ** u.d
    pv_a, pv_d = p ** v.a, p ** v.d
    # adj(M_u) = [[p^du, -bu], [0, p^au]], M_v = [[p^av, bv], [0, p^dv]]
    rel = (pu_d * pv_a, pu_d * v.b - u.b * pv_d, pu_a * pv_d)
    low = min(valuation(r, p) for r in rel if r)
    return u.a + u.d + v.a + v.d - 2 * low


@dataclass(frozen=True)
class TreeEdge:
    """Ordered pair of adjacent vertex classes."""

    source: TreeVertex
    target: TreeVertex

    def __post_init__(self):
        if distance(self.source, self.target) != 1:
            raise UsageError("edge endpoints must be at distance one")

    def reverse(self) -> "TreeEdge":
        return TreeEdge(self.target, self.source)

    @property
    def p(self):
        return self.source.p


def edges_from(v: TreeVertex):
    """The p+1 directed edges with source v."""
    return [TreeEdge(v, w) for w in neighbors(v)]


def forward_edges(e: TreeEdge):
    """The p directed edges e' with s(e') = t(e), excluding the reversal."""
    return [TreeEdge(e.target, w) for w in neighbors(e.target) if w != e.source]


def ball(p: int, radius: int):
    """All vertices within the given radius of the root (BFS layers)."""
    root = root_vertex(p)
    seen = {root}
    layer = [root]
    layers = [tuple(layer)]
    for _ in range(radius):
        nxt = []
        for v in layer:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layers.append(tuple(nxt))
        layer = nxt
    return layers
