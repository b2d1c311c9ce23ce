"""The Bruhat-Tits tree of PGL_2(Q_p): lattice classes, action, parity.

Vertices are homothety classes of rank-2 Z_p-lattices in Q_p^2, stored as the
canonical column-Hermite triple (a, b, d): the lattice spanned by the columns
of [[p^a, b], [0, p^d]] with 0 <= b < p^a and min(a, v_p(b), d) = 0. Rational
matrices with p-bounded denominators act exactly; no p-adic precision
management is needed because canonical forms only depend on entries modulo a
power of p controlled by the determinant valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError


def _vp(x, p):
    """p-adic valuation of a nonzero int/Fraction."""
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

    cols is ((m00, m01), (m10, m11)) with rational entries, nonzero det.
    """
    m = [[Fraction(cols[0][0]), Fraction(cols[0][1])],
         [Fraction(cols[1][0]), Fraction(cols[1][1])]]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if det == 0:
        raise UsageError("matrix is singular")
    # column operations over Z_(p): make the bottom row (0, unit-scaled)
    v0 = _vp(m[1][0], p) if m[1][0] else None
    v1 = _vp(m[1][1], p) if m[1][1] else None
    if v1 is None or (v0 is not None and v0 < v1):
        m[0][0], m[0][1] = m[0][1], m[0][0]
        m[1][0], m[1][1] = m[1][1], m[1][0]
    if m[1][0] != 0:
        f = m[1][0] / m[1][1]  # p-integral by the valuation choice
        m[0][0] -= f * m[0][1]
        m[1][0] = Fraction(0)
    # normalize column 2 so the bottom is an exact power of p
    d_exp = _vp(m[1][1], p)
    unit = m[1][1] / Fraction(p) ** d_exp
    m[0][1] = m[0][1] / unit
    m[1][1] = Fraction(p) ** d_exp
    # normalize column 1 to an exact power of p
    a_exp = _vp(m[0][0], p)
    m[0][0] = Fraction(p) ** a_exp
    # homothety normalization: shift so min valuation is 0
    b_val = _vp(m[0][1], p) if m[0][1] else None
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


def act(g, v: TreeVertex) -> TreeVertex:
    """Left action of an invertible rational matrix on lattice classes."""
    m = v.matrix()
    g = [[Fraction(g[0][0]), Fraction(g[0][1])], [Fraction(g[1][0]), Fraction(g[1][1])]]
    if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
        raise UsageError("group action needs an invertible matrix")
    prod = ((g[0][0] * m[0][0] + g[0][1] * m[1][0],
             g[0][0] * m[0][1] + g[0][1] * m[1][1]),
            (g[1][0] * m[0][0] + g[1][1] * m[1][0],
             g[1][0] * m[0][1] + g[1][1] * m[1][1]))
    return canonical_vertex(v.p, prod)


def neighbors(v: TreeVertex, p: int = None):
    """The p+1 classes at distance one: the index-p sublattices."""
    p = v.p if p is None else p
    if p != v.p:
        raise UsageError("prime mismatch")
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


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Tree distance: spread of the elementary divisors of the relative position."""
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
    alpha = min(_vp(x, p) for x in entries)
    dets = rel[0][0] * rel[1][1] - rel[0][1] * rel[1][0]
    beta = _vp(dets, p) - alpha
    return beta - alpha


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


def ball(p: int, radius: int, center: TreeVertex = None):
    """All vertices within the given radius of the center (BFS layers)."""
    center = center or root_vertex(p)
    seen = {center}
    layer = [center]
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


def standard_edge_sequence(j: int, torus, tie_break: str = "lex_min"):
    """The j-th edge of the torus-compatible consecutive ray from its fixed vertex.

    Among the stabilizer-correct forward extensions the canonical target
    matrix of least (or greatest, for the alternative tie break) Hermite
    triple is chosen; any fixed deterministic choice yields the same
    L-function element up to the documented group-translation ambiguity.
    """
    if j < 0:
        raise UsageError("edge index must be nonnegative")
    ray = torus.edge_ray(j + 1, tie_break=tie_break)
    return ray[j]
