"""The non-split torus K_p*/Q_p* acting on the tree through an embedding.

Only the inert case is supported: the torus then fixes exactly one vertex and
the pro-p part of its unit filtration is cyclic, realized as powers of
u1 = 1 + p·g for the standard quadratic generator g. Level-j subgroups are
the exact stabilizers of the consecutive edge ray out of the fixed vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bttree
from .brandtforms import QuotientGraph
from .errors import (InvariantViolationError, UnsupportedConfigurationError,
                     UsageError)
from .quatarith import kronecker
from .quatarith.embedding import Embedding


@dataclass(frozen=True)
class TorusData:
    """Local data of the torus: generator matrix mod p^prec and minimal polynomial.

    The unit group of the local torus is (torsion Z/(p+1)) x (pro-p part);
    global roots of unity act trivially on quotient classes, leaving a
    torsion quotient of order (p+1)/u' whose Teichmueller representative is
    stored here. Group-ring elements live on the pro-p quotient; measure sums
    push forward over the torsion orbit.
    """

    disc_k: int
    p: int
    prec: int
    trace: int  # of the quadratic generator g
    norm: int
    gen_matrix: tuple  # iota_p(Psi(g)) mod p^prec
    fixed_vertex: object
    torsion_pair: tuple  # Teichmueller unit generating the torsion mod units
    torsion_order: int  # (p+1) / (order of the global-unit image)

    def unit_matrix(self, x: int, y: int):
        """Matrix of x + y·g mod p^prec."""
        q = self.p ** self.prec
        m = self.gen_matrix
        return ((x + y * m[0][0]) % q, (y * m[0][1]) % q), \
               ((y * m[1][0]) % q, (x + y * m[1][1]) % q)

    def pair_mul(self, a, b):
        """(x1 + y1 g)(x2 + y2 g) via g^2 = t g - n, reduced mod p^prec."""
        q = self.p ** self.prec
        x1, y1 = a
        x2, y2 = b
        return ((x1 * x2 - self.norm * y1 * y2) % q,
                (x1 * y2 + x2 * y1 + self.trace * y1 * y2) % q)

    def act_vertex(self, pair, v):
        return bttree.act(self.unit_matrix(*pair), v)

    def act_edge(self, pair, e):
        m = self.unit_matrix(*pair)
        return bttree.TreeEdge(bttree.act(m, e.source), bttree.act(m, e.target))

    def generator_pair(self):
        """u1 = 1 + p·g, a generator of the pro-p part modulo each level."""
        return (1, self.p)

    def pair_power(self, pair, t: int):
        out = (1, 0)
        base = pair
        while t:
            if t & 1:
                out = self.pair_mul(out, base)
            base = self.pair_mul(base, base)
            t >>= 1
        return out

    def edge_ray(self, length: int, tie_break: str = "lex_min"):
        """Consecutive edges e_0, ..., e_{length-1} from the fixed vertex.

        e_j is required to have exact stabilizer of index p^j in the pro-p
        part; all candidates satisfy this (checked), so the tie break picks
        the canonical target triple, least or greatest.
        """
        if tie_break not in ("lex_min", "lex_max"):
            raise UsageError("tie break must be lex_min or lex_max")
        pick = min if tie_break == "lex_min" else max
        keyf = lambda e: (e.target.a, e.target.b, e.target.d)
        ray = []
        candidates = bttree.edges_from(self.fixed_vertex)
        fix, below = self.generator_pair(), None  # u1^(p^j), u1^(p^(j-1))
        for j in range(length):
            if j:
                fix, below = self.pair_power(fix, self.p), fix
            good = [e for e in candidates if self._stabilizer_index_is(e, fix, below)]
            if not good:
                raise InvariantViolationError(
                    f"no stabilizer-correct extension at ray depth {j}")
            edge = pick(good, key=keyf)
            ray.append(edge)
            candidates = bttree.forward_edges(edge)
        return ray

    def _stabilizer_index_is(self, e, fix, below) -> bool:
        """Stab(e) in the pro-p part is exactly the index-p^j subgroup, for
        fix = u1^(p^j) and below = u1^(p^(j-1)), None at j = 0.

        For the cyclic filtration it suffices that u1^(p^j) fixes e while
        u1^(p^(j-1)) does not (the latter vacuous at j = 0).
        """
        if self.act_edge(fix, e) != e:
            return False
        return below is None or self.act_edge(below, e) != e


def build_torus(disc_k: int, embedding: Embedding, graph: QuotientGraph) -> TorusData:
    """Torus data for an inert p, wired to the graph's own local splitting.

    The embedding must target the graph's base order so the matrix of the
    generator is integral for the splitting already used by the transport.
    """
    p = graph.p
    if kronecker(disc_k, p) != -1:
        raise UnsupportedConfigurationError(
            f"p = {p} is not inert in the field of discriminant {disc_k}")
    if embedding.order != graph.base_order:
        raise UsageError("embedding must land in the graph's base order")
    gen_matrix = graph.splitting.apply(embedding.coords)
    units_image_order = {-3: 3, -4: 2}.get(disc_k, 1)
    torsion_order = (p + 1) // units_image_order
    draft = TorusData(disc_k, p, graph.splitting.prec, embedding.trace,
                      embedding.norm, gen_matrix, bttree.root_vertex(p),
                      (1, 0), p + 1)
    torsion = _teichmueller_torsion(draft)
    torus = TorusData(disc_k, p, graph.splitting.prec, embedding.trace,
                      embedding.norm, gen_matrix, bttree.root_vertex(p),
                      torsion, torsion_order)
    _verify_torus(torus)
    return torus


def _teichmueller_torsion(torus: TorusData):
    """A Teichmueller unit whose class generates the Z/(p+1) torsion.

    Found by searching units w = x + g whose class mod the pro-p part has
    full order p+1, then passing to the limit of w^(p^2k).
    """
    p = torus.p
    for x in range(p):
        w = (x, 1)
        norm = (x * x + torus.trace * x + torus.norm) % p
        if norm == 0:
            continue
        order = _class_order_mod_p(torus, w)
        if order == p + 1:
            exponent = pow(p * p, torus.prec + 1)
            tau = torus.pair_power(w, exponent)
            if torus.pair_power(tau, p + 1)[1] % p ** (torus.prec - 1) != 0:
                raise InvariantViolationError("Teichmueller lift is not torsion")
            return tau
    raise InvariantViolationError("no full-order torsion unit found; torus not inert?")


def _class_order_mod_p(torus: TorusData, w):
    """Order of the class of w in (units)/(scalars)(1 + p O) ≅ F_{p^2}^×/F_p^×."""
    p = torus.p
    acc = (1, 0)
    for k in range(1, p + 2):
        acc = torus.pair_mul(acc, w)
        if acc[1] % p == 0:
            return k
    raise InvariantViolationError("unit class order exceeds p+1; not inert")


def _verify_torus(torus: TorusData):
    p = torus.p
    root = torus.fixed_vertex
    # the generator must satisfy its own minimal polynomial mod p^prec
    q = p ** torus.prec
    m = torus.gen_matrix
    sq = ((m[0][0] * m[0][0] + m[0][1] * m[1][0]) % q,
          (m[0][0] * m[0][1] + m[0][1] * m[1][1]) % q,
          (m[1][0] * m[0][0] + m[1][1] * m[1][0]) % q,
          (m[1][0] * m[0][1] + m[1][1] * m[1][1]) % q)
    want = ((torus.trace * m[0][0] - torus.norm) % q,
            torus.trace * m[0][1] % q,
            torus.trace * m[1][0] % q,
            (torus.trace * m[1][1] - torus.norm) % q)
    if sq != want:
        raise InvariantViolationError("generator matrix violates its minimal polynomial")
    # irreducible mod p (inert): no eigenvector, i.e. char poly has no root
    for r in range(p):
        if (r * r - torus.trace * r + torus.norm) % p == 0:
            raise InvariantViolationError("generator is split mod p; torus not inert")
    # sample units fix the root
    samples = [(1, 1), (2, 1), (1, p), (3, 2)]
    for x, y in samples:
        if (x * x + torus.trace * x * y + torus.norm * y * y) % p == 0:
            continue
        if torus.act_vertex((x, y), root) != root:
            raise InvariantViolationError("torus does not fix its vertex")
    # uniqueness of the fixed vertex on the radius-2 ball
    layers = bttree.ball(p, 2)
    gen = (0, 1)  # g itself is a unit when the norm is prime to p
    for layer in layers[1:]:
        for v in layer:
            if torus.act_vertex(gen, v) == v and torus.act_vertex((1, 1), v) == v:
                raise InvariantViolationError("fixed vertex is not unique")


@dataclass(frozen=True)
class TorusLevelGroup:
    """The level-m quotient of the pro-p part: cyclic of order p^m."""

    torus: TorusData
    level: int
    order: int

    def pair_of(self, t: int):
        return self.torus.pair_power(self.torus.generator_pair(), t % self.order)


def level_group(torus: TorusData, m: int) -> TorusLevelGroup:
    """H_m, the order-p^m quotient of the pro-p unit filtration."""
    if m < 0:
        raise UsageError("level must be nonnegative")
    group = TorusLevelGroup(torus, m, torus.p ** m)
    _verify_level_group(group)
    return group


def _verify_level_group(group: TorusLevelGroup):
    """The generator's powers must have exact level valuations."""
    torus = group.torus
    p = torus.p
    if group.level == 0:
        return
    if 2 * (group.level + 2) > torus.prec:
        raise UsageError("torus precision too low for this level")
    # u1^(p^(m-1)) must not be scalar mod p^(m+1): its y-part has valuation m
    pair = torus.pair_power(torus.generator_pair(), p ** (group.level - 1))
    y = pair[1] % p ** (group.level + 1)
    if y == 0 or y % p ** group.level != 0:
        raise InvariantViolationError("generator order is not p^m at level m")


def edge_orbit_table(torus: TorusData, graph: QuotientGraph, m: int,
                     tie_break: str = "lex_min"):
    """table[(s, t, j)] = edge class of tau^s u1^t ⋆ e_j, with j <= m, t < p^j.

    s runs over the torsion quotient (the prime-to-p part that survives the
    global units). u1^(p^j) fixes e_j (checked), so the class depends on t
    only mod p^j: the entry of any t at level j is table[(s, t % p^j, j)],
    for every level up to m. One table serves the whole tower below m.

    The table is built down the ray, one level at a time, on path data
    (`QuotientGraph.path_entry`), not on vertices. The source of
    tau^s u1^t ⋆ e_j is U·v_j, U = tau^s u1^t and v_j the target of e_(j-1);
    u1^(p^(j-1)) fixes e_(j-1) (certified by `edge_ray` and again by
    `_verify_table`), so it is the target already reached at (s, t mod
    p^(j-1), j - 1), and v_0 itself at j = 0, which every unit of the order
    fixes. Each entry is classified from its source's path data and U
    acting on the target of e_j by `QuotientGraph.classify_step`, which
    reads the image's index among the neighbours of a state
    representative off its line mod p, under the path step's neighbour
    check and precision rule: no canonical form. Below level m, the
    target's path data is that index's step (`QuotientGraph.descend`), and
    it is the next level's source.
    """
    # every level the table serves gets its generator-order certificate; the
    # top one is asked first, so a negative m is refused by `level_group`
    top = level_group(torus, m)
    groups = [level_group(torus, level) for level in range(m)] + [top]
    ray = torus.edge_ray(m + 1, tie_break=tie_break)
    u1 = torus.generator_pair()
    start = graph.path_entry(ray[0].source)
    table = {}
    for s in range(torus.torsion_order):
        tors = torus.pair_power(torus.torsion_pair, s)
        sources = [start]
        for j, edge in enumerate(ray):
            pair = tors
            targets = []
            for t in range(groups[j].order):
                source = sources[t % len(sources)]
                table[(s, t, j)], index = graph.classify_step(
                    source, torus.unit_matrix(*pair), edge.target)
                if j < m:
                    targets.append(graph.descend(source, index))
                pair = torus.pair_mul(pair, u1)
            sources = targets
    _verify_table(torus, graph, top, ray, table)
    return table, ray


def _verify_table(torus, graph, group, ray, table):
    p = torus.p
    m = group.level
    # identity row reproduces the ray classes
    for j in range(m + 1):
        if table[(0, 0, j)] != graph.classify_edge(ray[j]):
            raise InvariantViolationError("identity row of the orbit table is wrong")
    # u1^(p^j) fixes e_j before quotienting: the table's keys t mod p^j rest on it
    u1 = torus.generator_pair()
    for j in range(m + 1):
        if torus.act_edge(torus.pair_power(u1, p ** j), ray[j]) != ray[j]:
            raise InvariantViolationError("stabilizer fails to fix its edge")
    # the full torsion power acts through global units: classes unchanged
    full = torus.pair_power(torus.torsion_pair, torus.torsion_order)
    for j in range(m + 1):
        if graph.classify_edge(torus.act_edge(full, ray[j])) != table[(0, 0, j)]:
            raise InvariantViolationError(
                "torsion beyond the global-unit image moves quotient classes")
    # abelian consistency: table(t1+t2, e_j) computed either way
    if group.order > 1:
        for (t1, t2, j) in ((1, group.order - 1, m), (1, 1, m)):
            moved = torus.act_edge(group.pair_of(t2), ray[j])
            both = torus.act_edge(group.pair_of(t1), moved)
            if graph.classify_edge(both) != table[(0, (t1 + t2) % p ** j, j)]:
                raise InvariantViolationError("orbit table is not translation-consistent")
