"""Dual-graph calculus for admissible curves: cycles, monodromy, components.

A LengthGraph is an oriented multigraph with positive, reversal-symmetric edge
lengths. One representative per reversal pair is stored; the directed edge set
is implicitly {e, ē}. Loops are legal in the graph but are dropped from the
homological computations (the uniformized dual graph is "minus loops").

The chain of maps implemented here:

    0 -> X -> Z[E] --d_*--> Z[V]^0 -> 0          (cycle space = character group)
    0 -> X --λ--> X^ -> Φ -> 0                   (λ = length-weighted Gram)
    ω: Z[V]^0 -> Φ,  x -> class of <λ0 y, ->  with d_* y = x
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvariantViolationError, UsageError
from .exactalg import (AbelianGroupShape, IntMatrix, eliminate_mod, leading_minors,
                       rational_kernel)
from .primes import capped_valuation, prime_factors, valuation


@dataclass(frozen=True)
class LengthGraph:
    """Vertices 0..n-1; edges as (source, target, length), one per reversal pair."""

    n_vertices: int
    edges: tuple  # tuple of (s, t, length)

    def __post_init__(self):
        # not isinstance: a bool is an int too, and a float or a string is
        # refused rather than rounded
        if type(self.n_vertices) is not int:
            raise UsageError(f"the vertex count must be an integer, got {self.n_vertices!r}")
        if self.n_vertices < 1:
            raise UsageError(f"a graph needs at least one vertex, got {self.n_vertices}")
        for e in self.edges:
            if len(e) != 3 or any(type(x) is not int for x in e):
                raise UsageError(f"an edge is (source, target, length) in integers, got {e!r}")
            s, t, ln = e
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                raise UsageError("edge endpoint out of range")
            if ln < 1:
                raise UsageError("edge lengths must be positive")

    @staticmethod
    def make(n_vertices, edges) -> "LengthGraph":
        return LengthGraph(n_vertices, tuple(map(tuple, edges)))

    def non_loop_edges(self):
        return tuple((i, e) for i, e in enumerate(self.edges) if e[0] != e[1])

    def components(self):
        """Vertex component labels, computed over all edges including loops."""
        parent = list(range(self.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, t, _ in self.edges:
            rs, rt = find(s), find(t)
            if rs != rt:
                parent[rs] = rt
        labels = {}
        out = []
        for v in range(self.n_vertices):
            r = find(v)
            if r not in labels:
                labels[r] = len(labels)
            out.append(labels[r])
        return tuple(out)

    def n_components(self):
        return max(self.components()) + 1

    def is_connected(self):
        return self.n_components() <= 1

    @staticmethod
    def from_json(text: str) -> "LengthGraph":
        try:
            d = json.loads(text)
            return LengthGraph.make(d["vertices"], d["edges"])
        except (ValueError, KeyError, TypeError) as ex:
            raise UsageError(f"graph is not a length-graph JSON object: {ex!r}") from None


def boundary_matrix(g: LengthGraph) -> IntMatrix:
    """d_* = t_* - s_* on the non-loop edge basis: |V| x |E'| integer matrix."""
    ed = g.non_loop_edges()
    rows = [[0] * len(ed) for _ in range(g.n_vertices)]
    for col, (_, (s, t, _)) in enumerate(ed):
        rows[t][col] += 1
        rows[s][col] -= 1
    if not ed:  # keep IntMatrix dimensions positive
        rows = [[0] for _ in range(g.n_vertices)]
    return IntMatrix.from_rows(rows)


def coboundary_matrix(g: LengthGraph) -> IntMatrix:
    """d^* = t^* - s^*, the transpose of the boundary on the same bases."""
    return boundary_matrix(g).transpose()


@dataclass(frozen=True)
class CharacterGroup:
    """Basis of ker(d_*) inside the (non-loop) edge lattice."""

    graph: LengthGraph
    basis: tuple  # tuple of edge-chain tuples

    @property
    def rank(self) -> int:
        return len(self.basis)


def character_group(g: LengthGraph) -> CharacterGroup:
    """Cycle lattice of the graph minus loops, with the Raynaud exactness check.

    d_* is totally unimodular, so the fraction-free pass (`rational_kernel`)
    gives one primitive cycle per edge it does not pivot on: the fundamental
    cycle of that edge over the spanning forest of pivot edges.
    """
    n_edges = len(g.non_loop_edges())
    basis = rational_kernel(boundary_matrix(g)) if n_edges else ()
    if len(basis) != n_edges - g.n_vertices + g.n_components():
        raise UsageError("cycle rank disagrees with the Betti count")
    _check_cycle_basis(basis)
    return CharacterGroup(g, basis)


def _check_cycle_basis(basis) -> None:
    """Every basis cycle has ±1 on an edge where all the other cycles are 0.

    With the Betti count (the cycles span ker d_* over Q), an integer cycle
    minus its combination at these private edges is a cycle that vanishes
    there, hence 0: the cycles are a Z-basis of ker d_*. So 0 -> X -> Z[E]
    -> Z[V]^0 -> 0 is exact: Z[E] is X plus the other edges, whose
    boundaries are independent, so they form a spanning forest and d_* maps
    them onto Z[V]^0. O(k·E): nonzero entries are counted per edge first.
    """
    counts = [sum(1 for x in column if x) for column in zip(*basis)]
    for cycle in basis:
        if not any(x in (1, -1) and n == 1 for x, n in zip(cycle, counts)):
            raise InvariantViolationError("boundary image is not saturated")


def monodromy_map(g: LengthGraph, x: CharacterGroup) -> IntMatrix:
    """Length-weighted Gram matrix <x_i, x_j> = sum_e l(e) x_i(e) x_j(e)."""
    ed = g.non_loop_edges()
    lens = [e[2] for _, e in ed]
    rows = []
    for a in x.basis:
        rows.append([sum(l * u * v for l, u, v in zip(lens, a, b)) for b in x.basis])
    if not rows:
        return IntMatrix.identity(1)  # rank-0 cycle space: trivial pairing
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class ComponentGroup:
    """Finite component group: the cokernel of the Gram of a cycle basis.

    The shape and the `class_of` coordinates both come from det(Gram) and one
    elimination mod p^(v_p(det) + 1) per prime p | det (see `_local_shape`);
    no elimination over Z reads the Gram.
    """

    shape: AbelianGroupShape
    cycles: CharacterGroup  # the cycle basis the Gram is built on
    local: tuple  # per prime p | det: (p, sorted valuations, rows of U_p)

    @property
    def rank(self) -> int:
        """Cycle rank; the Gram is rank x rank."""
        return self.cycles.rank

    @property
    def order(self):
        return self.shape.order

    def class_of(self, functional):
        """Coordinates of a dual vector w modulo the Gram image, in
        Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... (0 where d_i = 1).

        Position i is (U_p w)_i mod p^(v_i) at each prime p, joined by the
        Chinese remainder theorem.
        """
        w = tuple(functional)
        coords, moduli = [0] * self.rank, [1] * self.rank
        for p, vals, u in self.local:
            for i, (v, x) in enumerate(zip(vals, u.mul_vec(w))):
                q, m = p ** v, moduli[i]
                coords[i] += m * ((x - coords[i]) * pow(m, -1, q) % q)
                moduli[i] = m * q
        return tuple(coords)


def component_group(g: LengthGraph):
    """Component group(s) of the graph: one ComponentGroup per connected component.

    Returns a single ComponentGroup for a connected graph, else a tuple in
    component order. Shapes and `class_of` come from the Gram determinant and
    one local elimination per prime dividing it, with no Z reduction of the
    Gram.
    """
    if g.is_connected():
        return _component_group_connected(g)
    comps = g.components()
    out = []
    for c in range(g.n_components()):
        verts = [v for v in range(g.n_vertices) if comps[v] == c]
        relabel = {v: i for i, v in enumerate(verts)}
        edges = [(relabel[s], relabel[t], l) for s, t, l in g.edges if comps[s] == c]
        out.append(_component_group_connected(LengthGraph.make(len(verts), edges)))
    return tuple(out)


def _component_group_connected(g: LengthGraph) -> ComponentGroup:
    x = character_group(g)
    gram = monodromy_map(g, x)
    if x.rank == 0:
        return ComponentGroup(AbelianGroupShape(()), x, ())
    # the Gram is nonsingular, so there is no free part
    shape, local = _local_shape(gram, _check_positive_definite(gram))
    _verify_class_map(gram, local)
    return ComponentGroup(shape, x, local)


def _check_positive_definite(gram: IntMatrix) -> int:
    """Check every leading principal minor is positive, all read off one
    elimination (`leading_minors`); return the last, det(gram)."""
    minors = leading_minors(gram)
    if len(minors) < gram.rows or min(minors) <= 0:
        raise UsageError("monodromy pairing fails positive definiteness")
    return minors[-1]


def _local_shape(gram: IntMatrix, d: int):
    """Invariant factors of coker(gram), whose determinant is d > 0, and per
    prime p | d what `class_of` reads: (p, sorted v_i, matching rows of U_p).

    For each p | d with e = v_p(d), Gram | I reduced mod p^(e+1) gives
    U_p*Gram*V_p = diag(p^v_i): the v_i are the p-parts of the invariant
    factors (each at most e, so none is lost mod p^(e+1)). Sorting each
    prime's valuations and multiplying position by position gives d1 | d2 | ...
    Certificates: the valuations at p sum to e and the factors multiply to
    d; that U_p kills the Gram image is certified where the rows are kept for
    `class_of` (`_verify_class_map`).
    """
    k = gram.rows
    factors = [1] * k
    local = []
    for p in prime_factors(d):
        e = valuation(d, p)
        a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(gram.entries)]
        vals = [capped_valuation(x, p, e + 1) for x in eliminate_mod(a, k, k, p, e + 1)]
        if sum(vals) != e:
            raise InvariantViolationError(
                f"local invariant factors at {p} do not multiply to {p}^{e}")
        by_val = sorted(range(k), key=vals.__getitem__)
        for i, j in enumerate(by_val):
            factors[i] *= p ** vals[j]
        local.append((p, tuple(vals[j] for j in by_val),
                      IntMatrix.from_rows([a[j][k:] for j in by_val])))
    if math.prod(factors) != d:
        raise InvariantViolationError("invariant factors do not multiply to det(Gram)")
    return AbelianGroupShape(tuple(f for f in factors if f > 1)), tuple(local)


def _verify_class_map(gram: IntMatrix, local) -> None:
    """Every row of U_p with v > 0 sends every Gram column to 0 mod p^v, so
    `class_of` is well defined on the cokernel."""
    columns = gram.transpose()
    for p, vals, u in local:
        for v, row in zip(vals, u.entries):
            if v and any(x % p ** v for x in columns.mul_vec(row)):
                raise InvariantViolationError("class_of does not kill the Gram image")


def omega_map(g: LengthGraph, phi: ComponentGroup, x_chain):
    """Class in the component group of a degree-zero vertex chain.

    Finds y with d_*(y) = x, then pairs l(e)-weighted y against the cycle
    basis phi was built on; the class is independent of the choice of y (two
    preimages differ by a cycle, whose pairing lies in the Gram image).
    """
    if phi.cycles.graph != g:
        raise UsageError("component group belongs to another graph")
    fn, _ = omega_functional(g, x_chain, phi.cycles)
    return phi.class_of(fn)


def omega_functional(g: LengthGraph, x_chain, cycles: CharacterGroup):
    """The raw dual vector <λ0 y, x_i> with d_* y = x, plus the preimage y."""
    comps = g.components()
    if len(x_chain) != g.n_vertices:
        raise UsageError("vertex chain has wrong length")
    for c in range(g.n_components()):
        if sum(x_chain[v] for v in range(g.n_vertices) if comps[v] == c) != 0:
            raise UsageError("chain must have degree zero on each component")
    # (y, 1) in the kernel of (d_* | -x); the pass pivots on edges only, so
    # x, free when it has a preimage, gives the one vector ending in 1
    m = boundary_matrix(g)
    kernel = rational_kernel(IntMatrix.from_rows(
        [row + (-x,) for row, x in zip(m.entries, x_chain)]))
    y = next((v[:-1] for v in kernel if v[-1] == 1), None)
    if y is None:
        raise UsageError("no boundary preimage; graph data inconsistent")
    return _pair_against_cycles(g, cycles, y), y


def _pair_against_cycles(g, cycles, y):
    ed = g.non_loop_edges()
    lens = [e[2] for _, e in ed]
    return tuple(sum(l * a * b for l, a, b in zip(lens, y, basis_vec))
                 for basis_vec in cycles.basis)


# ---------------------------------------------------------------------------
# Edixhoven comparison: subdivide lengths, build the intersection matrix, and
# confirm both routes to the component group agree.
# ---------------------------------------------------------------------------

def subdivide(g: LengthGraph) -> LengthGraph:
    """Replace each edge of length l by l unit edges through new vertices; a
    loop stays one unit loop, which both routes drop from homology."""
    edges = []
    nv = g.n_vertices
    for s, t, ln in g.edges:
        prev = s
        for k in range(ln - 1 if s != t else 0):
            edges.append((prev, nv, 1))
            prev = nv
            nv += 1
        edges.append((prev, t, 1))
    return LengthGraph.make(nv, edges)


def intersection_matrix(g: LengthGraph) -> IntMatrix:
    """μ(C) = Σ (C·C') C' for a unit-length graph: adjacency minus degree."""
    if any(l != 1 for _, _, l in g.edges):
        raise UsageError("intersection matrix wants unit lengths; subdivide first")
    n = g.n_vertices
    rows = [[0] * n for _ in range(n)]
    for s, t, _ in g.edges:
        if s == t:
            continue  # loops dropped alongside the character-group convention
        rows[s][t] += 1
        rows[t][s] += 1
        rows[s][s] -= 1
        rows[t][t] -= 1
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class EdixhovenReport:
    laplacian_identity: bool
    monodromy_factorization: bool
    shapes_agree: bool
    shape_from_monodromy: AbelianGroupShape
    shape_from_intersection: AbelianGroupShape

    @property
    def ok(self):
        return self.laplacian_identity and self.monodromy_factorization and self.shapes_agree


def edixhoven_check(g: LengthGraph) -> EdixhovenReport:
    """Verify the two component-group routes agree on a connected graph.

    Route one: cokernel of the length-weighted cycle Gram. Route two: the
    intersection matrix μ of the subdivided (regular) model, as a map
    Z[V] -> Z[V]^0, with its cokernel inside the degree-zero lattice. Also
    checks d_* d^* = -μ and λ = γ^ λ0 γ on the subdivided graph.
    """
    if not g.is_connected():
        raise UsageError("comparison diagram wants a connected graph")
    sub = subdivide(g)
    mu = intersection_matrix(sub)
    d = boundary_matrix(sub)
    dt = coboundary_matrix(sub)
    lap_ok = d.mul(dt).entries == tuple(tuple(-x for x in row) for row in mu.entries)

    cycles = character_group(sub)
    gram = monodromy_map(sub, cycles)
    # λ = γ^ ∘ λ0 ∘ γ: with unit lengths λ0 = id, so the Gram must equal the
    # plain inner-product Gram of the cycle basis; check the
    # factorization numerically by rebuilding it from the embedding matrices.
    if cycles.rank:
        gamma = IntMatrix.from_rows([[cycles.basis[j][i] for j in range(cycles.rank)]
                                     for i in range(len(sub.non_loop_edges()))])
        rebuilt = gamma.transpose().mul(gamma)
        fact_ok = rebuilt.entries == gram.entries
    else:
        fact_ok = True

    phi_mono = _component_group_connected(g)
    # intersection route: invariant factors of Z[V]^0 / μ(Z[V])
    shape_int = _intersection_component_shape(sub, mu)
    shapes_ok = phi_mono.shape == shape_int
    return EdixhovenReport(lap_ok, fact_ok, shapes_ok, phi_mono.shape, shape_int)


def _intersection_component_shape(g: LengthGraph, mu: IntMatrix) -> AbelianGroupShape:
    """Shape of Z[V]^0 / μ(Z[V]) on a connected unit-length graph.

    In the basis v_i - v_0 (i >= 1) of Z[V]^0, column j of μ has coordinates
    μ_1j, ..., μ_(n-1)j, and column 0 is minus the sum of the others (μ·1 = 0),
    so dropping it keeps the image. What is left is -μ without vertex 0's row
    and column: the reduced Laplacian, positive definite on a connected graph,
    whose shape `_local_shape` reads off its determinant.
    """
    n = g.n_vertices
    if n == 1:
        return AbelianGroupShape(())
    reduced = IntMatrix.from_rows([[-mu.entries[i][j] for j in range(1, n)]
                                   for i in range(1, n)])
    return _local_shape(reduced, _check_positive_definite(reduced))[0]
