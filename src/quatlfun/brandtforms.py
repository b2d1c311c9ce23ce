"""Quotient graphs, Brandt/Hecke matrices, eigensystems, p-stabilization.

The quotient of the Bruhat-Tits tree by the p-unit group of an Eichler order
is realized through right-ideal classes: a tree vertex L maps to the ideal
{x in O : iota_p(x)·Z_p^2 ⊆ L} (all other places unchanged), a tree edge to
the analogous ideal of the level-p suborder. Completeness of the transport is
certified against independently computed class sets with their mass
certificates, so any inconsistency surfaces loudly.

Tree cells are classified by one of two routes (`QuotientGraph`):

- The ideal route builds the cell's ideal, reduces it and looks it up in
  the class set. Only the walk uses it, for its own cells: the root, and
  the p+1 neighbours and p+1 out-edges of one representative r_s per
  (class, parity) state s. The ideal is written down, not solved for
  (`_cell_ideal`): locally it is {X : X·e1 in L1, X·e2 in L2}, spanned by
  the four matrices with a basis column of L1 or of L2 in its slot and 0
  in the other, pulled back to the order through the inverse of iota on
  its basis, which each graph computes and certifies once. Each cell ideal
  is certified (`_check_cell_ideal`: its reduced norm, and right stability
  over its own order), and each vertex's is kept, so the step witnesses
  read the walk's own ideals.
- The path route answers every other cell after the walk, with the
  p-unit group Gamma = O[1/p]^× (Franc and Masdeu, LMS J. Comput. Math.
  17 (2014)). Each vertex v met is memoised with (s, gamma), gamma in the
  order and A = iota(gamma) mod p^prec, such that A·v = r_s. A neighbour w
  of v then has A·w = u, a neighbour of r_s that the walk classified, and
  an edge (v, w) has the class of the walk's out-edge (r_s, u). Going on
  past w takes the step witness of (s, u): an x in the order with
  u = iota(x)·r_s', s' the state of u. Then conj(x)·gamma carries w to
  r_s', and its p-content is divided out in order coordinates, which is
  exact. Vertices are reached from the root through `bttree.parent`.
- A step witness is the `isometry_witness` of the vertex ideals of u and
  r_s', with its p-content removed. It is derived on first use and
  certified once: x lies in the order, and `_check_step_witness` checks
  that nrd(x) is a power of p and that iota(x) carries r_s' to u on the
  tree.
- Precision: A is exact mod p^prec, and an integer matrix N with
  elementary divisors p^alpha | p^beta spans the same lattice as any
  N' ≡ N mod p^(beta + 1). For N = A·M_w, beta = e + k_w - alpha with
  p^e = nrd(gamma), p^(k_w) = det M_w and p^alpha the content of N. So a
  step from v to w needs e + k_w - alpha + 1 <= prec, which reaches as
  deep as the ideal route's k + 2 <= prec; a step that needs more raises
  the same InvariantViolationError as the ideal route's precision guard.

The Hecke matrices live on a class set, not on the graph
(`quatarith.classset`): T_ell = B(ell) at primes ell prime to disc·level
(`neighbor_matrices`), and U_q at a prime q | disc, the permutation
[I_i] -> [I_i·P_q], P_q the two-sided prime over q (`uq_matrix`; Pizer,
J. Algebra 64 (1980); Gross, "Heights and the special values of L-series"
(1987), section 1). `_hecke_operators` builds them, T_ell then U_q, for
each of the three searches over `joint_eigenspaces`, which are the only
source of eigenvalues: `rational_eigensystems` (integer systems) and
`eigensystems_mod` (systems mod p^n) take a class set, and only
`eigenvector_mod`, which adds the tree's U_p on the edge classes, takes a
graph.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

from . import bttree
from .errors import (DataMissingError, InvariantViolationError, UsageError)
from .exactalg import IntMatrix, kernel_mod, rational_kernel
from .primes import (capped_valuation, hensel_lift, is_prime, prime_factors,
                     valuation)
from .quatarith import (RightIdeal, class_set_avoiding, eichler_mass,
                        eichler_order, isometry_witness, local_splitting,
                        neighbor_matrices, neighbor_matrix, uq_matrix)
from .quatarith.classset import ClassSet
from .quatarith.ideal import reduce_ideal
from .quatarith.lattice import adjugate4
from .quatarith.order import QuaternionOrder

# p-adic precision of the local splitting that QuotientGraph builds by
# default; the torus built on it serves levels m with 2(m + 2) <= this.
SPLITTING_PREC = 16


@dataclass(frozen=True)
class AutomorphicForm:
    """Vector of values on vertex or edge classes, over Z or Z/p^n."""

    values: tuple
    level_tag: str  # "vertex" or "edge"
    modulus: object = None  # None for integral forms, else (p, n)

    def __post_init__(self):
        if self.level_tag not in ("vertex", "edge"):
            raise UsageError("level tag must be 'vertex' or 'edge'")


@dataclass
class EigenSystem:
    """Map from primes to eigenvalues mod p^n, plus level eigenvalues.

    `a` holds T_ell eigenvalues at good primes, `u` the U_q eigenvalues at
    primes dividing the discriminant or level (including p when relevant).
    """

    p: int
    n: int
    a: dict
    u: dict = field(default_factory=dict)
    provenance: str = "computed"

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    def value(self, ell: int) -> int:
        if ell in self.a:
            return self.a[ell] % self.modulus
        if ell in self.u:
            return self.u[ell] % self.modulus
        raise DataMissingError(f"eigenvalue at {ell} is not available")

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "n": self.n,
                           "a": {str(k): v for k, v in sorted(self.a.items())},
                           "eps": {str(k): v for k, v in sorted(self.u.items())},
                           "provenance": self.provenance}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EigenSystem":
        """The system of a fixture; UsageError, naming the fault, unless it
        is a JSON object with a prime p, n >= 1, integer eigenvalues under
        integer keys, and a string provenance."""
        try:
            d = json.loads(text)
            p, n = d["p"], d["n"]
            a = {int(k): v for k, v in d.get("a", {}).items()}
            u = {int(k): v for k, v in d.get("eps", {}).items()}
            provenance = d.get("provenance", "external fixture")
        except (ValueError, KeyError, TypeError, AttributeError) as ex:
            raise UsageError(f"eigensystem is not a fixture JSON object: {ex!r}") from None
        values = [p, n, *a.values(), *u.values()]
        if any(type(x) is not int for x in values):
            raise UsageError(f"eigensystem fixture has a non-integer entry: {values}")
        if not is_prime(p) or n < 1:
            raise UsageError(f"eigensystem fixture wants a prime p and n >= 1, "
                             f"got p = {p}, n = {n}")
        if not isinstance(provenance, str):
            raise UsageError(f"eigensystem fixture has a provenance {provenance!r}, "
                             "not a string")
        return EigenSystem(p, n, a, u, provenance)


class QuotientGraph:
    """Tree quotient data for an Eichler order at an auxiliary prime p.

    Vertex classes live at level N+; edge classes at level p N+. Both class
    sets carry mass certificates. The walk (see `_walk`) visits one tree
    vertex per (vertex class, parity) state and must rediscover every class,
    or construction fails. Representatives are whichever cells the walk meets
    first; every operator read off them is defined on classes.
    """

    def __init__(self, base_order: QuaternionOrder, p: int,
                 prec: int = SPLITTING_PREC):
        disc = base_order.alg.discriminant
        level = base_order.reduced_discriminant() // disc
        if (disc * level) % p == 0:
            raise UsageError("p must be coprime to discriminant and level")
        self.p = p
        self.disc = disc
        self.level = level
        self.base_order = base_order
        self.splitting = local_splitting(base_order, p, prec)
        # C^-1 mod p^prec, C the matrix of iota on the base order's basis
        self._iota_inverse = _iota_inverse(self.splitting)
        self.vertex_classes = class_set_avoiding(base_order, p)
        # the level-p suborder, cut out by the transport splitting itself
        self.edge_order = eichler_order(base_order, p, lambda *_: self.splitting)
        self.edge_classes = class_set_avoiding(self.edge_order, p)
        self._vertex_memo = {}
        self._edge_memo = {}
        self._vertex_ideals = {}  # vertex key -> its cell ideal, built once
        self._matrix_memo = {}
        self.vertex_reps = {}
        self.parity_reps = {}
        self.edge_reps = {}
        self.edge_parity_reps = {}
        self._walked = False
        self._walking = False

    def ensure_walk(self):
        if not self._walked:
            self._walking = True
            try:
                self._walk()
            finally:
                self._walking = False
            self._walked = True

    # -- construction --------------------------------------------------------

    def _walk(self):
        """BFS over (vertex class, parity) states of the quotient.

        Only the first tree vertex met in each state is expanded: its p+1
        neighbours and its p+1 out-edges are classified. This is complete.
        The p-unit group Gamma maps neighbours to neighbours and keeps vertex
        and edge classes, and two vertices in the same state differ by an
        element of Gamma whose norm has even valuation. So every state is
        reached along the image of a tree path, and every edge class occurs
        among the out-edges of some state's representative. With h vertex
        classes the walk classifies at most 2h(p+1)+1 vertex cells and
        2h(p+1) edge cells. The class sets are computed independently, so
        the final check certifies the transport.
        """
        root = bttree.root_vertex(self.p)
        self._note_vertex(root)
        queue = deque([root])
        while queue:
            for e in bttree.edges_from(queue.popleft()):
                self._note_edge(e)
                if self._note_vertex(e.target):
                    queue.append(e.target)
        if not self._complete():
            raise InvariantViolationError(
                "tree walk did not reach every ideal class; transport broken")
        self._start_paths()

    def _complete(self):
        return (len(self.vertex_reps) == len(self.vertex_classes)
                and len(self.edge_reps) == len(self.edge_classes)
                and len(self.parity_reps) == 2 * len(self.vertex_classes))

    def _note_vertex(self, v) -> bool:
        """Record v; True when it is the first vertex of its state."""
        idx = self.classify_vertex(v)
        self.vertex_reps.setdefault(idx, v)
        state = (idx, v.parity())
        if state in self.parity_reps:
            return False
        self.parity_reps[state] = v
        return True

    def _note_edge(self, e):
        idx = self.classify_edge(e)
        self.edge_reps.setdefault(idx, e)
        self.edge_parity_reps.setdefault((idx, e.source.parity()), e)

    # -- transport -----------------------------------------------------------

    def classify_vertex(self, v) -> int:
        key = (v.a, v.b, v.d)
        hit = self._vertex_memo.get(key)
        if hit is None:
            hit = self._vertex_memo[key] = self._classify_new(
                v, key, self._vertex_memo, self._vertex_class_by_ideal,
                self._vertex_class_by_path)
        return hit

    def classify_edge(self, e) -> int:
        key = (e.source.a, e.source.b, e.source.d,
               e.target.a, e.target.b, e.target.d)
        hit = self._edge_memo.get(key)
        if hit is None:
            hit = self._edge_memo[key] = self._classify_new(
                e, key, self._edge_memo, self._edge_class_by_ideal,
                self._edge_class_by_path)
        return hit

    def _classify_new(self, cell, key, memo, by_ideal, by_path):
        """Class of a cell the memo lacks: by its ideal for the walk's own
        cells, by its path from the root for every other cell."""
        if self._walking:
            return by_ideal(cell)
        if not self._walked:
            self.ensure_walk()
            if key in memo:
                return memo[key]  # the walk met this cell
        return by_path(cell)

    def _vertex_class_by_ideal(self, v) -> int:
        return self.vertex_classes.classify(reduce_ideal(self._vertex_ideal(v)))

    def _edge_class_by_ideal(self, e) -> int:
        return self.edge_classes.classify(reduce_ideal(self._edge_ideal(e)))

    def _vertex_class_by_path(self, v) -> int:
        return self._vertex_memo[self._image(self._path(bttree.parent(v)), v)]

    def _edge_class_by_path(self, e) -> int:
        return self.classify_moved_edge(e.source, None, e.target)

    def _start_paths(self):
        """Path data after the walk: each state representative r_s is its own
        image, and its p+1 neighbours are the cells a path step lands on."""
        one = self.base_order.one_coords()
        self._paths = {}  # vertex key -> (state, gamma, iota(gamma) mod p^prec, e)
        self._rep_neighbors = {}  # state -> {neighbour key: neighbour of r_s}
        self._steps = {}  # (state, neighbour key) -> certified witness step
        for state, rep in self.parity_reps.items():
            self._paths[(rep.a, rep.b, rep.d)] = (state, one, ((1, 0), (0, 1)), 0)
            self._rep_neighbors[state] = {(u.a, u.b, u.d): u
                                          for u in bttree.neighbors(rep)}

    def _path(self, v):
        """(state, gamma, A, e) with A·v = r_state, found from the root down.

        gamma is an element of the order in basis coordinates, not in p·O,
        with nrd(gamma) = p^e; A = iota(gamma) mod p^prec. Every vertex on
        the way is memoised, so a path costs one step per new vertex.
        """
        chain = []
        key = (v.a, v.b, v.d)
        while key not in self._paths:
            chain.append((v, key))
            v = bttree.parent(v)
            key = (v.a, v.b, v.d)
        entry = self._paths[key]
        for w, wkey in reversed(chain):
            entry = self._paths[wkey] = self._descend(entry, self._image(entry, w))
        return entry

    def classify_moved_edge(self, source, unit, target, moved=None) -> int:
        """Class of the edge (source, U·target) by one canonical form, for U =
        `unit` an integer matrix exact mod p^prec whose determinant is a p-unit,
        or the identity when `unit` is None (an edge off the walk's memo).

        With (s, gamma, A, e) the path data of source, A·U·target is a
        neighbour u of r_s (`_image` checks it), and the edge has the class of
        the walk's out-edge (r_s, u). The check also certifies that U·target
        is adjacent to source, since A acts on the tree as an isometry. No
        edge is built, and U·target is not canonicalised here.

        `moved`, when given, is the canonical form of U·target, one step
        further from the root than source. Its path data is then memoised
        from the same image: it is what `_path` derives from its parent, so a
        later path through it takes no canonical form.
        """
        self.ensure_walk()
        entry = self._path(source)
        image = self._image(entry, target, unit)
        if moved is not None:
            if bttree.parent(moved) != source:
                raise UsageError("the moved target is not a child of the source")
            key = (moved.a, moved.b, moved.d)
            if key not in self._paths:
                self._paths[key] = self._descend(entry, image)
        rep = self.parity_reps[entry[0]]
        return self._edge_memo[(rep.a, rep.b, rep.d) + image]

    def _image(self, entry, w, unit=None):
        """Key of A·U·w for a neighbour U·w of the vertex that entry
        describes, U = unit (det U a p-unit, exact mod p^prec) or the
        identity; A·U·w is a neighbour of r_state, or the transport is broken.

        A·U ≡ iota(gamma)·U mod p^prec, and det(A·U) has valuation e, so the
        precision rule of `_act` holds for A·U as it does for A.
        """
        state, _, mat, e = entry
        if unit is not None:
            mat = _mul_mod(mat, unit, self.p ** self.splitting.prec)
        image = self._act(mat, e, w)
        key = (image.a, image.b, image.d)
        if key not in self._rep_neighbors[state]:
            raise InvariantViolationError(
                f"a path step left the neighbours of the state {state} "
                f"representative; transport broken")
        return key

    def _descend(self, entry, image):
        """Path data of w from that of its parent and the key of A·w.

        With A·w = u = iota(x)·r' (the certified step), conj(x)·gamma carries
        w to r'; its p-content is divided out exactly, in order coordinates.
        """
        state, gamma, _, e = entry
        state, step, e_step = self._step(state, image)
        gamma, e = self._primitive(self.base_order.coords_mul(step, gamma), e + e_step)
        return state, gamma, self.splitting.apply(gamma), e

    def _step(self, state, key):
        step = self._steps.get((state, key))
        if step is None:
            step = self._steps[state, key] = self._certified_step(state, key)
        return step

    def _certified_step(self, state, key):
        """(state', conj(x) in basis coordinates, v_p(nrd x)) for the
        neighbour u = key of r_state, with u = iota(x)·r_state'.

        x is `_step_witness`, certified once, here, by `_check_step_witness`.
        """
        nxt, coords, e = self._step_witness(state, key)
        self._check_step_witness(state, key, coords, e)
        lat = self.base_order.lattice
        return nxt, lat.coordinates(self.base_order.alg.conj(self._element(coords)), lat.den), e

    def _step_witness(self, state, key):
        """(state', x in basis coordinates, e) for the neighbour u = key of
        r_state: x is the isometry witness of the vertex ideals of u and
        r_state' (both the walk's own), with its p-content removed, and p^e
        the p-part of nrd(x)."""
        u, nxt, where = self._step_ends(state, key)
        found = isometry_witness(self._vertex_ideal(u),
                                 self._vertex_ideal(self.parity_reps[nxt]))
        if found is None:
            raise InvariantViolationError(f"{where}: the vertex ideals are not isometric")
        vec, den = found
        coords = self.base_order.lattice.coordinates(vec, den)
        if coords is None:
            raise InvariantViolationError(f"{where} does not lie in the order")
        norm = self.base_order.alg.nrd(vec) // (den * den)
        return (nxt,) + self._primitive(coords, valuation(norm, self.p))

    def _check_step_witness(self, state, key, coords, e):
        """The witness x (basis coordinates) of the step from r_state to its
        neighbour u = key has nrd(x) = p^e, and iota(x) carries r_state' to
        u on the tree, state' the state of u."""
        u, nxt, where = self._step_ends(state, key)
        den = self.base_order.lattice.den
        if self.base_order.alg.nrd(self._element(coords)) != self.p ** e * den * den:
            raise InvariantViolationError(f"{where}: its reduced norm is not a power of p")
        if self._act(self.splitting.apply(coords), e, self.parity_reps[nxt]) != u:
            raise InvariantViolationError(
                f"{where} does not carry the representative to the neighbour")

    def _step_ends(self, state, key):
        """(u, state', a name for the witness) of the step from r_state to
        its neighbour u = key, state' the state of u."""
        u = self._rep_neighbors[state][key]
        nxt = (self._vertex_memo[key], u.parity())
        return u, nxt, f"transport witness from state {state} to state {nxt}"

    def _element(self, coords):
        """den·x for the element x of the order with these basis coordinates,
        den the denominator of the order's lattice."""
        rows = self.base_order.lattice.rows
        return tuple(sum(c * r[k] for c, r in zip(coords, rows)) for k in range(4))

    def _primitive(self, coords, e):
        """(coords / p^c, e - 2c) for the largest c with p^c | coords: an
        element of the order and p^e its reduced norm."""
        c = valuation(math.gcd(*coords), self.p)
        q = self.p ** c
        return tuple(x // q for x in coords), e - 2 * c

    def _act(self, mat, e, v):
        """The class of A·M_v for A = iota(g) mod p^prec, nrd(g) = p^e.

        With p^alpha the content of A·M_v, its elementary divisors are
        p^alpha and p^beta, beta = e + k_v - alpha, and A·M_v + p^t·E spans
        the same lattice once t >= beta + 1. A is exact mod p^prec, and alpha
        is read off the computed product whenever it is below prec, so the
        step is exact if beta + 1 <= prec and raises otherwise.
        """
        p, prec = self.p, self.splitting.prec
        (a00, a01), (a10, a11) = mat
        (m00, m01), (_, m11) = v.matrix()
        prod = ((a00 * m00, a00 * m01 + a01 * m11),
                (a10 * m00, a10 * m01 + a11 * m11))
        content = math.gcd(*prod[0], *prod[1])
        alpha = capped_valuation(content, p, prec)
        need = e + v.det_exponent - alpha + 1
        if need > prec:
            raise InvariantViolationError(
                f"transport splitting precision too low: a path step needs "
                f"p^{need}, the splitting has p^{prec}")
        return bttree.canonical_vertex(p, prod)

    def _vertex_ideal(self, v) -> RightIdeal:
        """{x in O : both columns of iota(x) lie in L}, for L the lattice of v.

        Kept per vertex key: the walk builds the ideal of each of its vertex
        cells once, and the step witnesses read the same ideal again, with
        its Gram, reduction and o_g.
        """
        key = (v.a, v.b, v.d)
        ideal = self._vertex_ideals.get(key)
        if ideal is None:
            m, k = v.matrix(), v.det_exponent
            ideal = self._vertex_ideals[key] = self._cell_ideal(m, m, k, self.base_order, k)
        return ideal

    def _edge_ideal(self, e) -> RightIdeal:
        """{x in O : iota(x)·e1 in M_t, iota(x)·e2 in L_s}, a right ideal of
        the level-p suborder, for M_t = `_chain_sublattice(e)` the index-p
        sublattice of the source's L_s in the class of the target.

        It is the ideal of the chain condition: iota(x) maps the standard
        chain (Z_p^2 ⊃ Z_p·e1 + p·Z_p·e2) into (L_s ⊃ M_t), as p·L_s ⊆ M_t.
        """
        ks = e.source.det_exponent
        return self._cell_ideal(_chain_sublattice(e), e.source.matrix(), ks + 1,
                                self.edge_order, ks)

    def _cell_ideal(self, first, second, k, order, norm_exponent):
        """{x in O : iota(x)·e1 in the column span of `first`, iota(x)·e2 in
        that of `second`}, as a right ideal of `order` with nrd p^norm_exponent.

        Both spans contain p^k·Z_p^2, so the local ideal contains p^k·M_2(Z_p)
        and is spanned by four matrices X: a basis column of `first` in the
        first column slot, or one of `second` in the second, and 0 in the
        other. O/p^k·O ≅ M_2(Z/p^k) through iota, so the ideal is p^k·O plus
        the preimages C^-1·vec(X) mod p^k of the four, in basis coordinates.
        The ambient is always the base order: away from p the two orders
        agree, and the local ideal need not lie inside the level-p suborder.
        Certified by `_check_cell_ideal` before it is returned.
        """
        p = self.p
        q = p ** k
        if self.splitting.prec < k + 2:
            raise InvariantViolationError("transport splitting precision too low")
        gens = [(x, 0, y, 0) for x, y in zip(*first)] + \
               [(0, x, 0, y) for x, y in zip(*second)]
        coords = [[sum(c * g for c, g in zip(row, gen)) % q for row in self._iota_inverse]
                  for gen in gens]
        ideal = RightIdeal(order, self.base_order.lattice.sublattice_mod(q, coords))
        _check_cell_ideal(ideal, p ** norm_exponent)
        return ideal

    # -- operators ------------------------------------------------------------

    def vertex_count(self):
        return len(self.vertex_classes)

    def edge_count(self):
        return len(self.edge_classes)

    def tp_matrix(self):
        """T_p on vertex classes via tree neighbors of each representative."""
        if "tp" not in self._matrix_memo:
            self._matrix_memo["tp"] = self._step_counts(
                self.vertex_reps, bttree.neighbors, self.classify_vertex,
                self.vertex_count)
        return self._matrix_memo["tp"]

    def up_matrix(self):
        """U_p on edge classes: sum over forward edges, reversal excluded."""
        if "up" not in self._matrix_memo:
            self._matrix_memo["up"] = self._step_counts(
                self.edge_reps, bttree.forward_edges, self.classify_edge,
                self.edge_count)
        return self._matrix_memo["up"]

    def _step_counts(self, reps, steps, classify, count):
        """rows[i][c] = #{s in steps(reps[i]) : classify(s) = c}, after the walk.

        count() is the number of classes classify maps to.
        """
        self.ensure_walk()
        width = count()
        rows = []
        for i in range(len(reps)):
            row = [0] * width
            for s in steps(reps[i]):
                row[classify(s)] += 1
            rows.append(row)
        return rows

    def verify_regularity(self):
        """(p+1)-regularity and the two-level mass identity."""
        p = self.p
        for row in self.tp_matrix():
            if sum(row) != p + 1:
                raise InvariantViolationError("vertex quotient is not (p+1)-regular")
        for row in self.up_matrix():
            if sum(row) != p:
                raise InvariantViolationError("forward-edge count is not p")
        if eichler_mass(self.disc, self.level * p) != \
                (p + 1) * eichler_mass(self.disc, self.level):
            raise InvariantViolationError("mass bookkeeping failed")

    def brandt_matrix(self, ell: int):
        """T_ell on the vertex classes, for a prime ell prime to disc·level."""
        return neighbor_matrix(self.vertex_classes, ell)


def _mul_mod(g, h, q):
    """The 2x2 product g·h with entries reduced mod q."""
    (g00, g01), (g10, g11) = g
    (h00, h01), (h10, h11) = h
    return (((g00 * h00 + g01 * h10) % q, (g00 * h01 + g01 * h11) % q),
            ((g10 * h00 + g11 * h10) % q, (g10 * h01 + g11 * h11) % q))


def _iota_inverse(splitting):
    """C^-1 mod p^prec, for C the 4x4 matrix whose column i is iota(b_i) of
    the order's basis element b_i, read row by row (vec(X) = (X00, X01,
    X10, X11)).

    Certified once per graph: det C is a p-unit, and C·C^-1 ≡ 1 mod p^prec.
    """
    p, q = splitting.ell, splitting.modulus
    c = [[m[r][s] for m in splitting.basis_images] for r in range(2) for s in range(2)]
    det, adj = adjugate4(c)
    where = f"the splitting at {p} mod {p}^{splitting.prec}"
    if det % p == 0:
        raise InvariantViolationError(f"{where} has a matrix C of determinant {det}, "
                                      "not a p-unit")
    inv = pow(det, -1, q)
    out = [[x * inv % q for x in row] for row in adj]
    if any((sum(c[i][t] * out[t][j] for t in range(4)) - (i == j)) % q
           for i in range(4) for j in range(4)):
        raise InvariantViolationError(f"{where}: C times its inverse is not 1")
    return out


def _check_cell_ideal(ideal, norm):
    """A tree cell's ideal has reduced norm `norm` and is a right ideal of
    its own order.

    The reduced norm is the content of the normalized Gram, which the
    reduction of the ideal computes anyway.
    """
    if ideal.nrd() != norm:
        raise InvariantViolationError(
            f"a tree cell's ideal has reduced norm {ideal.nrd()}, not {norm}")
    try:
        ideal.check_right_stability()
    except InvariantViolationError:
        raise InvariantViolationError(
            "a tree cell's ideal is not right-stable over its order") from None


def _chain_sublattice(e):
    """Integer 2x2 matrix of the index-p sublattice of L_s in the class of t."""
    p = e.p
    ms = e.source.matrix()
    mt = e.target.matrix()
    ks, kt = e.source.det_exponent, e.target.det_exponent
    diff = ks + 1 - kt
    if diff % 2 != 0 or diff < 0:
        raise InvariantViolationError("edge endpoints have incompatible parity")
    j = diff // 2
    scaled = ((mt[0][0] * p ** j, mt[0][1] * p ** j),
              (mt[1][0] * p ** j, mt[1][1] * p ** j))
    # containment check: adj(ms)·scaled ≡ 0 mod det(ms) = p^ks
    adj = ((ms[1][1], -ms[0][1]), (0, ms[0][0]))
    for r in range(2):
        for s in range(2):
            val = sum(adj[r][t] * scaled[t][s] for t in range(2))
            if val % (p ** ks) != 0:
                raise InvariantViolationError("chain sublattice not contained in source")
    return scaled


# ---------------------------------------------------------------------------
# Operator application and eigensystem extraction
# ---------------------------------------------------------------------------

def tp_apply(graph: QuotientGraph, form: AutomorphicForm) -> AutomorphicForm:
    """Combinatorial T_p on a vertex form: sum over quotient tree neighbors."""
    if form.level_tag != "vertex":
        raise UsageError("T_p acts on vertex forms")
    return _apply_matrix(graph.tp_matrix(), form)


def up_apply(graph: QuotientGraph, form: AutomorphicForm) -> AutomorphicForm:
    """Combinatorial U_p on an edge form: forward edges minus the reversal."""
    if form.level_tag != "edge":
        raise UsageError("U_p acts on edge forms")
    return _apply_matrix(graph.up_matrix(), form)


def _apply_matrix(mat, form: AutomorphicForm) -> AutomorphicForm:
    vals = tuple(sum(mat[i][j] * form.values[j] for j in range(len(form.values)))
                 for i in range(len(form.values)))
    if form.modulus:
        p, n = form.modulus
        vals = tuple(v % p ** n for v in vals)
    return AutomorphicForm(vals, form.level_tag, form.modulus)


def hensel_unit_root(a_p: int, p: int, n: int) -> int:
    """The unit root of x^2 - a_p x + p mod p^n (requires p-ordinarity)."""
    if a_p % p == 0:
        raise UsageError("non-ordinary input: a_p is not a unit mod p")
    # x^2 - a x + p ≡ x(x - a) mod p: the unit root is ≡ a
    r = hensel_lift(a_p % p, a_p, p, p, n)
    _verify_unit_root(r, a_p, p, n)
    return r


def _verify_unit_root(r: int, a_p: int, p: int, n: int):
    """r is a root of x^2 - a_p x + p mod p^n."""
    if (r * r - a_p * r + p) % p ** n != 0:
        raise InvariantViolationError("Hensel lift failed")


def eigenspace_cut(mat, a, basis, modulus=None):
    """Generators of {v in span(basis) : (mat - a·I) v = 0}, zero vectors dropped.

    mat is an h x h integer matrix and basis a list of length-h integer
    vectors. M - a·I is restricted to the span of the basis (an h x k
    matrix), its kernel is taken, and each kernel generator c is lifted back
    to sum_i c_i·basis[i].

    Over Z (modulus None) the kernel is taken over Q (`rational_kernel`): the
    result spans, over Q, the vectors of span(basis) that mat sends to a
    times themselves, so it is empty exactly when that eigenspace is 0. It
    need not be a Z-basis of the eigenvectors in the lattice: the search
    over Z reads only which eigenspaces are nonzero.
    Over Z/p^n (modulus (p, n)) the kernel is the submodule of coefficient
    vectors killed mod p^n (`kernel_mod`), and the lifts, reduced mod p^n,
    generate {v in span(basis) mod p^n : mat·v ≡ a·v mod p^n}.
    """
    h = len(mat)
    shifted = [[mat[i][j] - (a if i == j else 0) for j in range(h)] for i in range(h)]
    restricted = [[sum(row[k] * b[k] for k in range(h)) for b in basis]
                  for row in shifted]
    if modulus is None:
        gens = rational_kernel(IntMatrix.from_rows(restricted))
    else:
        p, n = modulus
        q = p ** n
        restricted = [[x % q for x in row] for row in restricted]
        gens = kernel_mod(IntMatrix.from_rows(restricted), p, n)
    out = []
    for g in gens:
        vec = tuple(sum(g[c] * basis[c][k] for c in range(len(basis))) for k in range(h))
        if modulus is not None:
            vec = tuple(x % q for x in vec)
        if any(vec):
            out.append(vec)
    return out


def joint_eigenspaces(operators, choices, basis, modulus=None):
    """Depth-first search for joint eigenspaces of commuting operators.

    Operator i is tried at the values in choices[i] in turn (one target
    value, or the full candidate range); every step is an `eigenspace_cut`
    of the span reached so far. A branch dies when its cut is empty and, over
    Z/p^n, also when no generator has a unit coordinate (no primitive joint
    eigenvector). When the span is one line Z·v and there are several
    choices, only the value that line carries is cut (`_line_value`): over Q
    a cut at any other value is empty, and mod p^n it is a non-unit multiple
    of v, which dies anyway. A span of two or more generators is cut at every
    value, and a single choice is cut as it stands. choices[i] is a sequence.
    Returns the surviving (assignment, basis) leaves in lexicographic order of
    the choices, each assignment holding the choices' own values, so fixing
    some coordinates to one value returns exactly the matching leaves of the
    full search, in order.
    """
    leaves = []
    q = None if modulus is None else modulus[0] ** modulus[1]

    def extend(idx, assignment, span):
        if idx == len(operators):
            leaves.append((tuple(assignment), span))
            return
        values = choices[idx]
        if len(span) == 1 and len(values) > 1:
            line = _line_value(operators[idx], span[0], modulus)
            if line is None:
                return
            values = [c for c in values if (c == line if q is None else c % q == line)]
        for a in values:
            cut = eigenspace_cut(operators[idx], a, span, modulus)
            if cut and (modulus is None or any(x % modulus[0] for g in cut for x in g)):
                extend(idx + 1, assignment + [a], cut)

    extend(0, [], basis)
    return leaves


def _line_value(mat, v, modulus=None):
    """The one value a with mat·v = a·v (over Z), or mat·v ≡ a·v mod p^n with
    a reduced, or None when there is none.

    a is read at the first nonzero coordinate of v over Z, and at its first
    unit coordinate mod p^n: a vector with no unit coordinate is no primitive
    eigenvector, so its line survives no cut.
    """
    tv = [sum(x * y for x, y in zip(row, v)) for row in mat]
    if modulus is None:
        i = next((k for k, x in enumerate(v) if x), None)
        if i is None or tv[i] % v[i]:
            return None
        a = tv[i] // v[i]
        return a if all(t == a * x for t, x in zip(tv, v)) else None
    p, n = modulus
    q = p ** n
    i = next((k for k, x in enumerate(v) if x % p), None)
    if i is None:
        return None
    a = tv[i] * pow(v[i], -1, q) % q
    return a if all((t - a * x) % q == 0 for t, x in zip(tv, v)) else None


def _identity_basis(h):
    return [tuple(1 if i == j else 0 for i in range(h)) for j in range(h)]


def _hecke_operators(classes: ClassSet, sample_primes):
    """Labelled operators in search order: ("a", ell) for T_ell at the sorted
    sample primes, then ("u", q) for U_q at the discriminant primes."""
    mats = neighbor_matrices(classes, sample_primes)
    ops = [(("a", ell), mats[ell]) for ell in sorted(sample_primes)]
    ops += [(("u", qq), uq_matrix(classes, qq)) for qq in prime_factors(classes.disc)]
    return ops


def _eigenvalue_maps(ops, assignment):
    """(T_ell map, U_q map) of one leaf's assignment to the labelled ops."""
    a_map, u_map = {}, {}
    for ((kind, ell), _), val in zip(ops, assignment):
        (a_map if kind == "a" else u_map)[ell] = val
    return a_map, u_map


def eigensystems_mod(classes: ClassSet, sample_primes, p: int, n: int,
                     fixed: dict = None):
    """All primitive simultaneous cuspidal eigensystems of the Hecke action
    mod p^n.

    Operators: T_ell for the sample primes and U_q at discriminant primes.
    Systems must admit a common eigenvector with a unit coordinate in the
    sublattice orthogonal to the trivial (norm-form) line under the
    unit-weight pairing (`_cuspidal_sublattice`). An operator is tried at
    every residue mod p^n while the span is wider than a line, and on a line
    at the one residue it carries (`joint_eigenspaces`). `fixed` maps
    primes to known eigenvalues: those operators are cut at that value only,
    which returns exactly the systems of the full search that carry these
    values, in the same order. With one class (h = 1) the sublattice is 0
    and there is no system.
    """
    cuspidal = _cuspidal_sublattice(classes, p, n)
    if not cuspidal:
        return []
    q = p ** n
    fixed = fixed or {}
    ops = _hecke_operators(classes, sample_primes)
    choices = [(fixed[ell] % q,) if ell in fixed else range(q) for (_, ell), _ in ops]
    leaves = joint_eigenspaces([mat for _, mat in ops], choices, cuspidal, (p, n))
    return [EigenSystem(p, n, *_eigenvalue_maps(ops, assignment), "computed")
            for assignment, _ in leaves]


def _cuspidal_sublattice(cs: ClassSet, p: int, n: int):
    """Generators of the sublattice orthogonal to the trivial line.

    The pairing weights are 1/#units; the weights must be units mod p for the
    quotient to split off the trivial line cleanly.
    """
    q = p ** n
    weights = cs.unit_counts
    if any(w % p == 0 for w in weights):
        raise UsageError("a unit-group order is divisible by p; "
                         "the trivial line does not split off")
    scale = math.lcm(*weights)
    functional = [(scale // w) % q for w in weights]
    m = IntMatrix.from_rows([functional])
    return [g for g in kernel_mod(m, p, n) if any(g)]


def eigenvector_mod(graph: QuotientGraph, system: EigenSystem, sample_primes):
    """A canonical primitive edge eigenform realizing the system mod p^n.

    The operators are those of `eigensystems_mod` on the edge classes, then
    the tree's U_p at the system's U_p eigenvalue. Their joint eigenspace
    must be a line (`_check_eigenline`), else DataMissingError.
    """
    p, n = system.p, system.n
    q = p ** n
    ops = _hecke_operators(graph.edge_classes, sample_primes)
    ops.append((("u", p), graph.up_matrix()))
    choices = [(system.u[ell] if kind == "u" else system.value(ell),)
               for (kind, ell), _ in ops]
    leaves = joint_eigenspaces([mat for _, mat in ops], choices,
                               _identity_basis(len(graph.edge_classes)), (p, n))
    gens = [g for _, span in leaves for g in span]
    vec = next((g for g in gens if any(x % p for x in g)), None)
    if vec is None:
        raise DataMissingError("no primitive eigenvector realizes the system")
    # canonical scaling: first unit coordinate becomes 1
    inv = pow(next(x for x in vec if x % p), -1, q)
    vec = tuple(v * inv % q for v in vec)
    _check_eigenline(gens, vec, q)
    return AutomorphicForm(vec, "edge", (p, n))


def _check_eigenline(gens, vec, q):
    """The eigenspace the generators span mod q = p^n is Z/q·vec: each
    generator g is g[i0]·vec mod q, at the coordinate i0 where vec is 1 (its
    first unit coordinate; the ones before it are not units, so not 1).

    A larger eigenspace would leave the choice of vec, and so the L-element,
    to the order of the generators; the distribution and tower certificates
    hold for every U_p-eigenvector and cannot see it.
    """
    i0 = vec.index(1)
    if any((x - g[i0] * y) % q for g in gens for x, y in zip(g, vec)):
        raise DataMissingError(
            "the sampled Hecke operators leave an edge eigenspace larger than a "
            "line; sample more primes (a larger --sample-bound)")


def rational_eigensystems(classes: ClassSet, sample_primes):
    """Integer joint eigensystems of the Hecke action on a class set.

    The operators are those of `eigensystems_mod`. Candidates are bounded by
    row sums (the spectra of nonnegative Brandt matrices and of the U_q
    permutations), and a span wider than a line is cut at each of them; a
    line is cut only at the integer it carries, if that is within the bound
    (`joint_eigenspaces`). Eigenspaces are cut exactly over Z. Returns one
    (T_ell map, U_q map) pair per rationally split system.
    """
    ops = _hecke_operators(classes, sample_primes)
    choices = []
    for _, mat in ops:
        bound = max(sum(abs(x) for x in row) for row in mat)
        choices.append(range(-bound, bound + 1))
    leaves = joint_eigenspaces([mat for _, mat in ops], choices,
                               _identity_basis(len(classes)))
    return [_eigenvalue_maps(ops, assignment) for assignment, _ in leaves]


def mk_dual_graph(graph: QuotientGraph):
    """The parity-doubled dual graph: vertices are (class, parity) pairs.

    Vertices biject with ideal classes times Z/2 and edges with the level-p
    classes; each edge joins an even vertex to an odd one, realizing the
    bipartite source-even orientation. Unit lengths by default (fixture data
    may override downstream).
    """
    from .compgraph import LengthGraph
    graph.ensure_walk()
    h = graph.vertex_count()
    edges = []
    for idx in range(graph.edge_count()):
        rep = graph.edge_parity_reps.get((idx, 0))
        if rep is None:
            # use the odd-source representative reversed onto the even side
            odd = graph.edge_parity_reps.get((idx, 1))
            if odd is None:
                raise InvariantViolationError("edge class missing parity data")
            rep = odd.reverse()
        # source even, target odd
        s_idx = graph.classify_vertex(rep.source)
        t_idx = graph.classify_vertex(rep.target)
        edges.append((2 * s_idx, 2 * t_idx + 1, 1))
    return LengthGraph.make(2 * h, edges)
