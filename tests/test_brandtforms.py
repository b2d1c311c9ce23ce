import dataclasses
import functools
import json
import os
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlfun import brandtforms
from quatlfun.admraise import eisenstein_test
from quatlfun.brandtforms import (AutomorphicForm, EigenSystem, QuotientGraph,
                                  eigensystems_mod,
                                  eigenvector_mod, hensel_unit_root,
                                  mk_dual_graph,
                                  rational_eigensystems, tp_apply, up_apply)
from quatlfun.bttree import TreeEdge, TreeVertex, ball, edges_from, neighbors
from quatlfun.compgraph import character_group
from quatlfun.errors import InvariantViolationError, UsageError
from quatlfun.pipeline import _torus_quotient, good_primes
from quatlfun.primes import first_coprime_prime, is_prime
from quatlfun.quatarith import (ClassSet, algebra_from_discriminant,
                                class_set_avoiding,
                                eichler_mass, eichler_order_for,
                                ideal_class_set, maximal_order,
                                neighbor_matrices, neighbor_matrix,
                                uq_by_classification, uq_from_counts,
                                uq_matrix)
from quatlfun.quatarith import classset as classset_module
from quatlfun.quatarith import ideal as ideal_module
from quatlfun.quatarith.lattice import enumerate_by_value
from quatlfun.toruscm import build_torus, edge_orbit_table

from oracles import cell_ideal_oracle, curve_a_ell, joint_eigenspaces_oracle


@pytest.fixture(scope="module")
def graph11_p2():
    return QuotientGraph(maximal_order(algebra_from_discriminant(11)), 2)


@pytest.fixture(scope="module")
def graph11_p5():
    return QuotientGraph(maximal_order(algebra_from_discriminant(11)), 5)


class TestQuotientGraph:
    def test_class_counts(self, graph11_p2):
        assert graph11_p2.vertex_count() == 2
        # edge classes = class number of the level-2 Eichler order (mass 5/4)
        assert graph11_p2.edge_count() == 3
        assert graph11_p2.edge_classes.mass == eichler_mass(11, 2)

    def test_regularity_and_mass_identity(self, graph11_p2, graph11_p5):
        graph11_p2.verify_regularity()
        graph11_p5.verify_regularity()

    def test_disc2_loop_structure(self):
        g = QuotientGraph(maximal_order(algebra_from_discriminant(2)), 3)
        assert g.vertex_count() == 1
        assert g.tp_matrix() == [[4]]  # weighted loops of total degree p+1

    def test_tree_matches_ideal_route(self, graph11_p2):
        assert graph11_p2.tp_matrix() == graph11_p2.brandt_matrix(2)

    def test_incidence_row_sums(self, graph11_p2):
        p = graph11_p2.p
        m_s, m_t, _ = _incidence(graph11_p2)
        for row in m_s + m_t:
            assert sum(row) == p + 1

    def test_parity_doubling_found(self, graph11_p2):
        graph11_p2.ensure_walk()
        assert len(graph11_p2.parity_reps) == 2 * graph11_p2.vertex_count()

    def test_edge_classes_built_before_the_walk(self, monkeypatch):
        # so the traced span of the walk's first classify_edge holds no
        # class-set enumeration
        graph = QuotientGraph(maximal_order(algebra_from_discriminant(11)), 3)

        def fail(*args):
            raise AssertionError("the walk built a class set")
        monkeypatch.setattr(brandtforms, "class_set_avoiding", fail)
        graph.ensure_walk()
        assert len(graph.edge_reps) == len(graph.edge_classes)


class TestBrandtMatrices:
    def test_row_sums_and_commutation(self, graph11_p2):
        mats = {ell: graph11_p2.brandt_matrix(ell) for ell in (3, 5, 7)}
        for ell, m in mats.items():
            assert all(sum(row) == ell + 1 for row in m)
        for a in mats.values():
            for b in mats.values():
                assert _mul(a, b) == _mul(b, a)

    def test_weighted_self_adjointness(self, graph11_p2):
        w = graph11_p2.vertex_classes.unit_counts
        for ell in (2, 3, 7, 13):
            b = graph11_p2.brandt_matrix(ell)
            for i in range(len(w)):
                for j in range(len(w)):
                    assert w[j] * b[i][j] == w[i] * b[j][i]

    def test_eigenvalues_match_point_counts(self, graph11_p2):
        primes = (2, 3, 7, 13)
        systems = sorted(tuple(sorted(a.items())) for a, _ in
                         rational_eigensystems(graph11_p2.vertex_classes, primes))
        cusp = {ell: curve_a_ell(ell) for ell in primes}
        eis = {ell: ell + 1 for ell in primes}
        assert cusp == {2: -2, 3: -1, 7: -2, 13: 4}
        assert systems == sorted([tuple(sorted(cusp.items())),
                                  tuple(sorted(eis.items()))])

    def test_eisenstein_only_at_disc2(self):
        g = QuotientGraph(maximal_order(algebra_from_discriminant(2)), 3)
        for ell in (3, 5, 7):
            assert g.brandt_matrix(ell) == [[ell + 1]]

    def test_uq_is_permutation(self, graph11_p2):
        u11 = uq_matrix(graph11_p2.vertex_classes, 11)
        assert all(sum(row) == 1 for row in u11)
        assert all(sum(u11[i][j] for i in range(len(u11))) == 1
                   for j in range(len(u11)))


# the raise-374 search: disc 374 = 2·11·17, eigensystems mod 5, T_ell at the
# primes ell <= 50 prime to 374·5
RAISE_374_SAMPLES = [ell for ell in range(2, 51)
                     if is_prime(ell) and (374 * 5) % ell]


class TestUqRoutes:
    def test_raise_search_reads_uq_off_its_counts(self, monkeypatch):
        # once the search's T_ell are built, U_2, U_11, U_17 classify nothing
        cs = ideal_class_set(eichler_order_for(374, 1), first_coprime_prime(374 * 5))
        neighbor_matrices(cs, RAISE_374_SAMPLES)

        def fail(*args):
            raise AssertionError("U_q classified an ideal")
        monkeypatch.setattr(ClassSet, "classify", fail)
        for module in (brandtforms, classset_module, ideal_module):
            monkeypatch.setattr(module, "reduce_ideal", fail)
        got = {q: uq_matrix(cs, q) for q in (2, 11, 17)}
        monkeypatch.undo()
        assert got == {q: uq_by_classification(cs, q) for q in (2, 11, 17)}

    def test_q_above_the_counts_is_classified(self, monkeypatch):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(83)), 3)
        neighbor_matrix(cs, 5)
        classified = []
        real = ClassSet.classify

        def counted(self, ideal):
            classified.append(ideal)
            return real(self, ideal)
        monkeypatch.setattr(ClassSet, "classify", counted)
        u83 = uq_matrix(cs, 83)
        assert cs.counts_upto == 5 and len(classified) == len(cs)
        assert u83 == uq_from_counts(cs, 83)


def _mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


class TestOperatorApplication:
    def test_tp_constant(self, graph11_p2):
        h = graph11_p2.vertex_count()
        out = tp_apply(graph11_p2, AutomorphicForm((1,) * h, "vertex"))
        assert out.values == (3,) * h

    def test_up_constant(self, graph11_p5):
        m = graph11_p5.edge_count()
        out = up_apply(graph11_p5, AutomorphicForm((1,) * m, "edge"))
        assert out.values == (5,) * m  # p forward edges, reversal excluded

    def test_tp_linearity_and_eigenvector(self, graph11_p2):
        rng = random.Random(8)
        mat = graph11_p2.brandt_matrix(2)
        h = len(mat)
        for _ in range(10):
            x = tuple(rng.randint(-9, 9) for _ in range(h))
            y = tuple(rng.randint(-9, 9) for _ in range(h))
            fx = tp_apply(graph11_p2, AutomorphicForm(x, "vertex")).values
            fy = tp_apply(graph11_p2, AutomorphicForm(y, "vertex")).values
            fxy = tp_apply(graph11_p2,
                           AutomorphicForm(tuple(a + b for a, b in zip(x, y)),
                                           "vertex")).values
            assert fxy == tuple(a + b for a, b in zip(fx, fy))
        # cuspidal eigenvector for disc 11: orthogonal to constants under
        # the unit weights (4, 6): v1/4 + v2/6 = 0
        vec = (-2, 3)
        image = tp_apply(graph11_p2, AutomorphicForm(vec, "vertex")).values
        assert image == tuple(curve_a_ell(2) * v for v in vec)

    def test_level_tags_enforced(self, graph11_p2):
        with pytest.raises(UsageError):
            up_apply(graph11_p2, AutomorphicForm((1, 1), "vertex"))
        with pytest.raises(UsageError):
            tp_apply(graph11_p2, AutomorphicForm((1, 1, 1), "edge"))

    def test_up_double_coset_relation(self, graph11_p5):
        # U_p^2 + p * (reversal overcount) realizes T_p compositions; at the
        # matrix level U_p satisfies row sums p and integrality of products
        up = graph11_p5.up_matrix()
        sq = _mul(up, up)
        assert all(sum(row) == 25 for row in sq)


class TestStabilization:
    def test_alpha_mod5(self):
        assert hensel_unit_root(1, 5, 1) == 1
        alpha = hensel_unit_root(1, 5, 2)
        assert alpha == 21
        assert (alpha * alpha - alpha + 5) % 25 == 0

    def test_non_ordinary_rejected(self):
        with pytest.raises(UsageError):
            hensel_unit_root(0, 5, 1)


class TestEigensystemsMod:
    def test_vertex_systems_collapse_mod5(self, graph11_p5):
        # the cuspidal search finds one vertex system mod 5, that of 11a,
        # which is Eisenstein-congruent mod 5
        systems = eigensystems_mod(graph11_p5.vertex_classes, [2, 3], 5, 1)
        assert len(systems) == 1
        s = systems[0]
        assert s.a == {2: 3, 3: 4} and s.u == {11: 1}
        assert eisenstein_test(s, s.a) is True

    @pytest.mark.parametrize("p", [5, 7])
    def test_computed_systems_survive_json(self, graph11_p5, p):
        # every field of a computed system is written, so it reads back equal
        systems = eigensystems_mod(graph11_p5.vertex_classes, [2, 3], p, 1)
        assert [EigenSystem.from_json(s.to_json()) for s in systems] == systems

    def test_vertex_systems_mod7_split(self, graph11_p5):
        # mod 7, 11a and the Eisenstein system (1 + ell) split apart, and the
        # search, which runs orthogonal to the trivial line, finds only 11a
        systems = eigensystems_mod(graph11_p5.vertex_classes, [2, 3], 7, 1)
        keys = [(s.a[2], s.a[3]) for s in systems]
        assert keys == [(curve_a_ell(2) % 7, curve_a_ell(3) % 7)]
        assert (3, 4) not in keys

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_one_class_has_no_system(self, p):
        # disc 13 has class number 1: the cuspidal sublattice is 0, so the
        # search finds no system rather than building an h x 0 matrix
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(13)), p)
        assert len(cs) == 1
        assert eigensystems_mod(cs, [2], p, 1) == []

    def test_eigenvector_canonical_scaling(self, graph11_p5):
        target = EigenSystem(5, 1, {2: 3, 3: 4}, {5: 1, 11: 1})
        v = eigenvector_mod(graph11_p5, target, [2, 3])
        assert any(x % 5 for x in v.values)
        first_unit = next(x for x in v.values if x % 5)
        assert first_unit == 1



@st.composite
def _commuting_search(draw, modulus):
    """(operators, choices, basis) for `joint_eigenspaces`: integer
    polynomials in one integer matrix A, A an upper triangular matrix with
    small, often repeated, diagonal, conjugated by elementary matrices (so
    its eigenvalues are integers, and it may have Jordan blocks). Over Z
    each operator runs over its row-sum bound; mod p^n over all residues,
    or at one fixed value, unreduced. The start is the identity basis, one
    line (with or without a unit coordinate) or a few random generators."""
    h = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    a = [[draw(small) if j == i else (draw(st.integers(-1, 1)) if j > i else 0)
          for j in range(h)] for i in range(h)]
    for _ in range(draw(st.integers(0, 3)) if h > 1 else 0):
        i, j = draw(st.permutations(range(h)))[:2]
        c = draw(small)
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # E·A, then ·E^-1
        for row in a:
            row[j] -= c * row[i]
    square = _mul(a, a)
    operators = []
    for _ in range(draw(st.integers(1, 3))):
        c0, c1, c2 = draw(small), draw(small), draw(small)
        operators.append([[c0 * (i == j) + c1 * a[i][j] + c2 * square[i][j]
                           for j in range(h)] for i in range(h)])
    if modulus is None:
        bounds = [max(sum(abs(x) for x in row) for row in op) for op in operators]
        choices = [range(-b, b + 1) for b in bounds]
    else:
        q = modulus[0] ** modulus[1]
        choices = [(draw(st.integers(0, q - 1)) + q * draw(small),)
                   if draw(st.booleans()) else range(q) for _ in operators]
    entries = st.lists(st.integers(-3, 3), min_size=h, max_size=h)
    start = draw(st.sampled_from(["identity", "line", "scaled line", "span"]))
    if start == "identity":
        basis = [tuple(int(i == j) for i in range(h)) for j in range(h)]
    elif start == "span":
        basis = [tuple(v) for v in draw(st.lists(entries, min_size=2, max_size=3))]
    else:
        v = draw(entries)
        scale = modulus[0] if start == "scaled line" and modulus else 1
        basis = [tuple(scale * x for x in v)]
    return operators, choices, basis


_MODULI = [None, (2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]


@functools.lru_cache(maxsize=None)
def _vertex_search(disc):
    """The class set of disc at p = 5 and the sample of `select_vertex_system`
    at the default bound 20: p, then the primes up to 20 prime to 5·disc."""
    classes = class_set_avoiding(eichler_order_for(disc, 1), 5)
    return classes, [5, *good_primes(20, 5 * disc)]


class TestJointEigenspaces:
    @pytest.mark.parametrize("modulus", _MODULI)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_leaves_match_the_exhaustive_search(self, modulus, data):
        operators, choices, basis = data.draw(_commuting_search(modulus))
        got = brandtforms.joint_eigenspaces(operators, choices, basis, modulus)
        assert got == joint_eigenspaces_oracle(operators, choices, basis, modulus)

    @pytest.mark.parametrize("modulus", [(2, 2), (3, 1), (5, 2)])
    def test_a_line_without_unit_coordinate_has_no_leaf(self, modulus):
        p, n = modulus
        operators = [[[1, 1], [0, 1]], [[2, 0], [0, 2]]]
        choices = [range(p ** n), (2 + p ** n,)]
        assert brandtforms.joint_eigenspaces(operators, choices, [(p, 0)], modulus) == []
        assert joint_eigenspaces_oracle(operators, choices, [(p, 0)], modulus) == []
        leaves = brandtforms.joint_eigenspaces(operators, choices, [(1, 0)], modulus)
        assert [assignment for assignment, _ in leaves] == [(1, 2 + p ** n)]

    @pytest.mark.parametrize("disc", [23, 37, 89, 101, 113])
    def test_rational_systems_match_the_exhaustive_search(self, disc, monkeypatch):
        classes, sample = _vertex_search(disc)
        got = rational_eigensystems(classes, sample)
        monkeypatch.setattr(brandtforms, "joint_eigenspaces", joint_eigenspaces_oracle)
        assert got == rational_eigensystems(classes, sample)
        assert len(got) == {23: 1, 37: 3, 89: 3, 101: 2, 113: 2}[disc]

    @pytest.mark.parametrize("disc, cuts", [(101, 23), (37, 31)])
    def test_lines_are_cut_once(self, disc, cuts, monkeypatch):
        # every candidate of every operator cut: 355 cuts at disc 101 and 529
        # at disc 37; a line reached is cut at the one value it carries
        classes, sample = _vertex_search(disc)
        calls = []
        honest = brandtforms.eigenspace_cut

        def counted(*args):
            calls.append(args[1])
            return honest(*args)
        monkeypatch.setattr(brandtforms, "eigenspace_cut", counted)
        rational_eigensystems(classes, sample)
        assert len(calls) == cuts

def _incidence(graph):
    """(m_s, m_t, ends) read off the walk's representatives: m_s[v][c] counts
    the tree edges out of rep(v) in edge class c, m_t[v][c] those into
    rep(v), and ends[c] is [source class, target class] of rep(c)."""
    graph.ensure_walk()
    h, e = graph.vertex_count(), graph.edge_count()
    m_s, m_t = [[0] * e for _ in range(h)], [[0] * e for _ in range(h)]
    for v in range(h):
        for edge in edges_from(graph.vertex_reps[v]):
            m_s[v][graph.classify_edge(edge)] += 1
            m_t[v][graph.classify_edge(edge.reverse())] += 1
    ends = [[graph.classify_vertex(graph.edge_reps[c].source),
             graph.classify_vertex(graph.edge_reps[c].target)] for c in range(e)]
    return m_s, m_t, ends


def _pullback(h, classes):
    """E x V matrix of the pullback along an edge's source or target class:
    row e is the unit vector of classes[e]."""
    return [[int(c == v) for v in range(h)] for c in classes]


class TestDegeneracy:
    def test_trace_pullback_composition(self, graph11_p2):
        # each trace after its pullback is (p + 1)·I
        h = graph11_p2.vertex_count()
        m_s, m_t, ends = _incidence(graph11_p2)
        comp = _mul(m_s, _pullback(h, [s for s, _ in ends]))
        assert comp == [[3 if i == j else 0 for j in range(h)] for i in range(h)]
        comp_t = _mul(m_t, _pullback(h, [t for _, t in ends]))
        assert comp_t == [[3 if i == j else 0 for j in range(h)] for i in range(h)]

    def test_pullback_stays_eigen(self, graph11_p2):
        # alpha^* of a T_3 eigenform is still a T_3 eigenform at the new level
        vec = (-2, 3)
        pulled = tuple(vec[s] for s, _ in _incidence(graph11_p2)[2])
        t3_edge = neighbor_matrix(graph11_p2.edge_classes, 3)
        image = tuple(sum(t3_edge[i][j] * pulled[j] for j in range(len(pulled)))
                      for i in range(len(pulled)))
        assert image == tuple(curve_a_ell(3) * x for x in pulled)


class TestSerialization:
    def test_round_trip(self):
        sys_ = EigenSystem(5, 2, {2: 3, 3: 24}, {11: 1, 5: 21}, "external fixture")
        text = sys_.to_json()
        back = EigenSystem.from_json(text)
        assert back.a == sys_.a and back.u == sys_.u
        assert '"eps"' in text and '"a"' in text


class TestDoubledGraph:
    def test_bipartite_and_degree_zero_cycles(self, graph11_p2, graph11_p5):
        for g in (graph11_p2, graph11_p5):
            doubled = mk_dual_graph(g)
            cycles = character_group(doubled)  # checks the Betti count
            assert doubled.n_vertices == 2 * g.vertex_count()
            assert len(doubled.edges) == g.edge_count()
            # every edge joins an even-indexed vertex to an odd-indexed one
            for s, t, _ in doubled.edges:
                assert s % 2 == 0 and t % 2 == 1
            for vec in cycles.basis:
                assert sum(vec) == 0  # cycles live in the degree-zero lattice

    def test_component_group_computable(self, graph11_p5):
        from quatlfun.compgraph import component_group
        doubled = mk_dual_graph(graph11_p5)
        if doubled.is_connected():
            component_group(doubled)  # must not raise


# (disc, p, level) cases whose quotient data is pinned in golden/quotient.json
QUOTIENT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "quotient.json")
QUOTIENT_CASES = [(11, 2, 1), (11, 3, 1), (11, 5, 1), (2, 3, 1), (23, 5, 1),
                  (13, 5, 2), (7, 5, 3)]


def quotient_data(graph):
    """Everything the consumers read off the walk; all of it is defined on
    classes, so it does not depend on which tree cell represents a class."""
    m_s, m_t, ends = _incidence(graph)
    return {
        "tp": graph.tp_matrix(),
        "up": graph.up_matrix(),
        "incidence_source": m_s,
        "incidence_target": m_t,
        "dual_edges": [list(e) for e in mk_dual_graph(graph).edges],
        "source_target": ends,
    }


@pytest.mark.parametrize("disc,p,level", QUOTIENT_CASES)
def test_quotient_matches_golden(disc, p, level):
    with open(QUOTIENT_GOLDEN) as fh:
        want = json.load(fh)[f"{disc}-{p}-{level}"]
    graph = QuotientGraph(eichler_order_for(disc, level), p)
    assert quotient_data(graph) == want


@pytest.mark.parametrize("disc,p,level", [(47, 5, 1), (71, 5, 1), (89, 5, 1),
                                          (11, 7, 1), (13, 5, 2), (7, 5, 3)])
def test_transport_sweep(disc, p, level):
    graph = QuotientGraph(eichler_order_for(disc, level), p)
    graph.ensure_walk()
    h = graph.vertex_count()
    # the walk expands one tree vertex per (class, parity) state
    assert len(graph._vertex_memo) <= 2 * h * (p + 1) + 1
    assert len(graph._edge_memo) <= 2 * h * (p + 1)
    tp = graph.tp_matrix()
    assert tp == graph.brandt_matrix(p)
    m_s, _, ends = _incidence(graph)
    assert tp == _mul(m_s, _pullback(h, [t for _, t in ends]))
    assert all(sum(row) == p for row in graph.up_matrix())
    cycles = character_group(mk_dual_graph(graph))  # checks the Betti count
    assert all(sum(vec) == 0 for vec in cycles.basis)


# ---------------------------------------------------------------------------
# Path transport against the ideal route
# ---------------------------------------------------------------------------

# (N-, p, m, K): W1, then the three lfun-tower configurations of perfbench
TOWERS = [(11, 5, 2, -3), (11, 5, 4, -3), (17, 5, 3, -3), (11, 3, 4, -4)]


@pytest.fixture(scope="module")
def w1_base():
    return _torus_quotient(11, 1, 5, -3)[1].base_order


def _element_of_norm(order, n):
    """(vec, den): the first element of the order with reduced norm n."""
    lat = order.lattice
    target = 2 * lat.den ** 2 * n
    for value, c in enumerate_by_value(order.alg.norm_gram(lat), target):
        if value == target:
            return tuple(sum(ci * r[k] for ci, r in zip(c, lat.rows))
                         for k in range(4)), lat.den
    raise AssertionError(f"no element of norm {n}")


class TestPathTransport:
    """The path route against the ideal route, which runs on any cell."""

    @pytest.mark.parametrize("n_minus,p,m,disc_k", TOWERS)
    def test_orbit_tables_match_the_ideal_route(self, n_minus, p, m, disc_k):
        embedding, graph = _torus_quotient(n_minus, 1, p, disc_k)
        torus = build_torus(disc_k, embedding, graph)
        table, ray = edge_orbit_table(torus, graph, m)
        u1 = torus.generator_pair()
        checked, wrong = 0, []
        for s in range(torus.torsion_order):
            for j, edge in enumerate(ray):
                pair = torus.pair_power(torus.torsion_pair, s)
                for t in range(p ** j):
                    if graph._edge_class_by_ideal(torus.act_edge(pair, edge)) \
                            != table[(s, t, j)]:
                        wrong.append((s, t, j))
                    checked += 1
                    pair = torus.pair_mul(pair, u1)
        assert checked == len(table) and wrong == []
        # a step witness belongs to a neighbour of a state representative
        h = graph.vertex_count()
        assert len(graph._steps) <= 2 * h * (p + 1)

    def test_vertices_and_edges_match_the_ideal_route(self, w1_base):
        graph = QuotientGraph(w1_base, 5)
        rng = random.Random(12)
        cells = [v for layer in ball(5, 3) for v in layer]
        for _ in range(30):
            a = rng.randrange(9)
            d = rng.randrange(9 - a)
            b = rng.randrange(5 ** a) if a else 0
            if a and d and b % 5 == 0:
                b += 1
            cells.append(TreeVertex(5, a, b, d))
        for v in cells:
            assert graph.classify_vertex(v) == graph._vertex_class_by_ideal(v)
            e = TreeEdge(v, rng.choice(neighbors(v)))
            assert graph.classify_edge(e) == graph._edge_class_by_ideal(e)

    def test_each_witness_is_derived_once(self, w1_base, monkeypatch):
        calls = []
        real = brandtforms.isometry_witness

        def counted(i1, i2):
            calls.append(1)
            return real(i1, i2)
        monkeypatch.setattr(brandtforms, "isometry_witness", counted)
        graph = QuotientGraph(w1_base, 5)
        for v in ball(5, 4)[4]:
            graph.classify_vertex(v)
            graph.classify_vertex(v)
        assert 0 < len(calls) == len(graph._steps) <= 2 * graph.vertex_count() * 6

    @pytest.mark.parametrize("corruption,message", [
        ("outside the order", "does not lie in the order"),
        ("norm not a power of p", "reduced norm is not a power of p"),
        ("wrong tree action", "does not carry the representative"),
    ])
    def test_corrupted_witness_is_refused(self, w1_base, monkeypatch,
                                          corruption, message):
        alg = w1_base.alg
        real = brandtforms.isometry_witness
        pi_vec, pi_den = _element_of_norm(w1_base, 5)

        def corrupted(i1, i2):
            vec, den = real(i1, i2)
            if corruption == "outside the order":
                return vec, 7 * den  # nrd(x) = 5^k, so x is not in 7·O
            if corruption == "norm not a power of p":
                return tuple(2 * c for c in vec), den
            # x·pi: in the order with norm 5^(k+1), but it moves parity
            return alg.mul(vec, pi_vec), den * pi_den
        graph = QuotientGraph(w1_base, 5)
        graph.ensure_walk()
        monkeypatch.setattr(brandtforms, "isometry_witness", corrupted)
        with pytest.raises(InvariantViolationError,
                           match=r"from state \(\d+, [01]\) to state \(\d+, [01]\)"
                                 r".*" + message):
            graph.classify_vertex(TreeVertex(5, 6, 1, 0))

    def test_path_beyond_the_precision_is_refused(self, w1_base):
        low = QuotientGraph(w1_base, 5, prec=8)
        with pytest.raises(InvariantViolationError, match="precision too low"):
            low.classify_vertex(TreeVertex(5, 8, 1, 0))
        with pytest.raises(InvariantViolationError, match="precision too low"):
            low.classify_edge(TreeEdge(TreeVertex(5, 8, 1, 0), TreeVertex(5, 9, 1, 0)))
        # within reach, the low-precision graph gives the ideal route's class
        for v in (TreeVertex(5, 4, 1, 0), TreeVertex(5, 2, 3, 3)):
            assert low.classify_vertex(v) == low._vertex_class_by_ideal(v)


# ---------------------------------------------------------------------------
# Cell ideals: written down from local generators, built once per vertex
# ---------------------------------------------------------------------------

class TestCellIdeals:
    def test_cell_ideals_match_the_condition_kernel(self):
        # every vertex and edge within radius 2 of the root, against the
        # kernel of the containment conditions mod p^k
        start = time.process_time()
        for p in (5, 3):
            for disc in (2, 11, 37, 47, 61):
                graph = QuotientGraph(maximal_order(algebra_from_discriminant(disc)), p)
                for v in (v for layer in ball(p, 2) for v in layer):
                    assert graph._vertex_ideal(v).lattice == cell_ideal_oracle(graph, v)
                    for e in edges_from(v):
                        assert graph._edge_ideal(e).lattice == cell_ideal_oracle(graph, e)
        assert time.process_time() - start < 3

    def test_each_vertex_ideal_is_built_once(self, monkeypatch):
        # the walk builds its cells' ideals; the step witnesses, the
        # regularity check and an orbit table read them and build none
        builds = []
        real = QuotientGraph._cell_ideal

        def counted(graph, first, second, k, order, norm_exponent):
            builds.append(first if order is graph.base_order else None)
            return real(graph, first, second, k, order, norm_exponent)
        monkeypatch.setattr(QuotientGraph, "_cell_ideal", counted)
        embedding, graph = _torus_quotient(11, 1, 5, -3)
        graph.ensure_walk()
        walked = len(builds)
        graph.verify_regularity()
        edge_orbit_table(build_torus(-3, embedding, graph), graph, 2)
        assert graph._steps and len(builds) == walked
        vertex_builds = Counter(first for first in builds if first is not None)
        assert set(vertex_builds.values()) == {1}
        assert len(vertex_builds) == len(graph._vertex_ideals) \
            <= 2 * graph.vertex_count() * 6 + 1

    def test_splitting_inverse_is_certified(self):
        graph = QuotientGraph(maximal_order(algebra_from_discriminant(11)), 5)
        spl = graph.splitting
        singular = spl.basis_images[:3] + (spl.basis_images[0],)
        with pytest.raises(InvariantViolationError, match="splitting at 5 .* not a p-unit"):
            brandtforms._iota_inverse(dataclasses.replace(spl, basis_images=singular))
