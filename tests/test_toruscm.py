import pytest

from quatlfun.brandtforms import QuotientGraph
from quatlfun.errors import (InvariantViolationError,
                              UnsupportedConfigurationError, UsageError)
from quatlfun.quatarith import (algebra_from_discriminant, ideal_class_set,
                                maximal_order)
from quatlfun.quatarith.embedding import embedding_with_base
from quatlfun.toruscm import (_verify_table, build_torus, edge_orbit_table,
                              level_group)

from oracles import (deserialize_table, edge_orbit_table_oracle,
                     kronecker_oracle, orbit_size, project_to,
                     serialize_table, standard_edge_sequence)


@pytest.fixture(scope="module")
def torus_setup():
    order = maximal_order(algebra_from_discriminant(11))
    cs = ideal_class_set(order, 2)
    base, emb = embedding_with_base(cs, -3, 1)
    graph = QuotientGraph(base, 5)
    torus = build_torus(-3, emb, graph)
    return graph, torus


class TestBuildTorus:
    def test_inert_case_builds(self, torus_setup):
        from quatlfun.bttree import root_vertex
        graph, torus = torus_setup
        assert kronecker_oracle(-3, 5) == -1  # oracle agrees p is inert
        assert torus.fixed_vertex == root_vertex(5)

    def test_fixed_vertex_is_fixed(self, torus_setup):
        _, torus = torus_setup
        for pair in ((1, 1), (2, 1), (1, 5), (0, 1)):
            assert torus.act_vertex(pair, torus.fixed_vertex) == torus.fixed_vertex

    def test_scalar_pairs_act_trivially(self, torus_setup):
        graph, torus = torus_setup
        from quatlfun import bttree
        sample = [v for layer in bttree.ball(5, 2) for v in layer][:8]
        for v in sample:
            assert torus.act_vertex((3, 0), v) == v

    def test_split_case_rejected(self):
        # (-4 | 5) = +1: 5 splits in Q(i), mirroring the rejection example
        assert kronecker_oracle(-4, 5) == 1
        order = maximal_order(algebra_from_discriminant(2))
        cs = ideal_class_set(order, 3)
        base, emb = embedding_with_base(cs, -4, 1)
        graph = QuotientGraph(base, 5)
        with pytest.raises(UnsupportedConfigurationError):
            build_torus(-4, emb, graph)

    def test_torsion_data(self, torus_setup):
        _, torus = torus_setup
        assert torus.torsion_order == 2  # (p+1)/|image of mu_K| = 6/3
        full = torus.pair_power(torus.torsion_pair, 6)
        assert full[1] % 5 ** (torus.prec - 2) == 0  # tau^6 is scalar


class TestLevelGroups:
    def test_orders(self, torus_setup):
        _, torus = torus_setup
        assert level_group(torus, 0).order == 1
        assert level_group(torus, 1).order == 5
        assert level_group(torus, 2).order == 25

    def test_compatible_projections(self, torus_setup):
        _, torus = torus_setup
        h2 = level_group(torus, 2)
        h1 = level_group(torus, 1)
        for t in range(h2.order):
            down = project_to(h2, h1, t)
            assert down == t % 5
        # surjective on generators
        assert {project_to(h2, h1, t) for t in range(h2.order)} == set(range(5))

    def test_negative_level_rejected(self, torus_setup):
        _, torus = torus_setup
        with pytest.raises(UsageError):
            level_group(torus, -1)


class TestEdgeRay:
    def test_consecutive_and_geodesic(self, torus_setup):
        from quatlfun.bttree import distance
        _, torus = torus_setup
        ray = torus.edge_ray(4)
        for i in range(3):
            assert ray[i + 1].source == ray[i].target
        # sources form a geodesic: pairwise distances |i - j|
        for i in range(4):
            for j in range(4):
                assert distance(ray[i].source, ray[j].source) == abs(i - j)

    def test_source_is_fixed_vertex(self, torus_setup):
        _, torus = torus_setup
        assert torus.edge_ray(1)[0].source == torus.fixed_vertex

    def test_stabilizers_exact(self, torus_setup):
        _, torus = torus_setup
        h2 = level_group(torus, 2)
        ray = torus.edge_ray(3)
        for j in range(3):
            fixers = [t for t in range(h2.order)
                      if torus.act_edge(h2.pair_of(t), ray[j]) == ray[j]]
            assert len(fixers) == 25 // 5 ** j
            assert all(t % 5 ** j == 0 for t in fixers)

    def test_orbit_sizes(self, torus_setup):
        _, torus = torus_setup
        h2 = level_group(torus, 2)
        ray = torus.edge_ray(3)
        assert [orbit_size(torus, h2, ray[j]) for j in range(3)] == [1, 5, 25]

    def test_tie_breaks_differ_but_are_rays(self, torus_setup):
        _, torus = torus_setup
        a = torus.edge_ray(2, tie_break="lex_min")
        b = torus.edge_ray(2, tie_break="lex_max")
        assert a[0] != b[0]
        with pytest.raises(UsageError):
            torus.edge_ray(2, tie_break="random")


class TestOrbitTable:
    def test_identity_row(self, torus_setup):
        graph, torus = torus_setup
        table, ray = edge_orbit_table(torus, graph, 1)
        for j in range(2):
            assert table[(0, 0, j)] == graph.classify_edge(ray[j])

    def test_translation_consistency(self, torus_setup):
        graph, torus = torus_setup
        table, ray = edge_orbit_table(torus, graph, 1)
        h1 = level_group(torus, 1)
        for t1 in range(5):
            for t2 in range(5):
                moved = torus.act_edge(h1.pair_of(t2), ray[1])
                both = torus.act_edge(h1.pair_of(t1), moved)
                assert graph.classify_edge(both) == table[(0, (t1 + t2) % 5, 1)]

    def test_abelian(self, torus_setup):
        _, torus = torus_setup
        a, b = (3, 5), (2, 10)
        assert torus.pair_mul(a, b) == torus.pair_mul(b, a)

    def test_stabilizer_certificate_covers_the_top_level(self, torus_setup):
        # e_2 in place of e_1 at level 1: u1^5 moves it, so the table's
        # keys t mod 5 would be wrong; the certificate must catch it
        graph, torus = torus_setup
        ray = torus.edge_ray(3)
        bad_ray = [ray[0], ray[2]]
        table = {(0, 0, j): graph.classify_edge(e) for j, e in enumerate(bad_ray)}
        with pytest.raises(InvariantViolationError, match="stabilizer"):
            _verify_table(torus, graph, level_group(torus, 1), bad_ray, table)

    def test_serialization_round_trip(self, torus_setup):
        graph, torus = torus_setup
        table, ray = edge_orbit_table(torus, graph, 1)
        text = serialize_table(table, ray)
        back, ray_data = deserialize_table(text)
        assert back == table
        assert len(ray_data) == len(ray)


class TestStandardEdgeSequence:
    def test_matches_ray(self, torus_setup):
        _, torus = torus_setup
        ray = torus.edge_ray(3)
        for j in range(3):
            assert standard_edge_sequence(j, torus) == ray[j]

    def test_base_case_source(self, torus_setup):
        _, torus = torus_setup
        assert standard_edge_sequence(0, torus).source == torus.fixed_vertex

    def test_negative_index_rejected(self, torus_setup):
        _, torus = torus_setup
        with pytest.raises(UsageError):
            standard_edge_sequence(-1, torus)


def _assert_table_matches_oracle(graph, torus, m_max):
    p = torus.p
    table, ray = edge_orbit_table(torus, graph, m_max)
    assert set(table) == {(s, t, j) for s in range(torus.torsion_order)
                          for j in range(m_max + 1) for t in range(p ** j)}
    for m in range(m_max + 1):
        want, want_ray = edge_orbit_table_oracle(torus, graph, m)
        assert want_ray == ray[:m + 1]
        for (s, t, j), cls in want.items():
            assert table[(s, t % p ** j, j)] == cls, (m, s, t, j)


class TestCompressedTable:
    """One table at m_max, read at t mod p^j, against a table per level."""

    def test_w1(self, torus_setup):
        graph, torus = torus_setup
        _assert_table_matches_oracle(graph, torus, 2)

    def test_lfun_tower_p3(self):
        # lfun-tower's (N-, p, m, K) = (11, 3, 4, -4) configuration
        from quatlfun.pipeline import _torus_quotient
        emb, graph = _torus_quotient(11, 1, 3, -4)
        _assert_table_matches_oracle(graph, build_torus(-4, emb, graph), 4)


@pytest.mark.parametrize("disc, p, m, disc_k", [(11, 5, 4, -3), (11, 3, 4, -4)])
def test_orbit_table_takes_at_most_two_canonical_forms_an_entry(monkeypatch, disc, p,
                                                                m, disc_k):
    # lfun-tower's towers: built down the ray, an entry costs one canonical
    # form, and one more below the deepest level for its target (about 3.4
    # when every entry moved both ends and classified the edge afresh)
    from quatlfun import bttree
    from quatlfun.pipeline import _torus_quotient
    emb, graph = _torus_quotient(disc, 1, p, disc_k)
    graph.ensure_walk()  # as in the pipeline, whose U_p walks the graph first
    torus = build_torus(disc_k, emb, graph)
    calls = []
    real = bttree.canonical_vertex
    monkeypatch.setattr(bttree, "canonical_vertex",
                        lambda *args: calls.append(args) or real(*args))
    table, ray = edge_orbit_table(torus, graph, m)
    monkeypatch.undo()
    assert len(calls) <= 2 * len(table)
    # against the per-level oracle on a fresh graph, whose paths the table
    # has not touched
    emb, graph = _torus_quotient(disc, 1, p, disc_k)
    torus = build_torus(disc_k, emb, graph)
    want, want_ray = edge_orbit_table_oracle(torus, graph, m)
    assert want_ray == ray
    assert all(table[(s, t % p ** j, j)] == cls for (s, t, j), cls in want.items())


class TestClassifyMovedEdge:
    def test_target_off_the_source_is_refused(self, torus_setup):
        # the fused image of a target two steps from the source leaves the
        # neighbours of the state representative: the path step's check
        from quatlfun import bttree
        graph, torus = torus_setup
        root = torus.fixed_vertex
        far = bttree.forward_edges(bttree.edges_from(root)[0])[0].target
        with pytest.raises(InvariantViolationError, match="left the neighbours"):
            graph.classify_moved_edge(root, torus.unit_matrix(1, 0), far)

    def test_moved_must_be_a_child_of_the_source(self, torus_setup):
        from quatlfun import bttree
        graph, torus = torus_setup
        root = torus.fixed_vertex
        edge = bttree.edges_from(root)[0]
        grandchild = bttree.forward_edges(edge)[0].target
        with pytest.raises(UsageError, match="not a child"):
            graph.classify_moved_edge(root, torus.unit_matrix(1, 0), edge.target,
                                      grandchild)
