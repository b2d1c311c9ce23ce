import json
import math
import os
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlfun.cli import main
from quatlfun.compgraph import (LengthGraph, _check_positive_definite,
                                boundary_matrix, character_group,
                                coboundary_matrix, component_group,
                                edixhoven_check, intersection_matrix,
                                monodromy_map, omega_functional, omega_map,
                                subdivide)
from quatlfun.errors import UsageError
from quatlfun.exactalg import IntMatrix, det
from quatlfun.primes import prime_factors

from oracles import (_inverse_oracle, inner_product_oracle, kirchhoff_order_oracle,
                     rank_mod_p_oracle, snf_diagonal_oracle,
                     spanning_tree_weight_sum)


def two_cycle(a, b):
    return LengthGraph.make(2, [(0, 1, a), (1, 0, b)])


def theta_graph(l1=1, l2=1, l3=1):
    return LengthGraph.make(2, [(0, 1, l1), (1, 0, l2), (0, 1, l3)])


def random_connected_graph(rng, max_v=5, max_extra=4, max_len=4):
    n = rng.randint(2, max_v)
    edges = []
    for v in range(1, n):  # spanning tree first
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_len)))
    for _ in range(rng.randint(1, max_extra)):
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            edges.append((s, t, rng.randint(1, max_len)))
    return LengthGraph.make(n, edges)


class TestBoundaryCoboundary:
    def test_single_edge(self):
        g = LengthGraph.make(2, [(0, 1, 1)])
        assert boundary_matrix(g).mul_vec((1,)) == (-1, 1)

    def test_cycle_chain_closed(self):
        g = two_cycle(1, 1)
        assert boundary_matrix(g).mul_vec((1, 1)) == (0, 0)

    def test_adjointness_random(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_connected_graph(rng)
            ne = len(g.non_loop_edges())
            x = [rng.randint(-3, 3) for _ in range(ne)]
            y = [rng.randint(-3, 3) for _ in range(g.n_vertices)]
            lhs = inner_product_oracle(boundary_matrix(g).mul_vec(x), y)
            rhs = inner_product_oracle(x, coboundary_matrix(g).mul_vec(y))
            assert lhs == rhs


class TestCharacterGroup:
    def test_tree_has_no_cycles(self):
        g = LengthGraph.make(3, [(0, 1, 1), (1, 2, 1)])
        assert character_group(g).rank == 0

    def test_two_cycle_generator(self):
        cg = character_group(two_cycle(1, 1))
        assert cg.rank == 1
        assert cg.basis[0] in ((1, 1), (-1, -1))

    def test_betti_oracle_random(self):
        rng = random.Random(2)
        for _ in range(25):
            g = random_connected_graph(rng)
            cg = character_group(g)
            assert cg.rank == len(g.non_loop_edges()) - g.n_vertices + 1

    def test_loops_dropped(self):
        g = LengthGraph.make(2, [(0, 1, 1), (1, 0, 1), (0, 0, 3)])
        assert character_group(g).rank == 1


class TestMonodromy:
    def test_two_cycle_lengths(self):
        g = two_cycle(2, 5)
        gram = monodromy_map(g, character_group(g))
        assert gram.entries == ((7,),)

    def test_theta_unit_lengths(self):
        g = theta_graph()
        gram = monodromy_map(g, character_group(g))
        assert det(gram) == 3  # invariant of the basis choice
        assert gram.entries[0][0] == 2  # each basis cycle has two unit edges

    def test_positive_definite_random(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_connected_graph(rng)
            cg = character_group(g)
            gram = monodromy_map(g, cg)
            for k in range(1, cg.rank + 1):
                sub = IntMatrix.from_rows([row[:k] for row in gram.entries[:k]])
                assert det(sub) > 0


    def test_positive_determinant_with_a_negative_minor_refused(self):
        # leading minors 2, 0, -2, 16: the determinant is positive, the form
        # is not positive definite
        gram = IntMatrix.from_rows([[2, 2, 2, 2], [2, 2, 1, 0], [2, 1, -1, 1], [2, 0, 1, 2]])
        assert [det(IntMatrix.from_rows([row[:k] for row in gram.entries[:k]]))
                for k in range(1, 5)] == [2, 0, -2, 16]
        with pytest.raises(UsageError, match="fails positive definiteness"):
            _check_positive_definite(gram)


class TestComponentGroup:
    def test_two_cycle_unit(self):
        phi = component_group(two_cycle(1, 1))
        assert phi.shape.invariant_factors == (2,)

    def test_two_cycle_2_3(self):
        phi = component_group(two_cycle(2, 3))
        assert phi.shape.invariant_factors == (5,)

    def test_tree_trivial(self):
        phi = component_group(LengthGraph.make(4, [(0, 1, 2), (1, 2, 1), (1, 3, 5)]))
        assert phi.order == 1

    def test_matrix_tree_identity(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_connected_graph(rng)
            loopless = [e for e in g.edges if e[0] != e[1]]
            expect = spanning_tree_weight_sum(g.n_vertices, loopless)
            phi = component_group(g)
            assert phi.order == expect

    def test_disconnected_per_component(self):
        g = LengthGraph.make(4, [(0, 1, 1), (1, 0, 1), (2, 3, 2), (3, 2, 3)])
        parts = component_group(g)
        assert isinstance(parts, tuple) and len(parts) == 2
        assert parts[0].shape.invariant_factors == (2,)
        assert parts[1].shape.invariant_factors == (5,)


class TestOmega:
    def test_two_cycle_unit_nonzero(self):
        g = two_cycle(1, 1)
        phi = component_group(g)
        cls = omega_map(g, phi, (-1, 1))
        assert cls == (1,)

    def test_zero_chain(self):
        g = two_cycle(2, 3)
        phi = component_group(g)
        assert omega_map(g, phi, (0, 0)) == (0,)

    def test_two_cycle_2_3(self):
        g = two_cycle(2, 3)
        phi = component_group(g)
        cls = omega_map(g, phi, (-1, 1))
        assert cls == (2,)

    def test_well_defined_two_preimages(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected_graph(rng)
            phi = component_group(g)
            cycles = character_group(g)
            n = g.n_vertices
            chain = [0] * n
            if n >= 2:
                a, b = rng.sample(range(n), 2)
                c = rng.randint(1, 3)
                chain[a] += c
                chain[b] -= c
            fn, y = omega_functional(g, tuple(chain), cycles)
            if cycles.rank:
                # perturb the preimage by a cycle and compare classes
                cyc = cycles.basis[rng.randrange(cycles.rank)]
                y2 = tuple(u + v for u, v in zip(y, cyc))
                lens = [e[2] for _, e in g.non_loop_edges()]
                fn2 = tuple(sum(l * a2 * b2 for l, a2, b2 in zip(lens, y2, bas))
                            for bas in cycles.basis)
                assert phi.class_of(fn) == phi.class_of(fn2)

    def test_degree_gate(self):
        g = two_cycle(1, 1)
        phi = component_group(g)
        with pytest.raises(UsageError):
            omega_map(g, phi, (1, 1))

    def test_surjective_on_small_cases(self):
        for a, b in [(1, 1), (2, 3), (1, 4)]:
            g = two_cycle(a, b)
            phi = component_group(g)
            seen = set()
            for c in range(a + b):
                seen.add(omega_map(g, phi, (-c, c)))
            assert len(seen) == a + b


class TestSpecializeDivisor:
    """`compgroup --divisor` specializes a divisor whose points reduce to
    vertices: the degree-zero vertex chain goes to Phi by omega_map."""

    @staticmethod
    def run(tmp_path, capsys, chain):
        fixture = tmp_path / "cyc.json"
        fixture.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 1], [1, 0, 1]]}))
        code = main(["compgroup", "--graph", str(fixture), f"--divisor={chain}"])
        out = capsys.readouterr().out
        return code, json.loads(out.splitlines()[-1]) if code == 0 else None

    def test_same_vertex_cancels(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "0,0") == (0, {
            "rank": 1, "phi": ["Z/2"], "edixhoven": True, "omega": [[0]]})

    def test_separating_divisor(self, tmp_path, capsys):
        code, data = self.run(tmp_path, capsys, "-1,1")
        assert (code, data["omega"]) == (0, [[1]])

    def test_nonzero_degree_rejected(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "2,-1") == (2, None)


class TestEdixhoven:
    def test_two_cycle_unit(self):
        rep = edixhoven_check(two_cycle(1, 1))
        assert rep.ok
        assert rep.shape_from_monodromy.invariant_factors == (2,)

    def test_theta(self):
        rep = edixhoven_check(theta_graph())
        assert rep.ok
        assert rep.shape_from_monodromy.invariant_factors == (3,)

    def test_tree(self):
        rep = edixhoven_check(LengthGraph.make(3, [(0, 1, 1), (1, 2, 1)]))
        assert rep.ok
        assert rep.shape_from_monodromy.describe() == "0"

    def test_lengths_subdivide(self):
        # theta with lengths (1,2,3): spanning-tree oracle gives the order
        expect = spanning_tree_weight_sum(2, [(0, 1, 1), (1, 0, 2), (0, 1, 3)])
        assert expect == 11
        rep = edixhoven_check(theta_graph(1, 2, 3))
        assert rep.ok
        assert rep.shape_from_monodromy.order == 11

    def test_random_agreement(self):
        rng = random.Random(6)
        for _ in range(12):
            rep = edixhoven_check(random_connected_graph(rng, max_v=4, max_extra=3))
            assert rep.ok


class TestSerialization:
    def test_round_trip(self):
        text = json.dumps({"vertices": 2, "edges": [[0, 1, 1], [1, 0, 2], [0, 1, 3]]})
        assert LengthGraph.from_json(text) == theta_graph(1, 2, 3)

    def test_subdivide_counts(self):
        g = two_cycle(2, 3)
        sub = subdivide(g)
        assert sub.n_vertices == 2 + 1 + 2
        assert len(sub.edges) == 5
        assert intersection_matrix(sub).rows == 5


# Component-group data of the p = 5 dual graphs of discs 29, 37 and 47
# (mk_dual_graph of the quotient graph of the maximal order), pinned with
# class_of of omega_map on four degree-zero chains each.
COMPONENT_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                                "component_groups.json")


@pytest.mark.parametrize("disc", ["29", "37", "47"])
def test_component_group_matches_golden(disc):
    with open(COMPONENT_GOLDEN) as fh:
        want = json.load(fh)[disc]
    g = LengthGraph.from_json(json.dumps(want["graph"]))
    phi = component_group(g)
    assert list(phi.shape.invariant_factors) == want["invariant_factors"]
    assert phi.rank == want["cycle_rank"]
    for chain, cls in want["omega"]:
        assert list(omega_map(g, phi, chain)) == cls


def _count_reductions(monkeypatch):
    """Record every matrix given to the Smith form over Z, through every module binding."""
    import sys

    from quatlfun.exactalg import intmatrix
    original = intmatrix.smith_normal_form
    reduced = []

    def counting(M):
        reduced.append(M)
        return original(M)
    # every module binding, as the benchmark tracer patches them
    for name, mod in list(sys.modules.items()):
        if name.startswith("quatlfun") and getattr(mod, "smith_normal_form", None) is original:
            monkeypatch.setattr(mod, "smith_normal_form", counting)
    return reduced


GRAM_GRAPH = LengthGraph.make(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 0, 1), (0, 2, 2)])


def test_gram_never_reduced_over_z(monkeypatch):
    # the shape and the class_of coordinates both come from the local passes
    gram = monodromy_map(GRAM_GRAPH, character_group(GRAM_GRAPH))
    reduced = _count_reductions(monkeypatch)
    phi = component_group(GRAM_GRAPH)
    phi.class_of((1,) * phi.rank)
    assert reduced.count(gram) == 0


def test_graph_questions_run_no_z_elimination(monkeypatch):
    # d_* is totally unimodular: the cycle basis and the boundary preimage
    # are both read off the fraction-free pass
    reduced = _count_reductions(monkeypatch)
    phi = component_group(GRAM_GRAPH)
    omega_map(GRAM_GRAPH, phi, (1, 0, -1, 0))
    assert reduced == []


def test_omega_map_rejects_another_graphs_group():
    # the tree component leaves the cycle ranks equal, so nothing else fails
    g = LengthGraph.make(4, [(0, 1, 1), (1, 0, 2), (2, 3, 1)])
    first, _ = component_group(g)
    with pytest.raises(UsageError):
        omega_map(g, first, (1, -1, 0, 0))


@st.composite
def length_graphs(draw, max_v=6, max_extra=6, max_len=6):
    """Connected length graphs: a random spanning tree plus extra edges and loops."""
    n = draw(st.integers(1, max_v))
    edges = [(draw(st.integers(0, v - 1)), v, draw(st.integers(1, max_len)))
             for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.integers(1, max_len)), max_size=max_extra))
    return LengthGraph.make(n, edges)


@settings(max_examples=80, deadline=None)
@given(length_graphs())
def test_local_shape_matches_smith_oracle(g):
    phi = component_group(g)
    gram = monodromy_map(g, character_group(g))
    want = tuple(d for d in snf_diagonal_oracle(gram.entries) if d > 1)
    assert phi.shape.invariant_factors == want
    assert phi.order == kirchhoff_order_oracle(g.n_vertices, g.edges)


@settings(max_examples=80, deadline=None)
@given(length_graphs())
# long loops: a loop of length l must not subdivide into an l-cycle, which
# the intersection route would count
@example(LengthGraph.make(1, [(0, 0, 2)]))
@example(LengthGraph.make(2, [(0, 1, 1), (1, 0, 2), (1, 1, 3)]))
def test_comparison_diagram_agrees(g):
    assert edixhoven_check(g).ok


def _class_factors(phi):
    """d_1 | ... | d_k of the class_of coordinates: 1 at the trivial positions."""
    factors = phi.shape.invariant_factors
    return (1,) * (phi.rank - len(factors)) + factors


def _class_order(cls, factors):
    """Order of a class in the sum of the Z/d_i."""
    return math.lcm(*(d // math.gcd(c, d) for c, d in zip(cls, factors)))


def _denominator(gram_inverse, w):
    """lcm of the denominators of G^-1 w: the order of w in Z^k / G Z^k."""
    return math.lcm(*(sum(x * y for x, y in zip(row, w)).denominator
                      for row in gram_inverse))


@settings(max_examples=80, deadline=None)
@given(length_graphs(), st.data())
def test_class_of_is_the_cokernel_class(g, data):
    # basis-free: w1 and w2 share a class exactly when G^-1 (w1 - w2) is
    # integral, the class of w has the order of G^-1 w modulo Z^k, and
    # class_of is additive
    phi = component_group(g)
    k = phi.rank
    functionals = st.lists(st.integers(-60, 60), min_size=k, max_size=k).map(tuple)
    w1, w2 = data.draw(functionals), data.draw(functionals)
    c1, c2 = phi.class_of(w1), phi.class_of(w2)
    if not k:
        assert c1 == c2 == ()
        return
    inverse = _inverse_oracle(monodromy_map(g, phi.cycles).entries)
    factors = _class_factors(phi)
    diff = tuple(a - b for a, b in zip(w1, w2))
    assert (c1 == c2) == (_denominator(inverse, diff) == 1)
    assert _class_order(c1, factors) == _denominator(inverse, w1)
    total = phi.class_of(tuple(a + b for a, b in zip(w1, w2)))
    assert total == tuple((a + b) % d for a, b, d in zip(c1, c2, factors))


@contextmanager
def time_limit(seconds):
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Shapes of the p = 5 dual graphs of the maximal orders of discs 61, 71 and
# 89. A Z Smith form of their Gram matrices runs from seconds (61) to well
# over ten minutes (71); the local passes give the shape and the class of a
# divisor in well under a second, and the intersection route of
# `edixhoven_check` is as quick.
LARGE_DUAL_SHAPES = {61: (3, 3, 92574), 71: (25440660,), 89: (2, 2, 601171480)}


@pytest.mark.parametrize("disc", sorted(LARGE_DUAL_SHAPES))
def test_large_dual_graph_shapes(disc):
    from quatlfun.brandtforms import QuotientGraph, mk_dual_graph
    from quatlfun.quatarith import algebra_from_discriminant, maximal_order
    g = mk_dual_graph(QuotientGraph(maximal_order(algebra_from_discriminant(disc)), 5))
    chain = (1, -1) + (0,) * (g.n_vertices - 2)
    with time_limit(60):
        phi = component_group(g)
        # the intersection route reads the reduced Laplacian, not a Z Smith form
        assert edixhoven_check(g).ok
        cls = omega_map(g, phi, chain)
    assert phi.shape.invariant_factors == LARGE_DUAL_SHAPES[disc]
    gram = monodromy_map(g, phi.cycles).entries
    fn, _ = omega_functional(g, chain, phi.cycles)
    assert _class_order(cls, _class_factors(phi)) == _denominator(_inverse_oracle(gram), fn)
    order = kirchhoff_order_oracle(g.n_vertices, g.edges)
    assert phi.order == order
    for p in prime_factors(order):
        divisible = sum(1 for d in phi.shape.invariant_factors if d % p == 0)
        assert divisible == phi.rank - rank_mod_p_oracle(gram, p)
