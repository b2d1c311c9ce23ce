import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlfun.bttree import (TreeEdge, TreeVertex, act, ball, canonical_vertex,
                             distance, edges_from, forward_edges, neighbors,
                             parent, root_vertex)
from quatlfun.errors import UsageError

from oracles import act_oracle, canonical_vertex_oracle, distance_oracle


def _cleared(m):
    """The integer matrix lcm(denominators)·m: a homothety, so the same class."""
    den = math.lcm(*(Fraction(x).denominator for row in m for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in m)


class TestVertices:
    def test_root_canonical(self):
        v = root_vertex(5)
        assert (v.a, v.b, v.d) == (0, 0, 0)
        assert v.parity() == 0

    def test_canonical_idempotent(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            for _ in range(25):
                num = lambda: Fraction(rng.randint(-40, 40), rng.choice([1, 1, p, p * p, 3]))
                m = ((num(), num()), (num(), num()))
                try:
                    v = canonical_vertex(p, _cleared(m))
                except UsageError:
                    continue
                assert v == canonical_vertex_oracle(p, m)
                again = canonical_vertex(p, v.matrix())
                assert again == v

    def test_scaling_invariance(self):
        v = canonical_vertex(3, ((9, 1), (3, 6)))
        w = canonical_vertex_oracle(3, ((Fraction(9, 3), Fraction(1, 3)),
                                        (Fraction(3, 3), Fraction(6, 3))))
        assert v == w
        assert canonical_vertex(3, ((27, 3), (9, 18))) == v
        assert canonical_vertex(3, ((-63, -7), (-21, -42))) == v

    def test_fraction_entries_rejected(self):
        with pytest.raises(UsageError):
            canonical_vertex(3, ((Fraction(1, 3), 0), (0, 1)))
        with pytest.raises(UsageError):
            canonical_vertex(3, ((Fraction(3), 0), (0, 1)))
        with pytest.raises(UsageError):
            act(((Fraction(1, 2), 0), (0, 1)), root_vertex(5))


_BALLS = {p: [v for layer in ball(p, 3) for v in layer] for p in (2, 3, 5, 7)}


@st.composite
def _matrix_and_vertex(draw):
    p = draw(st.sampled_from(sorted(_BALLS)))
    bound = p ** 6
    entry = st.integers(-bound, bound)
    g = ((draw(entry), draw(entry)), (draw(entry), draw(entry)))
    v = draw(st.sampled_from(_BALLS[p]))
    w = draw(st.sampled_from(_BALLS[p]))
    return g, v, w


class TestOracleAgreement:
    """The integer tree against the Fraction tree of tests/oracles.py."""

    @settings(max_examples=400, deadline=None)
    @given(_matrix_and_vertex())
    def test_action_distance_and_classes_match(self, case):
        g, v, w = case
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
            with pytest.raises(UsageError):
                act(g, v)
        else:
            assert act(g, v) == act_oracle(g, v)
            assert canonical_vertex(v.p, g) == canonical_vertex_oracle(v.p, g)
        assert distance(v, w) == distance_oracle(v, w)


@st.composite
def _deep_matrix_and_vertex(draw):
    """g with entries 0 or ±p^k·u, 0 <= k <= 16 and u a unit below p^2, one in
    three of unit determinant (units on one diagonal, p times such entries off it),
    and a vertex at depth up to 32."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    unit = st.builds(lambda sign, u: sign * u, st.sampled_from((1, -1)),
                     st.integers(1, p * p).filter(lambda u: u % p))
    deep = st.builds(lambda k, u: p ** k * u, st.sampled_from(range(17)), unit)
    # an entry is 0 one time in eight
    entry = st.sampled_from(range(8)).flatmap(lambda r: deep if r else st.just(0))
    if draw(st.integers(0, 2)) == 0:
        off = entry.map(lambda e: p * e)
        x, y, z, w = draw(unit), draw(off), draw(off), draw(unit)
        g = ((x, y), (z, w)) if draw(st.booleans()) else ((y, x), (w, z))
    else:
        g = ((draw(entry), draw(entry)), (draw(entry), draw(entry)))
    a, d = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    b = draw(st.integers(0, p ** a - 1))
    if a and d and b % p == 0:
        b += 1
    return g, TreeVertex(p, a, b, d)


class TestDeepMatrices:
    """High valuations, zero entries and unit determinants against the oracle:
    the valuation shortcuts of canonical_vertex and deep products in act."""

    @settings(max_examples=400, deadline=None)
    @given(_deep_matrix_and_vertex())
    def test_canonical_form_and_action_match_the_oracle(self, case):
        g, v = case
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
            with pytest.raises(UsageError):
                canonical_vertex(v.p, g)
            with pytest.raises(UsageError):
                act(g, v)
        else:
            assert canonical_vertex(v.p, g) == canonical_vertex_oracle(v.p, g)
            assert act(g, v) == act_oracle(g, v)


class TestNeighbors:
    def test_regularity(self):
        for p in (2, 3, 5):
            nbs = neighbors(root_vertex(p))
            assert len(nbs) == len(set(nbs)) == p + 1

    def test_opposite_parity(self):
        for p in (2, 3):
            for w in neighbors(root_vertex(p)):
                assert w.parity() == 1

    def test_symmetry(self):
        rng = random.Random(1)
        p = 3
        v = root_vertex(p)
        for _ in range(3):
            v = rng.choice(neighbors(v))
        for w in neighbors(v):
            assert v in neighbors(w)
            assert distance(v, w) == 1

    def test_bfs_layer_counts(self):
        # ball sizes: layer r has (p+1) p^(r-1) vertices
        for p in (2, 3):
            layers = ball(p, 3)
            assert [len(l) for l in layers] == [1, p + 1, (p + 1) * p, (p + 1) * p * p]

    def test_two_step_count(self):
        layers = ball(2, 2)
        assert len(layers[1]) + len(layers[2]) == 3 + 6

    def test_parent_is_the_neighbour_one_layer_up(self):
        # every vertex of layer r > 0 has exactly one neighbour in layer r - 1
        for p, vertices in _BALLS.items():
            root = root_vertex(p)
            for v in vertices:
                if v == root:
                    continue
                up = parent(v)
                assert up in neighbors(v)
                assert distance(root, up) == distance(root, v) - 1
        with pytest.raises(UsageError):
            parent(root_vertex(3))


class TestAction:
    def test_identity_fixes(self):
        p = 5
        for v in ball(p, 2)[2][:5]:
            assert act(((1, 0), (0, 1)), v) == v

    def test_scalar_acts_trivially(self):
        p = 3
        for v in ball(p, 2)[2][:5]:
            assert act(((p, 0), (0, p)), v) == v
            assert act(((7, 0), (0, 7)), v) == v

    def test_diag_p_one_moves_root_to_neighbor(self):
        p = 5
        v = act(((p, 0), (0, 1)), root_vertex(p))
        assert distance(root_vertex(p), v) == 1

    def test_group_action_composition(self):
        rng = random.Random(4)
        p = 3
        vs = ball(p, 2)
        sample = [vs[0][0]] + list(vs[1]) + list(vs[2][:3])
        for _ in range(20):
            g = ((rng.randint(-5, 5), rng.randint(-5, 5)),
                 (rng.randint(-5, 5), rng.randint(-5, 5)))
            h = ((rng.randint(-5, 5), rng.randint(-5, 5)),
                 (rng.randint(-5, 5), rng.randint(-5, 5)))
            if _det2(g) == 0 or _det2(h) == 0:
                continue
            gh = _mul2(g, h)
            for v in sample:
                assert act(gh, v) == act(g, act(h, v))

    def test_even_valuation_preserves_parity(self):
        p = 3
        sample = [v for layer in ball(p, 2) for v in layer]
        for g in (((1, 1), (0, 1)), ((9, 0), (0, 1)), ((2, 3), (3, 7))):
            dv = _det2(g)
            val = 0
            while dv % p == 0:
                dv //= p
                val += 1
            if val % 2 == 0:
                for v in sample:
                    assert act(g, v).parity() == v.parity()

    def test_singular_rejected(self):
        with pytest.raises(UsageError):
            act(((1, 1), (1, 1)), root_vertex(5))

    def test_action_kernel_is_scalars(self):
        # non-scalar p-adic units must move some vertex in a small ball
        p = 3
        sample = [v for layer in ball(p, 2) for v in layer]
        for g in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((0, 1), (1, 0))):
            assert any(act(g, v) != v for v in sample)
        for c in (2, p, 5 * p * p):
            assert all(act(((c, 0), (0, c)), v) == v for v in sample)


def _det2(g):
    return g[0][0] * g[1][1] - g[0][1] * g[1][0]


def _mul2(g, h):
    return ((g[0][0] * h[0][0] + g[0][1] * h[1][0],
             g[0][0] * h[0][1] + g[0][1] * h[1][1]),
            (g[1][0] * h[0][0] + g[1][1] * h[1][0],
             g[1][0] * h[0][1] + g[1][1] * h[1][1]))


class TestEdges:
    def test_reversal_involution(self):
        p = 3
        e = edges_from(root_vertex(p))[0]
        assert e.reverse().reverse() == e

    def test_forward_edges_count(self):
        p = 5
        e = edges_from(root_vertex(p))[2]
        fwd = forward_edges(e)
        assert len(fwd) == p
        assert all(f.source == e.target for f in fwd)
        assert all(f.target != e.source for f in fwd)

    def test_parity_alternates_along_ray(self):
        p = 2
        e = edges_from(root_vertex(p))[0]
        par = [e.source.parity(), e.target.parity()]
        for _ in range(3):
            e = forward_edges(e)[0]
            par.append(e.target.parity())
        assert par == [0, 1, 0, 1, 0]

    def test_distance_one_required(self):
        p = 3
        far = ball(p, 2)[2][0]
        with pytest.raises(UsageError):
            TreeEdge(root_vertex(p), far)
