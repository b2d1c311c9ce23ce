import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlfun.errors import UsageError
from quatlfun.exactalg import (AbelianGroupShape, Character, GroupRingElement,
                               IntMatrix, PrimePowerRing, det, eliminate,
                               eliminate_mod, fitting_exponent, group_ring_mul,
                               inequality_check, involution, kernel_basis,
                               kernel_mod, mu_invariant, project_level,
                               rational_kernel, smith_normal_form, solve,
                               solve_mod, specialize)

from oracles import (convolution_oracle, fitting_minors_oracle,
                     snf_diagonal_oracle)


def _rank_over_q(rows):
    """Rank by Gauss-Jordan over Fractions, independent of the package."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j] / m[rank][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _diagonal(S):
    return tuple(S.entries[i][i] for i in range(min(S.rows, S.cols)))


def snf_checks(M):
    """The Smith form's diagonal, after checking U·M·V = S, S diagonal with
    each entry dividing the next, and U, V unimodular."""
    U, S, V = smith_normal_form(M)
    assert U.mul(M).mul(V).entries == S.entries
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert all(S.entries[i][j] == 0 for i in range(S.rows) for j in range(S.cols)
               if i != j)
    diag = _diagonal(S)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


class TestFromRows:
    @pytest.mark.parametrize("rows", [[[25.9]], [["25"]], [[True]], [[1, False]],
                                      5, [5], [[1], 2], "12", [], [[]]],
                             ids=["float", "str", "bool", "bool-in-row", "int",
                                  "int-row", "int-second-row", "str-rows",
                                  "no-rows", "empty-row"])
    def test_anything_but_int_rows_rejected(self, rows):
        # an entry is taken as it is, never coerced with int()
        with pytest.raises(UsageError):
            IntMatrix.from_rows(rows)

    def test_int_rows_kept(self):
        assert IntMatrix.from_rows([(1, -2), [3, 4]]).entries == ((1, -2), (3, 4))


class TestSmithNormalForm:
    def test_already_diagonal(self):
        assert snf_checks(IntMatrix.from_rows([[2, 0], [0, 6]])) == (2, 6)

    def test_two_by_two(self):
        M = [[2, 4], [6, 8]]
        assert snf_diagonal_oracle(M) == [2, 4]  # oracle first
        assert snf_checks(IntMatrix.from_rows(M)) == (2, 4)

    def test_zero_matrix(self):
        M = IntMatrix.zero(2, 3)
        U, S, V = smith_normal_form(M)
        assert S.entries == M.entries
        assert U.entries == IntMatrix.identity(2).entries
        assert V.entries == IntMatrix.identity(3).entries

    def test_deterministic(self):
        M = IntMatrix.from_rows([[6, 4, 13], [9, 0, -5], [1, 7, 7]])
        assert smith_normal_form(M) == smith_normal_form(M)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_random_against_oracle(self, r, c, data):
        rows = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
        expect = snf_diagonal_oracle(rows)
        assert list(snf_checks(IntMatrix.from_rows(rows))) == expect


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _draw_rows(data, r, c, lo, hi):
    return [[data.draw(st.integers(lo, hi)) for _ in range(c)] for _ in range(r)]


class TestAugmentedElimination:
    """The blocks appended to the pivot block carry exactly the transforms."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
           st.integers(0, 3), st.data())
    def test_side_blocks_end_as_u_r_and_b_v(self, r, c, k_right, k_below, data):
        m = _draw_rows(data, r, c, -9, 9)
        right = _draw_rows(data, r, k_right, -9, 9)
        below = _draw_rows(data, k_below, c, -9, 9)
        a = [row + extra for row, extra in zip(m, right)] + [list(row) for row in below]
        diag = eliminate(a, r, c)
        U, S, V = smith_normal_form(IntMatrix.from_rows(m))
        assert [row[:c] for row in a[:r]] == [list(row) for row in S.entries]
        assert diag == _diagonal(S)
        assert [row[c:] for row in a[:r]] == _mul(U.entries, right)
        assert a[r:] == _mul(below, V.entries)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([2, 3, 5]),
           st.integers(1, 3), st.data())
    def test_mod_identities_give_invertible_transforms(self, r, c, p, n, data):
        q = p ** n
        m = _draw_rows(data, r, c, -30, 30)
        a = [row + [int(i == j) for j in range(r)] for i, row in enumerate(m)] + \
            [[int(i == j) for j in range(c)] for i in range(c)]
        diag = eliminate_mod(a, r, c, p, n)
        u = [row[c:] for row in a[:r]]
        d = [row[:c] for row in a[:r]]
        v = a[r:]
        assert [[x % q for x in row] for row in _mul(_mul(u, m), v)] == d
        assert all(d[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        assert diag == tuple(d[i][i] for i in range(min(r, c)))
        assert all(x == 0 or x in {p ** e for e in range(n)} for x in diag)
        assert det(IntMatrix.from_rows(u)) % p != 0
        assert det(IntMatrix.from_rows(v)) % p != 0


class TestKernelAndSolve:
    def test_kernel_basis(self):
        M = IntMatrix.from_rows([[1, 2, 3]])
        basis = kernel_basis(M)
        assert len(basis) == 2
        for v in basis:
            assert M.mul_vec(v) == (0,)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda c: st.lists(
        st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=6)))
    def test_rational_kernel_spans_the_kernel_over_q(self, rows):
        # as many primitive vectors as the kernel's dimension over Q, each
        # killed by M, and independent
        M = IntMatrix.from_rows(rows)
        vecs = rational_kernel(M)
        assert len(vecs) == M.cols - _rank_over_q(rows)
        assert all(M.mul_vec(v) == (0,) * M.rows and math.gcd(*v) == 1 for v in vecs)
        assert _rank_over_q(vecs) == len(vecs)

    def test_rational_kernel_where_the_smith_pivoting_blows_up(self):
        # a 6x6 matrix with entries <= 12 on which `eliminate` reached
        # million-bit entries; bordered by its row sums and one combination
        # of its rows, it has a one-dimensional kernel
        rows = [(-4, -9, 0, 0, 10, 0), (0, 7, -2, 9, 0, -2), (-12, 2, 0, 6, 6, -11),
                (5, 3, -5, 10, 0, -6), (4, 0, -9, 0, -8, 8), (0, -7, -6, -4, 0, 6)]
        start = time.process_time()
        assert rational_kernel(IntMatrix.from_rows(rows)) == ()
        bordered = [list(r) + [sum(r)] for r in rows]
        bordered.append([x + 2 * y for x, y in zip(bordered[0], bordered[1])])
        assert rational_kernel(IntMatrix.from_rows(bordered)) == ((-1,) * 6 + (1,),)
        assert time.process_time() - start < 1

    def test_solve(self):
        M = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert solve(M, (4, 9)) == (2, 3)
        assert solve(M, (1, 0)) is None

    def test_kernel_mod(self):
        M = IntMatrix.from_rows([[5, 0], [0, 1]])
        gens = kernel_mod(M, 5, 2)
        # kernel mod 25 is generated by (5, 0)
        assert any(g[0] % 25 == 5 and g[1] % 25 == 0 for g in gens)
        for g in gens:
            out = M.mul_vec(g)
            assert all(x % 25 == 0 for x in out)

    def test_solve_mod(self):
        M = IntMatrix.from_rows([[5, 1], [0, 5]])
        b = (6, 5)
        x = solve_mod(M, b, 5, 2)
        assert x is not None
        out = M.mul_vec(x)
        assert all((a - c) % 25 == 0 for a, c in zip(out, b))


def cokernel_shape(M):
    """coker(M) = Z^rows / column span, read off the Smith form."""
    diag = snf_checks(M)
    rank = sum(1 for d in diag if d)
    return AbelianGroupShape(tuple(d for d in diag if d > 1), M.rows - rank)


class TestCokernelShape:
    def test_single(self):
        assert cokernel_shape(IntMatrix.from_rows([[5]])).describe() == "Z/5"

    def test_derived_two_torsion(self):
        M = [[1, 1], [1, -1]]
        assert snf_diagonal_oracle(M) == [1, 2]
        shape = cokernel_shape(IntMatrix.from_rows(M))
        assert shape.invariant_factors == (2,) and shape.free_rank == 0

    def test_identity(self):
        shape = cokernel_shape(IntMatrix.identity(4))
        assert shape.describe() == "0"
        assert shape.order == 1


class TestFitting:
    def test_cyclic_sum(self):
        p = 5
        M = [[p, 0], [0, p * p]]
        assert fitting_minors_oracle(M, p) == 3
        assert fitting_exponent(IntMatrix.from_rows(M), PrimePowerRing(p, 3)) == 3

    def test_zero_module(self):
        assert fitting_exponent(IntMatrix.identity(3), PrimePowerRing(5, 2)) == 0

    def test_free_module(self):
        M = IntMatrix.from_rows([[0]])
        assert fitting_exponent(M, PrimePowerRing(5, 2)) is None

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_against_minors_oracle(self, data):
        p, n = 3, 3
        rows = [[data.draw(st.integers(-12, 12)) for _ in range(4)] for _ in range(3)]
        expect = fitting_minors_oracle(rows, p)
        got = fitting_exponent(IntMatrix.from_rows(rows), PrimePowerRing(p, n))
        assert got == expect

    def test_multiplicative_over_direct_sums(self):
        p, ring = 3, PrimePowerRing(3, 4)
        rng = random.Random(7)
        for _ in range(20):
            a = [[rng.choice([1, p, p * p]), 0], [0, rng.choice([1, p])]]
            b = [[rng.choice([1, p])]]
            ta = fitting_exponent(IntMatrix.from_rows(a), ring)
            tb = fitting_exponent(IntMatrix.from_rows(b), ring)
            direct = [[a[0][0], 0, 0], [0, a[1][1], 0], [0, 0, b[0][0]]]
            td = fitting_exponent(IntMatrix.from_rows(direct), ring)
            assert td == ta + tb


def gre(p, n, m, coeffs):
    return GroupRingElement.make(PrimePowerRing(p, n), p ** m, coeffs)


class TestGroupRing:
    def test_inverse_pair(self):
        p, n, m = 5, 2, 1
        a = GroupRingElement.generator_power(PrimePowerRing(p, n), p ** m, 1)
        b = GroupRingElement.generator_power(PrimePowerRing(p, n), p ** m, p ** m - 1)
        one = GroupRingElement.generator_power(PrimePowerRing(p, n), p ** m, 0)
        assert group_ring_mul(a, b).coeffs == one.coeffs

    def test_one_plus_g_times_one_minus_g(self):
        # (1+g)(1-g) = 1 - g^2 in Z/5[Z/5]
        a = [1, 1, 0, 0, 0]
        b = [1, 4, 0, 0, 0]
        assert convolution_oracle(a, b, 5, 5) == [1, 0, 4, 0, 0]
        got = group_ring_mul(gre(5, 1, 1, a), gre(5, 1, 1, b))
        assert got.coeffs == (1, 0, 4, 0, 0)

    def test_mul_by_zero(self):
        a = gre(5, 2, 1, [3, 1, 4, 1, 5])
        z = GroupRingElement.zero(a.ring, a.group_order)
        assert group_ring_mul(a, z).is_zero()

    def test_mismatched_rings_rejected(self):
        a = gre(5, 2, 1, [1, 0, 0, 0, 0])
        b = gre(5, 1, 1, [1, 0, 0, 0, 0])
        with pytest.raises(UsageError):
            group_ring_mul(a, b)

    @pytest.mark.parametrize("order, ok", [(1, True), (5, True), (25, True), (0, False),
                                           (-5, False), (10, False), (3, False)])
    def test_group_order_is_a_power_of_p(self, order, ok):
        # an order of 0 is refused too, not looped on
        ring = PrimePowerRing(5, 1)
        if ok:
            assert GroupRingElement.zero(ring, order).group_order == order
        else:
            with pytest.raises(UsageError, match="power of p"):
                GroupRingElement(ring, order, ())

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_matches_convolution_oracle(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(0, {2: 9, 3: 5, 5: 4}[p]))  # p^m <= 625
        q, order = p ** n, p ** m
        # coefficients from a drawn seed: up to 1,250 of them would overrun
        # Hypothesis's buffer; all q - 1 fills every slot to its bound
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        fill = data.draw(st.sampled_from([lambda: rng.randrange(q), lambda: q - 1,
                                          lambda: rng.choice([0, 0, 0, q - 1])]))
        a, b = ([fill() for _ in range(order)] for _ in range(2))
        assert list(group_ring_mul(gre(p, n, m, a), gre(p, n, m, b)).coeffs) == \
            convolution_oracle(a, b, q, order)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_commutative_associative(self, data):
        p, n, m = 3, 2, 1
        draw = lambda: gre(p, n, m, [data.draw(st.integers(0, 8)) for _ in range(3)])
        a, b, c = draw(), draw(), draw()
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


class TestInvolution:
    def test_index_negation(self):
        a = gre(5, 1, 1, [0, 1, 2, 0, 0])  # g + 2 g^2
        assert involution(a).coeffs == (0, 0, 0, 2, 1)  # g^4 + 2 g^3

    def test_constant_fixed(self):
        a = gre(5, 2, 1, [7, 0, 0, 0, 0])
        assert involution(a).coeffs == a.coeffs

    def test_self_inverse_and_automorphism(self):
        rng = random.Random(3)
        for _ in range(20):
            a = gre(5, 2, 1, [rng.randrange(25) for _ in range(5)])
            b = gre(5, 2, 1, [rng.randrange(25) for _ in range(5)])
            assert involution(involution(a)).coeffs == a.coeffs
            assert involution(a * b).coeffs == (involution(a) * involution(b)).coeffs

    def test_oneplusg_times_star(self):
        a = gre(5, 1, 1, [1, 1, 0, 0, 0])
        expect = convolution_oracle([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], 5, 5)
        assert (a * involution(a)).coeffs == tuple(expect)


class TestMuInvariant:
    def test_p_squared_constant(self):
        a = gre(5, 3, 1, [25, 0, 0, 0, 0])
        assert mu_invariant(a) == 2

    def test_unit_coefficient(self):
        a = gre(5, 3, 1, [1, 5, 0, 0, 0])
        assert mu_invariant(a) == 0

    def test_p_times_one_plus_g(self):
        a = gre(5, 2, 1, [5, 5, 0, 0, 0])
        assert mu_invariant(a) == 1

    def test_zero_capped(self):
        a = GroupRingElement.zero(PrimePowerRing(5, 2), 5)
        assert mu_invariant(a) == 2

    def test_superadditive(self):
        rng = random.Random(11)
        ring = PrimePowerRing(3, 3)
        for _ in range(40):
            a = gre(3, 3, 1, [rng.randrange(27) for _ in range(3)])
            b = gre(3, 3, 1, [rng.randrange(27) for _ in range(3)])
            lhs = mu_invariant(a * b)
            bound = min(ring.n, mu_invariant(a) + mu_invariant(b))
            assert lhs >= bound
            # equality when one factor is a unit times a power of p
            u = rng.choice([1, 2])  # unit mod 3
            k = rng.choice([0, 1])
            c = gre(3, 3, 1, [u * 3 ** k, 0, 0])
            assert mu_invariant(a * c) == min(ring.n, mu_invariant(a) + k)


class TestProjectLevel:
    def test_constant(self):
        a = gre(5, 2, 2, [1] * 25)
        down = project_level(a, 1)
        assert down.coeffs == (5,) * 5

    def test_delta(self):
        a = GroupRingElement.generator_power(PrimePowerRing(5, 2), 25, 0)
        down = project_level(a, 1)
        assert down.coeffs == (1, 0, 0, 0, 0)

    def test_fiber_sums_oracle(self):
        rng = random.Random(5)
        a = gre(5, 2, 2, [rng.randrange(25) for _ in range(25)])
        down = project_level(a, 1)
        for k in range(5):
            expect = sum(a.coeffs[j] for j in range(25) if j % 5 == k) % 25
            assert down.coeffs[k] == expect


class TestSpecialize:
    def test_trivial_character_is_augmentation(self):
        a = gre(5, 2, 1, [1, 2, 3, 4, 5])
        chi = Character(5, 2, 0, 0)
        assert specialize(a, chi).coeffs == ((1 + 2 + 3 + 4 + 5) % 25,)

    def test_involution_gives_inverse_character(self):
        rng = random.Random(2)
        chi = Character(5, 2, 1, 2)
        for _ in range(10):
            a = gre(5, 2, 1, [rng.randrange(25) for _ in range(5)])
            lhs = specialize(involution(a), chi)
            rhs = specialize(a, Character(5, 2, 1, 3))  # 3 = -2 mod 5
            assert lhs.coeffs == rhs.coeffs

    def test_ring_homomorphism(self):
        rng = random.Random(4)
        chi = Character(5, 1, 1, 1)
        for _ in range(10):
            a = gre(5, 1, 1, [rng.randrange(5) for _ in range(5)])
            b = gre(5, 1, 1, [rng.randrange(5) for _ in range(5)])
            assert specialize(a * b, chi).coeffs == \
                (specialize(a, chi) * specialize(b, chi)).coeffs

    def test_projection_compatible_with_low_level_character(self):
        # character through level 1 applied to a level-2 element
        rng = random.Random(6)
        a = gre(5, 2, 2, [rng.randrange(25) for _ in range(25)])
        chi = Character(5, 2, 1, 1)
        direct = specialize(project_level(a, 1), chi)
        # pull the character back to level 2: g2 -> x^(1) with x of order 5
        lifted = specialize(a, Character(5, 2, 1, 1))
        assert direct.coeffs == lifted.coeffs

    def test_order_must_divide(self):
        a = gre(5, 1, 1, [1, 0, 0, 0, 0])
        with pytest.raises(UsageError):
            specialize(a, Character(5, 1, 2, 1))


class TestValuation:
    def test_trivial_character_valuation(self):
        a = gre(5, 2, 1, [5, 10, 0, 0, 10])  # augmentation 25 ≡ 0
        chi = Character(5, 2, 0, 0)
        assert specialize(a, chi).valuation() == 2

    def test_one_minus_zeta_valuation(self):
        # 1 - g specializes to 1 - zeta, valuation 1 in the (1-zeta) scale
        a = gre(5, 2, 1, [1, -1, 0, 0, 0])
        chi = Character(5, 2, 1, 1)
        assert specialize(a, chi).valuation() == 1

    def test_p_has_full_ramified_valuation(self):
        a = gre(5, 2, 1, [5, 0, 0, 0, 0])
        chi = Character(5, 2, 1, 1)
        assert specialize(a, chi).valuation() == 4  # e = 4, v(5) = 4


class TestInequalityCheck:
    def test_trivial_selmer_passes(self):
        pres = IntMatrix.identity(2)  # zero module
        L = gre(5, 3, 1, [1, 0, 0, 0, 0])
        rep = inequality_check(pres, L, Character(5, 3, 0, 0))
        assert rep.selmer_length == 0 and rep.holds is True

    def test_boundary_case(self):
        # Sel = Z/p^2, phi(L) = p: s = 2 = 2t
        assert snf_diagonal_oracle([[25]]) == [25]
        pres = IntMatrix.from_rows([[25]])
        L = gre(5, 3, 1, [5, 0, 0, 0, 0])
        rep = inequality_check(pres, L, Character(5, 3, 0, 0))
        assert rep.selmer_length == 2 and rep.twice_t == 2
        assert rep.holds is True and rep.fitting_contains_value is True

    def test_synthetic_violation_reported(self):
        pres = IntMatrix.from_rows([[125]])  # Z/p^3
        L = gre(5, 3, 1, [5, 0, 0, 0, 0])
        rep = inequality_check(pres, L, Character(5, 3, 0, 0))
        assert rep.selmer_length == 3 and rep.twice_t == 2
        assert rep.holds is False
        assert "VIOLATION" in rep.describe()


class TestSerialization:
    def test_round_trip(self):
        a = gre(5, 2, 1, [1, 2, 3, 4, 0])
        b = GroupRingElement.from_json(a.to_json())
        assert a == b
        assert '"p": 5' in a.to_json()
