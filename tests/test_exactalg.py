import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlfun.errors import UsageError
from quatlfun.exactalg import (Character, GroupRingElement, IntMatrix,
                               PrimePowerRing, det, eliminate_mod,
                               fitting_exponent, group_ring_mul,
                               inequality_check, involution, kernel_basis,
                               kernel_mod, leading_minors, mu_invariant,
                               project_level,
                               rational_kernel, smith_normal_form, specialize)

from oracles import (cofactor_det_oracle, convolution_oracle,
                     cyclotomic_valuation_oracle, fitting_minors_oracle,
                     rank_by_minors_oracle, snf_diagonal_oracle)
from quatlfun.compgraph import _local_shape
from test_compgraph import time_limit


def snf_checks(M):
    """The Smith form's diagonal (d,) of one row, after checking U·M·V = S,
    S zero past d >= 0, and U, V unimodular."""
    U, S, V = smith_normal_form(M)
    assert U.mul(M).mul(V).entries == S.entries
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    d, *rest = S.entries[0]
    assert d >= 0 and not any(rest)
    return (d,)


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
    """The Smith form of one row: an extended Euclid over its entries."""

    def test_already_diagonal(self):
        assert snf_checks(IntMatrix.from_rows([[6, 0, 0]])) == (6,)

    def test_two_by_two(self):
        # more than one row is refused before any work
        with pytest.raises(UsageError, match="one row"):
            smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))

    def test_zero_matrix(self):
        M = IntMatrix.from_rows([[0] * 3])
        U, S, V = smith_normal_form(M)
        assert S.entries == M.entries
        assert U.entries == IntMatrix.identity(1).entries
        assert V.entries == IntMatrix.identity(3).entries

    def test_deterministic(self):
        # the pivot is the nonzero entry of smallest absolute value, first on
        # ties, and U = (-1) makes d nonnegative; V fixes which optimal
        # embedding the trace row yields first
        U, S, V = smith_normal_form(IntMatrix.from_rows([[0, -6, 4, -4, 10]]))
        assert (U.entries, S.entries) == (((1,),), ((2, 0, 0, 0, 0),))
        assert V.entries == ((0, 0, 1, 0, 0), (1, -2, 0, 2, -5), (2, -3, 0, 4, -10),
                             (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        U, S, V = smith_normal_form(IntMatrix.from_rows([[-4, 6]]))
        assert (U.entries, S.entries, V.entries) == \
            (((-1,),), ((2, 0),), ((2, -3), (1, -2)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from((0, 0, 1, -1)),
                              st.integers(-10 ** 12, 10 ** 12)), min_size=1, max_size=6))
    def test_random_against_oracle(self, row):
        assert list(snf_checks(IntMatrix.from_rows([row]))) == snf_diagonal_oracle([row])


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _draw_rows(data, r, c, lo, hi):
    return [[data.draw(st.integers(lo, hi)) for _ in range(c)] for _ in range(r)]


def _sparse_rows(data, r, c):
    """r x c rows with mostly zero entries; now and then rows 0 and 1 agree
    on their first k entries, so the leading minors of sizes 2..k vanish
    and the pass swaps rows."""
    rows = [[data.draw(st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 7))) for _ in range(c)]
            for _ in range(r)]
    if r >= 2 and data.draw(st.booleans()):
        k = data.draw(st.integers(2, c)) if c >= 2 else 1
        rows[1][:k] = rows[0][:k]
    return rows


class TestAugmentedElimination:
    """The blocks appended to the pivot block carry exactly the transforms."""

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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
    def test_rational_kernel_spans_the_kernel_over_q(self, r, c, sparse, data):
        # as many primitive vectors as the kernel's dimension over Q, each
        # killed by M, and independent; ranks by cofactor expansion
        rows = _sparse_rows(data, r, c) if sparse else _draw_rows(data, r, c, -6, 6)
        M = IntMatrix.from_rows(rows)
        vecs = rational_kernel(M)
        assert len(vecs) == c - rank_by_minors_oracle(rows)
        assert all(M.mul_vec(v) == (0,) * r and math.gcd(*v) == 1 for v in vecs)
        assert rank_by_minors_oracle(vecs) == len(vecs)

    def test_rational_kernel_where_the_smith_pivoting_blows_up(self):
        # a 6x6 matrix with entries <= 12 on which general Smith pivoting over
        # Z reaches million-bit entries; bordered by its row sums and one
        # combination of its rows, it has a one-dimensional kernel
        rows = [(-4, -9, 0, 0, 10, 0), (0, 7, -2, 9, 0, -2), (-12, 2, 0, 6, 6, -11),
                (5, 3, -5, 10, 0, -6), (4, 0, -9, 0, -8, 8), (0, -7, -6, -4, 0, 6)]
        start = time.process_time()
        assert rational_kernel(IntMatrix.from_rows(rows)) == ()
        bordered = [list(r) + [sum(r)] for r in rows]
        bordered.append([x + 2 * y for x, y in zip(bordered[0], bordered[1])])
        assert rational_kernel(IntMatrix.from_rows(bordered)) == ((-1,) * 6 + (1,),)
        assert time.process_time() - start < 1

    def test_kernel_mod(self):
        M = IntMatrix.from_rows([[5, 0], [0, 1]])
        gens = kernel_mod(M, 5, 2)
        # kernel mod 25 is generated by (5, 0)
        assert any(g[0] % 25 == 5 and g[1] % 25 == 0 for g in gens)
        for g in gens:
            out = M.mul_vec(g)
            assert all(x % 25 == 0 for x in out)


class TestFractionFree:
    """`det` and `leading_minors` read the fraction-free pass that
    `rational_kernel` reads; each is checked against cofactor expansion."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_det_against_cofactor_expansion(self, n, data):
        rows = _sparse_rows(data, n, n)
        assert det(IntMatrix.from_rows(rows)) == cofactor_det_oracle(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_leading_minors_against_cofactor_expansion(self, r, c, data):
        rows = _sparse_rows(data, r, c)
        expect = []
        for k in range(1, min(r, c) + 1):
            minor = cofactor_det_oracle([row[:k] for row in rows[:k]])
            if minor == 0:
                break
            expect.append(minor)
        assert leading_minors(IntMatrix.from_rows(rows)) == tuple(expect)

    def test_det_refuses_a_non_square_matrix(self):
        with pytest.raises(UsageError, match="non-square"):
            det(IntMatrix.from_rows([[1, 2, 3]]))


def cokernel_shape(M):
    """coker(M) = Z^rows / column span, finite, read off the package's one
    cokernel route: one pass mod p^(v_p(det) + 1) per prime p | det."""
    return _local_shape(M, abs(det(M)))[0]


class TestCokernelShape:
    def test_single(self):
        assert cokernel_shape(IntMatrix.from_rows([[5]])).describe() == "Z/5"

    def test_derived_two_torsion(self):
        M = [[1, 1], [1, -1]]
        assert snf_diagonal_oracle(M) == [1, 2]
        shape = cokernel_shape(IntMatrix.from_rows(M))
        assert shape.invariant_factors == (2,)

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

    def test_seven_by_seven_returns(self):
        # entries at most 11, on which the Smith pivoting over Z did not
        # return within 30 s; one pass mod p^(v_p(det) + 1) per prime
        rows = [[0, 0, -3, 3, 0, 0, 0], [0, 0, 0, -8, 11, -11, 0],
                [-7, 0, -1, -10, 0, 0, 2], [-2, 0, 0, 0, -6, 0, 9],
                [0, 0, 9, 0, 0, 0, 2], [0, 8, 0, -10, -5, 0, 0],
                [0, 0, 2, 0, 0, 0, 0]]
        primes = (2, 3, 5, 7, 11)
        with time_limit(30):
            got = [fitting_exponent(IntMatrix.from_rows(rows), PrimePowerRing(p, 2))
                   for p in primes]
        assert got == [6, 2, 0, 1, 1] == [fitting_minors_oracle(rows, p) for p in primes]

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
        z = gre(5, 2, 1, [0] * 5)
        assert not any(group_ring_mul(a, z).coeffs)

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
            assert GroupRingElement.make(ring, order, [0] * order).group_order == order
        else:
            with pytest.raises(UsageError, match="power of p"):
                GroupRingElement(ring, order, ())

    @pytest.mark.parametrize("bad", [2.7, True, "3"])
    def test_make_refuses_a_coefficient_that_is_not_an_int(self, bad):
        # refused, not rounded: int() would read 2.7 as 2, True as 1, "3" as 3
        with pytest.raises(UsageError, match="integers"):
            GroupRingElement.make(PrimePowerRing(5, 1), 5, [bad, 0, 0, 0, 0])

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
        mul = group_ring_mul
        assert mul(a, b).coeffs == mul(b, a).coeffs
        assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs


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
            assert involution(group_ring_mul(a, b)).coeffs == \
                group_ring_mul(involution(a), involution(b)).coeffs

    def test_oneplusg_times_star(self):
        a = gre(5, 1, 1, [1, 1, 0, 0, 0])
        expect = convolution_oracle([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], 5, 5)
        assert group_ring_mul(a, involution(a)).coeffs == tuple(expect)


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
        a = gre(5, 2, 1, [0] * 5)
        assert mu_invariant(a) == 2

    def test_superadditive(self):
        rng = random.Random(11)
        ring = PrimePowerRing(3, 3)
        for _ in range(40):
            a = gre(3, 3, 1, [rng.randrange(27) for _ in range(3)])
            b = gre(3, 3, 1, [rng.randrange(27) for _ in range(3)])
            lhs = mu_invariant(group_ring_mul(a, b))
            bound = min(ring.n, mu_invariant(a) + mu_invariant(b))
            assert lhs >= bound
            # equality when one factor is a unit times a power of p
            u = rng.choice([1, 2])  # unit mod 3
            k = rng.choice([0, 1])
            c = gre(3, 3, 1, [u * 3 ** k, 0, 0])
            assert mu_invariant(group_ring_mul(a, c)) == min(ring.n, mu_invariant(a) + k)


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
            assert specialize(group_ring_mul(a, b), chi).coeffs == \
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

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(0, 2),
           st.data())
    def test_matches_norm_oracle(self, p, n, m, data):
        # v_(1-zeta)(a) = v_p(N(a)) in the totally ramified Z_p[zeta_{p^s}];
        # coefficients dense, p-divisible or zero, so sparse elements and
        # valuations at the cap are drawn too
        s = data.draw(st.integers(0, m))
        ps, q = p ** s, p ** n
        gen = data.draw(st.sampled_from([k for k in range(ps) if k % p] or [0]))
        coeff = st.one_of(st.integers(0, q - 1), st.just(0),
                          st.builds(lambda c, t: c * p ** t % q,
                                    st.integers(0, q - 1), st.integers(1, n)))
        coeffs = data.draw(st.lists(coeff, min_size=p ** m, max_size=p ** m))
        poly = [0] * ps  # a(zeta) = sum_k c_k zeta^(gen k), unreduced
        for k, c in enumerate(coeffs):
            poly[gen * k % ps] += c
        value = specialize(gre(p, n, m, coeffs), Character(p, n, s, gen))
        assert value.valuation() == cyclotomic_valuation_oracle(p, n, s, poly)


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
        assert rep.holds is True

    def test_synthetic_violation_reported(self):
        pres = IntMatrix.from_rows([[125]])  # Z/p^3
        L = gre(5, 3, 1, [5, 0, 0, 0, 0])
        rep = inequality_check(pres, L, Character(5, 3, 0, 0))
        assert rep.selmer_length == 3 and rep.twice_t == 2
        assert rep.holds is False
        assert "VIOLATION" in rep.describe()


class TestSerialization:
    def test_round_trip(self):
        # L_phi.json and L_p.json: the level m and the coefficients give the
        # element back through the public constructor
        a = gre(5, 2, 1, [1, 2, 3, 4, 0])
        d = json.loads(a.to_json())
        assert d["p"] == 5 and d["n"] == 2 and d["m"] == 1
        assert gre(d["p"], d["n"], d["m"], d["coeffs"]) == a
