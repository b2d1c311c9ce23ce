import hashlib
import json
import math
import os
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quatlfun.brandtforms import QuotientGraph
from quatlfun.errors import InvariantViolationError, ResourceLimitError, UsageError
from quatlfun.primes import first_coprime_prime, is_prime, prime_factors
from quatlfun.quatarith import (ClassSet, Lattice4, QuaternionAlgebra,
                                QuaternionOrder, RightIdeal,
                                algebra_from_discriminant, class_set_avoiding,
                                eichler_mass,
                                eichler_order, eichler_order_for,
                                hilbert_symbol,
                                ideal_class_set, isometric, isometry_witness,
                                local_splitting,
                                maximal_order, neighbor_matrices,
                                neighbor_matrix, neighbors,
                                optimal_embedding, quadratic_generator,
                                ramified_primes, standard_order,
                                uq_by_classification,
                                uq_from_counts, uq_matrix)
from quatlfun.quatarith.classset import (_add, _certify_involution, _match,
                                         _times_prime)
from quatlfun.quatarith.embedding import embedding_with_base
from quatlfun.quatarith.ideal import pair_gram, reduce_ideal
from quatlfun.quatarith import classset as classset_module
from quatlfun.quatarith import embedding as embedding_module
from quatlfun.quatarith import ideal as ideal_module
from quatlfun.quatarith import lattice as lattice_module
from quatlfun.quatarith import splitting as splitting_module
from quatlfun.quatarith.lattice import (adjugate4, enumerate_by_value,
                                        hnf_mod, hnf_rows,
                                        lagrange_reduce,
                                        shortest_value_and_vector,
                                        value_counts)
from quatlfun.quatarith.order import (_dual_of_products, _enlarge_brute,
                                      _proj_points, _trace_dual)

from oracles import (_dual_basis_oracle, _fincke_pohst_oracle, _fraction_basis,
                     _fraction_lattice, _inverse_oracle, cofactor_det_oracle,
                     count_vectors_of_norm, enumerate_by_value_oracle,
                     exhaustive_walk_oracle, hilbert_symbol_oracle, hnf_oracle, idealizer_oracle,
                     kronecker_oracle, lagrange_reduce_oracle, minimum_of_form,
                     neighbor_matrix_oracle, norm_gram_oracle,
                     pair_gram_oracle, value_counts_oracle)


class TestSymbols:
    def test_classical_values(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(-1, -1, "inf") == -1
        assert hilbert_symbol(-1, -11, 11) == -1  # 11 = 3 mod 4

    def test_product_formula(self):
        rng = random.Random(9)
        for _ in range(40):
            a = rng.choice([x for x in range(-30, 31) if x])
            b = rng.choice([x for x in range(-30, 31) if x])
            signs = [hilbert_symbol(a, b, p) for p in _primes_dividing(2 * a * b)]
            signs.append(hilbert_symbol(a, b, "inf"))
            prod = 1
            for s in signs:
                prod *= s
            assert prod == 1

    @pytest.mark.parametrize("p,box", [(3, 9), (5, 10), (7, 7)])
    def test_against_brute_force_oracle(self, p, box):
        # every nonzero a, b with |a|, |b| <= box and v_p <= 1, so every
        # square class of Q_p^x appears among a and among b
        values = [a for a in range(-box, box + 1) if a and a % (p * p)]
        for a in values:
            for b in values:
                assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p), (a, b)

    def test_ramification_matches_declared(self):
        alg = algebra_from_discriminant(11)
        assert ramified_primes(alg.a, alg.b) == (11,)
        alg2 = algebra_from_discriminant(30)
        assert ramified_primes(alg2.a, alg2.b) == (2, 3, 5)


def _primes_dividing(n):
    n = abs(n)
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        else:
            f += 1
    if n > 1:
        out.append(n)
    return out


class TestAlgebraConstruction:
    def test_disc2_is_hamilton(self):
        alg = algebra_from_discriminant(2)
        assert (alg.a, alg.b) == (-1, -1)

    def test_parity_rejection(self):
        with pytest.raises(UsageError):
            algebra_from_discriminant(6)

    def test_squarefree_rejection(self):
        with pytest.raises(UsageError):
            algebra_from_discriminant(12)

    def test_multiplication_associative(self):
        alg = QuaternionAlgebra(-1, -11)
        rng = random.Random(1)
        for _ in range(30):
            x, y, z = (tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(3))
            assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))
            assert alg.nrd(alg.mul(x, y)) == alg.nrd(x) * alg.nrd(y)
            assert alg.conj(alg.mul(x, y)) == alg.mul(alg.conj(y), alg.conj(x))


class TestMaximalOrder:
    def test_hurwitz(self):
        order = maximal_order(algebra_from_discriminant(2))
        assert order.reduced_discriminant() == 2
        assert order.unit_count() == 24
        assert order.lattice.contains((1, 1, 1, 1), 2)  # (1 + i + j + k)/2

    def test_disc11(self):
        order = maximal_order(algebra_from_discriminant(11))
        assert order.reduced_discriminant() == 11

    def test_deterministic_and_stable(self):
        a1 = maximal_order(algebra_from_discriminant(11))
        a2 = maximal_order(algebra_from_discriminant(11))
        assert a1.lattice == a2.lattice

    def test_standard_order_discriminant(self):
        alg = QuaternionAlgebra(-1, -11)
        assert standard_order(alg).reduced_discriminant() == 4 * 11

    @pytest.mark.parametrize("disc, ab", [(73, (-5, -146)), (97, (-5, -194))])
    def test_hereditary_at_five(self, disc, ab):
        # Z<1,i,j,k> in (-5, -2·disc) is already hereditary at 5, where the
        # radical of O/5O gives no larger order; the index-5 search still
        # finds one, and saturation reaches a maximal order
        alg = algebra_from_discriminant(disc)
        assert (alg.a, alg.b) == ab
        assert maximal_order(alg).reduced_discriminant() == disc
        for level, psi in ((1, 1), (2, 3)):
            cs = ideal_class_set(eichler_order_for(disc, level), 3)
            assert cs.mass == Fraction(disc - 1, 24) * psi


# the discriminants below 400 at which the idealizer of the radical of O/qO
# is a larger order at some saturation step (q >= 5), with the maximal orders
# that route led to: the index-q search must return the same lattices
_INDEX_SEARCH_ORDERS = {
    105: (14, [[7, 0, 0, 1], [0, 7, 7, 0], [0, 0, 14, 0], [0, 0, 0, 2]]),
    190: (10, [[5, 5, 0, 1], [0, 10, 0, 0], [0, 0, 5, 1], [0, 0, 0, 2]]),
    273: (14, [[7, 0, 0, 1], [0, 7, 7, 0], [0, 0, 14, 0], [0, 0, 0, 2]]),
    357: (14, [[7, 0, 0, 1], [0, 7, 7, 0], [0, 0, 14, 0], [0, 0, 0, 2]]),
    385: (60, [[30, 10, 0, 4], [0, 20, 0, 8], [0, 0, 15, 3], [0, 0, 0, 12]]),
}


@pytest.mark.parametrize("disc", sorted(_INDEX_SEARCH_ORDERS))
def test_maximal_order_by_index_search(disc):
    order = maximal_order(algebra_from_discriminant(disc))
    assert order.reduced_discriminant() == disc
    assert (order.lattice.den, [list(r) for r in order.lattice.rows]) == \
        _INDEX_SEARCH_ORDERS[disc]


@pytest.mark.parametrize("disc", [2, 3, 5, 7, 11, 13, 30, 42, 70, 73, 97])
def test_enlarge_brute_skips_only_non_orders(disc):
    """Every index-q candidate that the trace and norm test skips fails the
    closure check too, along the saturation of the standard order, so the
    order found is the one found by trying every candidate."""
    alg = algebra_from_discriminant(disc)
    order = standard_order(alg)
    while order.reduced_discriminant() != alg.discriminant:
        q = prime_factors(order.reduced_discriminant() // alg.discriminant)[0]
        den, rows = order.lattice.den, order.lattice.rows
        first = None
        for c in _proj_points(q):
            vec = [sum(c[i] * rows[i][k] for i in range(4)) for k in range(4)]
            try:
                cand = QuaternionOrder(alg, Lattice4(den * q, [[x * q for x in r]
                                                               for r in rows] + [vec]))
            except UsageError:
                continue
            assert 2 * vec[0] % (den * q) == 0 and alg.nrd(vec) % (den * q) ** 2 == 0
            if first is None and cand.reduced_discriminant() < order.reduced_discriminant():
                first = cand
        assert _enlarge_brute(order, q) == first
        order = first


class TestClassSets:
    def test_disc2(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(2)), 3)
        assert len(cs) == 1
        assert cs.mass == Fraction(1, 24)
        assert cs.unit_counts == [24]

    def test_disc11(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        assert len(cs) == 2
        assert cs.mass == Fraction(5, 12)
        assert sorted(cs.unit_counts) == [4, 6]  # 5/12 = 1/4 + 1/6

    def test_disc11_theta_distinguishes(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        k0, k1 = cs.reps[0].theta_key(), cs.reps[1].theta_key()
        assert k0[0] != k1[0]  # representation counts at 1 differ (unit counts)

    def test_disc30(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(30)), 7)
        assert cs.mass == eichler_mass(30, 1) == Fraction(1, 3)

    def test_disc374_closure_certificate(self):
        # mass 20/3 = (2-1)(11-1)(17-1)/24; the walk's exact count is 16
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(374)), 3)
        assert cs.mass == eichler_mass(374, 1) == Fraction(20, 3)
        assert len(cs) == 16

    @pytest.mark.parametrize("order, ell", [
        (lambda: maximal_order(algebra_from_discriminant(374)), 3),
        (lambda: eichler_order_for(37, 3), 2)])
    def test_walk_reduces_only_new_representatives(self, monkeypatch, order, ell):
        # every other neighbour is matched raw; the unit ideal needs none
        calls = []
        real = classset_module.reduce_ideal

        def counted(ideal):
            calls.append(1)
            return real(ideal)
        monkeypatch.setattr(classset_module, "reduce_ideal", counted)
        cs = ideal_class_set(order(), ell)
        assert len(calls) == len(cs) - 1

    def test_swapped_unit_counts_stop_at_the_mass_and_are_caught(self, monkeypatch):
        # disc 11 has unit counts 4 and 6; swapped, they still add up to the
        # mass 5/12, so the walk stops where it should and only N_ii(1) = w_i
        # can tell
        order = maximal_order(algebra_from_discriminant(11))
        real = QuaternionOrder.unit_count
        monkeypatch.setattr(QuaternionOrder, "unit_count",
                            lambda self: {4: 6, 6: 4}[real(self)])
        with pytest.raises(InvariantViolationError,
                           match=r"class 0: N_\(0,0\)\(1\) = 4, but its unit count is 6"):
            ideal_class_set(order, 2)

    @pytest.mark.parametrize("disc,level,factor,message", [
        (11, 1, Fraction(2), "overshot the mass"),
        (11, 1, Fraction(1, 2), "short of the mass"),
        (37, 3, Fraction(2), r"class 0: N_\(0,0\)\(1\) = 2, but its unit count is 1"),
    ], ids=["halved", "doubled", "halved-onto-the-mass"])
    def test_scaled_unit_counts_raise(self, monkeypatch, disc, level, factor, message):
        # disc 11: halved counts overshoot the mass 5/12 at the first class,
        # doubled ones never reach it. Disc 37, level 3: halved counts add up
        # to the mass early, and only N_ii(1) = w_i catches them
        order = eichler_order_for(disc, level)
        real = QuaternionOrder.unit_count
        monkeypatch.setattr(QuaternionOrder, "unit_count",
                            lambda self: int(real(self) / factor))
        with pytest.raises(InvariantViolationError, match=message):
            ideal_class_set(order, 2)

    @pytest.mark.parametrize("shift,message", [
        (Fraction(1), "short of the mass"), (Fraction(-1, 12), "overshot the mass")],
        ids=["short", "overshoot"])
    def test_walk_off_the_mass_raises(self, monkeypatch, shift, message):
        # disc 11: classes of 4 and 6 units, found in that order, mass
        # 1/4 + 1/6 = 5/12. A mass one larger is never reached, and the mass
        # 1/3 lies strictly between 1/4 and 5/12, so the second class
        # overshoots it
        order = maximal_order(algebra_from_discriminant(11))
        real = classset_module.eichler_mass
        monkeypatch.setattr(classset_module, "eichler_mass",
                            lambda disc, level: real(disc, level) + shift)
        with pytest.raises(InvariantViolationError, match=message):
            ideal_class_set(order, 2)

    def test_neighbor_regularity(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        for ell in (2, 3, 5, 7):
            rows = neighbor_matrix(cs, ell)
            assert all(sum(r) == ell + 1 for r in rows)

    def test_principal_translate_isometric(self):
        order = maximal_order(algebra_from_discriminant(11))
        unit = RightIdeal.unit_ideal(order)
        x = (1, 1, 0, 0)  # nrd 2, invertible in D
        rows = [order.alg.mul(x, r) for r in order.lattice.rows]
        principal = RightIdeal(order, Lattice4(order.lattice.den, rows))
        assert isometric(unit, principal)
        assert isometric(principal, unit)

    def test_isometric_is_equivalence(self):
        order = maximal_order(algebra_from_discriminant(11))
        cs = ideal_class_set(order, 2)
        spl = local_splitting(order, 3, 1)
        sample = [cs.reps[0], cs.reps[1]]
        for nb in neighbors(cs.reps[0], 3, spl):
            sample.append(reduce_ideal(nb))
        for a in sample:
            assert isometric(a, a)
            for b in sample:
                assert isometric(a, b) == isometric(b, a)

    def test_reduce_preserves_class(self):
        order = maximal_order(algebra_from_discriminant(11))
        spl = local_splitting(order, 3, 1)
        for nb in neighbors(RightIdeal.unit_ideal(order), 3, spl):
            red = reduce_ideal(nb)
            assert isometric(red, nb)
            assert red.nrd() <= nb.nrd()

    def test_right_stability_of_neighbors(self):
        order = maximal_order(algebra_from_discriminant(11))
        spl = local_splitting(order, 2, 1)
        for nb in neighbors(RightIdeal.unit_ideal(order), 2, spl):
            nb.check_right_stability()

    def test_neighbor_prime_must_be_coprime(self):
        order = maximal_order(algebra_from_discriminant(11))
        with pytest.raises(UsageError):
            ideal_class_set(order, 11)


_WITNESS_CLASS_SETS = {d: ideal_class_set(maximal_order(algebra_from_discriminant(d)), 2)
                       for d in (11, 23)}


def _left_multiple(x, ideal):
    """x·I for x an integer 4-tuple over the order's denominator."""
    den = ideal.order.lattice.den
    rows = [ideal.alg.mul(x, r) for r in ideal.lattice.rows]
    return RightIdeal(ideal.order, Lattice4(den * ideal.lattice.den, rows))


class TestIsometryWitness:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_WITNESS_CLASS_SETS)), st.data())
    def test_witness_rebuilds_the_ideal(self, disc, data):
        cs = _WITNESS_CLASS_SETS[disc]
        i, j = data.draw(st.integers(0, len(cs) - 1)), data.draw(st.integers(0, len(cs) - 1))
        c = data.draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(any))
        rows = cs.order.lattice.rows
        x = tuple(sum(ci * r[k] for ci, r in zip(c, rows)) for k in range(4))
        big, small = _left_multiple(x, cs.reps[i]), cs.reps[j]
        found = isometry_witness(big, small)
        assert isometric(big, small) == (found is not None) == (i == j)
        if found is None:
            return
        # I = (w/nrd J)·J, as lattices
        vec, den = found
        norm = small.nrd()
        lat = Lattice4(norm.numerator * den * small.lattice.den,
                       [[norm.denominator * v for v in small.alg.mul(vec, r)]
                        for r in small.lattice.rows])
        assert lat == big.lattice
        assert Fraction(small.alg.nrd(vec), den * den) == big.nrd() * norm

    def test_one_pair_basis_per_witness(self, monkeypatch):
        cs = _WITNESS_CLASS_SETS[23]
        calls = []
        real = ideal_module._pair_basis
        monkeypatch.setattr(ideal_module, "_pair_basis",
                            lambda i1, i2: calls.append(1) or real(i1, i2))
        assert isometry_witness(cs.reps[1], cs.reps[1]) is not None
        assert len(calls) == 1

    def test_witness_lies_in_the_order(self):
        cs = _WITNESS_CLASS_SETS[23]
        spl = local_splitting(cs.order, 3, 1)
        for nb in neighbors(cs.reps[1], 3, spl):
            rep = cs.reps[cs.classify(reduce_ideal(nb))]
            vec, den = isometry_witness(nb, rep)
            assert cs.order.lattice.contains(vec, den)


def test_isometric_agrees_with_the_witness_on_the_walks(monkeypatch):
    """Every (looked-up ideal, representative) pair that the walks of disc
    23 at level 2, disc 37 at level 3 and disc 374 at level 1 test gets the
    same answer from `isometric` and from `isometry_witness`, both on the
    pair Gram, as from the oracle's Gram of the product lattice, counted by
    the oracle's enumeration."""
    tested = []
    real = classset_module.isometric

    def recorded(i1, i2):
        tested.append((i1, i2))
        return real(i1, i2)
    monkeypatch.setattr(classset_module, "isometric", recorded)
    for disc, level in ((23, 2), (37, 3), (374, 1)):
        ideal_class_set(eichler_order_for(disc, level), first_coprime_prime(disc * level))
    monkeypatch.undo()
    answers = [isometric(i1, i2) for i1, i2 in tested]
    assert answers == [value_counts_oracle(pair_gram_oracle(i1, i2), 2)[2] > 0
                       for i1, i2 in tested]
    assert answers == [isometry_witness(i1, i2) is not None for i1, i2 in tested]
    assert (len(answers), answers.count(True)) == (50, 40)  # both answers occur


@pytest.fixture(scope="module")
def cs374():
    return ideal_class_set(maximal_order(algebra_from_discriminant(374)), 3)


class TestThetaTiers:
    def test_tail_separates_the_crowded_bucket(self, cs374):
        keys = {rep.theta_key() for rep in cs374.reps}
        both = {(rep.theta_key(), rep.theta_tail()) for rep in cs374.reps}
        assert (len(keys), len(both), len(cs374)) == (6, 13, 16)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_translate_keeps_both_tiers_and_its_class(self, cs374, data):
        # y -> x·y carries J's normalized norm form onto x·J's
        j = data.draw(st.integers(0, len(cs374) - 1))
        c = data.draw(st.tuples(*[st.integers(-2, 2)] * 4).filter(any))
        rows = cs374.order.lattice.rows
        x = tuple(sum(ci * r[k] for ci, r in zip(c, rows)) for k in range(4))
        rep = cs374.reps[j]
        translate = _left_multiple(x, rep)
        assert translate.theta_key() == rep.theta_key()
        assert translate.theta_tail() == rep.theta_tail()
        buckets = {}
        for idx, r in enumerate(cs374.reps):
            _add(buckets, idx, r)
        assert _match(buckets, translate) == j


class TestReduceIdeal:
    def _fresh_ideals(self):
        out = []
        for disc, ell in ((11, 3), (23, 5), (37, 3)):
            order = maximal_order(algebra_from_discriminant(disc))
            spl = local_splitting(order, ell, 1)
            for nb in neighbors(RightIdeal.unit_ideal(order), ell, spl):
                out.append(RightIdeal(order, nb.lattice))
        return out

    def test_one_lagrange_reduction_per_call(self, monkeypatch):
        calls = []
        real = lattice_module.lagrange_reduce

        def counted(gram):
            calls.append(1)
            return real(gram)
        monkeypatch.setattr(lattice_module, "lagrange_reduce", counted)
        monkeypatch.setattr(ideal_module, "lagrange_reduce", counted)
        for ideal in self._fresh_ideals():
            del calls[:]
            reduce_ideal(ideal)
            assert len(calls) == 1
            del calls[:]
            reduce_ideal(ideal)  # the ideal keeps its reduction
            assert calls == []

    def test_one_prepared_form_per_ideal(self, monkeypatch):
        # the theta key, the tail and the reduction's search share the
        # ideal's one elimination of its reduced Gram
        setups = []
        real = lattice_module.PreparedForm.__init__

        def counted(form, gram):
            setups.append(1)
            real(form, gram)
        monkeypatch.setattr(lattice_module.PreparedForm, "__init__", counted)
        for ideal in self._fresh_ideals():
            del setups[:]
            ideal.theta_key()
            ideal.theta_tail()
            reduce_ideal(ideal)
            assert len(setups) == 1

    def test_same_vector_as_a_second_reduction(self):
        # reducing the reduced Gram again, the old route, picks the same
        # shortest vector, so every reduced ideal is unchanged
        for ideal in self._fresh_ideals():
            red, u = ideal.reduced_gram()
            value, y = shortest_value_and_vector(red)
            coords = tuple(sum(u[r][c] * y[c] for c in range(4)) for r in range(4))
            assert shortest_value_and_vector(ideal.normalized_gram(), (red, u)) \
                == (value, coords)


def _copy_class_set(cs, reps=None, unit_counts=None):
    """A ClassSet over the same order with no theta counts yet."""
    return ClassSet(cs.order, cs.disc, cs.level, cs.neighbor_prime,
                    list(cs.reps if reps is None else reps),
                    list(cs.unit_counts if unit_counts is None else unit_counts))


def _coprime_primes(n, count, start=2):
    out = []
    ell = start
    while len(out) < count:
        if is_prime(ell) and n % ell:
            out.append(ell)
        ell += 1
    return out


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestBrandtFromTheta:
    @pytest.fixture(scope="class")
    def cs11(self):
        return ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)

    @pytest.fixture(scope="class")
    def cs13_2(self):
        return ideal_class_set(eichler_order_for(13, 2), 3)

    def test_swapped_unit_counts_caught(self, cs11):
        assert cs11.unit_counts == [4, 6]
        swapped = _copy_class_set(cs11, unit_counts=[6, 4])
        assert swapped.mass == eichler_mass(11, 1)  # the mass cannot see the swap
        # nor can the neighbour route, which reads no unit count
        assert neighbor_matrix_oracle(swapped, 3) == [[2, 2], [3, 1]]
        for _ in range(2):  # a failed certificate leaves no counts behind
            with pytest.raises(InvariantViolationError, match="identity"):
                neighbor_matrix(swapped, 3)

    def test_duplicated_class_caught(self, cs11):
        rep = cs11.reps[0]
        x = (1, 1, 0, 0)  # nrd 2
        rows = [cs11.order.alg.mul(x, r) for r in rep.lattice.rows]
        translate = RightIdeal(cs11.order, Lattice4(rep.lattice.den, rows))
        assert isometric(translate, rep)
        doubled = _copy_class_set(cs11, reps=cs11.reps + [translate],
                                  unit_counts=cs11.unit_counts + [cs11.unit_counts[0]])
        with pytest.raises(InvariantViolationError, match="identity"):
            neighbor_matrix(doubled, 3)

    @pytest.mark.parametrize("ell", [0, 1, 4, 11, -3])
    def test_bad_ell_rejected_before_enumeration(self, cs11, ell):
        fresh = _copy_class_set(cs11)
        with pytest.raises(UsageError):
            neighbor_matrix(fresh, ell)
        assert fresh._pair_grams is None

    def test_weighted_symmetry_and_commutation(self, cs11, cs13_2):
        for cs in (cs11, cs13_2):
            w = cs.unit_counts
            ells = _coprime_primes(cs.disc * cs.level, 4)
            mats = [neighbor_matrix(cs, ell) for ell in ells]
            for b in mats:
                assert all(w[j] * b[i][j] == w[i] * b[j][i]
                           for i in range(len(w)) for j in range(len(w)))
            for a in mats:
                for b in mats:
                    assert _matmul(a, b) == _matmul(b, a)

    def test_neighbor_matrices_enumerate_each_pair_once(self, cs11, monkeypatch):
        ells = [3, 7, 13]
        want = {ell: neighbor_matrix(_copy_class_set(cs11), ell) for ell in ells}
        fresh = _copy_class_set(cs11)
        bounds = []
        real = classset_module.value_counts

        def counted(gram, bound):
            bounds.append(bound)
            return real(gram, bound)
        monkeypatch.setattr(classset_module, "value_counts", counted)
        got = neighbor_matrices(fresh, ells)
        h = len(fresh)
        assert bounds == [2 * 13] * (h * (h + 1) // 2)
        assert got == want

    def test_neighbor_matrices_check_every_prime_first(self, cs11):
        fresh = _copy_class_set(cs11)
        with pytest.raises(UsageError):
            neighbor_matrices(fresh, [13, 4])
        assert fresh._pair_grams is None

    def test_count_growth_reuses_the_setup(self, cs13_2, monkeypatch):
        # each pair's Fincke-Pohst setup is done once: the certificate, B(3)
        # and the growth to B(7) share it
        setups = []
        real = lattice_module.PreparedForm.__init__

        def counted(form, gram):
            setups.append(gram)
            real(form, gram)
        monkeypatch.setattr(lattice_module.PreparedForm, "__init__", counted)
        fresh = _copy_class_set(cs13_2)
        fresh.certify_unit_counts()
        h = len(fresh)
        assert len(setups) == h
        up = [neighbor_matrix(fresh, ell) for ell in (3, 7)]
        assert len(setups) == h * (h + 1) // 2
        monkeypatch.undo()
        assert up == [neighbor_matrix(_copy_class_set(cs13_2), ell) for ell in (3, 7)]

    def test_order_of_requests_is_immaterial(self, cs13_2):
        ells = _coprime_primes(26, 5)
        up = [neighbor_matrix(_copy_class_set(cs13_2), ell) for ell in ells]
        down_set = _copy_class_set(cs13_2)
        down = {ell: neighbor_matrix(down_set, ell) for ell in reversed(ells)}
        assert up == [down[ell] for ell in ells]
        ascending = _copy_class_set(cs13_2)
        assert [neighbor_matrix(ascending, ell) for ell in ells] == up


def _oracle_sweep_cases():
    """Squarefree discs < 100 with an odd number of primes at level 1, and at
    levels 2, 3, 5 prime to the disc below 30."""
    cases = []
    for disc in range(2, 100):
        primes = prime_factors(disc)
        if math.prod(primes) != disc or len(primes) % 2 == 0:
            continue
        cases.append((disc, 1))
        if disc < 30:
            cases += [(disc, level) for level in (2, 3, 5) if disc % level]
    return cases


_SWEEP = _oracle_sweep_cases()


def _assert_uq_routes_agree(cs, brandt):
    """At every q | disc, U_q read off the counts (enumerated up to q first if
    need be) equals the classification of I_i·P_q. It is a permutation and an
    involution, and commutes with each T_ell in brandt."""
    h = len(cs)
    unit = [0] * (h - 1) + [1]
    for q in prime_factors(cs.disc):
        u = uq_from_counts(cs, q)
        assert cs.counts_upto >= q
        assert u == uq_by_classification(cs, q)
        assert all(sorted(line) == unit for line in u + [list(c) for c in zip(*u)])
        sigma = [row.index(1) for row in u]  # U[i][sigma(i)] = 1
        assert [sigma[j] for j in sigma] == list(range(h))
        for b in brandt:
            # (U·B)[i][j] = B[sigma(i)][j] and (B·U)[i][j] = B[i][sigma(j)]
            assert all(b[sigma[i]][j] == b[i][sigma[j]]
                       for i in range(h) for j in range(h))


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_brandt_matches_neighbour_oracle(disc, level):
    """The theta route against the neighbour walk at the first two good primes
    and the first good prime above 20; both U_q routes at every q | disc; the
    idealizers of every representative against the Fraction route."""
    n = disc * level
    cs = ideal_class_set(eichler_order_for(disc, level), first_coprime_prime(n))
    ells = _coprime_primes(n, 2) + _coprime_primes(n, 1, start=21)
    got = {ell: neighbor_matrix(cs, ell) for ell in sorted(ells, reverse=True)}
    assert got == {ell: neighbor_matrix_oracle(cs, ell) for ell in ells}
    _assert_uq_routes_agree(cs, got.values())
    for rep in cs.reps:
        for side in ("left", "right"):
            assert _idealizer_by_duality(rep.alg, rep.lattice, side) == \
                idealizer_oracle(rep.alg, rep.lattice, side)


_SWEEP_CLASS_SETS = {}


def _sweep_class_set(disc, level):
    """The sweep case's class set at its first good prime, built once."""
    if (disc, level) not in _SWEEP_CLASS_SETS:
        _SWEEP_CLASS_SETS[disc, level] = ideal_class_set(
            eichler_order_for(disc, level), first_coprime_prime(disc * level))
    return _SWEEP_CLASS_SETS[disc, level]


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_mass_stopped_walk_matches_exhaustive_oracle(disc, level):
    """Stopping at the mass finds the exhaustive walk's representatives, in
    its order."""
    cs = _sweep_class_set(disc, level)
    assert [rep.key() for rep in cs.reps] == \
        [rep.key() for rep in exhaustive_walk_oracle(cs.order, cs.neighbor_prime)]


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_generators_products_and_weighted_symmetry(disc, level):
    """Basis-free checks: each representative's certified generators span it
    over the order, and w_j·B_ij = w_i·B_ji at the first two good primes."""
    cs = _sweep_class_set(disc, level)
    alg, order_lat = cs.order.alg, cs.order.lattice
    for rep in cs.reps:
        gens = rep.generators()
        assert len(gens) in (2, 4)
        span = [alg.mul(x, o) for x in gens for o in order_lat.rows]
        assert Lattice4(rep.lattice.den * order_lat.den, span) == rep.lattice
    w = cs.unit_counts
    for ell in _coprime_primes(disc * level, 2):
        b = neighbor_matrix(cs, ell)
        assert all(w[j] * b[i][j] == w[i] * b[j][i]
                   for i in range(len(cs)) for j in range(len(cs)))


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_pair_grams_match_product_lattice_oracle(disc, level):
    """Each pair lattice built over I_a·conj(x_b), in both orientations, and
    the kept form of the pair have the theta series of the product lattice
    I_i·conj(I_j) up to nrd(x)/(nrd(I_i)·nrd(I_j)) = 11."""
    cs = _sweep_class_set(disc, level)
    h = len(cs)
    forms = cs._pair_forms([(i, j) for i in range(h) for j in range(i, h)])
    for i in range(h):
        for j in range(i, h):
            want = value_counts(lagrange_reduce(pair_gram_oracle(cs.reps[i], cs.reps[j]))[0], 22)
            assert value_counts(forms[i, j], 22) == want
            for a, b in ((i, j), (j, i)):
                gram = pair_gram(cs.reps[a], cs.reps[b])
                assert value_counts(lagrange_reduce(gram)[0], 22) == want


def _fresh(rep):
    """A copy of rep that builds its own reduction, basis and o_g."""
    return RightIdeal(rep.order, rep.lattice)


def _with_k(rep, k):
    """A copy of rep whose kept k is the given one, its o_g the same."""
    out = _fresh(rep)
    out._pair_gens = (k, rep.pair_generators()[1])
    return out


class TestPairGramCertificates:
    """Corrupted data for I_a·conj(I_b) must fail the index check
    det T = k_b^2 or the integrality of T·R_a·T^t/k_b, in `pair_gram`. A
    corrupted action that passes both must leave the theta series right, or
    fail the check of `act` that each representative's o_g run, which the
    class set's counts and its walk both go through."""

    @pytest.fixture(scope="class")
    def cs23(self):
        cs = ideal_class_set(eichler_order_for(23, 2), 3)
        assert [rep.pair_generators()[0] for rep in cs.reps] == [1, 3, 2, 2, 2, 2]
        return cs

    def test_wrong_k_caught(self, cs23):
        for b in range(1, len(cs23)):
            rep = cs23.reps[b]
            k = rep.pair_generators()[0]
            for a in range(len(cs23)):
                for wrong in (k + 1, 2 * k):
                    with pytest.raises(InvariantViolationError, match="index|integral"):
                        pair_gram(cs23.reps[a], _with_k(rep, wrong))

    def test_patched_shortest_vector_caught(self, cs23):
        # v_0 + v_1 in place of v_0, the reduced Gram unchanged: its norm is
        # no longer k·nrd(I)
        rep = cs23.reps[1]
        red, u = rep.reduced_gram()
        patched = _fresh(rep)
        patched._reduced = (red, [[row[0] + row[1]] + list(row[1:]) for row in u])
        with pytest.raises(InvariantViolationError, match="first reduced vector"):
            pair_gram(cs23.reps[0], patched)

    def test_non_generating_g_caught(self, cs23):
        # p·g for p | k_b: the o_g then vanish mod k_b and span too little
        for b in range(1, len(cs23)):
            rep = cs23.reps[b]
            p = prime_factors(rep.pair_generators()[0])[0]
            scaled = _fresh(rep)
            scaled._generators = tuple(tuple(p * x for x in g) for g in rep.generators())
            for a in range(len(cs23)):
                with pytest.raises(InvariantViolationError, match="index"):
                    pair_gram(cs23.reps[a], scaled)

    @staticmethod
    def _corrupt_action(monkeypatch, corrupt):
        real = ideal_module.RightIdeal.act
        monkeypatch.setattr(ideal_module.RightIdeal, "act",
                            lambda ideal, vec, den: corrupt(real(ideal, vec, den)))

    @staticmethod
    def _assert_no_counts_kept(cs):
        for ask in (lambda c: c.certify_unit_counts(),
                    lambda c: c.representation_counts(3)):
            fresh = _copy_class_set(cs, reps=[_fresh(rep) for rep in cs.reps])
            with pytest.raises(InvariantViolationError, match="not multiplicative"):
                ask(fresh)
            assert fresh.counts_upto == 0

    def test_corrupted_right_action_caught_or_harmless(self, cs23, monkeypatch):
        # v_0·o read as v_0·o + v_1, on every pair but those over the unit
        # ideal (b = 0, k = 1), which read no action. On representatives
        # whose o_g were built before the corruption (by the walk), 25 of the
        # 30 pairs fail a pair check; on the other 5 the wrong row spans the
        # same lattice mod k_b, and the theta series is the product
        # lattice's. o_g built under it fail their own check
        self._corrupt_action(monkeypatch, lambda rows: [
            [x + ((l, m) == (0, 1)) for m, x in enumerate(row)]
            for l, row in enumerate(rows)])
        caught = 0
        for b in range(1, len(cs23)):
            for a in range(len(cs23)):
                try:
                    gram = pair_gram(cs23.reps[a], cs23.reps[b])
                except InvariantViolationError as exc:
                    assert "index" in str(exc) or "integral" in str(exc)
                    caught += 1
                    continue
                want = pair_gram_oracle(cs23.reps[a], cs23.reps[b])
                assert value_counts(gram, 22) == value_counts(lagrange_reduce(want)[0], 22)
        assert caught == 25
        self._assert_no_counts_kept(cs23)

    def test_transposed_action_caught_by_the_class_set(self, cs23, monkeypatch):
        # The limit of the pair checks: on representatives whose o_g were
        # built before the corruption, a transposed action passes them on 10
        # of the 30 pairs with k_b > 1 with a wrong theta series, since they
        # see the span's index and the form's integrality, not the rows.
        # Building the o_g checks A(o·o') = A(o)·A(o') once, for o, o' in O
        # that do not commute, which the transpose fails, so the class set
        # raises before any count is kept
        self._corrupt_action(monkeypatch, lambda rows: [list(c) for c in zip(*rows)])
        wrong = []
        for b in range(1, len(cs23)):
            for a in range(len(cs23)):
                try:
                    gram = pair_gram(cs23.reps[a], cs23.reps[b])
                except InvariantViolationError:
                    continue
                want = pair_gram_oracle(cs23.reps[a], cs23.reps[b])
                if value_counts(gram, 22) != value_counts(lagrange_reduce(want)[0], 22):
                    wrong.append((a, b))
        assert len(wrong) == 10
        for rep in cs23.reps:
            with pytest.raises(InvariantViolationError, match="not multiplicative"):
                _fresh(rep).pair_generators()
        self._assert_no_counts_kept(cs23)

    def test_transposed_action_stops_the_walk(self, monkeypatch):
        # on a fresh order the walk builds each representative's o_g before
        # it keeps the class, so the check of `act` fails on the first
        # representative, before any class is kept or any count is read
        self._corrupt_action(monkeypatch, lambda rows: [list(c) for c in zip(*rows)])
        kept = []
        monkeypatch.setattr(classset_module, "_add",
                            lambda buckets, idx, rep: kept.append(idx))
        with pytest.raises(InvariantViolationError, match="not multiplicative"):
            ideal_class_set(eichler_order_for(23, 2), 3)
        assert kept == []


def test_uq_routes_agree_on_disc374_edge_classes():
    """The 80 edge classes of disc 374 at p = 5: the level-5 Eichler order."""
    cs = QuotientGraph(maximal_order(algebra_from_discriminant(374)), 5).edge_classes
    cs.representation_counts(17)  # one enumeration serves every q and ell
    _assert_uq_routes_agree(cs, [neighbor_matrix(cs, ell) for ell in (3, 7)])


class TestUqFromTheta:
    def _corrupt_pair(self, cs, q):
        """Raise N_ik(q) from 0 to w_k for classes i != k of equal unit count
        that U_q does not pair: rows i and k each gain a second 1."""
        u = uq_from_counts(cs, q)
        w = cs.unit_counts
        i, k = next((i, k) for i in range(len(cs)) for k in range(i + 1, len(cs))
                    if w[i] == w[k] and not u[i][k])
        cs._pair_counts[i, k][q] = w[k]
        return i

    def test_row_with_two_ones_caught(self, cs374):
        cs = _copy_class_set(cs374)
        i = self._corrupt_pair(cs, 17)
        with pytest.raises(InvariantViolationError, match=f"row {i} of U_17"):
            uq_from_counts(cs, 17)

    def test_corrupted_unit_counts_caught(self, cs374):
        # counts certified first, then the unit counts change under them
        cs = _copy_class_set(cs374)
        uq_from_counts(cs, 11)
        cs.unit_counts = [2 * w for w in cs.unit_counts]
        with pytest.raises(InvariantViolationError, match="unit count does not divide"):
            uq_from_counts(cs, 11)
        cs.unit_counts = [w // 2 for w in cs374.unit_counts]
        with pytest.raises(InvariantViolationError, match="U_11"):
            uq_from_counts(cs, 11)

    @pytest.mark.parametrize("rows,message", [
        ([[1, 1, 0], [1, 0, 0], [0, 0, 1]], "row 0 of U_7 is not a unit vector"),
        ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], "row 0 of U_7 is not a unit vector"),
        ([[0, 1, 0], [0, 1, 0], [0, 0, 1]], "not a permutation"),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "U_7² is not the identity"),
    ], ids=["two-ones", "a-two", "column-twice", "three-cycle"])
    def test_certificate_rejects(self, rows, message):
        with pytest.raises(InvariantViolationError, match=message):
            _certify_involution(rows, 7)


CLASS_SET_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "class_sets.json")


def _pinned_class_sets():
    """Name -> builder of each class set whose representatives are pinned:
    the sweep, disc 374 at neighbour primes 3 and 5, and the disc-374 edge
    classes at p = 5."""
    cases = {f"disc{d}-level{lv}": (lambda d=d, lv=lv: ideal_class_set(
        eichler_order_for(d, lv), first_coprime_prime(d * lv))) for d, lv in _SWEEP}
    for ell in (3, 5):
        cases[f"disc374-nb{ell}"] = lambda ell=ell: ideal_class_set(
            maximal_order(algebra_from_discriminant(374)), ell)
    cases["disc374-edge-p5"] = lambda: QuotientGraph(
        maximal_order(algebra_from_discriminant(374)), 5).edge_classes
    return cases


def class_set_digest(cs):
    """SHA-256 of the representatives' (den, rows), in class order."""
    data = [[rep.lattice.den, [list(r) for r in rep.lattice.rows]] for rep in cs.reps]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


_PINNED = _pinned_class_sets()


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_class_set_representatives_pinned(name):
    """Class order and representatives are byte for byte those of
    golden/class_sets.json: a faster lookup may not pick other ideals."""
    with open(CLASS_SET_GOLDEN) as fh:
        assert class_set_digest(_PINNED[name]()) == json.load(fh)[name]


def _idealizer_by_duality(alg, lat, side):
    """{x : x·L ⊆ L} (left) or {x : L·x ⊆ L} (right) as (L·L^#)^# or
    (L^#·L)^#, from `_trace_dual` and `_dual_of_products`, the two steps of
    `left_order_from_generators`. As trd is cyclic, trd(x·l·m) = trd((x·l)·m)
    and trd(l·x·m) = trd(x·(m·l)), and L^## = L, so x·l ∈ L for every l
    exactly when x pairs integrally with L·L^#, and l·x ∈ L exactly when x
    pairs integrally with L^#·L."""
    dual = _trace_dual(alg, lat)
    first, second = (lat, dual) if side == "left" else (dual, lat)
    return _dual_of_products(alg, first.rows, first.den, second.rows, second.den)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=16, max_size=16), st.integers(1, 6),
       st.sampled_from([(-1, -1), (-1, -11), (-2, -5), (-3, -10)]))
def test_idealizer_matches_oracle(entries, den, ab):
    # any full lattice, not only an ideal: trace duality against the
    # preimages x·b ∈ L iff x ∈ L·conj(b)/nrd(b)
    rows = [entries[4 * k:4 * k + 4] for k in range(4)]
    assume(cofactor_det_oracle(rows) != 0)
    alg = QuaternionAlgebra(*ab)
    lat = Lattice4(den, rows)
    for side in ("left", "right"):
        got = _idealizer_by_duality(alg, lat, side)
        assert got == idealizer_oracle(alg, lat, side)
        QuaternionOrder(alg, got)  # an idealizer is an order


_TRACE_DUAL_FORMS = [(-1, -1), (-2, -5), (2, -3), (-3, 7), (5, 2)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=6, max_size=6), st.integers(1, 6),
       st.sampled_from(_TRACE_DUAL_FORMS))
def test_trace_dual_matches_oracle(pivots, above, den, ab):
    # the closed-form upper-triangular adjugate against the dual basis of
    # M = rows·Q over Q, Q = diag(2, 2a, 2b, -2ab), on Hermite bases; a·b
    # takes both signs, so `_trace_dual`, which reads only a and b, gets a
    # stand-in algebra where a definite one cannot have them
    entries = iter(above)
    rows = [[0] * i + [pivots[i]] + [next(entries) for _ in range(i + 1, 4)]
            for i in range(4)]
    lat = Lattice4(den, rows)
    a, b = ab
    q = (2, 2 * a, 2 * b, -2 * a * b)
    m = [[Fraction(x, lat.den) * qc for x, qc in zip(row, q)] for row in lat.rows]
    assert _trace_dual(SimpleNamespace(a=a, b=b), lat) == \
        _fraction_lattice(_dual_basis_oracle(m))


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_left_orders_from_generators(disc, level):
    """(I·I^#)^# from the certified generators times I^# is the idealizer
    of the whole basis."""
    cs = _sweep_class_set(disc, level)
    for rep in cs.reps:
        assert rep.left_order() == QuaternionOrder(
            rep.alg, _idealizer_by_duality(rep.alg, rep.lattice, "left"))


def _unit_count_oracle(order):
    """Norm-1 elements by brute force over the box |x_i| <= sqrt(v·(T^-1)_ii),
    which holds every x with x^T T x = v (Cauchy-Schwarz), T the oracles'
    norm Gram after the oracles' Lagrange reduction, which keeps the box
    small, and v = 2·den^2."""
    gram = lagrange_reduce_oracle(norm_gram_oracle(order.alg, order.lattice))[0]
    value = 2 * order.lattice.den ** 2
    inv = _inverse_oracle(gram)
    box = max(math.isqrt(math.floor(value * inv[i][i])) for i in range(4))
    return count_vectors_of_norm(gram, value, box)


@pytest.mark.parametrize("disc,level", [(2, 1), (3, 1), (11, 1), (13, 2), (23, 2), (37, 3)])
def test_unit_count_matches_brute_force(disc, level):
    cs = _sweep_class_set(disc, level) if (disc, level) in _SWEEP else \
        ideal_class_set(eichler_order_for(disc, level), first_coprime_prime(disc * level))
    for order in [cs.order] + [rep.left_order() for rep in cs.reps]:
        assert QuaternionOrder(order.alg, order.lattice).unit_count() == \
            _unit_count_oracle(order)


class TestEichlerOrders:
    def test_level2_disc11(self):
        maxo = maximal_order(algebra_from_discriminant(11))
        o2 = eichler_order(maxo, 2, local_splitting)
        assert o2.reduced_discriminant() == 22
        cs = ideal_class_set(o2, 3)
        assert cs.mass == eichler_mass(11, 2) == Fraction(5, 4)

    def test_level5_disc11(self):
        maxo = maximal_order(algebra_from_discriminant(11))
        o5 = eichler_order(maxo, 5, local_splitting)
        cs = ideal_class_set(o5, 2)
        assert cs.mass == Fraction(5, 2)


class TestTwoSidedPrime:
    def test_square_is_q(self):
        # P_q is the Gram route's I·P_q of the unit ideal; P_q·P_q = qO is
        # checked on the sixteen products of the rows, q = 2 and 3 included
        for disc, q in ((11, 11), (2, 2), (3, 3), (30, 2), (30, 3), (30, 5)):
            order = maximal_order(algebra_from_discriminant(disc))
            pq = _times_prime(RightIdeal.unit_ideal(order), q).lattice
            sq = Lattice4(pq.den ** 2,
                          [order.alg.mul(x, y) for x in pq.rows for y in pq.rows])
            assert sq == Lattice4(order.lattice.den, [[q * x for x in r]
                                                      for r in order.lattice.rows])

    def test_unramified_rejected(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        with pytest.raises(UsageError, match="prime dividing the discriminant"):
            uq_by_classification(cs, 3)

    @pytest.mark.parametrize("q", [1, 6, -2])
    def test_bad_q_rejected_before_any_work(self, q):
        order = maximal_order(algebra_from_discriminant(30))
        cs = ideal_class_set(order, 11)
        for counted in (False, True):  # each U_q route
            if counted:
                neighbor_matrix(cs, 11)
            with pytest.raises(UsageError, match="prime dividing the discriminant"):
                uq_matrix(cs, q)
            assert cs.counts_upto == (11 if counted else 0)
        assert cs._classify_memo == {}

    @pytest.mark.parametrize("corrupt,fault", [
        (lambda gens: gens[1:], "not a right ideal"),  # a radical vector lost
        (lambda gens: gens + ((1, 0, 0, 0),), "nrd"),  # a vector not in it
    ])
    def test_corrupted_radical_fails_the_certificate(self, corrupt, fault, monkeypatch):
        # each lattice fails its certificate, which names q, before any
        # class is looked up
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(30)), 7)
        real = classset_module.kernel_mod
        monkeypatch.setattr(classset_module, "kernel_mod",
                            lambda *args: corrupt(real(*args)))
        for q in (2, 3, 5):
            with pytest.raises(InvariantViolationError, match=f"I·P_{q}: .*{fault}"):
                uq_by_classification(cs, q)
        assert cs._classify_memo == {}


class TestSplitting:
    def test_trace_and_norm_preserved(self):
        order = maximal_order(algebra_from_discriminant(11))
        rows, den = order.lattice.rows, order.lattice.den
        rng = random.Random(5)
        for ell, prec in ((2, 4), (3, 3), (5, 2), (13, 2)):
            spl = local_splitting(order, ell, prec)
            q = ell ** prec
            for _ in range(10):
                coords = tuple(rng.randint(-6, 6) for _ in range(4))
                # the element x/den, with trd(x)/den and nrd(x)/den^2 integers
                x = tuple(sum(c * r[k] for c, r in zip(coords, rows)) for k in range(4))
                trd, trd_rem = divmod(order.alg.trd(x), den)
                nrd, nrd_rem = divmod(order.alg.nrd(x), den * den)
                assert trd_rem == nrd_rem == 0
                m = spl.apply(coords)
                tr = (m[0][0] + m[1][1]) % q
                det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q
                assert tr == trd % q
                assert det == nrd % q

    @pytest.mark.parametrize("disc,level,ell,prec", [
        (2, 1, 3, 1), (2, 1, 5, 16), (11, 1, 2, 4), (11, 1, 3, 3), (11, 2, 5, 16),
        (23, 3, 2, 1), (37, 1, 7, 2), (47, 5, 3, 16), (97, 2, 13, 2)])
    def test_images_read_off_match_solve_mod(self, disc, level, ell, prec):
        # each basis image column c, read off the unit-pivot basis (v1, v2) of
        # (O/ell^prec)·e, solves c0·v1 + c1·v2 ≡ u·v mod ell^prec, and it is
        # the one solution: some 2x2 minor of (v1, v2) is an ell-unit
        order = eichler_order_for(disc, level)
        q = ell ** prec
        coords, t, n = splitting_module._find_split_element(order, ell)
        r1, r2 = splitting_module._hensel_roots(t, n, ell, prec)
        inv = pow((r1 - r2) % q, -1, q)
        e = tuple((inv * (c - r2 * o)) % q for c, o in zip(coords, order.one_coords()))
        units = [tuple(int(i == k) for k in range(4)) for i in range(4)]
        _, vbasis = splitting_module._row_reduce_unit(
            [order.coords_mul(u, e) for u in units], ell, q)
        v1, v2 = vbasis
        assert any((v1[i] * v2[j] - v1[j] * v2[i]) % ell
                   for i in range(4) for j in range(i + 1, 4))
        images = local_splitting(order, ell, prec).basis_images
        for u, image in zip(units, images):
            for col, v in enumerate(vbasis):
                c0, c1 = image[0][col], image[1][col]
                assert all((c0 * x + c1 * y - z) % q == 0
                           for x, y, z in zip(v1, v2, order.coords_mul(u, v)))


class TestEmbeddings:
    def test_gaussian_into_hurwitz(self):
        order = maximal_order(algebra_from_discriminant(2))
        emb = optimal_embedding(-4, 1, order)
        assert (emb.trace, emb.norm) == (0, 1)
        assert emb.optimality_index() == 1

    def test_eisenstein_into_disc11_base_search(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        base, emb = embedding_with_base(cs, -3, 1)
        assert (emb.trace, emb.norm) == (-1, 1)
        assert emb.optimality_index() == 1
        assert base.unit_count() == 6  # the type containing sixth roots of unity

    def test_conductor_five(self):
        cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
        _, emb = embedding_with_base(cs, -3, 5)
        assert (emb.trace, emb.norm) == (-5, 25)  # minimal polynomial of 5*omega
        assert emb.optimality_index() == 1

    def test_split_discprime_gate(self):
        order = maximal_order(algebra_from_discriminant(11))
        with pytest.raises(UsageError):
            optimal_embedding(-7, 1, order)  # -7 is a square mod 11

    def test_generator_convention(self):
        assert quadratic_generator(-3, 1) == (-1, 1)
        assert quadratic_generator(-4, 1) == (0, 1)
        assert quadratic_generator(-3, 5) == (-5, 25)


def _padded(a, budget):
    """a ⊕ [budget + 1] for a 3x3 form a."""
    return [list(row) + [0] for row in a] + [[0, 0, 0, budget + 1]]


def _padded_sequence(a, budget):
    """The rank-4 enumeration of a ⊕ [budget + 1], cut to three coordinates;
    the fourth is 0 on every vector within the budget."""
    hits = list(enumerate_by_value(_padded(a, budget), budget))
    assert all(vec[3] == 0 for _, vec in hits)
    return [(value, vec[:3]) for value, vec in hits]


class TestTraceNormPadding:
    """The rank-3 trace-norm search runs on the rank-4 enumerator: its form
    a is padded to a ⊕ [budget + 1], and the candidates come in the order of
    the generic oracle's enumeration of a, so `MAX_CANDIDATES` counts the
    same vectors."""

    # (N-, p, K, conductor): W1 and the lfun-tower configurations, whose
    # class sets are walked avoiding p, and the conductor-5 embedding
    CASES = [(11, 5, -3, 1), (17, 5, -3, 1), (11, 3, -4, 1), (11, 5, -3, 5)]

    @pytest.mark.parametrize("disc,p,disc_k,conductor", CASES)
    def test_golden_embeddings_walk_the_oracle_sequence(self, monkeypatch, disc, p,
                                                        disc_k, conductor):
        calls = []
        real = embedding_module.enumerate_by_value

        def recording(gram, budget):
            calls.append((gram, budget))
            return real(gram, budget)
        monkeypatch.setattr(embedding_module, "enumerate_by_value", recording)
        cs = class_set_avoiding(eichler_order_for(disc, 1), p)
        _, emb = embedding_with_base(cs, disc_k, conductor)
        assert emb.optimality_index() == 1
        assert calls
        for gram, budget in calls:
            a = [row[:3] for row in gram[:3]]
            assert gram == _padded(a, budget)
            assert _padded_sequence(a, budget) == list(enumerate_by_value_oracle(a, budget))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9),
           st.lists(st.integers(1, 6), min_size=3, max_size=3), st.integers(0, 400))
    @example([0] * 9, [1, 1, 1], 400)  # I_3: the most vectors, 33,400
    @example([0] * 9, [1, 6, 6], 2)  # budget + 1 sorts between 1 and 6
    def test_random_ternary_forms(self, entries, diagonal, budget):
        # A^T A + diag(d), a positive definite 3x3 form
        m = [entries[3 * k:3 * k + 3] for k in range(3)]
        a = [[sum(m[k][i] * m[k][j] for k in range(3)) + (i == j) * diagonal[i]
              for j in range(3)] for i in range(3)]
        assert _padded_sequence(a, budget) == list(enumerate_by_value_oracle(a, budget))



EMBEDDING_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "embeddings.json")
_EMBEDDING_DISCS_K = (-3, -4, -7, -8, -11, -19, -20, -23, -24)


def _pinned_embedding_cases():
    """disc -> the K whose embedding is pinned: every squarefree disc < 80
    with an odd number of primes, and each K of _EMBEDDING_DISCS_K in which
    no prime of the disc splits."""
    cases = {}
    for disc in range(2, 80):
        primes = prime_factors(disc)
        if len(primes) % 2 and math.prod(primes) == disc:
            cases[disc] = [k for k in _EMBEDDING_DISCS_K
                           if all(kronecker_oracle(k, q) != 1 for q in primes)]
    return {disc: ks for disc, ks in cases.items() if ks}


_EMBEDDING_CASES = _pinned_embedding_cases()


def _embedding_golden():
    with open(EMBEDDING_GOLDEN) as fh:
        return json.load(fh)


def test_embedding_golden_covers_the_grid():
    names = {f"disc{disc}-K{k}" for disc, ks in _EMBEDDING_CASES.items() for k in ks}
    assert len(names) == 120 and set(_embedding_golden()) == names


@pytest.mark.parametrize("disc", sorted(_EMBEDDING_CASES))
def test_embeddings_pinned(disc):
    """The base order and the coordinates that `embedding_with_base` picks
    on the class set of the maximal order are those of
    golden/embeddings.json: a new trace-norm search may not pick another
    embedding."""
    golden = _embedding_golden()
    cs = class_set_avoiding(maximal_order(algebra_from_discriminant(disc)))
    for k in _EMBEDDING_CASES[disc]:
        base, emb = embedding_with_base(cs, k, 1)
        den, rows = base.lattice.key()
        assert {"den": den, "rows": [list(r) for r in rows], "coords": list(emb.coords)} \
            == golden[f"disc{disc}-K{k}"]


class TestLattice4:
    def test_hnf_canonical(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            import copy
            det = cofactor_det_oracle(rows)
            if det == 0:
                continue
            l1 = Lattice4(1, copy.deepcopy(rows))
            # shuffle generators; same lattice, same canonical form
            shuffled = rows[::-1] + [[a + b for a, b in zip(rows[0], rows[1])]]
            l2 = Lattice4(1, shuffled)
            assert l1 == l2

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-60, 60), min_size=4, max_size=4),
                    min_size=1, max_size=16),
           st.lists(st.integers(0, 15), max_size=15), st.integers(0, 4))
    def test_hnf_matches_oracle(self, rows, copies, zero_cols):
        # copies repeat earlier rows (up to 16 rows in all), and the last
        # zero_cols columns are cleared, so duplicates and rank < 4 both occur
        rows = [r[:4 - zero_cols] + [0] * zero_cols for r in rows]
        rows += [rows[i % len(rows)] for i in copies][:16 - len(rows)]
        expect = hnf_oracle(rows)
        if len(expect) < 4:
            with pytest.raises(InvariantViolationError,
                               match=f"expected rank 4, got {len(expect)}"):
                hnf_rows(rows)
        else:
            assert hnf_rows(rows) == expect

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.lists(st.lists(st.integers(-40, 40), min_size=4,
                                                  max_size=4), max_size=10))
    def test_hnf_mod_matches_oracle(self, k, rows):
        unit = [[k * (r == c) for c in range(4)] for r in range(4)]
        assert hnf_mod(rows, k) == hnf_oracle(unit + rows)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.lists(st.lists(st.integers(-30, 30), min_size=4,
                                                  max_size=4), min_size=4, max_size=6),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4), st.integers(1, 6),
           st.lists(st.integers(-400, 400), min_size=4, max_size=4), st.integers(1, 60))
    def test_coordinates_match_fraction_solve(self, lat_den, rows, coords, scale,
                                              vec, den):
        # a member built from integer coordinates over den = scale·lat.den,
        # and an arbitrary vec/den, each against c = (vec/den)·B^-1 in
        # Fractions: integer coordinates exactly when the element is in L
        assume(len(hnf_oracle(rows)) == 4)
        lat = Lattice4(lat_den, rows)
        inv = _inverse_oracle(_fraction_basis(lat))

        def solve(v, d):
            c = [sum(Fraction(v[i], d) * inv[i][j] for i in range(4)) for j in range(4)]
            return tuple(int(x) for x in c) if all(x.denominator == 1 for x in c) else None

        member = [scale * sum(c * r[k] for c, r in zip(coords, lat.rows)) for k in range(4)]
        assert lat.coordinates(member, scale * lat.den) == tuple(coords)
        assert solve(member, scale * lat.den) == tuple(coords)
        assert lat.coordinates(vec, den) == solve(vec, den)
        assert lat.contains(vec, den) == (solve(vec, den) is not None)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=16, max_size=16))
    def test_adjugate4(self, entries):
        m = [entries[4 * r:4 * r + 4] for r in range(4)]
        det, adj = adjugate4(m)
        assert det == cofactor_det_oracle(m)
        scalar = [[det * (r == c) for c in range(4)] for r in range(4)]
        assert _matmul(m, adj) == _matmul(adj, m) == scalar

    def test_enumeration_against_box_oracle(self):
        gram = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 4, 1], [0, 0, 1, 6]]
        for value in (2, 4, 5, 8):
            got = sum(v == value for v, _ in enumerate_by_value(gram, value))
            expect = count_vectors_of_norm(gram, value, box=6)
            assert got == expect

    def test_random_forms_against_box_oracle(self):
        # random positive definite quaternary forms, every value up to 12;
        # the box holds the whole ellipsoid: |x_i| <= sqrt(v·(G^-1)_ii)
        rng = random.Random(31)
        tried = 0
        while tried < 12:
            a = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            gram = [[sum(a[k][i] * a[k][j] for k in range(4)) + (i == j) * rng.randint(1, 3)
                     for j in range(4)] for i in range(4)]
            inv = _inverse_oracle(gram)
            box = max(math.isqrt(math.floor(12 * inv[i][i])) for i in range(4))
            if box > 4:
                continue
            tried += 1
            for value in range(1, 13):
                got = [vec for v, vec in enumerate_by_value(gram, value) if v == value]
                assert len(got) == count_vectors_of_norm(gram, value, box)
                assert all(sum(x * gram[i][j] * y for i, x in enumerate(v)
                               for j, y in enumerate(v)) == value for v in got)

    def test_count_values(self):
        # Q(x) = 2·|x|^2 on Z^4: value 2 has the 8 vectors ±e_i, value 4 the
        # 24 vectors ±e_i ± e_j, i < j
        counts = value_counts(_diagonal([2, 2, 2, 2]), 4)
        assert counts == [0, 0, 8, 0, 24]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=16, max_size=16),
           st.lists(st.integers(1, 3), min_size=4, max_size=4))
    def test_shortest_against_box_oracle(self, entries, diagonal):
        # G = A^T A + diag(d) is a positive definite quaternary integer form;
        # the box holds every vector of value <= min G_ii, hence a minimum
        a = [entries[4 * k:4 * k + 4] for k in range(4)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(4)) + (i == j) * diagonal[i]
                 for j in range(4)] for i in range(4)]
        bound = min(gram[i][i] for i in range(4))
        inv = _inverse_oracle(gram)
        boxes = [math.isqrt(math.floor(bound * inv[i][i])) for i in range(4)]
        value, vec = shortest_value_and_vector(gram)
        assert value == minimum_of_form(gram, boxes)
        assert any(vec) and sum(x * gram[i][j] * y for i, x in enumerate(vec)
                                for j, y in enumerate(vec)) == value
        # the tie-break: the first minimal vector, whatever the bound
        assert (value, vec) == min(enumerate_by_value(gram, 2 * bound),
                                   key=lambda hit: hit[0])

    def test_short_vector_kernel_makes_no_fractions(self, monkeypatch):
        made = []
        plain_new = Fraction.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return plain_new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        Fraction(1, 2)
        assert len(made) == 1  # the counter sees every Fraction
        made.clear()
        gram = [[4, 1, 2, 0], [1, 6, -1, 1], [2, -1, 8, 3], [0, 1, 3, 10]]
        assert value_counts(gram, 20)[4] > 0
        assert list(enumerate_by_value(gram, 20))
        assert shortest_value_and_vector(gram)[0] == 4
        assert hnf_rows(gram + [[1, 2, 3, 4]])
        assert made == []

    @pytest.mark.parametrize("gram", [
        # x^2 + 4xy + y^2, indefinite, beside I_2; then a zero pivot
        [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]])
    def test_not_positive_definite_raises_before_any_vector(self, gram):
        with pytest.raises(UsageError, match="not positive definite"):
            next(enumerate_by_value(gram, 5))
        with pytest.raises(UsageError, match="not positive definite"):
            shortest_value_and_vector(gram)
        with pytest.raises(UsageError, match="not positive definite"):
            value_counts(gram, 5)


def _definite_gram(entries, diagonal):
    """A^T A + diag(d): a positive definite 4×4 integer Gram."""
    a = [entries[4 * k:4 * k + 4] for k in range(4)]
    return [[sum(a[k][i] * a[k][j] for k in range(4)) + (i == j) * diagonal[i]
             for j in range(4)] for i in range(4)]


def _fibonacci_gram(n):
    """U^T U for U the n-th Fibonacci matrix: the form x^2 + y^2 in a basis
    that pairwise reduction undoes a few steps per pass."""
    f = [0, 1]
    while len(f) < n + 2:
        f.append(f[-1] + f[-2])
    u = [[f[n + 1], f[n]], [f[n], f[n - 1]]]
    return [[sum(u[k][i] * u[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


class TestKernelsAgainstOracles:
    """The rank-4 kernels give exactly their oracles' outputs: the same
    (R, U), the same norm Gram, the same enumeration sequence."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40)),
                    min_size=16, max_size=16),
           st.lists(st.one_of(st.integers(1, 4), st.integers(1, 2 ** 70)),
                    min_size=4, max_size=4))
    def test_lagrange_reduce_matches_oracle(self, entries, diagonal):
        # entries up to 2^40 give Gram entries beyond 2^64
        gram = _definite_gram(entries, diagonal)
        assert lagrange_reduce(gram) == lagrange_reduce_oracle(gram)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-500, -1), st.integers(-500, -1),
           st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=16, max_size=16))
    def test_norm_gram_matches_oracle(self, a, b, entries):
        alg = QuaternionAlgebra(a, b)
        # norm_gram reads the rows in any basis, not only a Hermite one
        lat = SimpleNamespace(den=1, rows=[entries[4 * k:4 * k + 4] for k in range(4)])
        assert alg.norm_gram(lat) == norm_gram_oracle(alg, lat)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(-2, 2), st.integers(-20, 20)),
                    min_size=16, max_size=16),
           st.lists(st.integers(1, 3), min_size=4, max_size=4), st.integers(0, 60))
    @example([0] * 16, [1, 1, 1, 1], 60)  # Z^4 itself: about 18,000 vectors
    def test_enumeration_sequence_matches_oracle(self, entries, diagonal, bound):
        # the order of the vectors, not only their set: ties and witnesses
        # are the first hits; small entries keep many draws dense enough to
        # have vectors below the bound
        gram = _definite_gram(entries, diagonal)
        hits = list(enumerate_by_value(gram, bound))
        assert hits == list(enumerate_by_value_oracle(gram, bound))
        counts = [0] * (bound + 1)
        for value, _ in hits:
            counts[value] += 1
        assert value_counts(lagrange_reduce(gram)[0], bound) == counts

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                    min_size=4, max_size=6),
           st.lists(st.integers(-2, 2), min_size=16, max_size=16),
           st.lists(st.integers(1, 3), min_size=4, max_size=4), st.integers(0, 60))
    def test_search_on_unreduced_hermite_grams(self, rows, entries, diagonal, bound):
        # the Gram of a Hermite basis of a sublattice, unreduced and often
        # skewed, as the class set's pair forms are: the written-out search
        # gives the oracle's sequence on it too
        basis = hnf_oracle(rows)
        assume(len(basis) == 4)
        form = _definite_gram(entries, diagonal)
        gram = [[sum(b[i] * form[i][j] * c[j] for i in range(4) for j in range(4))
                 for c in basis] for b in basis]
        hits = list(lattice_module._fincke_pohst(lattice_module.PreparedForm(gram), bound))
        assert hits == list(_fincke_pohst_oracle(gram, bound))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40)),
                    min_size=16, max_size=16),
           st.lists(st.one_of(st.integers(1, 4), st.integers(1, 2 ** 70)),
                    min_size=4, max_size=4),
           st.integers(0, 60))
    def test_value_counts_match_oracle(self, entries, diagonal, bound):
        # one of each ±x counted twice, against every vector counted once;
        # entries up to 2^40 give Gram entries beyond 2^64
        gram = _definite_gram(entries, diagonal)
        assert value_counts(gram, bound) == value_counts_oracle(gram, bound)

    @pytest.mark.parametrize("gram", [[[2, 1]], [[2, 1], [1]], [[2, 1, 0], [1, 2, 0]]])
    def test_lagrange_rejects_a_non_square_gram(self, gram):
        with pytest.raises(UsageError, match="square"):
            lagrange_reduce(gram)

    def test_lagrange_rejects_a_non_symmetric_gram(self):
        # the update reads one triangle, so the other may not differ
        with pytest.raises(UsageError, match="symmetric"):
            lagrange_reduce([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])

    def test_lagrange_raises_when_not_converged(self):
        # x^2 + y^2 in a Fibonacci basis after I_2, so the steps between
        # b_2 and b_3 do the work: n = 3000 needs fewer than 1000 passes,
        # n = 5000 more; the unconverged basis is not returned
        def after_identity(gram):
            return [[1, 0, 0, 0], [0, 1, 0, 0],
                    [0, 0] + list(gram[0]), [0, 0] + list(gram[1])]
        assert lagrange_reduce(after_identity(_fibonacci_gram(3000)))[0] == \
            [tuple(int(r == c) for c in range(4)) for r in range(4)]
        with pytest.raises(InvariantViolationError, match="still changing"):
            lagrange_reduce(after_identity(_fibonacci_gram(5000)))


def _diagonal(entries):
    return [[x if r == c else 0 for c, x in enumerate(entries)] for r in range(len(entries))]


class TestRank4Falsifiers:
    """Each check of the rank-4 closed forms, reached by a 4x4 input."""

    _RUNS = (lagrange_reduce, lattice_module.PreparedForm,
             lambda g: value_counts(g, 4), lambda g: next(enumerate_by_value(g, 4)),
             shortest_value_and_vector)

    @pytest.mark.parametrize("gram", [
        [[2, 1, 0, 0], [1, 2, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
        [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 2]],
    ], ids=["short-row", "long-row"])
    def test_non_square(self, gram):
        for run in self._RUNS:
            with pytest.raises(UsageError, match="square"):
                run(gram)

    def test_non_symmetric(self):
        gram = [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]
        for run in self._RUNS:
            with pytest.raises(UsageError, match="symmetric"):
                run(gram)

    @pytest.mark.parametrize("pivot,gram", [
        # diagonal forms whose leading minors fail at one pivot only
        (1, _diagonal([-1, -1, 1, 1])),
        (2, _diagonal([1, -1, -1, 1])),
        (3, _diagonal([1, 1, -1, -1])),
        (4, _diagonal([1, 1, 1, -1])),
        # three vectors of A2 that sum to 0, then an orthogonal one
        (3, [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, 0], [0, 0, 0, 3]]),
        # the four vectors e_i - e_(i+1) of A3 around a cycle: rank 3
        (4, [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]),
    ], ids=["D1", "D2", "D3", "D4", "D3-A2", "D4-A3"])
    def test_not_positive_definite_raises_before_any_vector(self, pivot, gram):
        minors = [cofactor_det_oracle([row[:k] for row in gram[:k]]) for k in range(1, 5)]
        assert all(d > 0 for d in minors[:pivot - 1]) and minors[pivot - 1] <= 0
        for run in self._RUNS[1:]:
            with pytest.raises(UsageError, match="not positive definite"):
                run(gram)

    def test_lagrange_raises_when_not_converged(self):
        # the Fibonacci basis of x^2 + y^2 beside I_2: as at rank 2, n = 3000
        # converges within the passes and n = 5000 does not
        def plus_identity(gram):
            return [list(gram[0]) + [0, 0], list(gram[1]) + [0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]]
        assert lagrange_reduce(plus_identity(_fibonacci_gram(3000)))[0] == \
            [tuple(int(r == c) for c in range(4)) for r in range(4)]
        with pytest.raises(InvariantViolationError, match="still changing"):
            lagrange_reduce(plus_identity(_fibonacci_gram(5000)))

    def test_hnf_expect_rank(self):
        # rank 2: the oracle gives the form, hnf_rows refuses it
        rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 5]]
        assert hnf_oracle(rows) == [[1, 0, 3, -6], [0, 1, 0, 5]]
        with pytest.raises(InvariantViolationError, match="expected rank 4, got 2"):
            hnf_rows(rows)


def test_counts_past_the_bound_are_refused_unenumerated():
    cs = ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)
    with pytest.raises(ResourceLimitError, match="theta-series bound"):
        cs.representation_counts(classset_module.MAX_COUNT_NRD + 1)
    assert cs.counts_upto == 0
