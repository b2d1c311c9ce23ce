import hashlib
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatlfun.brandtforms import QuotientGraph
from quatlfun.errors import (InvariantViolationError, SearchExhaustedError,
                             UsageError)
from quatlfun.primes import first_coprime_prime, is_prime, prime_factors
from quatlfun.quatarith import (ClassSet, Lattice4, QuaternionAlgebra,
                                QuaternionOrder, RightIdeal,
                                algebra_from_discriminant, eichler_mass,
                                eichler_order, eichler_order_for,
                                hilbert_symbol,
                                ideal_class_set, isometric, isometry_witness,
                                local_splitting,
                                maximal_order, neighbor_matrix, neighbors,
                                optimal_embedding, quadratic_generator,
                                ramified_primes, standard_order,
                                two_sided_prime)
from quatlfun.quatarith.classset import _add, _match
from quatlfun.quatarith.embedding import embedding_with_base
from quatlfun.quatarith.ideal import reduce_ideal
from quatlfun.quatarith import ideal as ideal_module
from quatlfun.quatarith import lattice as lattice_module
from quatlfun.quatarith.lattice import (enumerate_by_value, hnf_rows,
                                        integer_kernel, invert,
                                        shortest_value_and_vector,
                                        value_counts)
from quatlfun.quatarith.order import _idealizer

from oracles import (count_vectors_of_norm, hilbert_symbol_oracle, hnf_oracle,
                     idealizer_oracle, kronecker_oracle, minimum_of_form,
                     neighbor_matrix_oracle)


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
        # Z<1,i,j,k> in (-5, -2·disc) is already hereditary at 5: the
        # radical's idealizers add nothing there, and saturation must still
        # reach a maximal order
        alg = algebra_from_discriminant(disc)
        assert (alg.a, alg.b) == ab
        assert maximal_order(alg).reduced_discriminant() == disc
        for level, psi in ((1, 1), (2, 3)):
            cs = ideal_class_set(eichler_order_for(disc, level), 3)
            assert cs.mass == Fraction(disc - 1, 24) * psi


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

    def test_witness_lies_in_the_order(self):
        cs = _WITNESS_CLASS_SETS[23]
        spl = local_splitting(cs.order, 3, 1)
        for nb in neighbors(cs.reps[1], 3, spl):
            rep = cs.reps[cs.classify(reduce_ideal(nb))]
            vec, den = isometry_witness(nb, rep)
            assert cs.order.lattice.contains(vec, den)


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
        swapped.verify_mass()  # the mass cannot see the swap
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


@pytest.mark.parametrize("disc,level", _SWEEP,
                         ids=[f"disc{d}-level{lv}" for d, lv in _SWEEP])
def test_brandt_matches_neighbour_oracle(disc, level):
    """The theta route against the neighbour walk at the first two good primes
    and the first good prime above 20; the idealizers of every representative
    against the Fraction route."""
    n = disc * level
    cs = ideal_class_set(eichler_order_for(disc, level), first_coprime_prime(n))
    ells = _coprime_primes(n, 2) + _coprime_primes(n, 1, start=21)
    got = {ell: neighbor_matrix(cs, ell) for ell in sorted(ells, reverse=True)}
    assert got == {ell: neighbor_matrix_oracle(cs, ell) for ell in ells}
    for rep in cs.reps:
        for side in ("left", "right"):
            assert _idealizer(rep.alg, rep.lattice, side) == \
                idealizer_oracle(rep.alg, rep.lattice, side)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=16, max_size=16), st.integers(1, 6),
       st.sampled_from([(-1, -1), (-1, -11), (-2, -5), (-3, -10)]))
def test_idealizer_matches_oracle(entries, den, ab):
    # any full lattice, not only an ideal: x·b ∈ L iff x ∈ L·conj(b)/nrd(b)
    rows = [entries[4 * k:4 * k + 4] for k in range(4)]
    assume(_naive_det(rows) != 0)
    alg = QuaternionAlgebra(*ab)
    lat = Lattice4(den, rows)
    for side in ("left", "right"):
        got = _idealizer(alg, lat, side)
        assert got == idealizer_oracle(alg, lat, side)
        QuaternionOrder(alg, got)  # an idealizer is an order


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
        order = maximal_order(algebra_from_discriminant(11))
        p11 = two_sided_prime(order, 11)
        sq = RightIdeal(order, p11).product_lattice(p11)
        assert sq == Lattice4(order.lattice.den, [[11 * x for x in r]
                                                  for r in order.lattice.rows])

    def test_unramified_rejected(self):
        order = maximal_order(algebra_from_discriminant(11))
        with pytest.raises(UsageError):
            two_sided_prime(order, 3)


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


class TestLattice4:
    def test_hnf_canonical(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            import copy
            det = _naive_det(rows)
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
        assert hnf_rows(rows) == expect
        if len(expect) < 4:
            with pytest.raises(InvariantViolationError, match="expected rank 4"):
                hnf_rows(rows, expect_rank=4)
        else:
            assert hnf_rows(rows, expect_rank=4) == expect

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([4, 8]), st.lists(st.integers(-60, 60), min_size=64, max_size=64))
    def test_hnf_matches_oracle_on_kernel_input(self, n, entries):
        # integer_kernel's augmented array: n rows of length 12, each the
        # coefficients of one unknown in the 12 - n equations, then the unit
        # row that records it (n = 8 is what Lattice4.intersection passes)
        m = 12 - n
        rows = [entries[m * i:m * i + m] + [int(i == j) for j in range(n)] for i in range(n)]
        assert hnf_rows(rows) == hnf_oracle(rows)

    def test_intersection_and_sum(self):
        a = Lattice4(1, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        b = Lattice4(1, [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        inter = a.intersection(b)
        assert inter.contains((2, 0, 0, 0)) and inter.contains((0, 3, 0, 0))
        assert not inter.contains((1, 0, 0, 0))
        assert a.sum(b).contains((1, 0, 0, 0))

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
            inv = invert(gram)
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
        # Q(x,y) = 2x^2 + 2y^2: value 2 has 4 vectors, value 4 has 4 vectors
        counts = value_counts([[2, 0], [0, 2]], 4)
        assert counts == [0, 0, 4, 0, 4]

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
        inv = invert(gram)
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
        assert hnf_rows(gram + [[1, 2, 3, 4]], expect_rank=4)
        assert made == []

    @pytest.mark.parametrize("gram", [[[1, 2], [2, 1]], [[0, 0], [0, 1]]])
    def test_not_positive_definite_raises_before_any_vector(self, gram):
        with pytest.raises(UsageError, match="not positive definite"):
            next(enumerate_by_value(gram, 5))
        with pytest.raises(UsageError, match="not positive definite"):
            shortest_value_and_vector(gram)
        with pytest.raises(UsageError, match="not positive definite"):
            value_counts(gram, 5)

    def test_integer_kernel(self):
        rows = [[2, 4, 6, 0], [1, 2, 3, 0]]
        ker = integer_kernel(rows)
        assert len(ker) == 3
        for v in ker:
            assert all(sum(r[i] * v[i] for i in range(4)) == 0 for r in rows)


def _naive_det(rows):
    from itertools import permutations
    total = 0
    for perm in permutations(range(4)):
        sign = 1
        seen = [False] * 4
        for i in range(4):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(4):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total
