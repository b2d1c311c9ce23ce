import dataclasses

import pytest

from quatlfun import admraise
from quatlfun.admraise import (AdmissibleCert, eisenstein_test, is_n_admissible,
                               raise_level_search, search_admissible)
from quatlfun.brandtforms import EigenSystem, QuotientGraph, eigensystems_mod
from quatlfun.errors import DataMissingError, UsageError
from quatlfun.primes import is_prime
from quatlfun.quatarith import (algebra_from_discriminant, ideal_class_set,
                                maximal_order)
from quatlfun.quatarith import classset

from oracles import curve_a_ell, kronecker_oracle


@pytest.fixture(scope="module")
def f11a_mod5():
    sample = [ell for ell in range(2, 51) if is_prime(ell)]
    avals = {ell: curve_a_ell(ell) % 5 for ell in sample if ell != 11}
    return EigenSystem(5, 1, avals, {11: 1}, "point-count oracle")


class TestAdmissible:
    def test_v2_certificate(self, f11a_mod5):
        cert, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        assert cert is not None and cert.eps == 1
        # 2 + 1 - (-2) = 5, the congruence witness from the point count
        assert (2 + 1 + 2) % 5 == 0
        assert cert.reverify()

    def test_v17_certificate(self, f11a_mod5):
        cert, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)
        assert cert is not None and cert.eps == 1
        assert kronecker_oracle(-3, 17) == -1
        assert (17 + 1 - curve_a_ell(17)) % 5 == 0  # 18 + 2 = 20

    def test_ramified_rejected(self, f11a_mod5):
        cert, reason = is_n_admissible(3, f11a_mod5, -3, 5, 1, 55)
        assert cert is None and reason == "ramified in K"

    def test_split_rejected(self, f11a_mod5):
        cert, reason = is_n_admissible(7, f11a_mod5, -3, 5, 1, 55)
        assert cert is None and reason == "split in K"
        assert kronecker_oracle(-3, 7) == 1

    def test_level_prime_rejected(self, f11a_mod5):
        cert, reason = is_n_admissible(11, f11a_mod5, -3, 5, 1, 55)
        assert cert is None and "level" in reason

    def test_vsquared_condition(self):
        # v = 19 has 5 | 19^2 - 1; make it inert artificially via K = -23
        system = EigenSystem(5, 1, {19: 0}, {})
        assert kronecker_oracle(-23, 19) == -1
        cert, reason = is_n_admissible(19, system, -23, 5, 1, 55)
        assert cert is None and "v^2 - 1" in reason

    def test_missing_eigenvalue(self):
        system = EigenSystem(5, 1, {2: 3}, {})
        with pytest.raises(DataMissingError):
            is_n_admissible(23, system, -3, 5, 1, 55)

    def test_search_bound_25(self, f11a_mod5):
        certs = search_admissible(f11a_mod5, -3, 5, 1, 25, 55)
        assert [(c.v, c.eps) for c in certs] == [(2, 1), (17, 1), (23, 1)]

    def test_search_trivial_bound(self, f11a_mod5):
        assert search_admissible(f11a_mod5, -3, 5, 1, 1, 55) == []

    def test_prefix_property(self, f11a_mod5):
        small = search_admissible(f11a_mod5, -3, 5, 1, 25, 55)
        large = search_admissible(f11a_mod5, -3, 5, 1, 47, 55)
        assert [c.v for c in large][:len(small)] == [c.v for c in small]

    @pytest.mark.parametrize("v", [8, 20, 35, 65])
    def test_composite_v_fails_reverification(self, v):
        # every other condition holds: v is prime to 55, inert in Q(sqrt -3)
        # by the Kronecker symbol, 5 does not divide v^2 - 1, and
        # 5 | v + 1 - a_v
        cert = AdmissibleCert(v, 1, 5, 1, -3, 55, (v + 1) % 5, -1)
        assert not cert.reverify()


class TestEisenstein:
    def test_eleven_a_mod5_is_eisenstein_congruent(self, f11a_mod5):
        # the level-11 Eisenstein ideal at 5: a_ell = ell + 1 mod 5 everywhere
        assert eisenstein_test(f11a_mod5, [2, 3, 7]) is True
        assert eisenstein_test(f11a_mod5, [2, 3, 7, 13, 19, 23, 29]) is True

    def test_eleven_a_mod7_is_not(self):
        avals = {ell: curve_a_ell(ell) % 7 for ell in (2, 3, 5)}
        system = EigenSystem(7, 1, avals, {})
        assert eisenstein_test(system, [2, 3, 5]) is False

    def test_trivial_system(self):
        system = EigenSystem(5, 1, {ell: ell + 1 for ell in (2, 3, 7)}, {})
        assert eisenstein_test(system, [2, 3, 7]) is True

    def test_empty_sample_rejected(self, f11a_mod5):
        with pytest.raises(UsageError):
            eisenstein_test(f11a_mod5, [])


SAMPLE_374 = [ell for ell in range(2, 51) if is_prime(ell)
              and (2 * 5 * 11 * 17) % ell != 0]

# Every cuspidal vertex eigensystem mod 5 on disc 374 = 2·11·17, as
# (T_ell at the samples, U_q at 2, 11, 17, Eisenstein flag), in search order.
CUSPIDAL_374 = [
    ({3: 0, 7: 0, 13: 4, 19: 2, 23: 3, 29: 2, 31: 4, 37: 3, 41: 2, 43: 3, 47: 3},
     {2: 4, 11: 4, 17: 1}, False),
    ({3: 0, 7: 3, 13: 3, 19: 1, 23: 1, 29: 1, 31: 3, 37: 1, 41: 3, 43: 1, 47: 0},
     {2: 4, 11: 4, 17: 4}, False),
    ({3: 1, 7: 4, 13: 1, 19: 4, 23: 0, 29: 2, 31: 0, 37: 0, 41: 0, 43: 1, 47: 4},
     {2: 4, 11: 1, 17: 4}, False),
    ({3: 2, 7: 1, 13: 4, 19: 2, 23: 1, 29: 4, 31: 1, 37: 4, 41: 2, 43: 2, 47: 3},
     {2: 1, 11: 1, 17: 1}, False),
    ({3: 2, 7: 3, 13: 1, 19: 3, 23: 2, 29: 3, 31: 0, 37: 3, 41: 0, 43: 2, 47: 0},
     {2: 4, 11: 4, 17: 1}, False),
    ({3: 4, 7: 1, 13: 1, 19: 2, 23: 0, 29: 0, 31: 0, 37: 3, 41: 0, 43: 2, 47: 0},
     {2: 1, 11: 4, 17: 4}, False),
    ({3: 4, 7: 3, 13: 4, 19: 0, 23: 4, 29: 0, 31: 2, 37: 3, 41: 2, 43: 4, 47: 3},
     {2: 1, 11: 1, 17: 1}, True),
]


def assignments(candidates):
    return [(c.a, c.u, eisenstein_test(c, c.a)) for c in candidates]


@pytest.fixture(scope="module")
def classes374():
    """The disc-374 classes at neighbour prime 5: another basis than the
    search's, which walks at first_coprime_prime(374·5) = 3."""
    return ideal_class_set(maximal_order(algebra_from_discriminant(374)), 5)


@pytest.fixture(scope="module")
def report374(f11a_mod5):
    c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
    c2, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)
    return raise_level_search(f11a_mod5, c1, c2, old_disc=11, level=1,
                              sample_primes=SAMPLE_374)


@pytest.fixture(scope="module")
def raised_pair(report374):
    assert report374.success, report374.detail
    return report374.pair


class TestRaiseLevel:
    def test_distinctness_gate(self, f11a_mod5):
        c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        with pytest.raises(UsageError):
            raise_level_search(f11a_mod5, c1, c1, 11, 1, [3])

    @pytest.mark.parametrize("wrong", ["n-below", "other-p", "other-a_v"])
    def test_certificates_for_another_run_rejected_before_any_work(
            self, f11a_mod5, wrong, monkeypatch):
        # each certificate re-verifies on its own, but not for this system:
        # 2 and 17 are 1-admissible for 11a mod 5 but not 2-admissible for
        # 11a mod 25; a certificate at p = 7; one whose a_2 is not the
        # system's
        c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        c2, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)
        system = f11a_mod5
        if wrong == "n-below":
            system = EigenSystem(5, 2, {ell: curve_a_ell(ell) % 25 for ell in f11a_mod5.a},
                                 {11: 1}, "point-count oracle")
            assert [is_n_admissible(v, system, -3, 5, 2, 55)[1] for v in (2, 17)] == \
                ["p^n divides neither v+1-a_v nor v+1+a_v"] * 2
        elif wrong == "other-p":
            c1 = AdmissibleCert(2, 1, 7, 1, -3, 77, 3, -1)
        else:
            c1 = dataclasses.replace(c1, eps=-1, a_v=2)
        assert c1.reverify() and c2.reverify()

        def fail(*args):
            raise AssertionError("the search built a class set")
        monkeypatch.setattr(admraise, "class_set_avoiding", fail)
        with pytest.raises(UsageError, match="is not for this system"):
            raise_level_search(system, c1, c2, old_disc=11, level=1,
                               sample_primes=SAMPLE_374)

    def test_congruences_hold(self, raised_pair):
        assert raised_pair.verify()
        q = 5
        for ell in raised_pair.sampled:
            assert (raised_pair.new.value(ell) - raised_pair.old.value(ell)) % q == 0

    def test_u_signs(self, raised_pair):
        assert raised_pair.new.u[2] % 5 == 1
        assert raised_pair.new.u[17] % 5 == 1
        assert raised_pair.new.u[11] % 5 == 1  # matches U_11(f) = 1

    def test_cuspidal_certificate(self, raised_pair):
        assert raised_pair.cuspidal_certified

    def test_success_report_pinned(self, report374):
        assert report374.success
        assert report374.detail == "found on disc 374"
        assert assignments(report374.candidates) == CUSPIDAL_374[-1:]
        assert report374.pair.new is report374.candidates[0]

    def test_falsifier_lists_every_cuspidal_system(self, f11a_mod5):
        # a_3 moved off 11a: 2 and 17 stay admissible (they read a_2, a_17)
        # but no system on disc 374 is congruent any more
        avals = dict(f11a_mod5.a)
        avals[3] = (avals[3] + 1) % 5
        perturbed = EigenSystem(5, 1, avals, {11: 1}, "perturbed a_3")
        c1, _ = is_n_admissible(2, perturbed, -3, 5, 1, 55)
        c2, _ = is_n_admissible(17, perturbed, -3, 5, 1, 55)
        assert c1 is not None and c2 is not None
        report = raise_level_search(perturbed, c1, c2, old_disc=11, level=1,
                                    sample_primes=SAMPLE_374)
        assert not report.success and report.pair is None
        assert report.detail == ("no congruent eigensystem on disc 374: "
                                 "falsifier for the level-raising instance")
        assert assignments(report.candidates) == CUSPIDAL_374

    def test_systems_do_not_depend_on_the_neighbour_prime(self, classes374):
        # the systems and their order do not depend on the class basis
        systems = eigensystems_mod(classes374, SAMPLE_374, 5, 1, cuspidal_only=True)
        assert assignments(systems) == CUSPIDAL_374

    @pytest.mark.parametrize("sample", [[], [2, 17, 5, 11]], ids=["empty", "all-bad"])
    def test_no_surviving_sample_rejected_before_any_work(self, f11a_mod5, sample,
                                                          monkeypatch):
        # a congruence checked at no prime would be reported as found
        c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        c2, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)

        def fail(*args):
            raise AssertionError("the search started work")
        monkeypatch.setattr(admraise, "eichler_order_for", fail)
        with pytest.raises(UsageError, match="sample"):
            raise_level_search(f11a_mod5, c1, c2, old_disc=11, level=1,
                               sample_primes=sample)

    def test_search_builds_no_quotient_graph(self, f11a_mod5, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the search built a quotient graph")
        monkeypatch.setattr(QuotientGraph, "__init__", fail)
        c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        c2, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)
        report = raise_level_search(f11a_mod5, c1, c2, old_disc=11, level=1,
                                    sample_primes=[3, 7, 13])
        assert report.success

    def test_few_failed_isometry_tests(self, f11a_mod5, monkeypatch):
        # a count, not a timing: disc 374's 16 classes share 6 theta keys, so
        # the key alone left about 345 failing isometry tests in this search
        failed = []
        real = classset.isometric

        def counted(i1, i2):
            found = real(i1, i2)
            if not found:
                failed.append(1)
            return found
        monkeypatch.setattr(classset, "isometric", counted)
        c1, _ = is_n_admissible(2, f11a_mod5, -3, 5, 1, 55)
        c2, _ = is_n_admissible(17, f11a_mod5, -3, 5, 1, 55)
        report = raise_level_search(f11a_mod5, c1, c2, old_disc=11, level=1,
                                    sample_primes=SAMPLE_374)
        assert report.success
        assert len(failed) <= 60

    def test_second_reciprocity_l_element(self, raised_pair):
        # the L-side object of the second reciprocity law exists and computes
        from quatlfun.pipeline import raised_l_element
        from quatlfun.exactalg import Character, involution, specialize
        element, report = raised_l_element(raised_pair, -3, 1, m=1)
        assert element.l_p.group_order == 5
        assert report.mu_lp >= 2 * report.nu
        # values pinned from the run that first computed them
        assert element.l_phi.coeffs == (1, 0, 2, 2, 0)
        assert element.l_p.coeffs == (4, 4, 4, 4, 4)
        assert (report.mu_lp, report.nu) == (0, 0)
        chi = Character(5, 1, 1, 1)
        lhs = specialize(element.l_p, chi)
        rhs = specialize(element.l_phi, chi) * \
            specialize(involution(element.l_phi), chi)
        assert lhs.coeffs == rhs.coeffs
