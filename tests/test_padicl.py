import pytest

from quatlfun.brandtforms import (AutomorphicForm, EigenSystem, QuotientGraph,
                                  eigenvector_mod, hensel_unit_root)
from quatlfun.errors import InvariantViolationError, UsageError
from quatlfun.exactalg import (Character, GroupRingElement, group_ring_mul,
                               involution, mu_invariant, project_level,
                               specialize)
from quatlfun.padicl import (MeasurePipeline, check_projection_tower, full_Lp,
                             mu_two_nu_check)
from quatlfun.quatarith import (algebra_from_discriminant, ideal_class_set,
                                maximal_order)
from quatlfun.quatarith.embedding import embedding_with_base
from quatlfun.toruscm import build_torus, edge_orbit_table

from oracles import curve_a_ell


@pytest.fixture(scope="module")
def setup():
    order = maximal_order(algebra_from_discriminant(11))
    cs = ideal_class_set(order, 2)
    base, emb = embedding_with_base(cs, -3, 1)
    graph = QuotientGraph(base, 5)
    torus = build_torus(-3, emb, graph)
    return graph, torus


def make_pipeline(setup, n, tie_break="lex_min"):
    graph, torus = setup
    q = 5 ** n
    alpha = hensel_unit_root(curve_a_ell(5) % q, 5, n)
    target = EigenSystem(5, n, {2: curve_a_ell(2) % q, 3: curve_a_ell(3) % q},
                         {5: alpha, 11: 1})
    form = eigenvector_mod(graph, target, [2, 3])
    return MeasurePipeline(graph, torus, form, alpha, n, tie_break=tie_break)


def _scaled(element, u):
    """u times a group-ring element."""
    return GroupRingElement.make(element.ring, element.group_order,
                                 [u * c for c in element.coeffs])


class TestMeasure:
    def test_level_zero_is_base_value(self, setup):
        pipe = make_pipeline(setup, 1)
        table, ray = pipe.table(0)
        base_class = pipe.graph.classify_edge(ray[0])
        assert pipe.theta(0, 0, 0) == pipe.form.values[base_class] % 5

    def test_pairing_constant_form(self, setup):
        graph, torus = setup
        const = AutomorphicForm((2,) * graph.edge_count(), "edge", (5, 1))
        # a constant is not a U_p unit eigenform; pair through a real pipeline's
        # tables instead by direct classification
        pipe = make_pipeline(setup, 1)
        for t in range(5):
            for j in range(2):
                cls = pipe.table(1)[0][(0, t % 5 ** j, j)]
                assert const.values[cls] == 2

    def test_distribution_relation(self, setup):
        for n in (1, 2):
            pipe = make_pipeline(setup, n)
            pipe.check_distribution(2)

    def test_projection_tower(self, setup):
        for n in (1, 2):
            pipe = make_pipeline(setup, n)
            check_projection_tower(pipe, 2)
            upper = pipe.partial_l(2)
            lower = pipe.partial_l(1)
            assert project_level(upper, 1) == lower

    def test_scaling_by_unit(self, setup):
        pipe = make_pipeline(setup, 2)
        base = pipe.partial_l(1)
        u = 7  # unit mod 25
        scaled_form = AutomorphicForm(tuple(u * v % 25 for v in pipe.form.values),
                                      "edge", (5, 2))
        pipe_u = MeasurePipeline(pipe.graph, pipe.torus, scaled_form,
                                 pipe.alpha, 2)
        assert pipe_u.partial_l(1) == _scaled(base, u)

    def test_non_eigenform_rejected(self, setup):
        graph, torus = setup
        bad = AutomorphicForm(tuple(range(1, graph.edge_count() + 1)), "edge", (5, 1))
        with pytest.raises(InvariantViolationError):
            MeasurePipeline(graph, torus, bad, 1, 1)

    def test_non_unit_alpha_rejected(self, setup):
        graph, torus = setup
        form = AutomorphicForm((0,) * graph.edge_count(), "edge", (5, 1))
        with pytest.raises(UsageError):
            MeasurePipeline(graph, torus, form, 5, 1)


class TestLElements:
    @pytest.mark.parametrize("m", [-1, 7])
    def test_bad_depth_raises_usage_error(self, setup, m):
        # -1 has no level group; 7 needs torus precision 18 > 16
        pipe = make_pipeline(setup, 1)
        with pytest.raises(UsageError):
            pipe.partial_l(m)
        with pytest.raises(UsageError):
            full_Lp(pipe, m)

    def test_one_table_serves_the_tower(self, setup, monkeypatch):
        from quatlfun import padicl
        built = []

        def counting(*args, **kwargs):
            built.append(args[2])
            return edge_orbit_table(*args, **kwargs)
        monkeypatch.setattr(padicl, "edge_orbit_table", counting)
        pipe = make_pipeline(setup, 1)
        full_Lp(pipe, 2)
        check_projection_tower(pipe, 2)
        assert built == [2]

    def test_partial_level_zero_single_coefficient(self, setup):
        pipe = make_pipeline(setup, 1)
        pipe.check_distribution(0)
        el = pipe.partial_l(0)
        assert el.group_order == 1

    def test_lp_involution_invariant(self, setup):
        pipe = make_pipeline(setup, 2)
        el = full_Lp(pipe, 2)
        assert involution(el.l_p) == el.l_p
        assert el.l_p == group_ring_mul(el.l_phi, involution(el.l_phi))

    def test_lp_ray_independent(self, setup):
        for n in (1, 2):
            a = full_Lp(make_pipeline(setup, n), 2)
            b = full_Lp(make_pipeline(setup, n, tie_break="lex_max"), 2)
            assert a.l_p == b.l_p
            assert a.l_phi != b.l_phi
            # the half elements differ by a group translation
            hits = [k for k in range(a.l_phi.group_order)
                    if group_ring_mul(GroupRingElement.generator_power(
                        a.l_phi.ring, a.l_phi.group_order, k), a.l_phi) == b.l_phi]
            assert len(hits) == 1

    def test_specialization_factorization(self, setup):
        pipe = make_pipeline(setup, 2)
        el = full_Lp(pipe, 2)
        for chi in (Character(5, 2, 0, 0), Character(5, 2, 1, 1),
                    Character(5, 2, 1, 2), Character(5, 2, 2, 1),
                    Character(5, 2, 2, 7)):
            lhs = specialize(el.l_p, chi)
            s = chi.order_exponent
            inverse = Character(5, 2, s, -chi.generator_image % 5 ** s)
            rhs = specialize(el.l_phi, chi) * specialize(el.l_phi, inverse)
            assert lhs.coeffs == rhs.coeffs

    def test_unit_scaling_changes_lp_by_square(self, setup):
        pipe = make_pipeline(setup, 2)
        el = full_Lp(pipe, 2)
        u = 7
        form_u = AutomorphicForm(tuple(u * v % 25 for v in pipe.form.values),
                                 "edge", (5, 2))
        pipe_u = MeasurePipeline(pipe.graph, pipe.torus, form_u, pipe.alpha, 2)
        el_u = full_Lp(pipe_u, 2)
        assert el_u.l_p == _scaled(el.l_p, u * u)
        assert mu_invariant(el_u.l_p) == mu_invariant(el.l_p)


class TestMuNu:
    def test_eleven_a_values(self, setup):
        pipe = make_pipeline(setup, 2)
        el = full_Lp(pipe, 2)
        rep = mu_two_nu_check(pipe, el)
        assert rep.nu == 0
        assert rep.mu_lp >= 0
        assert rep.mu_lp == 0 or rep.anomaly

    def test_unit_difference_gives_nu_zero(self, setup):
        pipe = make_pipeline(setup, 1)
        vals = pipe.form.values
        assert any((a - b) % 5 for a in vals for b in vals)
        rep = mu_two_nu_check(pipe, full_Lp(pipe, 1))
        assert rep.nu == 0

    def test_scaled_synthetic_fixture(self, setup):
        pipe = make_pipeline(setup, 2)
        synth = AutomorphicForm(tuple(5 * v % 25 for v in pipe.form.values),
                                "edge", (5, 2))
        sp = MeasurePipeline(pipe.graph, pipe.torus, synth, pipe.alpha, 2)
        el = full_Lp(sp, 1)
        rep = mu_two_nu_check(sp, el)
        assert rep.nu >= 1 and rep.mu_lp >= 2
