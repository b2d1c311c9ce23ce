"""Falsifiers for nineteen certificates that no other test can switch off.

Each falsifier corrupts one object by hand, so that only its certificate can
see the corruption, and runs that certificate; the test asserts the typed
error and its message. tests/test_tooling.py makes each certificate return
at once and checks that its falsifier then passes, so each falsifier rests on
exactly that certificate: a certificate that returns a bool is made to
return True, and every other one returns at once.
"""

import dataclasses
import functools

import pytest

from quatlfun import admraise, brandtforms, compgraph, padicl, toruscm
from quatlfun.admraise import CongruencePair
from quatlfun.brandtforms import (EigenSystem, QuotientGraph, eigenvector_mod,
                                  hensel_unit_root)
from quatlfun.errors import DataMissingError, InvariantViolationError
from quatlfun.exactalg import GroupRingElement, IntMatrix, PrimePowerRing
from quatlfun.padicl import LFunctionElement, MeasurePipeline, MuReport
from quatlfun.quatarith import (ClassSet, RightIdeal, algebra_from_discriminant,
                                ideal_class_set, isometry_witness, maximal_order,
                                neighbor_matrix)
from quatlfun.quatarith import classset, splitting
from quatlfun.quatarith import ideal as ideal_module
from quatlfun.quatarith.embedding import embedding_with_base

from oracles import curve_a_ell


@functools.lru_cache(maxsize=None)
def _head():
    """Quotient graph and torus of disc 11 at p = 5, K = -3."""
    order = maximal_order(algebra_from_discriminant(11))
    base, embedding = embedding_with_base(ideal_class_set(order, 2), -3, 1)
    graph = QuotientGraph(base, 5)
    return graph, toruscm.build_torus(-3, embedding, graph)


def _pipeline():
    """A fresh measure of the 11a edge form mod 5 on that torus."""
    graph, torus = _head()
    alpha = hensel_unit_root(curve_a_ell(5) % 5, 5, 1)
    target = EigenSystem(5, 1, {2: curve_a_ell(2) % 5, 3: curve_a_ell(3) % 5},
                         {5: alpha, 11: 1})
    form = eigenvector_mod(graph, target, [2, 3])
    return MeasurePipeline(graph, torus, form, alpha, 1)


def falsify_distribution():
    """One orbit-table entry at level m = 2 moved to an edge class of
    another form value."""
    pipe = _pipeline()
    table, _ = pipe.table(2)
    values = [v % 5 for v in pipe.form.values]
    table[0, 1, 2] = next(c for c, v in enumerate(values) if v != values[table[0, 1, 2]])
    pipe.check_distribution(2)


def falsify_projection_tower():
    """partial_l(m - 1) changed by a unit at one coefficient, m = 2."""
    pipe = _pipeline()
    honest = pipe.partial_l

    def partial_l(level):
        element = honest(level)
        if level != 1:
            return element
        coeffs = list(element.coeffs)
        coeffs[0] += 1
        return GroupRingElement.make(element.ring, element.group_order, coeffs)
    pipe.partial_l = partial_l
    padicl.check_projection_tower(pipe, 2)


def _graph():
    """A fresh quotient graph of disc 11 at p = 5, not yet walked."""
    return QuotientGraph(maximal_order(algebra_from_discriminant(11)), 5)


def falsify_transport():
    """The edge class set with its first class listed twice: the walk
    classifies every edge into the first copy, so it never reaches the
    second."""
    graph = _graph()
    edges = graph.edge_classes
    graph.edge_classes = ClassSet(edges.order, edges.disc, edges.level,
                                  edges.neighbor_prime, edges.reps + edges.reps[:1],
                                  edges.unit_counts + edges.unit_counts[:1])
    graph.ensure_walk()


def falsify_regularity():
    """T_p with one tree neighbour of class 0 counted twice: its row 0 sums
    to p + 2."""
    graph = _graph()
    rows = [list(row) for row in graph.tp_matrix()]
    rows[0][0] += 1
    graph._matrix_memo["tp"] = rows
    graph.verify_regularity()


def falsify_cell_ideal():
    """Every local generator of every cell ideal transposed, at disc 2 and
    p = 5 (the graph's C^-1 with its columns for X01 and X10 swapped): the
    lattices are left ideals of the same norm, and the walk, the class sets
    and `verify_regularity` do not notice."""
    graph = QuotientGraph(maximal_order(algebra_from_discriminant(2)), 5)
    graph._iota_inverse = [[r[0], r[2], r[1], r[3]] for r in graph._iota_inverse]
    graph.ensure_walk()
    graph.verify_regularity()


def falsify_step_witness():
    """The first step witness of disc 11 at p = 5 with its first order
    coordinate moved by one."""
    graph = _graph()
    graph.ensure_walk()
    state = next(iter(graph._rep_neighbors))
    key = next(iter(graph._rep_neighbors[state]))
    _, coords, e = graph._step_witness(state, key)
    graph._check_step_witness(state, key, (coords[0] + 1,) + coords[1:], e)


def falsify_splitting():
    """Every basis image transposed: 1 still goes to the identity and the
    images still span M_2 mod ell, but transposing reverses products."""
    order = maximal_order(algebra_from_discriminant(11))
    honest = splitting.local_splitting(order, 3, 2)
    transposed = tuple(((a, c), (b, d)) for (a, b), (c, d) in honest.basis_images)
    splitting._verify_splitting(order, dataclasses.replace(honest, basis_images=transposed))


def falsify_torus():
    """A torus generator whose norm is off by one."""
    _, torus = _head()
    toruscm._verify_torus(dataclasses.replace(torus, norm=torus.norm + 1))


def falsify_unit_root():
    """1 is a root of x^2 - x + 5 mod 5, but not the unit root mod 25."""
    brandtforms._verify_unit_root(1, 1, 5, 2)


def falsify_mu_bound():
    """The 11a element mod 5 reported against a form constant mod 5, whose
    constancy depth nu = 1 asks mu(L_p) >= 2."""
    pipe = _pipeline()
    element = padicl.full_Lp(pipe, 1)
    pipe.form = dataclasses.replace(pipe.form, values=(0,) * len(pipe.form.values))
    padicl.mu_two_nu_check(pipe, element)


def falsify_involution():
    """An L_p that is the generator g, whose involution image is g^-1."""
    g = GroupRingElement.generator_power(PrimePowerRing(5, 1), 5, 1)
    LFunctionElement(g, g, 1, 5, 1, "")


def falsify_congruence_pair():
    """The raise of 11a mod 5 to disc 374 finding a system whose a_3 is off
    by one."""
    system = EigenSystem(5, 1, {ell: curve_a_ell(ell) % 5 for ell in (2, 3, 7, 17)},
                         {11: 1})
    cert2, _ = admraise.is_n_admissible(2, system, -3, 5, 1, 5 * 11)
    cert17, _ = admraise.is_n_admissible(17, system, -3, 5, 1, 5 * 11)

    def moved(classes, samples, p, n, fixed):
        return [EigenSystem(p, n, {ell: fixed[ell] + (ell == 3) for ell in samples},
                            {w: fixed[w] for w in (2, 11, 17)})]
    honest = admraise.eigensystems_mod
    admraise.eigensystems_mod = moved
    try:
        admraise.raise_level_search(system, cert2, cert17, 11, 1, (3, 7))
    finally:
        admraise.eigensystems_mod = honest



def falsify_class_map():
    """The theta graph's U_3 row for its factor Z/3 with one entry moved by
    one: the row no longer kills the Gram image."""
    theta = compgraph.LengthGraph.make(2, [(0, 1, 1), (1, 0, 1), (0, 1, 1)])
    phi = compgraph.component_group(theta)
    (p, vals, u), = phi.local
    rows = [list(row) for row in u.entries]
    rows[vals.index(1)][0] += 1
    compgraph._verify_class_map(compgraph.monodromy_map(theta, phi.cycles),
                                [(p, vals, IntMatrix.from_rows(rows))])


def falsify_cycle_basis():
    """The theta graph's first basis cycle doubled: it still spans the
    cycles over Q, but no longer over Z."""
    theta = compgraph.LengthGraph.make(2, [(0, 1, 1), (1, 0, 1), (0, 1, 1)])
    first, *rest = compgraph.character_group(theta).basis
    compgraph._check_cycle_basis([tuple(2 * x for x in first)] + rest)


def falsify_eigenline():
    """The 11a edge eigenspace mod 5 given a second generator, the unit
    vector at a coordinate where the form is not 1."""
    pipe = _pipeline()
    vec = pipe.form.values
    j = next(i for i, x in enumerate(vec) if x != 1)
    brandtforms._check_eigenline([vec, tuple(int(i == j) for i in range(len(vec)))],
                                 vec, 5)


def _classes11():
    """A fresh class set of disc 11 (h = 2, the second class not principal)."""
    return ideal_class_set(maximal_order(algebra_from_discriminant(11)), 2)


def _fresh(rep):
    """A new RightIdeal on rep's lattice, with nothing computed yet."""
    return RightIdeal(rep.order, rep.lattice)


def falsify_row_sums():
    """The disc-11 class set with its second class dropped: B(1) is still
    the identity and w_j still divides N_ij(3), but row 0 of B(3) misses its
    neighbours in the dropped class."""
    cs = _classes11()
    neighbor_matrix(ClassSet(cs.order, cs.disc, cs.level, cs.neighbor_prime,
                             cs.reps[:1], cs.unit_counts[:1]), 3)


def falsify_pair_gram():
    """The unit ideal of disc 11 with the last diagonal entry of its reduced
    Gram moved by one, paired with the second class, whose first reduced
    vector has k = nrd(x)/nrd(J) > 1."""
    cs = _classes11()
    unit = _fresh(cs.reps[0])
    reduced, basis_change = unit.reduced_gram()
    rows = [list(row) for row in reduced]
    rows[3][3] += 1
    unit._reduced = rows, basis_change
    ideal_module.pair_gram(unit, cs.reps[1])


def falsify_reduction():
    """The unit ideal of disc 11 with its kept reduced norm doubled: its
    reduction is scaled by 1/2."""
    unit = _fresh(_classes11().reps[0])
    unit._nrd = 2 * unit.nrd()
    ideal_module.reduce_ideal(unit)


def falsify_witness_norm():
    """A copy of the second disc-11 class with its kept reduced norm
    doubled, against that class."""
    rep = _classes11().reps[1]
    copy = _fresh(rep)
    copy._nrd = 2 * copy.nrd()
    isometry_witness(copy, rep)


# certificate -> (its owner, its attribute, its falsifier, its message)
FALSIFIERS = {
    "check_distribution": (MeasurePipeline, "check_distribution", falsify_distribution,
                           "distribution relation fails at level 1"),
    "check_projection_tower": (padicl, "check_projection_tower", falsify_projection_tower,
                               "incompatible between levels 2 and 1"),
    "_complete": (QuotientGraph, "_complete", falsify_transport,
                  "tree walk did not reach every ideal class"),
    "verify_regularity": (QuotientGraph, "verify_regularity", falsify_regularity,
                          "vertex quotient is not \\(p\\+1\\)-regular"),
    "_check_cell_ideal": (brandtforms, "_check_cell_ideal", falsify_cell_ideal,
                          "a tree cell's ideal is not right-stable"),
    "_check_step_witness": (QuotientGraph, "_check_step_witness", falsify_step_witness,
                            "transport witness from state .* reduced norm is not "
                            "a power of p"),
    "_verify_splitting": (splitting, "_verify_splitting", falsify_splitting,
                          "splitting is not multiplicative"),
    "_verify_torus": (toruscm, "_verify_torus", falsify_torus,
                      "generator matrix violates its minimal polynomial"),
    "_verify_unit_root": (brandtforms, "_verify_unit_root", falsify_unit_root,
                          "Hensel lift failed"),
    "MuReport": (MuReport, "__post_init__", falsify_mu_bound,
                 "valuation bookkeeping broken"),
    "LFunctionElement": (LFunctionElement, "__post_init__", falsify_involution,
                         "L_p is not involution-invariant"),
    "CongruencePair.verify": (CongruencePair, "verify", falsify_congruence_pair,
                              "congruence pair fails its own verification"),
    "_verify_class_map": (compgraph, "_verify_class_map", falsify_class_map,
                          "class_of does not kill the Gram image"),
    "_check_cycle_basis": (compgraph, "_check_cycle_basis", falsify_cycle_basis,
                           "boundary image is not saturated"),
    "_check_eigenline": (brandtforms, "_check_eigenline", falsify_eigenline,
                         "sample more primes"),
    "_check_row_sums": (classset, "_check_row_sums", falsify_row_sums,
                        "row 0 of B\\(3\\) sums to"),
    "_check_pair_gram": (ideal_module, "_check_pair_gram", falsify_pair_gram,
                         "norm form of I·conj\\(J\\) is not integral"),
    "_check_reduction": (ideal_module, "_check_reduction", falsify_reduction,
                         "ideal reduction changed the class data"),
    "_check_witness_norm": (ideal_module, "_check_witness_norm", falsify_witness_norm,
                            "isometry witness read off the pair Gram has the wrong "
                            "reduced norm"),
}

# the certificates whose failure is missing data, not a bug
RAISES = {"_check_eigenline": DataMissingError}


@pytest.mark.parametrize("name", FALSIFIERS)
def test_falsifier_caught(name):
    _, _, falsify, message = FALSIFIERS[name]
    with pytest.raises(RAISES.get(name, InvariantViolationError), match=message):
        falsify()
