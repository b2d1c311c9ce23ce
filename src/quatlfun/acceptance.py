"""The acceptance suite: nine oracle-backed criteria, one pass/fail line each.

Each criterion carries its own independent oracle (point counts by direct
enumeration, Legendre symbols by square search, Fitting exponents by minor
expansion, component-group orders by brute-force spanning trees), so a pass
certifies agreement of two genuinely different routes.

The tree and measure criteria (2-5) build their graphs, edge targets and
measures with `pipeline._torus_quotient`, `pipeline.p_stabilized` and
`pipeline.measure_pipeline`, so they check what a run uses. Each criterion builds its own; no state is kept between criteria.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType

from .errors import UsageError

# -- independent oracles ------------------------------------------------------


def curve_point_count_a(ell, a1=0, a2=-1, a3=1, a4=-10, a6=-20):
    """a_ell = ell + 1 - #E(F_ell) for a long Weierstrass equation.

    Defaults are the conductor-11 curve y^2 + y = x^3 - x^2 - 10x - 20.
    """
    count = 1  # point at infinity
    for x in range(ell):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % ell
        for y in range(ell):
            if (y * y + a1 * x * y + a3 * y - rhs) % ell == 0:
                count += 1
    return ell + 1 - count


def legendre_by_squares(a, q):
    a %= q
    if a == 0:
        return 0
    return 1 if any((x * x - a) % q == 0 for x in range(1, q)) else -1


def kronecker_oracle(d, q):
    if q == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    return legendre_by_squares(d, q)


def fitting_minors_oracle(rows, p):
    nr, nc = len(rows), len(rows[0])
    best = None
    for cols in combinations(range(nc), nr):
        sub = [[rows[i][j] for j in cols] for i in range(nr)]
        d = _naive_det(sub)
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        best = v if best is None else min(best, v)
    return best


def _naive_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _naive_det(minor)
    return total


def spanning_tree_sum(n_vertices, edges):
    """Sum over spanning trees of the product of lengths NOT in the tree."""
    m = len(edges)
    if n_vertices == 1:
        out = 1
        for _, _, ln in edges:
            out *= ln
        return out
    total = 0
    for subset in combinations(range(m), n_vertices - 1):
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for idx in subset:
            s, t, _ = edges[idx]
            rs, rt = find(s), find(t)
            if rs == rt:
                ok = False
                break
            parent[rs] = rt
        if ok and len({find(v) for v in range(n_vertices)}) == 1:
            prod = 1
            for i in range(m):
                if i not in subset:
                    prod *= edges[i][2]
            total += prod
    return total


# -- the 11a eigensystem ------------------------------------------------------

def _eleven_a_target(n):
    """The edge system of 11a mod 5^n from point counts and U_11 = 1, by
    `pipeline.p_stabilized` at T_2 and T_3. Criteria 3-5 build its measure on
    `pipeline._torus_quotient(11, 1, 5, -3)` with `pipeline.measure_pipeline`."""
    from .brandtforms import EigenSystem
    from .pipeline import p_stabilized
    system = EigenSystem(5, n, {ell: curve_point_count_a(ell) for ell in (2, 3, 5)},
                         {11: 1})
    return p_stabilized(system, (2, 3), 11)


# -- criteria -----------------------------------------------------------------

def criterion_1():
    """Brandt engine: disc 11 class data and eigenvalues vs point counts."""
    from .quatarith import (algebra_from_discriminant, ideal_class_set,
                            maximal_order)
    from .brandtforms import rational_eigensystems
    start = time.monotonic()
    order = maximal_order(algebra_from_discriminant(11))
    cs = ideal_class_set(order, 2)
    if len(cs) != 2 or cs.mass != Fraction(5, 12):
        return False, f"class data wrong: h={len(cs)}, mass={cs.mass}"
    primes = (2, 3, 7, 13)
    systems = sorted(tuple(sorted(a.items())) for a, _ in
                     rational_eigensystems(cs, primes))
    expected_cusp = {ell: curve_point_count_a(ell) for ell in primes}
    expected_eis = {ell: ell + 1 for ell in primes}
    expected = sorted([tuple(sorted(expected_cusp.items())),
                       tuple(sorted(expected_eis.items()))])
    if systems != expected:
        return False, f"eigenvalue pairs wrong: {systems}"
    if expected_cusp != {2: -2, 3: -1, 7: -2, 13: 4}:
        return False, "point-count oracle drifted from the recorded values"
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        return False, f"runtime {elapsed:.1f}s exceeds 10s"
    return True, (f"h=2, mass 5/12, eigenvalues {{l+1}} and "
                  f"{list(expected_cusp.values())} vs point counts; {elapsed:.1f}s")


def criterion_2():
    """Tree transport: combinatorial T_p equals the Brandt action; regularity."""
    from .brandtforms import AutomorphicForm, tp_apply
    from .pipeline import _torus_quotient
    rng = random.Random(1202)
    for p in (2, 3):
        _, graph = _torus_quotient(11, 1, p, -3)
        graph.verify_regularity()
        brandt = graph.brandt_matrix(p)
        tp = graph.tp_matrix()
        if brandt != tp:
            return False, f"matrix mismatch at p={p}"
        h = graph.vertex_count()
        for _ in range(20):
            vals = tuple(rng.randint(-50, 50) for _ in range(h))
            form = AutomorphicForm(vals, "vertex")
            via_tree = tp_apply(graph, form).values
            via_matrix = tuple(sum(brandt[i][j] * vals[j] for j in range(h))
                               for i in range(h))
            if via_tree != via_matrix:
                return False, f"form action mismatch at p={p}"
    return True, "T_p = Brandt matrix on 20 random forms, p in {2,3}; quotients regular"


def criterion_3():
    """Measure: coset additivity and projection tower for 11a, n in {1,2}."""
    from .padicl import check_projection_tower
    from .pipeline import _torus_quotient, measure_pipeline
    start = time.monotonic()
    embedding, graph = _torus_quotient(11, 1, 5, -3)
    for n in (1, 2):
        pipe = measure_pipeline(graph, embedding, -3, _eleven_a_target(n), [2, 3])
        pipe.check_distribution(2)  # raises on any failed coset identity
        check_projection_tower(pipe, 2)
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        return False, f"runtime {elapsed:.1f}s exceeds 60s"
    return True, f"distribution + tower exact at m<=2, n in {{1,2}}; {elapsed:.1f}s"


def criterion_4():
    """L_p identical under an alternative edge-ray tie-break."""
    from .padicl import MeasurePipeline, full_Lp
    from .exactalg import GroupRingElement, group_ring_mul
    from .pipeline import _torus_quotient, measure_pipeline
    embedding, graph = _torus_quotient(11, 1, 5, -3)
    pipe = measure_pipeline(graph, embedding, -3, _eleven_a_target(2), [2, 3])
    main = full_Lp(pipe, 2)
    alt_pipe = MeasurePipeline(graph, pipe.torus, pipe.form, pipe.alpha, 2,
                               tie_break="lex_max")
    alt = full_Lp(alt_pipe, 2)
    if alt.l_p != main.l_p:
        return False, "L_p changed with the ray tie-break"
    translated = False
    for k in range(main.l_phi.group_order):
        g_k = GroupRingElement.generator_power(main.l_phi.ring,
                                               main.l_phi.group_order, k)
        if group_ring_mul(g_k, main.l_phi) == alt.l_phi:
            translated = True
            break
    if not translated:
        return False, "L_phi rays do not differ by a group element"
    return True, "L_p invariant; L_phi differs by a group translation"


def criterion_5():
    """mu >= 2 nu always; the 11a run records mu = 0 or flags an anomaly."""
    from .padicl import MeasurePipeline, full_Lp, mu_two_nu_check
    from .brandtforms import AutomorphicForm
    from .pipeline import _torus_quotient, measure_pipeline
    embedding, graph = _torus_quotient(11, 1, 5, -3)
    pipe = measure_pipeline(graph, embedding, -3, _eleven_a_target(2), [2, 3])
    element = full_Lp(pipe, 2)
    report = mu_two_nu_check(pipe, element)
    if report.nu != 0:
        return False, f"11a edge form unexpectedly constant: nu={report.nu}"
    if report.mu_lp != 0 and not report.anomaly:
        return False, "nonzero mu not flagged as an anomaly"
    headline = f"11a: mu(L_p)={report.mu_lp}, nu=0"
    # synthetic fixture: p * Phi has nu >= 1 and mu(L_p) >= 2
    synth = AutomorphicForm(tuple(5 * v % 25 for v in pipe.form.values), "edge", (5, 2))
    sp = MeasurePipeline(graph, pipe.torus, synth, pipe.alpha, 2)
    s_el = full_Lp(sp, 2)
    s_rep = mu_two_nu_check(sp, s_el)
    if s_rep.nu < 1 or s_rep.mu_lp < 2:
        return False, f"synthetic fixture bookkeeping wrong: {s_rep.describe()}"
    if report.mu_lp != 0:
        return True, headline + " (ANOMALY FLAGGED: theorem-conditional)"
    return True, headline + f"; synthetic p*Phi gives nu={s_rep.nu}, mu={s_rep.mu_lp}"


def criterion_6():
    """Component groups against closed forms and brute-force spanning trees."""
    from .compgraph import (LengthGraph, component_group, edixhoven_check,
                            omega_functional)
    rng = random.Random(1206)
    # 2-cycles: Phi = Z/(a+b)
    for _ in range(10):
        a, b = rng.randint(1, 30), rng.randint(1, 30)
        phi = component_group(LengthGraph.make(2, [(0, 1, a), (1, 0, b)]))
        if phi.shape.invariant_factors != ((a + b),) and (a + b) > 1:
            return False, f"2-cycle ({a},{b}) gave {phi.shape.describe()}"
    # connected graphs with <= 8 edges vs the exhaustive tree oracle
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 5)
        edges = []
        for v in range(1, n):
            edges.append((rng.randrange(v), v, rng.randint(1, 4)))
        for _ in range(rng.randint(0, 8 - (n - 1))):
            s, t = rng.randrange(n), rng.randrange(n)
            if s != t:
                edges.append((s, t, rng.randint(1, 4)))
        if len(edges) > 8:
            continue
        g = LengthGraph.make(n, edges)
        phi = component_group(g)
        expect = spanning_tree_sum(n, edges)
        if phi.order != expect:
            return False, f"matrix-tree mismatch on {edges}"
        checked += 1
    # omega well-definedness on 50 random degree-zero chains
    for _ in range(50):
        n = rng.randint(2, 4)
        edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3))
                  for _ in range(3)]
        edges = [e for e in edges if e[0] != e[1]]
        g = LengthGraph.make(n, edges)
        if not g.is_connected():
            continue
        phi = component_group(g)
        cycles = phi.cycles
        chain = [0] * n
        x, y = rng.sample(range(n), 2)
        chain[x], chain[y] = 2, -2
        fn, pre = omega_functional(g, tuple(chain), cycles)
        if cycles.rank:
            cyc = cycles.basis[rng.randrange(cycles.rank)]
            pre2 = tuple(u + 3 * v for u, v in zip(pre, cyc))
            lens = [e[2] for _, e in g.non_loop_edges()]
            fn2 = tuple(sum(l * a2 * b2 for l, a2, b2 in zip(lens, pre2, bas))
                        for bas in cycles.basis)
            if phi.class_of(fn) != phi.class_of(fn2):
                return False, "omega depends on the boundary preimage"
    # comparison diagram on unit-length fixtures
    for g in (LengthGraph.make(2, [(0, 1, 1), (1, 0, 1)]),
              LengthGraph.make(2, [(0, 1, 1), (1, 0, 1), (0, 1, 1)]),
              LengthGraph.make(3, [(0, 1, 1), (1, 2, 1)])):
        if not edixhoven_check(g).ok:
            return False, "comparison diagram failed on a unit-length fixture"
    return True, (f"2-cycles, {checked} matrix-tree graphs, 50 omega chains, "
                  "comparison diagram all exact")


def criterion_7():
    """Admissible search returns exactly {2, 17, 23}, eps all +1, vs the oracle."""
    from .admraise import search_admissible
    from .brandtforms import EigenSystem
    avals = {ell: curve_point_count_a(ell) % 5
             for ell in (2, 3, 7, 13, 17, 19, 23)}
    system = EigenSystem(5, 1, avals, {11: 1}, "point-count oracle")
    certs = search_admissible(system, -3, 5, 1, 25, bad_level=55)
    got = [(c.v, c.eps) for c in certs]
    if got != [(2, 1), (17, 1), (23, 1)]:
        return False, f"search returned {got}"
    # independent oracle: direct symbol + congruence scan
    oracle = []
    for v in (2, 3, 7, 13, 17, 19, 23):
        if 55 % v == 0 or kronecker_oracle(-3, v) != -1:
            continue
        if (v * v - 1) % 5 == 0:
            continue
        a_v = curve_point_count_a(v)
        for eps in (1, -1):
            if (v + 1 - eps * a_v) % 5 == 0:
                oracle.append((v, eps))
                break
    if oracle != got:
        return False, f"oracle computed {oracle}"
    if not all(c.reverify() for c in certs):
        return False, "a certificate failed re-verification"
    return True, "admissible primes {2, 17, 23} with eps=+1, certified and re-verified"


def criterion_8():
    """Two-prime level raising on disc 374 with certified U signs."""
    from .admraise import is_n_admissible, raise_level_search
    from .brandtforms import EigenSystem
    from .pipeline import good_primes
    start = time.monotonic()
    sample = good_primes(50, 2 * 5 * 11 * 17)
    avals = {ell: curve_point_count_a(ell) % 5 for ell in sample + (2, 17)}
    system = EigenSystem(5, 1, avals, {11: 1}, "point-count oracle")
    c1, _ = is_n_admissible(2, system, -3, 5, 1, 55)
    c2, _ = is_n_admissible(17, system, -3, 5, 1, 55)
    if c1 is None or c2 is None or (c1.eps, c2.eps) != (1, 1):
        return False, "admissibility certificates for 2, 17 not as expected"
    report = raise_level_search(system, c1, c2, old_disc=11, level=1,
                                sample_primes=sample)
    elapsed = time.monotonic() - start
    if not report.success:
        return False, f"LOUD FALSIFIER: {report.detail}"
    pair = report.pair
    if not pair.verify() or not pair.cuspidal_certified:
        return False, "congruence pair failed verification"
    if (pair.new.u[2] - 1) % 5 or (pair.new.u[17] - 1) % 5:
        return False, "U signs not as certified"
    if elapsed >= 600:
        return False, f"runtime {elapsed:.0f}s exceeds 10 minutes"
    return True, (f"congruent cuspidal eigensystem on disc 374, "
                  f"U_2 = U_17 = +1, sampled l <= 50; {elapsed:.0f}s")


def criterion_9():
    """Fitting exponents vs the minors oracle; inequality report behavior."""
    from .exactalg import (Character, GroupRingElement, IntMatrix,
                           PrimePowerRing, fitting_exponent, inequality_check)
    rng = random.Random(1209)
    ring = PrimePowerRing(5, 3)
    for _ in range(100):
        rows = [[rng.randint(-30, 30) for _ in range(3)] for _ in range(3)]
        got = fitting_exponent(IntMatrix.from_rows(rows), ring)
        expect = fitting_minors_oracle(rows, 5)
        if got != expect:
            return False, f"fitting mismatch on {rows}: {got} vs {expect}"
    chi = Character(5, 3, 0, 0)
    l_elem = GroupRingElement.make(ring, 5, [5, 0, 0, 0, 0])
    rep1 = inequality_check(IntMatrix.identity(2), l_elem, chi)
    rep2 = inequality_check(IntMatrix.from_rows([[25]]), l_elem, chi)
    rep3 = inequality_check(IntMatrix.from_rows([[125]]), l_elem, chi)
    if not (rep1.holds and rep1.selmer_length == 0):
        return False, "trivial module report wrong"
    if not (rep2.holds and rep2.selmer_length == 2 and rep2.twice_t == 2):
        return False, "boundary case report wrong"
    if rep3.holds or rep3.selmer_length != 3:
        return False, "synthetic violation not reported"
    return True, "100 random presentations match the minors oracle; reports behave"


CRITERIA = MappingProxyType({
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
})


def run_acceptance(subset=None) -> bool:
    """Run the requested criteria, print one line each, return overall pass."""
    chosen = sorted(subset) if subset else sorted(CRITERIA)
    unknown = [idx for idx in chosen if idx not in CRITERIA]
    if unknown:
        raise UsageError(f"unknown criteria {unknown}; known are {sorted(CRITERIA)}")
    all_ok = True
    for idx in chosen:
        try:
            ok, detail = CRITERIA[idx]()
        except Exception as ex:  # a raised invariant is a failure, not a crash
            ok, detail = False, f"exception: {type(ex).__name__}: {ex}"
        all_ok = all_ok and ok
        print(f"criterion {idx}: {'PASS' if ok else 'FAIL'} - {detail}")
    return all_ok
