"""The four benchmark workloads: inputs, the timed operation and its check.

Each workload provides
  inputs(seed)          the operations of one pass, made from the seed;
  references(ops)       what each check compares against, one entry per
                        operation, loaded in set-up;
  run(op, out_dir)      the timed operation; returns what the check needs;
  check(op, out, ref)   raises WrongAnswer if the output is not right.

References come from code the operation does not run wherever one exists:
the brute-force oracles in tests/oracles.py, golden artifacts made once, and
formulas written out here (mass, Kirchhoff determinant). Callers put
``src`` and ``tests`` of the checkout on ``sys.path`` before importing this.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import oracles
from quatlfun import admraise, brandtforms, compgraph, pipeline, quatarith

HERE = os.path.dirname(os.path.abspath(__file__))


class WrongAnswer(Exception):
    """An operation returned, but its output does not match the reference."""


def is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def first_primes_coprime(bad: int, k: int):
    out, ell = [], 2
    while len(out) < k:
        if is_prime(ell) and bad % ell:
            out.append(ell)
        ell += 1
    return out


def draw(strata, seed: int):
    """One member of each stratum, picked by the seed, in pyramid order.

    Members of a stratum cost about the same, so the draw changes the inputs
    but hardly the cost of a pass. The strata are listed cheapest first; the
    pass runs every other one going up and the rest coming back down, so the
    dearest run in the middle and the operations around the median run both
    early and late in the pass. The median operation time then samples the
    machine over the whole pass rather than over a few seconds of it.
    """
    rng = random.Random(seed)
    ops = [rng.choice(stratum) for stratum in strata]
    return ops[0::2] + ops[1::2][::-1]


# ---------------------------------------------------------------------------

class LfunTower:
    """run_lfun + write_artifacts at tower depth; seed ignored."""

    name = "lfun-tower"
    # (N-, p, n, m_max, K); split level N+ = 1
    CONFIGS = ((11, 5, 2, 4, -3), (17, 5, 1, 3, -3), (11, 3, 1, 4, -4))
    # Cremona 11a1 and 17a1: [a1, a2, a3, a4, a6]
    CURVES = {11: (0, -1, 1, -10, -20), 17: (1, -1, 1, -1, -14)}
    SAMPLE_BOUND = 20  # PipelineConfig's default sample bound
    ARTIFACTS = ("L_phi.json", "L_p.json", "certificate.json", "mu_report.json")

    def inputs(self, seed):
        return list(self.CONFIGS)

    @staticmethod
    def label(cfg):
        return "N{}-p{}-n{}-m{}-K{}".format(*cfg)

    def references(self, ops):
        refs = []
        for cfg in ops:
            n_minus, p, n, _, _ = cfg
            a = {ell: oracles.curve_a_ell(ell, *self.CURVES[n_minus]) % p ** n
                 for ell in range(2, self.SAMPLE_BOUND + 1)
                 if is_prime(ell) and (p * n_minus) % ell}
            golden = {}
            for name in self.ARTIFACTS:
                with open(os.path.join(HERE, "golden", self.label(cfg), name), "rb") as fh:
                    golden[name] = fh.read()
            refs.append((a, golden))
        return refs

    def run(self, cfg, out_dir):
        n_minus, p, n, m_max, disc_k = cfg
        result = pipeline.run_lfun(pipeline.PipelineConfig(
            n_plus=1, n_minus=n_minus, p=p, n=n, m_max=m_max, disc_k=disc_k))
        path = os.path.join(out_dir, self.label(cfg))
        pipeline.write_artifacts(result, path)
        return {"a": dict(result.system.a), "l_phi": result.element.l_phi,
                "l_p": result.element.l_p, "dir": path}

    def check(self, cfg, out, ref):
        a_ref, golden = ref
        if out["a"] != a_ref:
            raise WrongAnswer(f"a_ell {out['a']} != point counts {a_ref}")
        l_phi, l_p = out["l_phi"], out["l_p"]
        order, q = l_phi.group_order, l_phi.ring.modulus
        inv = [l_phi.coeffs[-k % order] for k in range(order)]
        if list(l_p.coeffs) != oracles.convolution_oracle(list(l_phi.coeffs), inv, q, order):
            raise WrongAnswer("L_p is not L_phi times its involution")
        for name, want in golden.items():
            with open(os.path.join(out["dir"], name), "rb") as fh:
                if fh.read() != want:
                    raise WrongAnswer(f"{name} differs from the golden file")


class Raise374:
    """Two-prime level raising 11 -> 374 = 2·11·17 mod 5; seed ignored."""

    name = "raise-374"

    @staticmethod
    def make_op(bound: int):
        """The 11a point-count system mod 5 sampled at primes up to bound."""
        sample = tuple(ell for ell in range(2, bound + 1)
                       if is_prime(ell) and (2 * 5 * 11 * 17) % ell)
        a = {ell: oracles.curve_a_ell(ell) % 5 for ell in sample + (2, 17)}
        return brandtforms.EigenSystem(5, 1, a, {11: 1}, "11a point counts"), sample

    def inputs(self, seed):
        return [self.make_op(50)]

    def references(self, ops):
        return [{ell: oracles.curve_a_ell(ell) % 5 for ell in sample}
                for _, sample in ops]

    def run(self, op, out_dir):
        system, sample = op
        c1, why1 = admraise.is_n_admissible(2, system, -3, 5, 1, 5 * 11)
        c2, why2 = admraise.is_n_admissible(17, system, -3, 5, 1, 5 * 11)
        if c1 is None or c2 is None:
            raise WrongAnswer(f"2 and 17 must be 1-admissible: {why1}, {why2}")
        return admraise.raise_level_search(system, c1, c2, old_disc=11, level=1,
                                           sample_primes=sample)

    def check(self, op, report, ref):
        if not report.success:
            raise WrongAnswer(report.detail)
        pair = report.pair
        if not (pair.verify() and pair.cuspidal_certified):
            raise WrongAnswer("congruence pair fails verification")
        if (pair.new.u[2] - 1) % 5 or (pair.new.u[17] - 1) % 5:
            raise WrongAnswer(f"U_2, U_17 = {pair.new.u[2]}, {pair.new.u[17]}, want +1")
        got = {ell: pair.new.a[ell] % 5 for ell in ref}
        if got != ref:
            raise WrongAnswer(f"raised a_ell {got} != 11a counts {ref}")


def kirchhoff_orders(n_vertices, edges):
    """Per connected component, the weighted spanning-tree count
    sum_T prod_{e not in T} len(e), as det(reduced Laplacian with conductances
    1/len) times the product of all lengths. Loops are left out."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s, t, _ in edges:
        parent[find(s)] = find(t)
    comps = {}
    for v in range(n_vertices):
        comps.setdefault(find(v), []).append(v)
    orders = []
    for verts in comps.values():
        index = {v: i for i, v in enumerate(verts)}
        k = len(verts)
        lap = [[Fraction(0)] * k for _ in range(k)]
        lengths = 1
        for s, t, length in edges:
            if s == t or s not in index:
                continue
            i, j = index[s], index[t]
            c = Fraction(1, length)
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
            lengths *= length
        m = [row[1:] for row in lap[1:]]
        det = Fraction(1)
        for c in range(k - 1):
            pivot = next((r for r in range(c, k - 1) if m[r][c] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != c:
                m[c], m[pivot] = m[pivot], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, k - 1):
                f = m[r][c] / m[c][c]
                for cc in range(c, k - 1):
                    m[r][cc] -= f * m[c][cc]
        orders.append(det * lengths)
    return sorted(orders)


class QuotientSweep:
    """Tree walk, regularity, dual graph and component group at p = 5."""

    name = "quotient-sweep"
    P = 5
    # Squarefree discriminants below 70 with an odd number of prime factors,
    # prime to 5 (20 discriminants), grouped into strata whose operations take
    # about the same time at the commit that added the benchmark. Discs 71 and
    # 89 need walk radius 5 and take over 400 s each, so the pool stops at 70.
    # Disc 61 carries the Smith-form blow-up and the (47, 59, 67) stratum the
    # radius-4 walk (937 vertices, about 1,880 edges). Four strata sit around
    # the median, so the median operation time, the fifth of nine, hardly
    # depends on the seed.
    STRATA = (
        (7, 13), (2, 3), (17, 29), (11, 19), (31, 37), (42,),
        (23, 41, 43, 53, 66), (47, 59, 67), (61,),
    )

    def inputs(self, seed):
        return draw(self.STRATA, seed)

    def references(self, ops):
        return [None] * len(ops)

    def run(self, disc, out_dir):
        order = quatarith.maximal_order(quatarith.algebra_from_discriminant(disc))
        graph = brandtforms.QuotientGraph(order, self.P)
        graph.ensure_walk()
        graph.verify_regularity()
        dual = brandtforms.mk_dual_graph(graph)
        groups = compgraph.component_group(dual)
        if not isinstance(groups, tuple):
            groups = (groups,)
        return {"tp": graph.tp_matrix(), "dual": dual,
                "orders": sorted(g.order for g in groups)}

    def check(self, disc, out, ref):
        if any(sum(row) != self.P + 1 for row in out["tp"]):
            raise WrongAnswer(f"T_{self.P} row sums are not {self.P + 1}")
        dual = out["dual"]
        want = kirchhoff_orders(dual.n_vertices, dual.edges)
        if out["orders"] != want:
            raise WrongAnswer(f"component groups {out['orders']} != Kirchhoff {want}")


def eichler_mass(disc: int, level: int) -> Fraction:
    """(1/24) prod_{q | disc} (q - 1) prod_{l | level} (l + 1), squarefree."""
    mass = Fraction(1, 24)
    for q in range(2, disc + 1):
        if disc % q == 0 and is_prime(q):
            mass *= q - 1
    for ell in range(2, level + 1):
        if level % ell == 0 and is_prime(ell):
            mass *= ell + 1
    return mass


class BrandtSweep:
    """Eichler orders, class sets and two Brandt matrices per (disc, level)."""

    name = "brandt-sweep"
    # All 106 pairs of a squarefree discriminant below 100 with an odd number
    # of prime factors and a level in {1, 2, 3, 5} prime to it, grouped into
    # strata whose operations take about the same time at the commit that
    # added the benchmark. Discs 73 and 97 fail in maximal_order ("could not
    # enlarge order at 5"); they fill strata of their own, so every pass runs
    # the same number of them and ok_ratio does not depend on the seed.
    STRATA = (
        ((73, 1), (73, 2), (73, 3), (73, 5)), ((97, 1), (97, 2), (97, 3), (97, 5)),
        ((2, 5), (13, 1), (70, 1)), ((19, 1), (61, 1), (78, 1)),
        ((2, 3), (7, 1), (17, 1)), ((7, 3), (41, 1), (59, 1)),
        ((5, 1), (11, 1), (37, 1)), ((5, 2), (7, 5), (42, 1)),
        ((13, 3), (31, 1), (53, 1)), ((29, 1), (30, 1), (43, 1)),
        ((19, 3), (23, 1), (47, 1)), ((3, 5), (11, 5), (19, 2)),
        ((11, 3), (13, 2), (71, 1)), ((3, 1), (5, 3), (11, 2)),
        ((7, 2), (17, 2), (79, 1)), ((13, 5), (17, 3), (67, 1)),
        ((3, 2), (17, 5), (66, 1)), ((2, 1), (23, 3), (89, 1)),
        ((19, 5), (37, 3), (83, 1)), ((23, 2), (41, 2), (53, 2)),
        ((23, 5), (31, 5), (37, 5)), ((29, 2), (29, 5), (41, 3)),
        ((29, 3), (31, 3), (53, 3)), ((47, 2), (59, 2), (59, 3)),
        ((31, 2), (37, 2), (47, 3)), ((43, 2), (43, 3), (61, 3)),
        ((43, 5), (47, 5), (61, 2)), ((41, 5), (71, 2), (71, 3)),
        ((53, 5), (59, 5), (78, 5)), ((67, 3), (70, 3), (79, 2)),
        ((42, 5), (67, 2), (79, 3)), ((66, 5), (71, 5), (83, 2)),
        ((61, 5), (67, 5), (89, 2)), ((79, 5), (83, 3), (89, 3)),
        ((83, 5), (89, 5)),
    )

    def inputs(self, seed):
        return draw(self.STRATA, seed)

    def references(self, ops):
        return [None] * len(ops)

    def run(self, op, out_dir):
        disc, level = op
        order = quatarith.maximal_order(quatarith.algebra_from_discriminant(disc))
        if level != 1:
            order = quatarith.eichler_order(order, level, quatarith.local_splitting)
        ell1, ell2 = first_primes_coprime(disc * level, 2)
        classes = quatarith.ideal_class_set(order, ell1)
        return {"units": list(classes.unit_counts), "ells": (ell1, ell2),
                "brandt": (quatarith.neighbor_matrix(classes, ell1),
                           quatarith.neighbor_matrix(classes, ell2))}

    def check(self, op, out, ref):
        disc, level = op
        mass = sum((Fraction(1, u) for u in out["units"]), Fraction(0))
        if mass != eichler_mass(disc, level):
            raise WrongAnswer(f"mass {mass} != {eichler_mass(disc, level)}")
        b1, b2 = out["brandt"]
        for ell, b in zip(out["ells"], (b1, b2)):
            if any(sum(row) != ell + 1 for row in b):
                raise WrongAnswer(f"B_{ell} row sums are not {ell + 1}")
        h = len(b1)
        prod12 = [[sum(b1[i][k] * b2[k][j] for k in range(h)) for j in range(h)]
                  for i in range(h)]
        prod21 = [[sum(b2[i][k] * b1[k][j] for k in range(h)) for j in range(h)]
                  for i in range(h)]
        if prod12 != prod21:
            raise WrongAnswer("the two Brandt matrices do not commute")


WORKLOADS = {w.name: w for w in (LfunTower(), Raise374(), QuotientSweep(), BrandtSweep())}
