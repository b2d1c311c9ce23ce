"""End-to-end configuration and the L-element pipeline.

cmd-level glue: validate the factorization constraints, pick the eigenform
(computed rational system or external fixture), stabilize, transport to the
edge level, run the measure, and emit reproducible artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .brandtforms import (SPLITTING_PREC, EigenSystem, QuotientGraph,
                          eigenvector_mod, hensel_unit_root, p_stabilize,
                          rational_eigensystems)
from .errors import (ConfigurationError, DataMissingError)
from .padicl import (LFunctionElement, MeasurePipeline, check_projection_tower,
                     full_Lp, mu_two_nu_check)
from .primes import first_coprime_prime, is_prime, prime_factors
from .quatarith import (ClassSet, eichler_order_for, ideal_class_set, kronecker,
                        neighbor_matrices, uq_matrix)
from .quatarith.embedding import embedding_with_base
from .toruscm import build_torus


def _check_depth(m: int):
    """A tower depth the torus can carry: m >= 0, and the level groups up to m
    need precision 2(m + 2), at most the quotient graph's splitting precision."""
    if m < 0:
        raise ConfigurationError(f"tower depth m = {m} must be nonnegative")
    if 2 * (m + 2) > SPLITTING_PREC:
        raise ConfigurationError(
            f"m = {m} needs torus precision {2 * (m + 2)}, "
            f"above the {SPLITTING_PREC} the quotient graph is built with")


@dataclass
class PipelineConfig:
    """Validated run parameters for the L-element pipeline."""

    n_plus: int
    n_minus: int
    p: int
    n: int
    m_max: int
    disc_k: int
    fixture_path: str = None
    sample_bound: int = 20

    def validate(self):
        if not is_prime(self.p):
            raise ConfigurationError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ConfigurationError("need n >= 1")
        _check_depth(self.m_max)
        if self.disc_k >= 0 or self.disc_k % 4 not in (0, 1):
            raise ConfigurationError("K must be given by a negative quadratic discriminant")
        minus_primes = prime_factors(self.n_minus)
        sq = 1
        for q in minus_primes:
            sq *= q
        if sq != self.n_minus or len(minus_primes) % 2 == 0:
            raise ConfigurationError(
                "the inert part must be squarefree with an odd number of primes")
        if self.n_plus < 1:
            raise ConfigurationError("split level must be positive")
        for q in minus_primes:
            if kronecker(self.disc_k, q) != -1:
                raise ConfigurationError(
                    f"factorization rule violated: {q} divides the inert part "
                    f"but is not inert in K (kronecker = {kronecker(self.disc_k, q)})")
        for ell in prime_factors(self.n_plus):
            if kronecker(self.disc_k, ell) != 1:
                raise ConfigurationError(
                    f"factorization rule violated: {ell} divides the split part "
                    f"but does not split in K")
        if kronecker(self.disc_k, self.p) == 1:
            raise ConfigurationError(
                f"factorization rule violated: p = {self.p} splits in K")
        for q in minus_primes:
            if self.n_plus % q == 0 or self.p == q:
                raise ConfigurationError("level parts must be pairwise coprime")
        if self.n_plus % self.p == 0:
            raise ConfigurationError("p must not divide the split level")
        return self


@dataclass
class LfunResult:
    config: PipelineConfig
    system: EigenSystem
    alpha: int
    element: LFunctionElement
    mu_report: object
    sample_primes: tuple
    base_unit_count: int

    def artifacts(self):
        """Map of artifact name to canonical JSON text (byte-reproducible)."""
        mr = self.mu_report
        return {
            "L_phi.json": self.element.l_phi.to_json(),
            "L_p.json": self.element.l_p.to_json(),
            "mu_report.json": json.dumps({
                "mu_L_p": mr.mu_lp, "mu_L_phi": mr.mu_lphi, "nu": mr.nu,
                "cap": mr.cap, "equality": mr.equality, "anomaly": mr.anomaly,
            }, sort_keys=True),
            "certificate.json": json.dumps({
                "distribution_relation": "verified",
                "projection_tower": "verified",
                "levels": self.element.level,
                "alpha": self.alpha,
                "eigenvalues": {str(k): v for k, v in sorted(self.system.a.items())},
                "u_eigenvalues": {str(k): v for k, v in sorted(self.system.u.items())},
                "sample_primes": list(self.sample_primes),
            }, sort_keys=True),
        }


def good_primes(bound: int, bad: int):
    return tuple(ell for ell in range(2, bound + 1)
                 if is_prime(ell) and bad % ell != 0)


def select_vertex_system(classes: ClassSet, config: PipelineConfig):
    """The pipeline's eigensystem on the vertex class set.

    Fixture wins when provided; otherwise the rational route must isolate a
    unique non-trivial system (integer eigenvalues), else a fixture is
    demanded.
    """
    if config.fixture_path:
        with open(config.fixture_path) as fh:
            system = EigenSystem.from_json(fh.read())
        if system.p != config.p or system.n < config.n:
            raise ConfigurationError("fixture modulus does not cover the run")
        return system
    bad = config.p * config.n_plus * config.n_minus
    sample = good_primes(config.sample_bound, bad)
    needed = [config.p] + list(sample)
    mats = neighbor_matrices(classes, needed)
    systems = rational_eigensystems([mats[ell] for ell in needed], needed)
    nontrivial = [(a, basis) for a, basis in systems
                  if any(a[ell] != ell + 1 for ell in needed)]
    if len(nontrivial) != 1:
        raise DataMissingError(
            f"{len(nontrivial)} non-trivial rational systems found; "
            "supply an eigensystem fixture to disambiguate")
    chosen, basis = nontrivial[0]
    q = config.p ** config.n
    a_map = {ell: chosen[ell] % q for ell in needed}
    u_map = {qq: _eigenvalue_mod(uq_matrix(classes, qq), basis[0], config.p, config.n)
             for qq in prime_factors(config.n_minus)}
    return EigenSystem(config.p, config.n, a_map, u_map, "computed (Brandt)")


def _eigenvalue_mod(matrix, vec, p, n):
    """a with matrix·vec ≡ a·vec mod p^n, read off the first unit coordinate
    of vec and checked on every coordinate."""
    q = p ** n
    image = [sum(x * y for x, y in zip(row, vec)) % q for row in matrix]
    for x, y in zip(image, vec):
        if y % p:
            a = x * pow(y, -1, q) % q
            break
    else:
        raise DataMissingError("eigenvector has no unit coordinate")
    for x, y in zip(image, vec):
        if (x - a * y) % q:
            raise DataMissingError("vector is not an eigenvector of the operator")
    return a


def _torus_quotient(disc: int, level: int, p: int, disc_k: int):
    """Head of every L-element build: the Eichler order of (disc, level), its
    class set, a base order with an optimal embedding of K, and the quotient
    graph at p. Returns (base order, embedding, graph)."""
    order = eichler_order_for(disc, level)
    class_set = ideal_class_set(order, first_coprime_prime(p * level * disc))
    base, embedding = embedding_with_base(class_set, disc_k, 1)
    return base, embedding, QuotientGraph(base, p)


def _l_element(graph, embedding, disc_k: int, target: EigenSystem, sample,
               m: int, provenance: str):
    """Tail of every L-element build: the edge eigenform realizing `target`
    (which carries the unit root alpha as its U_p eigenvalue), the torus, the
    measure, L_p with its certificates (`full_Lp` checks the distribution
    relation, then the projection tower is checked), and the mu report.
    Returns (element, report)."""
    form = eigenvector_mod(graph, target, sample, "edge")
    torus = build_torus(disc_k, embedding, graph)
    pipeline = MeasurePipeline(graph, torus, form, target.u[target.p], target.n)
    element = full_Lp(pipeline, m, provenance=provenance)
    check_projection_tower(pipeline, m)
    return element, mu_two_nu_check(pipeline, element)


def run_lfun(config: PipelineConfig) -> LfunResult:
    config.validate()
    base, embedding, graph = _torus_quotient(config.n_minus, config.n_plus,
                                             config.p, config.disc_k)
    system = select_vertex_system(graph.vertex_classes, config)

    q = config.p ** config.n
    if config.p in system.u:
        alpha = system.u[config.p] % q
        stabilized = system
    else:
        stabilized = p_stabilize(
            EigenSystem(config.p, config.n,
                        {k: v % q for k, v in system.a.items()},
                        {k: v % q for k, v in system.u.items()},
                        system.provenance), config.p)
        alpha = stabilized.u[config.p]

    bad = config.p * config.n_plus * config.n_minus
    sample = good_primes(config.sample_bound, bad)
    target = EigenSystem(config.p, config.n,
                         {ell: stabilized.value(ell) for ell in sample},
                         {config.p: alpha,
                          **{qq: stabilized.value(qq)
                             for qq in prime_factors(config.n_minus)}},
                         stabilized.provenance)
    element, report = _l_element(
        graph, embedding, config.disc_k, target, sample, config.m_max,
        f"disc {config.n_minus}, level {config.n_plus}, p {config.p}, K {config.disc_k}")
    return LfunResult(config, target, alpha, element, report, sample,
                      base.unit_count())


def raised_l_element(pair, disc_k: int, n_plus: int, m: int,
                     pin_primes=(3, 7, 13)):
    """L element of a level-raised eigensystem: the second reciprocity law's
    right-hand object, computed on the raised discriminant.

    The raised system must be ordinary at p (its T_p eigenvalue is read off
    its own eigenvector); head and tail are the main pipeline's.
    """
    _check_depth(m)
    system = pair.new
    p, n = system.p, system.n
    new_disc = pair.v1 * pair.v2 * pair.old_disc
    _, embedding, graph = _torus_quotient(new_disc, n_plus, p, disc_k)

    pins = [ell for ell in pin_primes if (new_disc * n_plus * p) % ell != 0]
    vertex_target = EigenSystem(p, n, {ell: system.value(ell) for ell in pins},
                                {qq: system.value(qq)
                                 for qq in prime_factors(new_disc)},
                                system.provenance)
    vec = eigenvector_mod(graph, vertex_target, pins, "vertex",
                          cuspidal_only=True)
    a_p = _eigenvalue_mod(graph.brandt_matrix(p), vec.values, p, n)
    alpha = hensel_unit_root(a_p, p, n)
    edge_target = EigenSystem(p, n, dict(vertex_target.a),
                              {p: alpha, **vertex_target.u},
                              system.provenance)
    return _l_element(graph, embedding, disc_k, edge_target, pins, m,
                      f"raised disc {new_disc}")


def write_artifacts(result: LfunResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    for name, text in sorted(result.artifacts().items()):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
            fh.write("\n")
