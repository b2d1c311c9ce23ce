"""End-to-end configuration and the L-element pipeline.

cmd-level glue: validate the factorization constraints and read the fixture
reduced mod p^n (`fixture_system`, the head of every run), else compute the
rational system (`select_vertex_system`), p-stabilize it to the edge target
(`p_stabilized`), cut the edge eigenform, run the measure, and emit
reproducible artifacts. Every eigenvalue comes from a
`brandtforms.joint_eigenspaces` search; this module builds no Hecke matrix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .brandtforms import (SPLITTING_PREC, EigenSystem, QuotientGraph,
                          eigensystems_mod, eigenvector_mod, hensel_unit_root,
                          rational_eigensystems)
from .errors import (ConfigurationError, DataMissingError)
from .padicl import (LFunctionElement, MeasurePipeline, check_projection_tower,
                     full_Lp, mu_two_nu_check)
from .primes import is_prime, prime_factors
from .quatarith import ClassSet, class_set_avoiding, eichler_order_for, kronecker
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


def _check_inert(p: int, disc_k: int):
    """p inert in K, as the torus needs: a split or a ramified p is refused."""
    kron = kronecker(disc_k, p)
    if kron != -1:
        raise ConfigurationError(
            f"factorization rule violated: p = {p} "
            f"{'splits' if kron == 1 else 'ramifies'} in K")


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
        _check_inert(self.p, self.disc_k)
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


def fixture_system(config: PipelineConfig):
    """Head of every run: the validated configuration's eigensystem fixture,
    reduced mod p^n, or None when it names none.

    The configuration is validated first, so a bad one is refused before the
    fixture is read. The one fixture loader of the package: a UsageError
    unless the file holds a fixture (`EigenSystem.from_json`), and a
    ConfigurationError unless the fixture is known mod p^k for the run's p
    and some k >= n.
    """
    config.validate()
    if not config.fixture_path:
        return None
    with open(config.fixture_path) as fh:
        system = EigenSystem.from_json(fh.read())
    if system.p != config.p or system.n < config.n:
        raise ConfigurationError(
            f"fixture modulus {system.p}^{system.n} does not cover the run's "
            f"{config.p}^{config.n}")
    q = config.p ** config.n
    return EigenSystem(config.p, config.n, {ell: a % q for ell, a in system.a.items()},
                       {w: u % q for w, u in system.u.items()}, system.provenance)


def select_vertex_system(classes: ClassSet, config: PipelineConfig):
    """The computed eigensystem on the vertex class set, mod p^n.

    The rational route must isolate a unique non-trivial system (integer
    eigenvalues), else a fixture is demanded.
    """
    sample = good_primes(config.sample_bound, config.p * config.n_plus * config.n_minus)
    systems = rational_eigensystems(classes, [config.p, *sample])
    nontrivial = [(a, u) for a, u in systems
                  if any(a[ell] != ell + 1 for ell in a)]
    if len(nontrivial) != 1:
        raise DataMissingError(
            f"{len(nontrivial)} non-trivial rational systems found; "
            "supply an eigensystem fixture to disambiguate")
    a, u = nontrivial[0]
    q = config.p ** config.n
    return EigenSystem(config.p, config.n, {ell: x % q for ell, x in a.items()},
                       {qq: x % q for qq, x in u.items()}, "computed (Brandt)")


def p_stabilized(system: EigenSystem, sample, disc: int) -> EigenSystem:
    """The edge target of every L-element build, mod p^n: T_ell at the sample
    primes, U_q at the primes of disc, and U_p = alpha, the system's own U_p
    eigenvalue or else the unit root of its a_p."""
    p, q = system.p, system.modulus
    if p in system.u:
        alpha, provenance = system.u[p] % q, system.provenance
    else:
        alpha = hensel_unit_root(system.value(p), p, system.n)
        provenance = system.provenance + "+p-stabilized"
    return EigenSystem(p, system.n, {ell: system.value(ell) for ell in sample},
                       {p: alpha, **{qq: system.value(qq) for qq in prime_factors(disc)}},
                       provenance)


def _torus_quotient(disc: int, level: int, p: int, disc_k: int):
    """Head of every L-element build: the Eichler order of (disc, level), its
    class set, a base order with an optimal embedding of K, and the quotient
    graph at p. Returns (embedding, graph)."""
    class_set = class_set_avoiding(eichler_order_for(disc, level), p)
    base, embedding = embedding_with_base(class_set, disc_k, 1)
    return embedding, QuotientGraph(base, p)


def measure_pipeline(graph, embedding, disc_k: int, target: EigenSystem,
                     sample) -> MeasurePipeline:
    """The measure of every L-element build: the edge eigenform realizing
    `target` (which carries the unit root alpha as its U_p eigenvalue), cut
    with the T_ell at the sample primes, on the torus of the embedding."""
    form = eigenvector_mod(graph, target, sample)
    torus = build_torus(disc_k, embedding, graph)
    return MeasurePipeline(graph, torus, form, target.u[target.p], target.n)


def _l_element(graph, embedding, disc_k: int, target: EigenSystem, sample,
               m: int, provenance: str):
    """Tail of every L-element build: the measure, L_p with its certificates
    (`full_Lp` checks the distribution relation, then the projection tower is
    checked), and the mu report. Returns (element, report)."""
    pipeline = measure_pipeline(graph, embedding, disc_k, target, sample)
    element = full_Lp(pipeline, m, provenance=provenance)
    check_projection_tower(pipeline, m)
    return element, mu_two_nu_check(pipeline, element)


def run_lfun(config: PipelineConfig) -> LfunResult:
    system = fixture_system(config)  # refused before the head does any work
    embedding, graph = _torus_quotient(config.n_minus, config.n_plus,
                                       config.p, config.disc_k)
    if system is None:
        system = select_vertex_system(graph.vertex_classes, config)
    sample = good_primes(config.sample_bound, config.p * config.n_plus * config.n_minus)
    target = p_stabilized(system, sample, config.n_minus)
    element, report = _l_element(
        graph, embedding, config.disc_k, target, sample, config.m_max,
        f"disc {config.n_minus}, level {config.n_plus}, p {config.p}, K {config.disc_k}")
    return LfunResult(config, target, target.u[config.p], element, report, sample)


def raised_l_element(pair, disc_k: int, n_plus: int, m: int):
    """L element of a level-raised eigensystem: the second reciprocity law's
    right-hand object, computed on the raised discriminant.

    The raised system is pinned on the vertex classes by its a_ell at those
    of 3, 7 and 13 prime to the raised level and p, and by its U_q; a_p is
    read off the one system of that search, which must be ordinary at p.
    Head and tail are the main pipeline's.
    """
    _check_depth(m)
    system = pair.new
    p, n = system.p, system.n
    _check_inert(p, disc_k)
    new_disc = pair.v1 * pair.v2 * pair.old_disc
    embedding, graph = _torus_quotient(new_disc, n_plus, p, disc_k)

    pins = [ell for ell in (3, 7, 13) if (new_disc * n_plus * p) % ell != 0]
    found = eigensystems_mod(graph.vertex_classes, pins + [p], p, n,
                             fixed={ell: system.value(ell)
                                    for ell in pins + prime_factors(new_disc)})
    if len(found) != 1:
        raise DataMissingError(
            f"{len(found)} vertex systems on disc {new_disc} carry the raised "
            "eigenvalues; a_p needs exactly one")
    return _l_element(graph, embedding, disc_k, p_stabilized(found[0], pins, new_disc),
                      pins, m, f"raised disc {new_disc}")


def write_artifacts(result: LfunResult, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    for name, text in sorted(result.artifacts().items()):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
            fh.write("\n")
