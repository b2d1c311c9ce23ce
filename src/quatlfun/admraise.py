"""Admissible primes, the Eisenstein-congruence test, and level raising.

A prime v is n-admissible for an eigensystem when it avoids the bad set, is
inert in K, has p not dividing v^2 - 1, and p^n divides v + 1 - eps·a_v for a
sign eps. The two-prime level-raising search runs the Brandt machinery on the
discriminant v1·v2·(old discriminant) and looks for a congruent eigensystem
with the prescribed U-signs inside the Eisenstein-orthogonal sublattice; a
failed search is reported loudly, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brandtforms import EigenSystem, eigensystems_mod
from .errors import DataMissingError, InvariantViolationError, UsageError
from .primes import is_prime, prime_factors
from .quatarith import class_set_avoiding, eichler_order_for, kronecker


@dataclass(frozen=True)
class AdmissibleCert:
    """A certified n-admissible prime with re-verifiable witnesses."""

    v: int
    eps: int
    p: int
    n: int
    disc_k: int
    bad_level: int  # p * N(+/-): primes the candidate must avoid
    a_v: int
    kronecker_value: int

    def reverify(self) -> bool:
        """Re-check that v is prime and all four conditions from the stored
        witnesses."""
        if not is_prime(self.v) or self.bad_level % self.v == 0:
            return False
        if kronecker(self.disc_k, self.v) != -1 or self.kronecker_value != -1:
            return False
        if (self.v * self.v - 1) % self.p == 0:
            return False
        return (self.v + 1 - self.eps * self.a_v) % self.p ** self.n == 0

    def to_dict(self):
        return {"v": self.v, "eps": self.eps, "p": self.p, "n": self.n,
                "K": self.disc_k, "a_v": self.a_v}


def is_n_admissible(v: int, system: EigenSystem, disc_k: int, p: int, n: int,
                    bad_level: int):
    """AdmissibleCert, or (None, reason) when a condition fails.

    bad_level is the full level pN (the paper's bad set); a_v must be known
    to the eigensystem.
    """
    if not is_prime(v):
        raise UsageError(f"{v} is not prime")
    if bad_level % v == 0:
        return None, "divides the level pN"
    kron = kronecker(disc_k, v)
    if kron == 0:
        return None, "ramified in K"
    if kron == 1:
        return None, "split in K"
    if (v * v - 1) % p == 0:
        return None, "p divides v^2 - 1"
    try:
        a_v = system.value(v)
    except DataMissingError:
        raise DataMissingError(f"a_{v} unknown; supply it via fixture or computation")
    q = p ** n
    for eps in (1, -1):
        if (v + 1 - eps * a_v) % q == 0:
            return AdmissibleCert(v, eps, p, n, disc_k, bad_level, a_v % q, kron), None
    return None, "p^n divides neither v+1-a_v nor v+1+a_v"


def search_admissible(system: EigenSystem, disc_k: int, p: int, n: int,
                      bound: int, bad_level: int):
    """All admissible primes up to the bound, in increasing order."""
    out = []
    for v in range(2, bound + 1):
        if not is_prime(v):
            continue
        cert, _ = is_n_admissible(v, system, disc_k, p, n, bad_level)
        if cert is not None:
            out.append(cert)
    return out


def eisenstein_test(system: EigenSystem, sample_primes) -> bool:
    """Whether a_ell ≡ ell + 1 mod p^n at every sampled good prime.

    An empty sample proves nothing and is rejected. Single-prime coincidences
    happen, so callers should document their sample set.
    """
    samples = [ell for ell in sample_primes]
    if not samples:
        raise UsageError("empty sample set cannot certify anything")
    q = system.modulus
    return all((system.value(ell) - ell - 1) % q == 0 for ell in samples)


@dataclass
class CongruencePair:
    """A level-raised eigensystem congruent to the input away from v1 v2."""

    old: EigenSystem
    new: EigenSystem
    v1: int
    v2: int
    eps1: int
    eps2: int
    sampled: tuple
    cuspidal_certified: bool
    old_disc: int = 1
    level: int = 1

    def verify(self) -> bool:
        q = self.old.modulus
        for ell in self.sampled:
            if (self.old.value(ell) - self.new.value(ell)) % q != 0:
                return False
        return (self.new.u[self.v1] - self.eps1) % q == 0 and \
            (self.new.u[self.v2] - self.eps2) % q == 0


@dataclass
class RaiseReport:
    """Outcome of the two-prime congruence search; failure is a falsifier."""

    success: bool
    pair: object
    detail: str
    candidates: tuple


def raise_level_search(system: EigenSystem, cert1: AdmissibleCert,
                       cert2: AdmissibleCert, old_disc: int, level: int,
                       sample_primes) -> RaiseReport:
    """Search disc v1·v2·N^- for an eigensystem congruent to the input.

    The target carries U_{v_i} ≡ eps_i and U_w ≡ a_w at old bad primes, with
    T_ell ≡ a_ell at the sampled primes. The eigenvector is required to lie in
    the Eisenstein-orthogonal sublattice (the trivial line is excluded), which
    realizes the construction's nontriviality. At least one sample prime must
    be prime to v1·v2·N^-·N^+·p: a congruence sampled nowhere proves nothing.
    Whether the input is the trivial system of its own level is not decided
    here: it cannot be told from its eigenvalues mod p^n (11a mod 5 is
    Eisenstein mod 5).
    Each certificate must re-verify and be one for this system: its p is the
    system's, its n at least the system's, and its a_v the system's mod p^n.
    Every refusal is a UsageError, raised before any class set is built.

    The search cuts straight to these targets (an old prime whose a_w is
    unknown is searched over its full range); only when nothing survives
    are all cuspidal systems enumerated, to fill the falsifier report.
    """
    v1, v2 = cert1.v, cert2.v
    if v1 == v2:
        raise UsageError("the two admissible primes must be distinct")
    p, n = system.p, system.n
    for cert in (cert1, cert2):
        if not cert.reverify():
            raise UsageError(f"admissible certificate for {cert.v} fails re-verification")
        if cert.p != p or cert.n < n or (cert.a_v - system.value(cert.v)) % p ** n:
            raise UsageError(
                f"admissible certificate for {cert.v} (p = {cert.p}, n = {cert.n}, "
                f"a_v = {cert.a_v}) is not for this system (p = {p}, n = {n}, "
                f"a_v = {system.value(cert.v)})")
    new_disc = old_disc * v1 * v2
    samples = tuple(ell for ell in sample_primes
                    if new_disc * level * p % ell != 0)
    if not samples:
        raise UsageError(f"no sample prime is prime to {new_disc * level * p}; "
                         "an empty sample certifies nothing")
    classes = class_set_avoiding(eichler_order_for(new_disc, level), p)
    targets = {ell: system.value(ell) for ell in samples}
    targets.update({v1: cert1.eps, v2: cert2.eps})
    for w in prime_factors(old_disc):
        try:
            targets[w] = system.value(w)
        except DataMissingError:
            pass  # a_w unknown: U_w is searched over its full range
    matches = eigensystems_mod(classes, samples, p, n, fixed=targets)
    if not matches:
        candidates = eigensystems_mod(classes, samples, p, n)
        return RaiseReport(False, None,
                           "no congruent eigensystem on disc "
                           f"{new_disc}: falsifier for the level-raising instance",
                           tuple(candidates))
    chosen = matches[0]
    pair = CongruencePair(system, chosen, v1, v2, cert1.eps, cert2.eps,
                          samples, cuspidal_certified=True, old_disc=old_disc,
                          level=level)
    if not pair.verify():
        raise InvariantViolationError("congruence pair fails its own verification")
    return RaiseReport(True, pair, f"found on disc {new_disc}", tuple(matches))
