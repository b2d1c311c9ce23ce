"""Content-addressed disk cache for class sets.

Entries are keyed by the SHA-256 digest of the defining data (algebra,
order lattice, neighbor prime) and stored as human-diffable JSON with a
schema version. On load the version must match, every representative is
re-certified (stored in canonical form, right-stable under the order, its
left order's unit count as stored), the representatives must be pairwise
non-isometric (checked by the class-set lookup), and then the mass must
hold. So a corrupted cache is caught rather than trusted: the mass alone
cannot see swapped unit counts, and neither the mass nor the unit counts
see a class stored twice under two of its ideals.
"""

from __future__ import annotations

import hashlib
import json
import os
from math import gcd

from .errors import InvariantViolationError, UsageError

# schema of a stored entry; an entry with another version is refused
CACHE_VERSION = 1

_cache_dir = None


def configure(path):
    """Set (or disable, with None) the process-wide cache directory. It is
    created first, so a path that cannot be one is a UsageError that keeps
    the setting as it was."""
    global _cache_dir
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as ex:
            raise UsageError(f"cache directory {path!r} cannot be created: {ex}") from None
    _cache_dir = path


def cache_directory():
    return _cache_dir


def class_set_key(order, neighbor_prime: int) -> str:
    payload = json.dumps({
        "a": order.alg.a, "b": order.alg.b,
        "den": order.lattice.den, "rows": [list(r) for r in order.lattice.rows],
        "neighbor": neighbor_prime,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def store_class_set(cs) -> None:
    if _cache_dir is None:
        return
    key = class_set_key(cs.order, cs.neighbor_prime)
    data = {
        "version": CACHE_VERSION,
        "disc": cs.disc, "level": cs.level, "neighbor": cs.neighbor_prime,
        "algebra": [cs.order.alg.a, cs.order.alg.b],
        "order": {"den": cs.order.lattice.den,
                  "rows": [list(r) for r in cs.order.lattice.rows]},
        "reps": [{"den": r.lattice.den, "rows": [list(x) for x in r.lattice.rows]}
                 for r in cs.reps],
        "unit_counts": list(cs.unit_counts),
    }
    path = os.path.join(_cache_dir, f"classset_{key}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def load_class_set(order, neighbor_prime: int):
    """Cached ClassSet for the order, or None. Re-certified on load."""
    if _cache_dir is None:
        return None
    from .quatarith.classset import ClassSet
    from .quatarith.ideal import RightIdeal
    key = class_set_key(order, neighbor_prime)
    path = os.path.join(_cache_dir, f"classset_{key}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version") != CACHE_VERSION:
        raise InvariantViolationError(
            f"cache entry has schema version {data.get('version')}, "
            f"this build reads version {CACHE_VERSION}")
    if data["algebra"] != [order.alg.a, order.alg.b]:
        raise InvariantViolationError("cache entry collides with a different algebra")
    reps = [RightIdeal(order, _stored_lattice(i, r)) for i, r in enumerate(data["reps"])]
    if len(data["unit_counts"]) != len(reps):
        raise InvariantViolationError("cache entry has one unit count per class")
    for i, (rep, units) in enumerate(zip(reps, data["unit_counts"])):
        rep.check_right_stability()
        found = rep.left_order().unit_count()
        if found != units:
            raise InvariantViolationError(
                f"cached class {i}: its left order has {found} units, "
                f"the entry says {units}")
    _check_distinct(reps)
    cs = ClassSet(order, data["disc"], data["level"], data["neighbor"],
                  reps, list(data["unit_counts"]))
    cs.verify_mass()
    cs.certify_unit_counts()
    return cs


def _check_distinct(reps):
    """No two cached representatives are isometric: each is looked up among
    those before it by the class-set lookup, then added to its buckets."""
    from .quatarith.classset import _add, _match
    buckets = {}
    for i, rep in enumerate(reps):
        j = _match(buckets, rep)
        if j is not None:
            raise InvariantViolationError(
                f"cached classes {j} and {i} are isometric: one class is stored twice")
        _add(buckets, i, rep)


def _stored_lattice(i, entry):
    """The lattice of cached class i, refused unless stored canonically.

    Canonical means what `Lattice4` stores: a 4x4 integer Hermite basis
    (`hnf_rows(rows)` returns it unchanged) over a positive
    denominator, with gcd 1 over the denominator and all the entries. A zero
    row or another basis of the same lattice is refused here, by name, before
    any lattice arithmetic reads the rows.
    """
    from .quatarith.lattice import Lattice4, hnf_rows
    den, rows = entry["den"], entry["rows"]
    try:
        entries = [den, *(x for r in rows for x in r)]
        canonical = (len(rows) == 4 and all(len(r) == 4 for r in rows)
                     and all(type(x) is int for x in entries) and den > 0
                     and gcd(*entries) == 1 and hnf_rows(rows) == rows)
    except (InvariantViolationError, TypeError):
        canonical = False
    if not canonical:
        raise InvariantViolationError(
            f"cached class {i}: its lattice is not stored as a Hermite basis "
            f"of rank 4 over a positive denominator in lowest terms")
    return Lattice4(den, rows, reduce=False)
