"""Command-line surface: lfun, brandt, admissible, raise, compgroup, fitting, selftest.

All flags are long-form. Exit codes: 0 success, 2 configuration rejected,
3 data missing, 4 search exhausted or resource bound hit, 5 internal
invariant violation (or a failing selftest criterion).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import QuatlfunError, UsageError


def _int_list(text: str):
    """argparse type for a comma-separated list of integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quatlfun",
        description="Exact quaternionic p-adic L-elements and supporting toolkits")
    sub = parser.add_subparsers(dest="command", required=True)

    lf = sub.add_parser("lfun", help="compute L_phi, L_p and the mu report")
    lf.add_argument("--nplus", type=int, default=1)
    lf.add_argument("--nminus", type=int, required=True)
    lf.add_argument("--p", type=int, required=True)
    lf.add_argument("--n", type=int, default=1)
    lf.add_argument("--mmax", type=int, default=2)
    lf.add_argument("--K", type=int, required=True,
                    help="negative quadratic discriminant of the CM field")
    lf.add_argument("--eigenform", default=None,
                    help="eigensystem fixture (JSON); computed when omitted")
    lf.add_argument("--out", default=None, help="artifact directory")
    lf.add_argument("--sample-bound", type=int, default=20)

    br = sub.add_parser("brandt", help="Brandt matrices for a discriminant/level")
    br.add_argument("--disc", type=int, required=True)
    br.add_argument("--level", type=int, default=1)
    br.add_argument("--primes", required=True, type=_int_list,
                    help="comma-separated Hecke primes")

    ad = sub.add_parser("admissible", help="certify or search admissible primes")
    ad.add_argument("--f", default="computed",
                    help="eigensystem fixture path, or 'computed'")
    ad.add_argument("--K", type=int, required=True)
    ad.add_argument("--p", type=int, required=True)
    ad.add_argument("--n", type=int, default=1)
    ad.add_argument("--bound", type=int, required=True)
    ad.add_argument("--nminus", type=int, default=11)
    ad.add_argument("--nplus", type=int, default=1)

    rs = sub.add_parser("raise", help="two-prime level-raising congruence search")
    rs.add_argument("--v1", type=int, required=True)
    rs.add_argument("--v2", type=int, required=True)
    rs.add_argument("--f", default="computed")
    rs.add_argument("--K", type=int, required=True)
    rs.add_argument("--p", type=int, required=True)
    rs.add_argument("--n", type=int, default=1)
    rs.add_argument("--nminus", type=int, default=11)
    rs.add_argument("--nplus", type=int, default=1)
    rs.add_argument("--bound", type=int, default=50,
                    help="congruences sampled at primes up to this bound")

    cg = sub.add_parser("compgroup", help="dual-graph component-group report")
    cg.add_argument("--graph", required=True, help="graph fixture (JSON)")
    cg.add_argument("--divisor", action="append", default=[], type=_int_list,
                    help="degree-zero vertex chain 'c0,c1,...' to push to Phi "
                    "(connected graphs only)")

    ft = sub.add_parser("fitting", help="Fitting exponent of a presentation")
    ft.add_argument("--matrix", required=True,
                    help="JSON rows of the presentation matrix")
    ft.add_argument("--p", type=int, required=True)
    ft.add_argument("--n", type=int, required=True)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--criteria", default=None, type=_int_list,
                    help="comma-separated subset, e.g. 1,2,7")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except QuatlfunError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ex.exit_code
    except FileNotFoundError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    return {
        "lfun": _cmd_lfun,
        "brandt": _cmd_brandt,
        "admissible": _cmd_admissible,
        "raise": _cmd_raise,
        "compgroup": _cmd_compgroup,
        "fitting": _cmd_fitting,
        "selftest": _cmd_selftest,
    }[args.command](args)


def _cmd_lfun(args) -> int:
    from .pipeline import PipelineConfig, run_lfun, write_artifacts
    config = PipelineConfig(args.nplus, args.nminus, args.p, args.n, args.mmax,
                            args.K, fixture_path=args.eigenform,
                            sample_bound=args.sample_bound)
    result = run_lfun(config)
    print(f"eigensystem ({result.system.provenance}):")
    _table([("ell", "a_ell")] + [(str(k), str(v))
                                 for k, v in sorted(result.system.a.items())])
    print(f"alpha_{args.p} = {result.alpha}  (unit root mod {args.p}^{args.n})")
    _print_element("L_phi", result.element.l_phi)
    _print_element("L_p", result.element.l_p)
    print(result.mu_report.describe())
    print("distribution relation and projection tower: verified")
    if args.out:
        write_artifacts(result, args.out)
        print(f"artifacts written to {args.out}")
    return 0


def _print_element(name, element):
    print(f"{name} over Z/{element.ring.p}^{element.ring.n} "
          f"[Z/{element.group_order}]:")
    rows = [("power", "coeff")]
    coeffs = element.coeffs
    for k in range(len(coeffs)):
        rows.append((f"g^{k}", str(coeffs[k])))
    if len(rows) > 12:
        print("  " + json.dumps(list(coeffs)))
    else:
        _table(rows)


def _table(rows):
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(x.rjust(w) for x, w in zip(r, widths)))


def _cmd_brandt(args) -> int:
    from .quatarith import class_set_avoiding, eichler_order_for, neighbor_matrices
    cs = class_set_avoiding(eichler_order_for(args.disc, args.level))
    print(f"disc {args.disc}, level {args.level}: class number {len(cs)}, "
          f"mass {cs.mass}")
    mats = neighbor_matrices(cs, args.primes)
    out = {}
    for ell in args.primes:
        mat = mats[ell]
        out[str(ell)] = mat
        print(f"T_{ell} =")
        for row in mat:
            print("   ", row)
    print(json.dumps({"disc": args.disc, "level": args.level,
                      "class_number": len(cs), "matrices": out}, sort_keys=True))
    return 0


def _eigensystem_from_args(args, sample_need):
    """The system mod p^n of a validated configuration: the --f fixture, or
    the computed system."""
    from .pipeline import PipelineConfig, fixture_system, select_vertex_system
    from .quatarith import class_set_avoiding, eichler_order_for
    config = PipelineConfig(args.nplus, args.nminus, args.p, args.n, 0, args.K,
                            fixture_path=None if args.f == "computed" else args.f,
                            sample_bound=sample_need)
    system = fixture_system(config)
    if system is not None:
        return system
    classes = class_set_avoiding(eichler_order_for(args.nminus, args.nplus), args.p)
    return select_vertex_system(classes, config)


def _cmd_admissible(args) -> int:
    from .admraise import search_admissible
    bad = args.p * args.nplus * args.nminus
    system = _eigensystem_from_args(args, max(args.bound, 20))
    certs = search_admissible(system, args.K, args.p, args.n, args.bound, bad)
    rows = [("v", "eps", "a_v")]
    for c in certs:
        rows.append((str(c.v), f"{c.eps:+d}", str(c.a_v)))
    _table(rows)
    print(json.dumps({"admissible": [c.to_dict() for c in certs]}, sort_keys=True))
    return 0


def _cmd_raise(args) -> int:
    from .admraise import is_n_admissible, raise_level_search
    from .pipeline import good_primes
    bad = args.p * args.nplus * args.nminus
    sample = good_primes(args.bound, bad * args.v1 * args.v2)
    system = _eigensystem_from_args(args, args.bound)
    c1, why1 = is_n_admissible(args.v1, system, args.K, args.p, args.n, bad)
    c2, why2 = is_n_admissible(args.v2, system, args.K, args.p, args.n, bad)
    if c1 is None or c2 is None:
        print(f"error: admissibility fails: v1: {why1}, v2: {why2}", file=sys.stderr)
        return 2
    report = raise_level_search(system, c1, c2, args.nminus, args.nplus, sample)
    if not report.success:
        print("LEVEL-RAISING FALSIFIER:", report.detail)
        print(json.dumps({"success": False, "detail": report.detail}, sort_keys=True))
        return 4
    pair = report.pair
    print(f"congruent eigensystem found on disc {args.nminus * args.v1 * args.v2}:")
    rows = [("ell", "a(old)", "a(new)")] + [
        (str(ell), str(system.value(ell)), str(pair.new.value(ell)))
        for ell in pair.sampled]
    _table(rows)
    print(f"U_{args.v1} = {pair.new.u[args.v1]} (eps1 {c1.eps:+d}), "
          f"U_{args.v2} = {pair.new.u[args.v2]} (eps2 {c2.eps:+d})")
    print(json.dumps({"success": True, "new": json.loads(pair.new.to_json()),
                      "eps": [c1.eps, c2.eps]}, sort_keys=True))
    return 0


def _cmd_compgroup(args) -> int:
    from .compgraph import (LengthGraph, component_group, edixhoven_check,
                            omega_map)
    with open(args.graph) as fh:
        graph = LengthGraph.from_json(fh.read())
    connected = graph.is_connected()
    if args.divisor and not connected:
        raise UsageError("--divisor needs a connected graph")
    phi = component_group(graph)
    groups = phi if isinstance(phi, tuple) else (phi,)
    # the cycle space of a disjoint union is the sum of its components'
    rank = sum(grp.rank for grp in groups)
    print(f"vertices {graph.n_vertices}, edge pairs {len(graph.edges)}, "
          f"cycle rank {rank}")
    for i, grp in enumerate(groups):
        print(f"component {i}: Phi = {grp.shape.describe()}")
    result = {"rank": rank,
              "phi": [g.shape.describe() for g in groups]}
    if connected:
        rep = edixhoven_check(graph)
        print("comparison diagram:", "agrees" if rep.ok else "FAILS")
        result["edixhoven"] = rep.ok
        images = []
        for chain in map(tuple, args.divisor):
            cls = omega_map(graph, groups[0], chain)
            print(f"omega({chain}) = {cls}")
            images.append(list(cls))
        if images:
            result["omega"] = images
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_fitting(args) -> int:
    from .exactalg import IntMatrix, PrimePowerRing, fitting_exponent
    try:
        rows = json.loads(args.matrix)
    except ValueError as ex:
        raise UsageError(f"--matrix is not JSON: {ex}") from None
    ring = PrimePowerRing(args.p, args.n)
    t = fitting_exponent(IntMatrix.from_rows(rows), ring)
    if t is None:
        print("Fitting ideal: zero (presented module has free rank)")
    else:
        vanish = " (vanishes in the working ring)" if t >= args.n else ""
        print(f"Fitting ideal generated by {args.p}^{t}{vanish}")
    print(json.dumps({"p": args.p, "n": args.n, "exponent": t}, sort_keys=True))
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import run_acceptance
    ok = run_acceptance(args.criteria)
    return 0 if ok else 5


if __name__ == "__main__":
    sys.exit(main())
