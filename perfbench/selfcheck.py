"""Fast self-check of the benchmark: one small operation per workload.

Runs each workload on one small input through the same harness, with tracing
off and on, and checks the reports against BENCHMARK.json: the report keys,
every metric name and unit, and that every value is a finite number. It also
hands each check a corrupted output and expects it to be caught, and checks
that the tracer puts every binding it patched back. Exits 1 on any problem.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import types

import run

SMALL_OPS = {
    "lfun-tower": lambda w: [(11, 3, 1, 4, -4)],
    "raise-374": lambda w: [w.make_op(13)],
    "quotient-sweep": lambda w: [7],
    "brandt-sweep": lambda w: [(7, 1), (73, 1)],  # disc 73 is a known failure
}


def corrupt(name, out):
    if name == "lfun-tower":
        ell = min(out["a"])
        out["a"][ell] += 1
    elif name == "raise-374":
        out.pair.new.a[3] += 1
    elif name == "quotient-sweep":
        out["orders"] = [x + 1 for x in out["orders"]]
    else:
        out["units"][0] += 1


def bindings():
    """Every function-valued attribute of every loaded quatlfun module and class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("quatlfun"):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def main():
    problems = []
    workloads = run.load_package()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    if {n: u for n, u in run.END_TO_END} != expected[0]:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
            != run.per_layer_specs():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_specs()")
    before = bindings()

    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        ops = SMALL_OPS[name](wl)
        refs = wl.references(ops)
        for trace in (0, 1):
            _, report = run.measure(workloads, wl, ops, refs, 0, trace, seed=1)
            where = f"{name} --trace {trace}"
            if set(report) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: report keys {sorted(report)}")
            if report["correct"] is not True:
                problems.append(f"{where}: outputs reported wrong")
            want_failed = (1 + trace) if name == "brandt-sweep" else 0
            if report["failed"] != want_failed or report["attempted"] != len(ops) * (1 + trace):
                problems.append(f"{where}: attempted {report['attempted']}, "
                                f"failed {report['failed']}, expected {want_failed} failed")
            got = {m: v["unit"] for m, v in report["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metric names or units differ from BENCHMARK.json")
            for metric, v in report["metrics"].items():
                value = v["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)) \
                        or not math.isfinite(value) or value < 0:
                    problems.append(f"{where}: {metric} = {value!r}")

        out_dir = os.path.join(run.OUT, "selfcheck")
        out = wl.run(ops[0], out_dir)
        corrupt(name, out)
        try:
            wl.check(ops[0], out, refs[0])
            problems.append(f"{name}: a corrupted output passed its check")
        except workloads.WrongAnswer:
            pass
        shutil.rmtree(out_dir, ignore_errors=True)

    after = bindings()
    changed = [k for k in before if after.get(k) is not before[k]
               and isinstance(before[k], (types.FunctionType, staticmethod))]
    if changed:
        problems.append(f"tracer left bindings patched: {changed[:5]}")

    for p in problems:
        print("selfcheck:", p, file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
