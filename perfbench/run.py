"""Benchmark for quatlfun: four workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lfun-tower --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload: one operation at a time, back to back, in a
closed loop with one client and no threads. A run measures whole passes over
the workload's operations; it starts another pass only while the last one
would still end within --seconds, and always measures at least one. Every
output is checked after its pass, outside the timed region; an operation
fails if it raises QuatlfunError or its output does not match the reference.

--trace 0 reports the end-to-end metrics. Their times are in seconds at a
reference interpreter speed: the reference clock (perfbench/refclock.py)
samples the machine's speed while set-up and each pass run, and the measured
times are scaled by it, because raw times on a shared virtual machine drift
with the host's load. The raw times are in the stderr summary and, from a
traced run, in the per-layer metrics. --trace 1 runs one untraced pass, then
one pass with the tracer installed (perfbench/tracer.py), and reports the
per-layer metrics; the spans go to .perfbench/ in the checkout. The last line
of standard output is the JSON report; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from refclock import RefClock, Sample

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("lfun-tower", "raise-374", "quotient-sweep", "brandt-sweep")
SETUP_REPEATS = 3  # fresh set-up processes before the passes, and again after
SETUP_CLOCK_INTERVAL_S = 0.005  # set-up lasts about 0.2 s; sample it densely

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"), ("ok_ratio", "ratio"),
)
# Taken from the untraced pass of a traced run and recorded without a bound,
# next to the per-layer metrics: the median operation time and the failure
# share, and the pass's raw wall and CPU times with the reference clock's
# slowdown (raw time / slowdown = the time at the reference speed). Single
# operations and raw times moved by 25-30 % from run to run on a shared 2-vCPU
# virtual machine; no bound of at most 0.25 holds for them there.
PER_PASS = (
    ("pass.op_p50_s", "s", "lower"), ("pass.fail_ratio", "ratio", "lower"),
    ("pass.raw_wall_s", "s", "lower"), ("pass.raw_cpu_s", "s", "lower"),
    ("pass.slowdown", "ratio", "lower"),
)


def load_package():
    """Import quatlfun and the oracles from this checkout, never from elsewhere."""
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    for path in (os.path.join(src, "quatlfun", "__init__.py"),
                 os.path.join(tests, "oracles.py")):
        if not os.path.isfile(path):
            sys.exit(f"perfbench: {path} is missing; run from a quatlfun checkout")
    sys.path[:0] = [src, tests]
    import quatlfun
    if os.path.dirname(os.path.abspath(quatlfun.__file__)) != os.path.join(src, "quatlfun"):
        sys.exit(f"perfbench: imported quatlfun from {quatlfun.__file__}, not {src}")
    import workloads
    return workloads


def prepare(workloads, name, seed):
    """Set-up: make the inputs from the seed and load the references."""
    wl = workloads.WORKLOADS[name]
    ops = wl.inputs(seed)
    return wl, ops, wl.references(ops)


def measure_setup(name, seed):
    """Times for fresh processes to start, import and prepare the workload,
    at the reference speed that each process's reference clock sampled."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        sample = Sample(**json.loads(proc.stdout.strip().splitlines()[-1]))
        times.append(sample.scale(wall - sample.chunk_wall_s))
    return times


def per_layer_specs():
    """(name, unit, better) of every metric a traced run reports."""
    from tracer import metric_specs
    return [*metric_specs(), *PER_PASS]


@dataclass
class Pass:
    """Timings and outcomes of one pass over the operations.

    wall_s and cpu_s leave out the reference clock's chunks; ref_wall_s and
    ref_cpu_s are the same times at the reference speed.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    clock: Sample = field(default_factory=Sample)
    ok_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)

    @property
    def ref_wall_s(self):
        return self.clock.scale(self.wall_s)

    @property
    def ref_cpu_s(self):
        return self.clock.scale(self.cpu_s, cpu=True)


def run_pass(workloads, wl, ops, refs, clocked=True):
    """One pass; with clocked, the reference clock samples the machine's speed."""
    from quatlfun import cache
    from quatlfun.errors import QuatlfunError
    if cache.cache_directory() is not None:
        sys.exit("perfbench: the class-set disk cache is configured; "
                 "operations could be served from an earlier run")
    out_dir = os.path.join(OUT, f"out-{wl.name}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    gc.collect()  # start every pass from the same heap, outside the timing

    result = Pass()
    outcomes = []
    clock = RefClock()
    if clocked:
        clock.start()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for op in ops:
            start, chunks0 = time.perf_counter(), clock.sample.chunk_wall_s
            out, error, wrong = None, None, False
            try:
                out = wl.run(op, out_dir)
            except QuatlfunError as ex:
                error = f"{type(ex).__name__}: {ex}"
            except Exception:  # a crash or a wrong answer, never a typed failure
                error, wrong = traceback.format_exc(limit=-3), True
            outcomes.append((out, error, wrong, time.perf_counter() - start
                             - (clock.sample.chunk_wall_s - chunks0)))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        result.clock = clock.stop() if clocked else clock.sample
    result.wall_s = wall - result.clock.chunk_wall_s
    result.cpu_s = cpu - result.clock.chunk_cpu_s

    for op, ref, (out, error, wrong, seconds) in zip(ops, refs, outcomes):
        result.attempted += 1
        if error is None:
            try:
                wl.check(op, out, ref)
            except workloads.WrongAnswer as ex:
                error, wrong = str(ex), True
        if error is None:
            result.ok_times.append(seconds)
            continue
        result.failed += 1
        result.wrong += wrong
        result.notes.append(f"{wl.name} {op!r:.60}: {'WRONG ' * wrong}{error.strip()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def measure(workloads, wl, ops, refs, seconds, trace, seed=None):
    """Run the passes and return the report: correct, attempted, failed, metrics.

    Untraced, set-up is timed in fresh processes before and after the passes,
    so that setup_s, like wall_s, samples the machine over the whole run. All
    three times are at the reference speed (refclock.py). Traced, the untraced
    pass runs with the reference clock and the traced pass without it, so
    that its chunks land in no span.
    """
    passes = []
    if trace:
        from tracer import Tracer
        passes.append(run_pass(workloads, wl, ops, refs))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workloads, wl, ops, refs, clocked=False))
        finally:
            tracer.remove()
        untraced = passes[0]
        values = tracer.metrics(passes[1].wall_s, untraced.wall_s)
        values["pass.op_p50_s"] = op_p50([untraced]) if untraced.ok_times else 0.0
        values["pass.fail_ratio"] = untraced.failed / untraced.attempted
        values["pass.raw_wall_s"] = untraced.wall_s
        values["pass.raw_cpu_s"] = untraced.cpu_s
        values["pass.slowdown"] = untraced.clock.slowdown()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_specs()}
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}.json"))
    else:
        setup_times = measure_setup(wl.name, seed)
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workloads, wl, ops, refs))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1].wall_s > seconds:
                break
        setup_times += measure_setup(wl.name, seed)
        ok = sum(len(p.ok_times) for p in passes)
        if not ok:
            sys.exit(f"perfbench: every operation of {wl.name} failed")
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.ref_wall_s for p in passes),
            "cpu_s": statistics.median(p.ref_cpu_s for p in passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": ok / sum(p.attempted for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return passes, {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }


def op_p50(passes):
    """Median over passes of the median time of each pass's successful operations."""
    return statistics.median(statistics.median(p.ok_times) for p in passes if p.ok_times)


def summarize(name, passes, report, trace):
    untraced = passes[:1] if trace else passes
    lines = [f"{name}: {len(passes)} pass(es), {report['attempted']} operations, "
             f"{report['failed']} failed (fail_ratio "
             f"{report['failed'] / report['attempted']:.4f}), "
             f"outputs {'correct' if report['correct'] else 'WRONG'}"]
    if any(p.ok_times for p in untraced):
        lines.append(f"  {'op_p50_s (untraced)':<48} {op_p50(untraced):>14.6g} s")
    for label, value, unit in (
            ("raw wall_s (untraced)", statistics.median(p.wall_s for p in untraced), "s"),
            ("raw cpu_s (untraced)", statistics.median(p.cpu_s for p in untraced), "s"),
            ("reference clock slowdown", statistics.median(
                p.clock.slowdown() for p in untraced), "ratio")):
        lines.append(f"  {label:<48} {value:>14.6g} {unit}")
    lines += [f"  {m:<48} {v['value']:>14.6g} {v['unit']}"
              for m, v in report["metrics"].items()]
    notes = sorted({n for p in passes for n in p.notes})
    lines += [f"  failed: {n}" for n in notes]
    print("\n".join(lines), file=sys.stderr)


def run_all(args):
    """Each workload in its own process, so peak_rss_mib is that workload's.

    Prints one line per workload: its name and its JSON report.
    """
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
        print(name, lines[-1] if lines else f"exit code {proc.returncode}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    clock = RefClock(SETUP_CLOCK_INTERVAL_S)
    if args.setup_only:
        clock.start()
    workloads = load_package()
    wl, ops, refs = prepare(workloads, args.workload, args.seed)
    if args.setup_only:
        print(json.dumps(vars(clock.stop())))
        return 0
    passes, report = measure(workloads, wl, ops, refs, args.seconds, args.trace, args.seed)
    summarize(args.workload, passes, report, args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
