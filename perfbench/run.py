"""qnewton benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
BLAS is pinned to one thread and every operation runs in this process, one
after another (see workloads.py for what an operation is).

--trace 0 times passes over the workload's operation list for S seconds
(and until at least 100 operation times are pooled) and reports
end-to-end metrics.  --trace 1 alternates untraced and traced passes and
reports per-layer metrics from the traced ones, with the tracing overhead.
Both check every operation's output (checks.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import os
import sys

# Pinned before numpy is imported, here and in the set-up processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

try:
    import numpy as np
    import workloads
    from workloads import Workload
    from checks import CHECKS, check, same_result
    from tracing import Tracer, is_measured, layer_metrics
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the qnewton package from "
             f"{HERE.parent / 'src'}: {exc}")

SETUP_REPEATS = 3      # fresh processes per run; setup_s is their median
MIN_SAMPLES = 100      # pooled operation times: ten beyond p90
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
HARD_LIMIT_S = 150     # stop adding passes after this, whatever the counts


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "lapack": f"{deps['lapack']['name']} "
                  f"{deps['lapack'].get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def measure_setup(name, seed, out_dir):
    """Median set-up seconds over SETUP_REPEATS fresh processes."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(out_dir / f"setup-{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times), times


def run_pass(workload, tracer=None):
    """Run every operation once; returns (seconds per op, outcomes, g evals).

    Only the operation call is timed; checking its output is not.  Each
    harness operation writes into an empty directory, removed after the
    check: rewriting the same trace files pass after pass makes ext4 flush
    each one on close, which made passes slower and twice as noisy.
    """
    times, outcomes, g_evals = [], [], [0]
    for op in workload.ops:
        result = None
        if tracer is not None:
            tracer.op = op.id
            mero = workloads.counting_mero(op.mero, g_evals) if op.mero \
                else None
            span = ("harness.run_experiment" if op.spec is not None
                    else "rootfind.find_root")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workloads.execute(op)
            else:
                with tracer.span(span, handoff=op.spec is not None):
                    result = workloads.execute(op, mero)
        except Exception:  # a raising operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t0)
        outcomes.append(check(op, result))
        if op.spec is not None:
            shutil.rmtree(op.spec.out_dir, ignore_errors=True)
    return times, outcomes, g_evals[0]


class Tally:
    """Operation outcomes over all passes, checked against the first pass."""

    def __init__(self):
        self.first = None
        self.outcomes = []

    def add(self, outcomes):
        if self.first is None:
            self.first = outcomes
        for o, ref in zip(outcomes, self.first):
            if not same_result(o, ref):
                o.failed.append("repeatable")
        self.outcomes += outcomes

    def summary(self):
        """(attempted, failed a check, failed_frac, failures per check).

        failed_frac also counts runs that ended numerical-error.
        """
        attempted = len(self.outcomes)
        failed = sum(bool(o.failed) for o in self.outcomes)
        either = sum(bool(o.failed) or o.kind == "numerical-error"
                     for o in self.outcomes)
        by_check = {c: sum(c in o.failed for o in self.outcomes)
                    for c in CHECKS}
        return attempted, failed, either / attempted, by_check


def measure_untraced(workload, seconds, tally):
    deadline = time.perf_counter() + seconds
    hard = time.perf_counter() + HARD_LIMIT_S
    passes, samples = [], []
    while True:
        times, outcomes, _ = run_pass(workload)
        passes.append(sum(times))
        samples += times
        tally.add(outcomes)
        now = time.perf_counter()
        if now >= hard or (now >= deadline and len(passes) >= MIN_PASSES
                           and len(samples) >= MIN_SAMPLES):
            return passes, samples


def measure_traced(workload, seconds, tally, spans_path):
    """Alternate untraced and traced passes; per-layer metrics per pass.

    The spans of the first traced pass are kept and written at the end.
    """
    deadline = time.perf_counter() + seconds
    hard = time.perf_counter() + HARD_LIMIT_S
    plain, traced, layers, kept = [], [], [], None
    while True:
        times, outcomes, _ = run_pass(workload)
        plain.append(sum(times))
        tally.add(outcomes)
        tracer = Tracer()
        with tracer.installed():
            times, outcomes, g_evals = run_pass(workload, tracer)
        traced.append(sum(times))
        tally.add(outcomes)
        layers.append(layer_metrics(tracer.spans, outcomes, g_evals))
        kept = kept or tracer
        now = time.perf_counter()
        if now >= hard or (now >= deadline
                           and len(layers) >= MIN_TRACED_PASSES):
            kept.write(spans_path)
            return plain, traced, layers


def unit_of(name):
    """Unit of a metric, read from its name."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_mb", "MB"),
                         ("us_per_call", "us"), ("per_iter", "1/iter"),
                         ("n3_sum", "n3-computed"), ("ratio", "ratio"),
                         ("bytes", "bytes")):
        if name.endswith(suffix) or f"{suffix}_" in name:
            return unit
    return "count"


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run_out = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_out, ignore_errors=True)
    run_out.mkdir(parents=True)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment()))

    if not args.trace:
        setup_s, setup_all = measure_setup(args.workload, args.seed, run_out)
    workload = workloads.build(args.workload, args.seed, run_out / "ops")
    print("inputs " + json.dumps(workload.inputs))
    run_pass(Workload(workload.ops[:1], {}))    # warm-up, not measured

    tally = Tally()
    counts_repeat = True
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        plain, traced, layers = measure_traced(workload, args.seconds, tally,
                                               spans_path)
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if is_measured(name):
                metrics[name] = statistics.median(values)
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    print(f"count {name} differs between passes: {values}")
                    counts_repeat = False
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.untraced_pass_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                       - metrics["trace.untraced_pass_s"])
        print(f"traced passes {len(traced)}, untraced passes {len(plain)}; "
              f"spans of the first traced pass in {spans_path}")
    else:
        passes, samples = measure_untraced(workload, args.seconds, tally)
        iterations = sum(o.iterations for o in tally.first)
        pass_s = statistics.median(passes)
        p50, p90 = np.percentile(samples, [50, 90])
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "iter_ms": 1e3 * pass_s / iterations,
            "run_ms_p50": 1e3 * float(p50),
            "run_ms_p90": 1e3 * float(p90),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup seconds: {', '.join(fmt(t) for t in setup_all)}")
        print(f"pass seconds: {', '.join(fmt(t) for t in passes)}")
        print(f"passes {len(passes)}, operations per pass "
              f"{len(workload.ops)}, iterations per pass {iterations}, "
              f"operation samples {len(samples)} "
              f"({sum(t > p90 for t in samples)} beyond p90)")

    attempted, failed, failed_frac, by_check = tally.summary()
    for name, value in metrics.items():
        print(f"  {name:40s} {fmt(value):>14s} {unit_of(name)}")
    print(f"  {'failed_frac':40s} {fmt(failed_frac):>14s}   (of {attempted} "
          f"operations: a failed check or a numerical-error end)")
    print("checks failed " + json.dumps(by_check))
    shutil.rmtree(run_out, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
