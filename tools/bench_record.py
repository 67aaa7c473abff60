"""Record the benchmark in a BENCH file, or time two checkouts A/B.

    python3 tools/bench_record.py --out BENCH_28.json
    python3 tools/bench_record.py --ab OTHER_CHECKOUT \\
        [--workload small-problems] [--pairs 100] [--seed 1] [--out FILE]

Run from anywhere; the checkout is the one this file is in.  perfbench is
run or imported, never changed.

The record mode writes, into the JSON file ``--out``:

* ``perfbench``: for each workload that ``BENCHMARK.json`` lists, the last
  line of its ``command`` at seed 1 for its ``run_seconds``, at
  ``--trace 0`` and ``--trace 1``, parsed and otherwise kept as is;
* ``environment``: perfbench's ``environment`` line (CPU, Python, numpy,
  BLAS and its thread count);
* ``counts``: per workload, the deterministic counts of the traced pass at
  seed 1 (iterations, f/grad/Hessian calls, ``eigh`` calls, shifts tried);
* ``suites``: each suite's wall time in seconds under
  ``qnewton bench --suites all``, the median of three in-process runs, timed
  around the ``run_experiment`` call the CLI makes.

The A/B mode starts one worker process per checkout.  Each worker imports
its own checkout's ``perfbench/`` and ``src/`` and builds the workload once.
Then the two run one untraced pass each per pair, one at a time, in an
order that alternates from pair to pair, after one unrecorded warm-up pair.
Every ROUND_PAIRS pairs both workers are replaced by fresh ones.
It prints, and with ``--out`` records under ``ab``, each side's median and
quartiles of the pass time, the pairs this checkout won, and the output
checks that failed.  BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SUITE_REPEATS = 3
# A/B pairs per pair of fresh workers.  A process's own memory layout and
# hash seed can move its pass time by several percent for its whole life,
# so one pair of workers for every pair would measure two processes' luck.
ROUND_PAIRS = 10
COUNTS = {                       # BENCH name: perfbench's traced metric
    "iterations": "optimizers.iterations",
    "f_calls": "objectives.value.calls",
    "grad_calls": "objectives.gradient.calls",
    "hessian_calls": "objectives.hessian.calls",
    "eigh_calls": "spectral.eigh.calls",
    "shifts_tried": "optimizers.shifts_tried",
}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _revision(path):
    """``git describe --always --dirty`` of a checkout, or None."""
    proc = subprocess.run(["git", "-C", str(path), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def perfbench_run(workload, trace):
    """(last-line JSON, environment) of one perfbench run at SEED."""
    bench = _benchmark()
    command, seconds = bench["command"], bench["run_seconds"]
    if command[0].startswith("python"):
        command = [sys.executable, *command[1:]]
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), json.loads(env.partition(" ")[2])


def suite_seconds():
    """{suite: median seconds} over SUITE_REPEATS in-process runs of each
    suite, timed around the ``run_experiment`` call that
    ``qnewton bench --suites all`` makes."""
    sys.path.insert(0, str(ROOT / "src"))
    from qnewton.harness import SUITES, run_experiment, suite_spec

    times = {name: [] for name in SUITES}
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(SUITE_REPEATS):
            for name in SUITES:
                spec = replace(suite_spec(name),
                               out_dir=str(Path(out) / str(i) / name))
                t0 = time.perf_counter()
                run_experiment(spec)
                times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def record():
    doc = {"checkout": _revision(ROOT), "seed": SEED,
           "seconds": _benchmark()["run_seconds"], "perfbench": {},
           "counts": {}}
    for w in (entry["name"] for entry in _benchmark()["workloads"]):
        doc["perfbench"][w] = {}
        for trace in (0, 1):
            last, env = perfbench_run(w, trace)
            doc["perfbench"][w][f"trace{trace}"] = last
            doc.setdefault("environment", env)
            print(f"{w} trace={trace}: {json.dumps(last)}", flush=True)
        metrics = doc["perfbench"][w]["trace1"]["metrics"]
        doc["counts"][w] = {k: metrics[m]["value"] for k, m in COUNTS.items()}
    doc["suites"] = suite_seconds()
    print("counts " + json.dumps(doc["counts"]))
    print("suites " + json.dumps(doc["suites"]))
    return doc


# ---------------------------------------------------------------------------
# A/B: one worker process per checkout, passes in alternating order
# ---------------------------------------------------------------------------

def worker(checkout, workload, seed):
    """Serve ``pass`` requests on stdin with one JSON line each on stdout."""
    reply_to, sys.stdout = sys.stdout, sys.stderr   # keep the channel clean

    def reply(obj):
        reply_to.write(json.dumps(obj) + "\n")
        reply_to.flush()

    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    import run as perfbench    # imports the checkout's workloads and src/
    import qnewton

    # operations write where perfbench's own runs write
    out = perfbench.OUT / f"ab-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        wl = perfbench.workloads.build(workload, seed, out / "ops")
        perfbench.run_pass(perfbench.Workload(wl.ops[:1], {}))   # warm-up
        tally = perfbench.Tally()
        reply({"qnewton": qnewton.__file__, "ops": len(wl.ops)})
        for line in sys.stdin:
            if line.strip() != "pass":
                break
            times, outcomes, _ = perfbench.run_pass(wl)
            tally.add(outcomes)
            reply({"pass_s": sum(times)})
        if not tally.outcomes:        # input ended before the first pass
            return
        attempted, failed, failed_frac, by_check = tally.summary()
        reply({"attempted": attempted, "failed": failed,
               "failed_or_error": round(failed_frac * attempted),
               "failed_checks": {c: n for c, n in by_check.items() if n}})
    finally:
        shutil.rmtree(out, ignore_errors=True)


class _Worker:
    """One worker process; leaving ``with`` ends its input, waits for it
    to exit and closes its pipes."""

    def __init__(self, checkout, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             str(checkout), "--workload", workload, "--seed", str(seed)],
            cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()       # a worker stops at the end of input
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker {self.proc.args[3]} exited "
                               f"({self.proc.wait()})")
        return json.loads(line)

    def ask(self, request):
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self.read()


def _summary(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def ab(other, workload, seed, pairs):
    sides = {"this": ROOT, "other": Path(other).resolve()}
    times = {name: [] for name in sides}
    checks = {name: Counter() for name in sides}
    failed_checks = {name: Counter() for name in sides}
    hello = {}
    for start in range(0, pairs, ROUND_PAIRS):
        with contextlib.ExitStack() as stack:
            workers = {name: stack.enter_context(_Worker(path, workload, seed))
                       for name, path in sides.items()}
            for name, w in workers.items():
                hello[name] = w.read()
            # None is the round's unrecorded warm-up pair
            for i in (None, *range(start, min(start + ROUND_PAIRS, pairs))):
                order = ("this", "other") if i is not None and i % 2 \
                    else ("other", "this")
                for name in order:
                    t = workers[name].ask("pass")["pass_s"]
                    if i is not None:
                        times[name].append(t)
            for name, w in workers.items():
                summary = w.ask("quit")
                failed_checks[name].update(summary.pop("failed_checks"))
                checks[name].update(summary)
    wins = sum(a < b for a, b in zip(times["this"], times["other"]))
    result = {"workload": workload, "seed": seed, "pairs": pairs,
              "metric": "pass_s", "wins_this": wins}
    for name, path in sides.items():
        c = checks[name]
        result[name] = {"checkout": _revision(path),
                        "qnewton": hello[name]["qnewton"],
                        **_summary(times[name]),
                        "attempted": c["attempted"], "failed": c["failed"],
                        "failed_frac": c["failed_or_error"] / c["attempted"],
                        "failed_checks": dict(failed_checks[name]),
                        "pass_s": times[name]}
    this, that = result["this"], result["other"]
    result["median_change"] = this["median"] / that["median"] - 1.0
    # the benchmark's rule for a gain: 9 of 10 pairs, and a median gap
    # wider than the other side's quartile spread
    result["resolved_gain"] = (wins >= 0.9 * pairs and that["median"]
                               - this["median"] > that["q3"] - that["q1"])
    return result


def _print_ab(r):
    print(f"A/B {r['workload']} seed {r['seed']}, {r['pairs']} pairs of "
          f"untraced passes")
    for name in ("this", "other"):
        s = r[name]
        print(f"  {name:5s} {s['checkout'] or '?':>24s}  median "
              f"{s['median']:.6f} s  quartiles {s['q1']:.6f}-{s['q3']:.6f} s"
              f"  failed checks {s['failed']} of {s['attempted']}")
    print(f"  this won {r['wins_this']} of {r['pairs']} pairs; median change "
          f"{100 * r['median_change']:+.1f} %; gain resolved: "
          f"{r['resolved_gain']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path,
                    help="BENCH file to write; required without --ab")
    ap.add_argument("--ab", metavar="OTHER_CHECKOUT",
                    help="time this checkout against another, pass by pass")
    ap.add_argument("--workload", help="A/B workload (default small-problems)")
    ap.add_argument("--seed", type=int, help=f"A/B seed (default {SEED})")
    ap.add_argument("--pairs", type=int,
                    help="A/B pairs of passes, at least 2 (default 100)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    ab_flags = (args.workload, args.seed, args.pairs)
    workload = args.workload or "small-problems"
    seed = SEED if args.seed is None else args.seed

    if args.worker:
        return worker(args.worker, workload, seed)
    if args.ab is None:
        if args.out is None:
            ap.error("--out is required without --ab")
        if ab_flags != (None, None, None):
            ap.error("--workload, --seed and --pairs need --ab")
    pairs = 100 if args.pairs is None else args.pairs
    if pairs < 2:
        ap.error("--pairs must be at least 2")
    doc = json.loads(args.out.read_text()) \
        if args.out and args.out.exists() else {}
    if args.ab is not None:
        result = ab(args.ab, workload, seed, pairs)
        _print_ab(result)
        doc.setdefault("ab", {})[workload] = result
    else:
        doc.update(record())
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
