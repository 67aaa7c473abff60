"""Record a baseline: every workload over a panel of seeds.

    python3 perfbench/baseline.py [--seeds 1-10] [--traced 1,2] [--out FILE]

Runs run.py once per (workload, seed) with tracing off, and once per
(workload, traced seed) with tracing on, one run at a time.  For each
workload and end-to-end metric it stores the ten values, their median and
their spread: the distance between the first and third quartiles as a
share of the median.  Per-layer metrics are stored per traced seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = json.loads(next(line.split(" ", 1)[1] for line in lines
                          if line.startswith("environment ")))
    return result, env, lines


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--traced", type=seed_list, default=[1, 2])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    doc = {"seeds": args.seeds, "traced_seeds": args.traced,
           "run_seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = {}
        for seed in args.seeds:
            result, doc["environment"], lines = run(name, seed,
                                                    args.seconds, 0)
            runs[seed] = result
            passes = next((line for line in lines
                           if line.startswith("pass seconds")), "")
            print(name, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4)
                   for k, v in result["metrics"].items()}, passes,
                  flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": [r["attempted"] for r in runs.values()],
            "failed": [r["failed"] for r in runs.values()],
            "end_to_end": {
                m["name"]: summarize([runs[s]["metrics"][m["name"]]["value"]
                                      for s in args.seeds])
                for m in bench["end_to_end"]},
            "per_layer": {},
        }
        for seed in args.traced:
            result, _, _ = run(name, seed, args.seconds, 1)
            entry["per_layer"][str(seed)] = {
                k: v["value"] for k, v in result["metrics"].items()}
        doc["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"  {name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
