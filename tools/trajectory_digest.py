"""One hash and outcome per benchmark operation, to compare trajectories.

    python3 tools/trajectory_digest.py --workload dense-hessian --seed 1 2 3

Run from the root of a checkout.  It builds the operation lists of the
named perfbench workloads (``perfbench/workloads.py``, imported and not
changed) for each seed, runs every operation once, and prints one line per
operation: workload, seed, operation id, a SHA-256 over

* every field of every ``IterationRecord`` of every run the operation made,
  except ``wall_ns`` (``x`` as its bytes, floats by their bits), with the
  run's termination and error class;
* every field of each ``ResultRow`` except ``wall_seconds``;
* a ``RootResult``'s ``z``, ``f_value`` and ``classification``;

and, last, each run's outcome as ``iterations:termination-kind`` (for
example ``23:converged``), comma-separated when the operation made several
runs.

Two checkouts print equal lines exactly when their trajectories are
bit-identical.  Where a hash differs, the outcome column shows whether a
last-bit change moved an iteration count or a termination.  Diff the
output of two checkouts on one machine; the last bits depend on the BLAS
build, so there is no stored digest to compare to.
BLAS is pinned to one thread, as in the benchmark.
"""

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import struct  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

import qnewton.harness  # noqa: E402
import qnewton.rootfind  # noqa: E402


def _token(v):
    """Exact text for one field value: floats by their bits."""
    if isinstance(v, np.ndarray):
        return v.dtype.str + ":" + v.tobytes().hex()
    if isinstance(v, float):
        return "f" + struct.pack("<d", v).hex()
    if isinstance(v, complex):
        return "c" + struct.pack("<dd", v.real, v.imag).hex()
    return repr(v)


def _fields(obj, skip):
    return [f"{f.name}={_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj) if f.name != skip]


class _Capture:
    """Keeps every Trace that ``run`` returns while installed."""

    def __init__(self):
        self.traces = []

    def wrap(self, run):
        def captured(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.traces.append(trace)
            return trace
        return captured


def digest_op(op, capture):
    """Run one operation; the hex digest of its trajectories and results,
    and the outcome of each run."""
    capture.traces.clear()
    result = workloads.execute(op)
    parts = []
    for trace in capture.traces:
        parts.append(f"termination={trace.termination!r} "
                     f"error_class={trace.error_class!r}")
        parts.extend(" ".join(_fields(r, "wall_ns")) for r in trace.records)
    if isinstance(result, list):
        parts.extend(" ".join(_fields(row, "wall_seconds")) for row in result)
    else:
        parts.append(" ".join([_token(result.z), _token(result.f_value),
                               repr(result.classification)]))
    outcomes = ",".join(
        f"{t.iterations}:{t.termination.partition(': ')[0]}"
        for t in capture.traces)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest(), outcomes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, required=True)
    args = ap.parse_args(argv)

    capture = _Capture()
    owners = (qnewton.harness, qnewton.rootfind)
    saved = [owner.run for owner in owners]
    for owner, run in zip(owners, saved):
        owner.run = capture.wrap(run)
    try:
        with tempfile.TemporaryDirectory() as out:
            for name in args.workload:
                for seed in args.seed:
                    wl = workloads.build(name, seed, Path(out) / name)
                    for op in wl.ops:
                        print(name, seed, op.id, *digest_op(op, capture),
                              flush=True)
    finally:
        for owner, run in zip(owners, saved):
            owner.run = run


if __name__ == "__main__":
    main()
