"""Output checks behind the benchmark's failure counts.

Every operation's output is checked outside the timed region:

* a harness operation's trace CSV and JSON sidecar must read back and agree
  with the result row: iteration count, termination, and ``final_f``
  round-tripping its ``repr``;
* converged runs with a known minimum must reach it (Rosenbrock and
  Griewank-15: f <= 1e-8; ABBBA: f = 13.963829 within 1e-6);
* a root classified ``root-of-g`` must satisfy |g(z)| <= ROOT_TOL;
* the final f must be finite and the call must not have raised.

A run that ends ``numerical-error`` passes these checks: it is the
program's documented outcome.  run.py counts it in the printed
``failed_frac`` only, because the known defects of the update show up there.
"""

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from qnewton.rootfind import ROOT_TOL

CHECKS = ("raised", "nonfinite_f", "trace_readback", "target_f",
          "root_residual", "repeatable")


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark needs it."""

    iterations: int = 0
    termination: str = ""           # converged | diverged | max-iter | ...
    final_f: float = math.nan
    ls_backtracks: int = 0
    trace_bytes: int = 0
    classification: str = ""        # root-finding operations only
    failed: list = field(default_factory=list)   # names from CHECKS

    @property
    def kind(self):
        """Termination kind without its detail."""
        return self.termination.split(":", 1)[0]


def _read_trace(out_dir, row):
    """Parse a run's trace CSV and sidecar; returns (records, sidecar, bytes)."""
    path = Path(out_dir) / f"{row.method}-{row.x0}.csv"
    sidecar_path = path.with_suffix(".json")
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    sidecar = json.loads(sidecar_path.read_text())
    size = path.stat().st_size + sidecar_path.stat().st_size
    return records, sidecar, size


def _trace_agrees(records, sidecar, row):
    if not records or len(records) - 1 != row.iterations:
        return False
    if sidecar["iterations"] != row.iterations:
        return False
    if sidecar["termination"] != row.termination:
        return False
    # repr round trip: the CSV holds repr(f), the sidecar the JSON float,
    # and both must give back the row's f exactly
    return records[-1]["f"] == repr(sidecar["final_f"]) == repr(row.final_f)


def _misses_target(op, f):
    if op.target_f is None:
        return False
    lo, hi = op.target_f
    return not lo <= f <= hi


def check_experiment(op, rows):
    """Check a harness operation's row and its persisted trace."""
    row = rows[0]
    out = Outcome(iterations=row.iterations, termination=row.termination,
                  final_f=row.final_f)
    if len(rows) != 1 or row.termination.startswith("error:"):
        out.failed.append("raised")
        return out
    if not math.isfinite(row.final_f):
        out.failed.append("nonfinite_f")
    try:
        records, sidecar, out.trace_bytes = _read_trace(op.spec.out_dir, row)
        agrees = _trace_agrees(records, sidecar, row)
        out.ls_backtracks = sum(int(r["ls_backtracks"]) for r in records)
        rows_csv = (Path(op.spec.out_dir) / "rows.csv").read_text()
        agrees = agrees and len(rows_csv.splitlines()) == 2
    except (OSError, ValueError, KeyError):
        agrees = False
    if not agrees:
        out.failed.append("trace_readback")
    if out.kind == "converged" and _misses_target(op, row.final_f):
        out.failed.append("target_f")
    return out


def check_root(op, result):
    """Check a root-finding operation's classification and residual."""
    trace = result.trace
    out = Outcome(iterations=trace.iterations, termination=trace.termination,
                  final_f=result.f_value,
                  ls_backtracks=sum(r.ls_backtracks for r in trace.records),
                  classification=result.classification)
    if not math.isfinite(result.f_value):
        out.failed.append("nonfinite_f")
    if result.classification == "root-of-g" \
            and not abs(op.mero.g(result.z)) <= ROOT_TOL:
        out.failed.append("root_residual")
    return out


def check(op, result):
    """Outcome of one operation; a call that raised is passed as None."""
    if result is None:
        return Outcome(termination="error: raised", failed=["raised"])
    if op.spec is not None:
        return check_experiment(op, result)
    return check_root(op, result)


def same_result(a, b):
    """Whether two passes gave one operation the same outcome."""
    return (a.iterations, a.termination, repr(a.final_f)) \
        == (b.iterations, b.termination, repr(b.final_f))
