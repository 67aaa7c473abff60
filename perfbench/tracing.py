"""Spans around the package's layer boundaries, recorded from outside.

The tracer swaps wrappers in for the functions each layer exposes and calls
across module boundaries (``optimizers.eigh``, ``Objective.value``,
``harness.run`` and so on) while a traced pass runs, and puts the originals
back afterwards.  The package's source is not changed.

A span records its name, start and end (wall clock and the thread's CPU
clock), thread id, parent span and the operation it serves.  A span opened
on a thread with nothing open takes as parent the span that handed the work
over, so a run on the harness pool thread hangs under the
``harness.run_experiment`` span of the main thread.  Spans stay in memory
and are written out at the end.

A span's self time is its duration minus the part its children cover.
``busy`` is self time on the thread's CPU clock; wall minus CPU is waiting.
"""

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

import qnewton.harness
import qnewton.objectives.base
import qnewton.objectives.protein
import qnewton.optimizers
import qnewton.rootfind
from qnewton.objectives import Objective, StochasticObjective
from qnewton.optimizers import Trace


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str | None
    thread: int
    start_ns: int
    end_ns: int
    cpu_start_ns: int
    cpu_end_ns: int
    size: int = 0          # problem size n where the layer has one
    ok: bool = True        # False when the call raised


def _dim(x):
    return int(np.shape(x)[0])


# (owner, attribute, span name, size of the call from its arguments)
_BOUNDARIES = (
    (qnewton.optimizers, "eigh", "spectral.eigh", lambda a: _dim(a[0])),
    (qnewton.optimizers, "reflect_inverse_apply",
     "spectral.reflect_inverse_apply", None),
    (qnewton.optimizers, "select_delta", "optimizers.select_delta", None),
    (qnewton.optimizers, "sample_batch_objective", "objectives.sample_batch",
     None),
    (qnewton.harness, "run", "optimizers.run", None),
    (qnewton.rootfind, "run", "optimizers.run", None),
    (qnewton.rootfind, "classify_critical_point", "rootfind.classify", None),
    (qnewton.objectives.base, "fd_gradient", "objectives.fd_gradient",
     lambda a: _dim(a[1])),
    (qnewton.objectives.base, "fd_hessian", "objectives.fd_hessian",
     lambda a: _dim(a[1])),
    (qnewton.objectives.protein, "protein_energy", "objectives.protein_energy",
     None),
    (Objective, "value", "objectives.value", None),
    (Objective, "gradient", "objectives.gradient", None),
    (Objective, "hessian", "objectives.hessian", None),
    (StochasticObjective, "sample_xi", "objectives.sample_xi", None),
    (Trace, "to_csv", "harness.to_csv", None),
)


class Tracer:
    """Collects spans from every thread; one instance per traced pass."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._handoff = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _begin(self):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else self._handoff
        stack.append(sid)
        return stack, sid, parent, time.perf_counter_ns(), time.thread_time_ns()

    def _end(self, name, begun, size, ok):
        c1, t1 = time.thread_time_ns(), time.perf_counter_ns()
        stack, sid, parent, t0, c0 = begun
        stack.pop()
        self.spans.append(Span(sid, name, parent, self.op,
                               threading.get_ident(), t0, t1, c0, c1, size,
                               ok))

    @contextmanager
    def span(self, name, handoff=False):
        """Record one span; ``handoff`` parents other threads' spans to it."""
        begun = self._begin()
        if handoff:
            self._handoff = begun[1]
        ok = False
        try:
            yield
            ok = True
        finally:
            if handoff:
                self._handoff = None
            self._end(name, begun, 0, ok)

    def wrap(self, fn, name, size_of):
        """``fn``, recording one span per call."""
        def traced(*args, **kwargs):
            size = size_of(args) if size_of else 0
            begun = self._begin()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._end(name, begun, size, ok)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route every layer boundary through this tracer while open."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in _BOUNDARIES]
        methods = qnewton.optimizers.METHODS
        saved_methods = dict(methods)
        try:
            for owner, attr, name, size_of in _BOUNDARIES:
                setattr(owner, attr,
                        self.wrap(owner.__dict__[attr], name, size_of))
            for key, step in saved_methods.items():
                methods[key] = self.wrap(step, "optimizers.step", None)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            methods.update(saved_methods)

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans):
    """Self CPU ns per span id: its CPU time minus that of its children.

    Only children on the parent's own thread count; the thread CPU clock of
    another thread says nothing about the parent's.
    """
    by_id = {s.id: s for s in spans}
    self_cpu = {s.id: s.cpu_end_ns - s.cpu_start_ns for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            self_cpu[p.id] -= s.cpu_end_ns - s.cpu_start_ns
    return self_cpu


LAYERS = ("spectral", "optimizers", "objectives", "harness", "rootfind")
TERMINATIONS = ("converged", "diverged", "max-iter", "numerical-error")
CLASSIFICATIONS = ("root-of-g", "saddle-of-f", "degenerate", "diverged")


def layer_metrics(spans, outcomes, g_evals):
    """Per-layer metrics of one traced pass.

    ``outcomes`` are the checked outcomes of the pass's operations and
    ``g_evals`` the count from the counting MeroFunction.
    """
    self_cpu = self_times(spans)
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    calls, busy = Counter(), defaultdict(float)
    for s in spans:
        children[s.parent].append(s)
        calls[s.name] += 1
        busy[s.name] += self_cpu[s.id] / 1e9

    def named(name):
        return [s for s in spans if s.name == name]

    iterations = sum(o.iterations for o in outcomes)
    eigh = named("spectral.eigh")
    shifts = [s for s in eigh
              if by_id.get(s.parent) is not None
              and by_id[s.parent].name == "optimizers.select_delta"]
    accepted = sum(s.ok for s in named("optimizers.select_delta"))
    fd_evals = sum(2 * s.size for s in named("objectives.fd_gradient")) \
        + sum(2 * s.size * (s.size + 1) for s in named("objectives.fd_hessian"))
    evals = sum(calls[f"objectives.{k}"]
                for k in ("value", "gradient", "hessian"))

    # The harness's own cost: run_experiment's wall time minus the run it
    # caused, and the part of that in which no harness code was on a CPU.
    overhead = wait = 0.0
    for s in named("harness.run_experiment"):
        kids = children[s.id]
        run_wall = sum(c.end_ns - c.start_ns for c in kids
                       if c.name == "optimizers.run")
        harness_cpu = self_cpu[s.id] + sum(
            c.cpu_end_ns - c.cpu_start_ns for c in kids
            if c.name == "harness.to_csv")
        s_overhead = (s.end_ns - s.start_ns - run_wall) / 1e9
        overhead += s_overhead
        wait += max(0.0, s_overhead - harness_cpu / 1e9)

    def per(a, b):
        return a / b if b else 0.0

    m = {
        "spectral.eigh.calls": calls["spectral.eigh"],
        "spectral.eigh.busy_s": busy["spectral.eigh"],
        "spectral.eigh.us_per_call": per(busy["spectral.eigh"] * 1e6,
                                         calls["spectral.eigh"]),
        "spectral.eigh.per_iter": per(calls["spectral.eigh"], iterations),
        "spectral.eigh.n3_sum": sum(s.size ** 3 for s in eigh),
        "spectral.reflect_inverse_apply.busy_s":
            busy["spectral.reflect_inverse_apply"],
        "optimizers.iterations": iterations,
        "optimizers.select_delta.calls": calls["optimizers.select_delta"],
        "optimizers.select_delta.busy_s": busy["optimizers.select_delta"],
        "optimizers.shifts_tried": len(shifts),
        "optimizers.shift_accept_ratio": per(accepted, len(shifts)),
        "optimizers.step.busy_s": busy["optimizers.step"],
        "optimizers.run.busy_s": busy["optimizers.run"],
        "optimizers.ls_backtracks": sum(o.ls_backtracks for o in outcomes),
    }
    kinds = Counter(o.kind for o in outcomes)
    for kind in TERMINATIONS:
        m[f"optimizers.termination.{kind}"] = kinds[kind]
    for k in ("value", "gradient", "hessian"):
        m[f"objectives.{k}.calls"] = calls[f"objectives.{k}"]
        m[f"objectives.{k}.busy_s"] = busy[f"objectives.{k}"]
    m.update({
        "objectives.fd_evals": fd_evals,
        "objectives.evals_per_iter": per(evals, iterations),
        "objectives.protein_energy.calls": calls["objectives.protein_energy"],
        "objectives.protein_energy.busy_s": busy["objectives.protein_energy"],
        "objectives.sample_xi.calls": calls["objectives.sample_xi"],
        "objectives.sample_xi.busy_s": busy["objectives.sample_xi"],
        "objectives.sample_batch.busy_s": busy["objectives.sample_batch"],
        "harness.run_experiment.calls": calls["harness.run_experiment"],
        "harness.overhead_s": overhead,
        "harness.wait_s": wait,
        "harness.to_csv.busy_s": busy["harness.to_csv"],
        "harness.trace_bytes": sum(o.trace_bytes for o in outcomes),
        "rootfind.find_root.calls": calls["rootfind.find_root"],
        "rootfind.g_evals": g_evals,
        "rootfind.classify.busy_s": busy["rootfind.classify"],
    })
    classes = Counter(o.classification for o in outcomes)
    for c in CLASSIFICATIONS:
        m[f"rootfind.classification.{c}"] = classes[c]
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(v for k, v in busy.items()
                                   if k.startswith(layer + "."))
    m["trace.spans"] = len(spans)
    return m


def is_measured(name):
    """Whether a per-layer metric is measured rather than counted.

    Counts, and ratios of counts, must repeat exactly from pass to pass.
    Trace bytes do not: the CSV records each step's wall time.
    """
    return name.endswith(("_s", ".us_per_call")) \
        or name == "harness.trace_bytes"
