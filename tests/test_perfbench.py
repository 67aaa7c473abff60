"""The benchmark checks itself: its workloads, its tracer and its entry point.

perfbench's tracer times a layer by swapping a wrapper in for a name the
package calls through.  A refactor that routes a call around that name makes
the layer read 0 without any error.  Here the benchmark's own passes run,
untraced and traced, on every workload but the bulk of fd-chain, and each
layer a workload exercises must record spans in the numbers the code
implies.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Spans of one Newton-type run through the harness, on every workload.
_NEWTON_LOOP = {
    "harness.run_experiment", "harness.to_csv", "optimizers.run",
    "optimizers.step", "optimizers.select_delta", "spectral.eigh",
    "spectral.reflect_inverse_apply", "objectives.value",
    "objectives.gradient", "objectives.hessian",
}
# Per workload, the span names a traced pass must record at least once.
# fd-chain runs only its first 8-bead start: that pair of runs takes 0.14 s
# and goes through the finite-difference layers, while the ABBBA runs take
# about 1.3 s a pass and one of them fails its target check.
LAYERS = {
    "dense-hessian": _NEWTON_LOOP,
    "small-problems": _NEWTON_LOOP | {"rootfind.find_root",
                                      "rootfind.classify"},
    "minibatch-griewank": _NEWTON_LOOP | {"objectives.sample_xi",
                                          "objectives.sample_batch"},
    "fd-chain": _NEWTON_LOOP | {"objectives.fd_gradient",
                                "objectives.fd_hessian",
                                "objectives.protein_energy"},
}


def test_the_workloads_exercise_every_traced_name(load_module):
    # besides the wrapped names, run.py opens one span around each operation
    # and Tracer.installed wraps every step function as optimizers.step
    tracing = load_module("perfbench/tracing.py")
    recordable = {name for _, _, name, _ in tracing._BOUNDARIES} | {
        "optimizers.step", "harness.run_experiment", "rootfind.find_root"}
    assert set().union(*LAYERS.values()) == recordable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim > 2
@pytest.mark.parametrize("name", sorted(LAYERS))
def test_a_traced_pass_records_every_layer_it_runs(name, load_module,
                                                   tmp_path):
    perfbench = load_module("perfbench/run.py")
    workload = perfbench.workloads.build(name, 1, tmp_path)
    ops = [op for op in workload.ops
           if name != "fd-chain" or op.id.startswith("fib8-1/")]
    workload = perfbench.Workload(ops, workload.inputs)
    _, untraced, _ = perfbench.run_pass(workload)
    passes = []
    for _ in range(2):
        tracer = perfbench.Tracer()
        with tracer.installed():
            _, outcomes, _ = perfbench.run_pass(workload, tracer)
        passes.append((Counter(s.name for s in tracer.spans), outcomes))
    (calls, traced), (again, traced_again) = passes

    for outcomes in (untraced, traced, traced_again):
        failed = {op.id: o.failed for op, o in zip(ops, outcomes)
                  if o.failed}
        assert not failed, f"{name}: operations failed their checks: {failed}"
        moved = [op.id for op, a, b in zip(ops, untraced, outcomes)
                 if not perfbench.same_result(a, b)]
        assert not moved, f"{name}: tracing changed the result of {moved}"
    assert calls == again, f"{name}: two traced passes record other counts"
    unseen = sorted(LAYERS[name] - set(calls))
    assert not unseen, f"{name}: no span recorded for {unseen}"

    # every Newton-type step decomposes the Hessian it evaluates
    assert calls["spectral.eigh"] == calls["objectives.hessian"] > 0, \
        f"{name}: spectral.eigh calls differ from objectives.hessian calls"
    if name == "minibatch-griewank":
        # each step draws one batch and each run one more, and each draw
        # becomes a batch through sample_batch_objective
        iterations = sum(o.iterations for o in traced)
        assert calls["objectives.sample_batch"] \
            == calls["objectives.sample_xi"] >= iterations > 0, \
            f"{name}: batches, draws and {iterations} iterations disagree"
    if name == "small-problems":
        # find_root classifies the end point of every run that did not
        # diverge
        finds = [o for op, o in zip(ops, traced) if op.mero is not None]
        classified = sum(o.kind != "diverged" for o in finds)
        assert calls["rootfind.classify"] == classified > 0, \
            f"{name}: {classified} of {len(finds)} root finds classified"
    if name == "fd-chain":
        # the chain has no analytic derivatives: every gradient and Hessian
        # is a finite difference of the energy
        for fd, call in (("fd_gradient", "gradient"),
                         ("fd_hessian", "hessian")):
            assert calls[f"objectives.{fd}"] == calls[f"objectives.{call}"], \
                f"{name}: objectives.{fd} calls differ from objectives.{call}"
        assert calls["objectives.protein_energy"] > 0

def test_the_benchmark_entry_point_reports_correct_runs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-hessian",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert not (ROOT / ".perfbench_out" / "dense-hessian-1").exists()
