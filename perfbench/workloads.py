"""The four benchmark workloads and how one operation is executed.

One operation is one optimizer run, a (problem, method, start) triple.  It
goes through ``harness.run_experiment`` as its own one-job
``ExperimentSpec``, so objective resolution, the run, the trace CSV with its
sidecar and ``rows.csv`` are all part of it.  Root-finding operations go
through ``find_root``.  Operations run one after another: the harness pool
runs interpreter-bound code, so running several jobs at once would measure
lock contention instead of the update.

Everything random is drawn from the workload seed; the program receives
only the generated starts and realization seeds.
"""

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qnewton import (MeroFunction, build_spec,  # noqa: E402
                     builtin, find_root, run_experiment)
from qnewton.fixtures import (ABBBA_STARTS, GRIEWANK15_X0,  # noqa: E402
                              ROOT_STARTS, ROSENBROCK30_X0,
                              STOCHASTIC_GRIEWANK_DIM,
                              STOCHASTIC_GRIEWANK_X0)
from qnewton.objectives import default_start  # noqa: E402

NQN_METHODS = ("nqn", "nqn-backtracking")
NEWTON_METHODS = NQN_METHODS + ("newton", "random-damping-newton")
ALL_METHODS = NEWTON_METHODS + ("backtracking-gd",)

# Iteration caps.  Each keeps one operation short enough that one timed
# run pools at least 100 operation times (ten beyond p90), and
# makes the work of a pass nearly independent of the seed: with the caps,
# almost every seeded run goes to its cap instead of stopping at a
# seed-dependent iteration.  Runs that end earlier stay in the pass.
ROSENBROCK30_CAP = 6   # includes steps where nqn-backtracking decomposes
                       # twice
GRIEWANK15_CAP = 12    # a Griewank-15 step costs about a third of a
                       # Rosenbrock-30 one; a longer cap keeps the two
                       # groups of run times overlapping, so p50 does not
                       # fall into the gap between them
FIB_CAP = 4            # 8-bead chain: one iteration is ~110 energy calls
ABBBA_CAP = 200        # every ABBBA run stops on its own well before this
MINIBATCH_CAP = 10     # uncapped, one of these runs can take 1000 steps
SMALL_CAP = 50         # backtracking-gd and most random-damping-newton runs
                       # on Rosenbrock-2 reach it

FIB_SEQUENCE = "BABABBAB"      # 8-bead Fibonacci chain, Stillinger et al. 1993
FIB_STARTS = 6
FIB_ANGLE_BOX = (-1.0, 1.0)    # bend angles of a moderately folded chain
# Rosenbrock-2 starts: one uniform draw in each cell of a 4x4 grid over the
# box.  Stratifying keeps the pass's mix of easy and hard starts, and so its
# length, nearly the same from seed to seed.
ROSENBROCK2_GRID = 4
ROSENBROCK2_BOX = (-2.0, 2.0)
MINIBATCH_CELLS = ((100, 0.1), (500, 0.1), (100, 1.0))   # (batch, sigma^2)
MINIBATCH_PANEL = 3
SMALL_ENTRIES = ("ex07", "ex12", "ex13", "ex19", "ex21", "ex23")

AT_ZERO = (-math.inf, 1e-8)    # Rosenbrock and Griewank minima: f = 0
ABBBA_MIN = (13.963829 - 1e-6, 13.963829 + 1e-6)


@dataclass(frozen=True)
class Op:
    """One operation: a one-job experiment spec, or a root-finding call."""

    id: str
    spec: object = None            # ExperimentSpec for harness operations
    mero: object = None            # MeroFunction for root-finding operations
    z0: complex | None = None
    target_f: tuple | None = None  # (lo, hi): a converged run's final f


@dataclass
class Workload:
    ops: list
    inputs: dict      # the seed and the generated inputs, for the record


def _spec(op_id, out_root, objective, params, x0, method, cap, seed):
    return build_spec(op_id, objective, params, [tuple(float(v) for v in x0)],
                      (method,), stop={"max_iter": cap}, seed=seed,
                      out_dir=str(out_root / op_id.replace("/", "_")))


def _dense_hessian(seed, out_root):
    problems = (("griewank15", "griewank", {"dim": 15}, GRIEWANK15_X0,
                 GRIEWANK15_CAP),
                ("rosenbrock30", "rosenbrock", {"dim": 30}, ROSENBROCK30_X0,
                 ROSENBROCK30_CAP))
    ops = []
    for tag, objective, params, x0, cap in problems:
        for method in NEWTON_METHODS:
            op_id = f"{tag}/{method}"
            ops.append(Op(op_id, _spec(op_id, out_root, objective, params, x0,
                                       method, cap, seed),
                          target_f=AT_ZERO))
    return ops, {}


def _fd_chain(seed, out_root):
    rng = np.random.default_rng(seed)
    fib_starts = rng.uniform(*FIB_ANGLE_BOX,
                             size=(FIB_STARTS, len(FIB_SEQUENCE) - 2))
    ops = []
    for i, x0 in enumerate(ABBBA_STARTS):
        for method in NQN_METHODS:
            op_id = f"abbba-{i + 1}/{method}"
            ops.append(Op(op_id, _spec(op_id, out_root, "protein",
                                       {"sequence": "ABBBA"}, x0, method,
                                       ABBBA_CAP, seed),
                          target_f=ABBBA_MIN))
    for i, x0 in enumerate(fib_starts):
        for method in NQN_METHODS:
            op_id = f"fib8-{i + 1}/{method}"
            ops.append(Op(op_id, _spec(op_id, out_root, "protein",
                                       {"sequence": FIB_SEQUENCE}, x0,
                                       method, FIB_CAP, seed)))
    return ops, {"fib8_starts": fib_starts.tolist()}


def _minibatch_griewank(seed, out_root):
    rng = np.random.default_rng(seed)
    panel = [int(s) for s in rng.integers(0, 2 ** 31, size=MINIBATCH_PANEL)]
    ops = []
    for batch, sigma2 in MINIBATCH_CELLS:
        for r in panel:
            op_id = f"batch{batch}-var{sigma2}-seed{r}/nqn"
            params = {"dim": STOCHASTIC_GRIEWANK_DIM, "batch_size": batch,
                      "sigma": float(np.sqrt(sigma2)), "seed": r}
            ops.append(Op(op_id, _spec(op_id, out_root, "stochastic-griewank",
                                       params, STOCHASTIC_GRIEWANK_X0, "nqn",
                                       MINIBATCH_CAP, seed)))
    return ops, {"realization_seeds": panel}


def _small_problems(seed, out_root):
    rng = np.random.default_rng(seed)
    lo, hi = ROSENBROCK2_BOX
    k = ROSENBROCK2_GRID
    cells = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    starts = lo + (hi - lo) * (cells + rng.uniform(size=cells.shape)) / k
    ops = []
    for i, x0 in enumerate(starts):
        for method in ALL_METHODS:
            op_id = f"rosenbrock2-{i + 1}/{method}"
            ops.append(Op(op_id, _spec(op_id, out_root, "rosenbrock",
                                       {"dim": 2}, x0, method, SMALL_CAP,
                                       seed),
                          target_f=AT_ZERO))
    for entry in SMALL_ENTRIES:
        for method in NQN_METHODS:
            op_id = f"{entry}/{method}"
            # ex07 is Rosenbrock-2; the others have no checked minimum
            ops.append(Op(op_id, _spec(op_id, out_root, entry, {},
                                       default_start(entry), method,
                                       SMALL_CAP, seed),
                          target_f=AT_ZERO if entry == "ex07" else None))
    for key, z0 in ROOT_STARTS.items():
        ops.append(Op(f"root-{key}/nqn", mero=builtin(key.split("-")[0]),
                      z0=z0))
    return ops, {"rosenbrock2_starts": starts.tolist()}


WORKLOADS = {
    "dense-hessian": _dense_hessian,
    "fd-chain": _fd_chain,
    "minibatch-griewank": _minibatch_griewank,
    "small-problems": _small_problems,
}


def build(name, seed, out_root):
    """Build the operation list of a workload (specs, objectives, starts)."""
    ops, inputs = WORKLOADS[name](seed, Path(out_root))
    return Workload(ops, {"seed": seed, **inputs})


def counting_mero(m, counter):
    """The MeroFunction ``m`` with every call of g, g' and g'' counted."""

    def counted(fn):
        def call(z):
            counter[0] += 1
            return fn(z)
        return call

    return MeroFunction(g=counted(m.g), g1=counted(m.g1), g2=counted(m.g2),
                        pole_guard=m.pole_guard, name=m.name)


def execute(op, mero=None):
    """Run one operation; returns the ResultRow list or the RootResult.

    ``mero`` replaces the operation's own MeroFunction (to count calls).
    """
    if op.spec is not None:
        return run_experiment(op.spec)
    return find_root(mero or op.mero, op.z0)
