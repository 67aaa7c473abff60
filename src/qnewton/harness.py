"""Batch experiment runner: cartesian method x start grids with persisted traces.

An experiment is declared as data (JSON or ExperimentSpec), expanded into
method x initial-point runs, executed one after another, and reduced to one
ResultRow per run — the same columns the published comparison tables use
(iterations / f / grad norm / time / outcome).  Every run's full trace is
written next to the summary so any row can be replayed in detail.
"""

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .fixtures import (ABBBA_STARTS, GRIEWANK15_X0, ROSENBROCK2_X0,
                       ROSENBROCK30_X0, STOCHASTIC_GRIEWANK_DIM,
                       STOCHASTIC_GRIEWANK_SEED, STOCHASTIC_GRIEWANK_X0,
                       STYBLINSKI100_X0)
from .objectives import make_benchmark, make_stochastic_griewank
from .objectives.base import as_integer
from .optimizers import (METHODS, DeltaSchedule, StopCriteria, _USES_DELTAS,
                         _write_utf8, run)

# A method entry of the experiment JSON holds these keys besides "method":
# every DeltaSchedule field, and any StopCriteria field as a per-method stop.
_SCHED_KEYS = tuple(f.name for f in fields(DeltaSchedule))
_STOP_KEYS = tuple(f.name for f in fields(StopCriteria))


def results_root():
    """Default directory for experiment outputs (QNEWTON_RESULTS overrides)."""
    return Path(os.environ.get("QNEWTON_RESULTS", "results"))


@dataclass(frozen=True)
class MethodConfig:
    method: str
    sched: DeltaSchedule = field(default_factory=DeltaSchedule)
    stop: StopCriteria | None = None    # per-method override, else spec stop

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise InvalidInputError(
                f"unknown method {self.method!r}; have {sorted(METHODS)}")
        # a schedule the method would not read is rejected, not dropped
        if self.method not in _USES_DELTAS and self.sched != DeltaSchedule():
            raise InvalidInputError(
                f"{self.method} takes no shift schedule; only "
                f"{', '.join(_USES_DELTAS)} do")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    objective: str                       # catalog name or stochastic-griewank
    params: dict = field(default_factory=dict)   # the objective's keywords
    initial_points: tuple = ()           # tuple of float tuples
    methods: tuple = ()                  # tuple of MethodConfig
    stop: StopCriteria = field(default_factory=StopCriteria)
    seed: int | None = None
    out_dir: str | None = None           # default: results_root()/name

    def __post_init__(self):
        if not self.methods:
            raise InvalidInputError("experiment needs at least one method")
        if not self.initial_points:
            raise InvalidInputError(
                "experiment needs at least one initial point")

    @staticmethod
    def from_json(text):
        """Build a spec from a JSON document (see README for the schema)."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"spec is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or "objective" not in doc:
            raise InvalidInputError(
                'a spec is a JSON object with an "objective"')
        unknown = set(doc) - {f.name for f in fields(ExperimentSpec)}
        if unknown:
            raise InvalidInputError(f"unknown spec keys {sorted(unknown)}")
        return build_spec(**{"name": doc["objective"], **doc})

    def to_json(self):
        """The spec as JSON that ``from_json`` reads back to an equal spec."""
        def method_doc(mc):
            d = {"method": mc.method,
                 **{k: getattr(mc.sched, k) for k in _SCHED_KEYS}}
            if mc.stop is not None:
                d.update({k: getattr(mc.stop, k) for k in _STOP_KEYS})
            return d

        return json.dumps({
            "name": self.name,
            "objective": self.objective,
            "params": self.params,
            "initial_points": [list(p) for p in self.initial_points],
            "methods": [method_doc(m) for m in self.methods],
            "stop": {k: getattr(self.stop, k) for k in _STOP_KEYS},
            "seed": self.seed,
            "out_dir": self.out_dir,
        })


def _resolve_objective(objective, params, seed):
    # params are the builder's keywords, and may override the spec's seed
    if objective == "stochastic-griewank":
        return make_stochastic_griewank(
            **{**({} if seed is None else {"seed": seed}), **params})
    params = dict(params)
    return make_benchmark(objective, params.pop("dim", None), params)


def build_spec(name, objective, params=None, initial_points=None,
               methods=("nqn",), stop=None, seed=None, out_dir=None):
    """Assemble an ExperimentSpec from loosely typed pieces.

    ``initial_points`` is either an iterable of finite points or a dict
    {count, box: [lo, hi], seed} drawn uniformly from its own seed, else
    the spec's; ``methods`` entries are method-id strings or dicts with
    schedule/stop overrides; ``stop`` is a StopCriteria or a dict of its
    fields.  A malformed value raises InvalidInputError.
    """
    if seed is not None and as_integer(seed, "seed") < 0:
        raise InvalidInputError(
            f"seed must be a nonnegative integer, got {seed!r}")
    if isinstance(stop, dict):
        unknown = set(stop) - set(_STOP_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown stop keys {sorted(unknown)}")
        stop = StopCriteria(**stop)
    stop = stop or StopCriteria()

    try:
        params = dict(params or {})
        dim = _resolve_objective(objective, params, seed).dim
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed params: {exc}") from exc

    if initial_points is None:
        raise InvalidInputError("initial_points is required")
    try:
        if isinstance(initial_points, dict):
            lo, hi = initial_points.get("box", (-2.0, 2.0))
            # NaN, an infinite bound, or a width past the float range
            if not math.isfinite(hi - lo):
                raise InvalidInputError(
                    f"box must have finite bounds and width, got "
                    f"[{lo!r}, {hi!r}]")
            draw_seed = initial_points.get("seed", seed)
            if draw_seed is None:      # default_rng(None) differs per call
                raise InvalidInputError(
                    "drawn initial_points need a seed, in the draw or the "
                    "spec")
            rng = np.random.default_rng(draw_seed)
            count = as_integer(initial_points.get("count", 1), "count")
            pts = rng.uniform(lo, hi, size=(count, dim))
        else:
            pts = np.atleast_2d(np.asarray(list(initial_points), dtype=float))
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed initial_points: {exc}") from exc
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise InvalidInputError(
            f"initial points have shape {pts.shape[1:]}, objective has "
            f"dim {dim}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        first = pts[np.argmin(finite)].tolist()
        raise InvalidInputError(f"initial point {first} is not finite")

    if not isinstance(methods, (list, tuple)):
        raise InvalidInputError(f"methods must be a list, got {methods!r}")
    configs = []
    for entry in methods:
        if isinstance(entry, str):
            configs.append(MethodConfig(entry))
            continue
        if not isinstance(entry, dict) or "method" not in entry:
            raise InvalidInputError(f"malformed method entry {entry!r}")
        entry = dict(entry)
        mid = entry.pop("method")
        sched_kwargs = {k: entry.pop(k) for k in _SCHED_KEYS if k in entry}
        stop_kwargs = {k: entry.pop(k) for k in _STOP_KEYS if k in entry}
        if entry:
            raise InvalidInputError(f"unknown method keys {sorted(entry)}")
        configs.append(MethodConfig(
            mid, sched=DeltaSchedule(**sched_kwargs),
            stop=replace(stop, **stop_kwargs) if stop_kwargs else None))

    return ExperimentSpec(
        name=name, objective=objective, params=params,
        initial_points=tuple(tuple(float(v) for v in p) for p in pts),
        methods=tuple(configs), stop=stop, seed=seed, out_dir=out_dir)


@dataclass(frozen=True)
class ResultRow:
    method: str
    objective: str
    x0: str                  # short content digest of the start vector
    iterations: int
    final_f: float
    final_grad_norm: float
    wall_seconds: float
    termination: str


def x0_digest(x0):
    data = np.ascontiguousarray(np.asarray(x0, dtype=float)).tobytes()
    return hashlib.sha1(data).hexdigest()[:10]


def run_to_row(method, objective, obj, x0, sched, stop, seed, trace_path,
               digest=None):
    """Run ``method`` on ``obj`` from x0, write the trace, return its row.

    ``objective`` is the name the row reports and ``wall_seconds`` times
    the run alone; ``digest`` is x0's ``x0_digest``, when the caller has it.
    Errors from the run propagate to the caller.
    """
    t0 = time.perf_counter()
    trace = run(method, obj, np.asarray(x0), sched=sched, stop=stop,
                seed=seed)
    wall = time.perf_counter() - t0
    trace.to_csv(trace_path)
    return ResultRow(method, objective, digest or x0_digest(x0),
                     trace.iterations, trace.final_f, trace.final_grad_norm,
                     wall, trace.termination)


def _one_run(spec, obj, cfg, x0, job_index, out_path):
    digest = x0_digest(x0)
    seed = None if spec.seed is None else spec.seed + job_index
    t0 = time.perf_counter()
    try:
        return run_to_row(cfg.method, spec.objective, obj, x0, cfg.sched,
                          cfg.stop or spec.stop, seed,
                          out_path / f"{cfg.method}-{digest}.csv", digest)
    except Exception as exc:  # a failed run is a row, never a batch abort
        wall = time.perf_counter() - t0
        return ResultRow(cfg.method, spec.objective, digest, 0,
                         float("nan"), float("nan"), wall, f"error: {exc}")


def run_experiment(spec):
    """Execute the full method x initial-point grid; rows in spec order."""
    obj = _resolve_objective(spec.objective, spec.params, spec.seed)
    out_path = Path(spec.out_dir) if spec.out_dir else results_root() / spec.name
    out_path.mkdir(parents=True, exist_ok=True)
    _write_utf8(out_path / "experiment.json", spec.to_json())

    jobs = [(cfg, x0) for cfg in spec.methods for x0 in spec.initial_points]
    rows = [_one_run(spec, obj, cfg, x0, i, out_path)
            for i, (cfg, x0) in enumerate(jobs)]

    _write_utf8(out_path / "rows.csv", emit_report(rows, "csv"))
    return rows


_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def emit_report(rows, format="csv"):
    """Render ResultRows as CSV or a markdown table (6 significant digits)."""
    cells = [[_fmt(getattr(r, c)) for c in _COLUMNS] for r in rows]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(cells)
        return out.getvalue()
    if format == "markdown":
        widths = [max(map(len, column)) for column in zip(_COLUMNS, *cells)]
        def line(vals):
            return "| " + " | ".join(v.ljust(w)
                                     for v, w in zip(vals, widths)) + " |"
        out = [line(_COLUMNS),
               "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out += [line(row) for row in cells]
        return "\n".join(out) + "\n"
    raise InvalidInputError(f"unknown report format {format!r}")


# --------------------------------------------------------------------------
# named reproduction suites
# --------------------------------------------------------------------------

_ALL_METHODS = tuple(METHODS)


# Each suite is the keyword arguments of ``build_spec`` besides its name.
SUITES = {
    "rosenbrock2": dict(objective="rosenbrock", params={"dim": 2},
                        initial_points=[ROSENBROCK2_X0], methods=_ALL_METHODS,
                        stop={"max_iter": 1000}, seed=1),
    "rosenbrock30": dict(objective="rosenbrock", params={"dim": 30},
                         initial_points=[ROSENBROCK30_X0],
                         methods=_ALL_METHODS, stop={"max_iter": 200},
                         seed=1),
    "styblinski100": dict(objective="styblinski-tang", params={"dim": 100},
                          initial_points=[STYBLINSKI100_X0],
                          methods=("nqn", "newton", "backtracking-gd"),
                          stop={"max_iter": 50}, seed=1),
    "griewank15": dict(objective="griewank", params={"dim": 15},
                       initial_points=[GRIEWANK15_X0], methods=_ALL_METHODS,
                       stop={"max_iter": 100}, seed=1),
    "protein-abbba": dict(objective="protein", params={"sequence": "ABBBA"},
                          initial_points=ABBBA_STARTS, methods=("nqn",),
                          stop={"max_iter": 5000}, seed=1),
    "stochastic-griewank": dict(
        objective="stochastic-griewank",
        params={"dim": STOCHASTIC_GRIEWANK_DIM, "batch_size": 500,
                "sigma": float(np.sqrt(0.1)),
                "seed": STOCHASTIC_GRIEWANK_SEED},
        initial_points=[STOCHASTIC_GRIEWANK_X0], methods=("nqn",),
        stop={"max_iter": 50}, seed=STOCHASTIC_GRIEWANK_SEED),
}


def suite_spec(name):
    """The ExperimentSpec of the named suite, built from ``SUITES``."""
    key = str(name).strip().lower()
    if key not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; have {sorted(SUITES)}")
    return build_spec(key, **SUITES[key])
