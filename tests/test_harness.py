import csv
import io
import json
import math
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qnewton.errors import InvalidInputError
from qnewton.fixtures import ROSENBROCK2_X0
from qnewton.harness import (
    SUITES,
    ExperimentSpec,
    _COLUMNS,
    ResultRow,
    _fmt,
    _resolve_objective,
    build_spec,
    emit_report,
    results_root,
    run_experiment,
    run_to_row,
    suite_spec,
    x0_digest,
)
from qnewton.objectives import Objective, make_stochastic_griewank
from qnewton.optimizers import DeltaSchedule, StopCriteria


def rosen2_spec(tmp_path, **overrides):
    kwargs = dict(
        name="rosen2", objective="rosenbrock", params={"dim": 2},
        initial_points=[ROSENBROCK2_X0], methods=["nqn"],
        stop={"max_iter": 1000}, seed=7, out_dir=str(tmp_path))
    kwargs.update(overrides)
    return build_spec(**kwargs)


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------

def test_three_methods_reach_the_minimum(tmp_path):
    spec = rosen2_spec(tmp_path,
                       methods=["nqn", "newton", "backtracking-gd"],
                       stop={"max_iter": 10000})
    rows = run_experiment(spec)
    assert [r.method for r in rows] == ["nqn", "newton", "backtracking-gd"]
    for row in rows:
        assert row.termination == "converged"
        sidecar = json.loads(
            (tmp_path / f"{row.method}-{row.x0}.json").read_text())
        np.testing.assert_allclose(sidecar["final_x"], [1.0, 1.0], atol=1e-6)


def test_zero_gradient_start_gives_zero_iteration_rows(tmp_path):
    spec = build_spec(
        name="flat", objective="ex12", initial_points=[[0.0, 0.0]],
        methods=["nqn", "newton"], out_dir=str(tmp_path))
    rows = run_experiment(spec)
    assert len(rows) == 2
    for row in rows:
        assert row.iterations == 0
        assert row.termination == "converged"
        assert row.final_f == 0.0


def test_stochastic_gd_stalls_at_the_noise_floor(tmp_path):
    spec = build_spec(
        name="sg", objective="stochastic-griewank",
        params={"batch_size": 10, "sigma": float(np.sqrt(0.1))},
        initial_points=[np.full(10, 10.0)], methods=["backtracking-gd"],
        stop={"max_iter": 1000}, seed=42, out_dir=str(tmp_path))
    row, = run_experiment(spec)
    assert row.termination == "max-iter"
    assert row.iterations == 1000
    assert 1e-3 <= row.final_grad_norm <= 1e-1


def test_rerun_is_deterministic(tmp_path):
    def rows_at(sub):
        spec = rosen2_spec(tmp_path / sub,
                           methods=["nqn", "random-damping-newton"])
        return [replace(r, wall_seconds=0.0) for r in run_experiment(spec)]

    assert rows_at("a") == rows_at("b")


def test_jobs_run_serially_on_the_calling_thread(tmp_path, monkeypatch):
    import qnewton.harness

    real_run = qnewton.harness.run
    calls = []

    def recording_run(method, obj, x0, **kwargs):
        calls.append((threading.get_ident(), method, x0_digest(x0)))
        return real_run(method, obj, x0, **kwargs)

    monkeypatch.setattr(qnewton.harness, "run", recording_run)
    starts = [ROSENBROCK2_X0, [-1.2, 1.0], [0.0, 0.0]]
    spec = rosen2_spec(tmp_path, initial_points=starts,
                       methods=["nqn", "newton", "backtracking-gd"],
                       stop={"max_iter": 20})
    rows = run_experiment(spec)

    expected = [(m, x0_digest(x0)) for m in ("nqn", "newton",
                                              "backtracking-gd")
                for x0 in starts]
    assert {ident for ident, _, _ in calls} == {threading.get_ident()}
    assert [(m, d) for _, m, d in calls] == expected
    assert [(r.method, r.x0) for r in rows] == expected


def test_rows_match_persisted_traces(tmp_path):
    spec = rosen2_spec(tmp_path, methods=["nqn", "newton"])
    rows = run_experiment(spec)

    for row in rows:
        with open(tmp_path / f"{row.method}-{row.x0}.csv", newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == row.iterations + 1
        assert float(records[-1]["f"]) == row.final_f
        sidecar = json.loads(
            (tmp_path / f"{row.method}-{row.x0}.json").read_text())
        assert sidecar["termination"] == row.termination
        assert sidecar["final_f"] == row.final_f
        assert sidecar["iterations"] == row.iterations

    saved = (tmp_path / "rows.csv").read_text()
    assert saved == emit_report(rows, "csv")
    assert json.loads((tmp_path / "experiment.json").read_text())[
        "objective"] == "rosenbrock"


def test_non_finite_hessian_run_writes_its_trace(tmp_path):
    obj = Objective(1, lambda x: 0.5 * x[0] ** 2,
                    gradient=lambda x: np.array([x[0]]),
                    hessian=lambda x: np.array([[np.nan]]), name="nan-hess")
    row = run_to_row("nqn", "nan-hess", obj, (1.0,), DeltaSchedule(),
                     StopCriteria(), None, tmp_path / "nqn.csv")
    assert row.termination.startswith("numerical-error")
    assert row.iterations == 0
    sidecar = json.loads((tmp_path / "nqn.json").read_text())
    assert sidecar["termination"] == row.termination
    assert sidecar["error"] == {"class": "InvalidInputError",
                                "detail": "matrix has non-finite entries"}


def _canonical(doc):
    """``doc`` with every float as its repr, so NaN compares equal to NaN."""
    if isinstance(doc, dict):
        return {k: _canonical(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_canonical(v) for v in doc]
    return repr(doc) if isinstance(doc, float) else doc


def test_written_json_parses_as_the_indented_form(tmp_path, monkeypatch):
    # every JSON file the run path writes, against json.dumps(doc, indent=2)
    # of the document it was written from, the form files had before
    real_dumps, written = json.dumps, {}

    def recording_dumps(doc, **kwargs):
        text = real_dumps(doc, **kwargs)
        written[text] = doc
        return text

    monkeypatch.setattr(json, "dumps", recording_dumps)
    spec = rosen2_spec(tmp_path, methods=["nqn", "backtracking-gd"])
    rows = run_experiment(spec)
    # f is NaN and the gradient infinite below 0.5; nqn's first step is 0
    obj = Objective(1, lambda x: 0.5 * x[0] ** 2 if x[0] > 0.5 else math.nan,
                    gradient=lambda x: np.array(
                        [x[0] if x[0] > 0.5 else math.inf]),
                    hessian=lambda x: np.array([[1.0]]), name="nan-below")
    nan_row = run_to_row("nqn", "nan-below", obj, (1.0,), DeltaSchedule(),
                         StopCriteria(), None, tmp_path / "nan-below.csv")
    monkeypatch.undo()
    assert nan_row.termination == "numerical-error: non-finite iterate"

    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == len(rows) + 2      # sidecars and experiment.json
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text
        indented = real_dumps(written[text], indent=2)
        assert (_canonical(json.loads(text))
                == _canonical(json.loads(indented)))

    # perfbench/checks.py matches these three reprs
    sidecar = json.loads((tmp_path / "nan-below.json").read_text())
    assert sidecar["final_grad_norm"] == math.inf
    with open(tmp_path / "nan-below.csv", newline="") as fh:
        last_f = list(csv.DictReader(fh))[-1]["f"]
    assert last_f == repr(sidecar["final_f"]) == repr(nan_row.final_f) \
        == "nan"


def test_failed_run_is_a_row_not_an_abort(tmp_path):
    # ex11 cannot be evaluated at 0.0, so that job fails; from the good
    # start the iterate wanders below 0 mid-run, which is a trace-level
    # numerical-error termination rather than a failed job
    spec = build_spec(
        name="mixed", objective="ex11", initial_points=[[0.0], [1.00001188]],
        methods=["nqn"], stop={"max_iter": 50}, out_dir=str(tmp_path))
    bad, good = run_experiment(spec)
    assert bad.termination.startswith("error:")
    assert math.isnan(bad.final_f)
    assert good.termination.startswith("numerical-error")
    assert good.iterations > 0


# ---------------------------------------------------------------------------
# spec assembly
# ---------------------------------------------------------------------------

def test_initial_points_are_required():
    with pytest.raises(InvalidInputError):
        build_spec(name="x", objective="rosenbrock", params={"dim": 2})


def test_initial_point_dim_mismatch():
    with pytest.raises(InvalidInputError):
        build_spec(name="x", objective="rosenbrock", params={"dim": 2},
                   initial_points=[[1.0, 2.0, 3.0]])


def test_non_integral_dim_rejected():
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        build_spec("x", "rosenbrock", {"dim": 2.9}, [[0.5, 0.5]], ["nqn"])


@pytest.mark.parametrize("params", [{"dim": 3.5}, {"batch_size": 10.5},
                                    {"dim": 3.5, "batch_size": 10.5}])
def test_non_integral_stochastic_sizes_rejected(params):
    with pytest.raises(InvalidInputError, match="must be an integer"):
        _resolve_objective("stochastic-griewank", params, seed=None)
    assert _resolve_objective("stochastic-griewank",
                              {"dim": 3, "batch_size": 10}, None).dim == 3


def test_stochastic_griewank_defaults_are_its_builders():
    spec = build_spec("x", "stochastic-griewank", None, [[10.0] * 10],
                      ["nqn"])
    assert spec.params == {}
    s = _resolve_objective(spec.objective, spec.params, spec.seed)
    reference = make_stochastic_griewank(10, 500, float(np.sqrt(0.1)), 42)
    assert s.dim == reference.dim == 10
    assert np.array_equal(s.sample_xi(0), reference.sample_xi(0))


def test_spec_seed_is_the_realization_seed_unless_params_name_one():
    assert _resolve_objective("stochastic-griewank", {}, 7).rng_seed == 7
    assert _resolve_objective("stochastic-griewank", {"seed": 3},
                              7).rng_seed == 3


def test_unknown_method_key():
    with pytest.raises(InvalidInputError):
        build_spec(name="x", objective="rosenbrock", params={"dim": 2},
                   initial_points=[ROSENBROCK2_X0],
                   methods=[{"method": "nqn", "bogus": 1}])


def test_unknown_stop_key():
    with pytest.raises(InvalidInputError, match="maxiter"):
        build_spec(name="x", objective="rosenbrock", params={"dim": 2},
                   initial_points=[ROSENBROCK2_X0], stop={"maxiter": 5})


def test_unknown_method_name():
    with pytest.raises(InvalidInputError):
        build_spec(name="x", objective="rosenbrock", params={"dim": 2},
                   initial_points=[ROSENBROCK2_X0], methods=["sgd"])


def test_sampled_initial_points():
    spec = build_spec(
        name="x", objective="rosenbrock", params={"dim": 2},
        initial_points={"count": 3, "box": [-2.0, 2.0], "seed": 5},
        methods=["nqn"])
    pts = np.array(spec.initial_points)
    assert pts.shape == (3, 2)
    assert np.all(pts >= -2.0) and np.all(pts <= 2.0)
    again = build_spec(
        name="x", objective="rosenbrock", params={"dim": 2},
        initial_points={"count": 3, "box": [-2.0, 2.0], "seed": 5},
        methods=["nqn"])
    assert spec.initial_points == again.initial_points


def test_json_round_trip(tmp_path):
    spec = rosen2_spec(
        tmp_path,
        methods=["newton",
                 {"method": "nqn", "deltas": [0.0, 2.0, -2.0], "alpha": 0.5,
                  "grad_tol": 1e-8}])
    assert ExperimentSpec.from_json(spec.to_json()) == spec


# One method entry per schema field, each with a value other than the
# default (and, for the stop fields, other than the spec-level stop below).
FIELD_ENTRIES = [
    {"deltas": [0.0, 0.5, -0.5, 3.0]},
    {"alpha": 0.5},
    {"h_mode": "power"},
    {"selection": "random-per-iteration", "random_interval": [-5, 5]},
    {"max_iter": 77},
    {"grad_tol": 1e-7},
    {"step_tol": 1e-12},
    {"f_divergence_cap": 1e50},
]
SPEC_STOP = {"max_iter": 50, "grad_tol": 1e-9, "step_tol": 1e-15,
             "f_divergence_cap": 1e60}


def test_field_entries_cover_the_schema():
    keys = {k for entry in FIELD_ENTRIES for k in entry}
    assert keys == {f.name for f in fields(DeltaSchedule)} | \
        {f.name for f in fields(StopCriteria)}
    assert set(SPEC_STOP) == {f.name for f in fields(StopCriteria)}


@pytest.mark.parametrize("entry", FIELD_ENTRIES,
                         ids=lambda e: "+".join(sorted(e)))
def test_json_round_trip_keeps_each_field(tmp_path, entry):
    spec = rosen2_spec(tmp_path, methods=[{"method": "nqn", **entry}],
                       stop=SPEC_STOP)
    mc, = spec.methods
    assert spec.stop != StopCriteria()
    for key in entry:
        if key in SPEC_STOP:
            assert getattr(mc.stop, key) != getattr(spec.stop, key)
        else:
            assert getattr(mc.sched, key) != getattr(DeltaSchedule(), key)
    assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_written_experiment_json_reads_back_as_the_spec(tmp_path):
    spec = rosen2_spec(
        tmp_path,
        methods=["newton",
                 {"method": "nqn", "h_mode": "power",
                  "selection": "random-per-iteration",
                  "random_interval": [-5, 5], "max_iter": 20}],
        stop={"max_iter": 30})
    run_experiment(spec)
    text = (tmp_path / "experiment.json").read_text()
    assert ExperimentSpec.from_json(text) == spec


def test_method_entry_without_random_interval_loads():
    # the method-entry layout of experiment files written before
    # random_interval was recorded
    doc = {"name": "old", "objective": "rosenbrock", "params": {"dim": 2},
           "initial_points": [list(ROSENBROCK2_X0)],
           "methods": [{"method": "nqn", "deltas": [0.0, 1.0, -1.0],
                        "alpha": 1.0, "selection": "sequential",
                        "h_mode": "capped"}],
           "stop": {"max_iter": 1000, "grad_tol": 1e-10, "step_tol": 1e-20,
                    "f_divergence_cap": 1e100},
           "seed": 1, "out_dir": None}
    spec = ExperimentSpec.from_json(json.dumps(doc))
    mc, = spec.methods
    assert mc.method == "nqn"
    assert mc.sched == DeltaSchedule()
    assert mc.stop is None
    assert spec.stop == StopCriteria()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def row_fixture(**overrides):
    kwargs = dict(method="nqn", objective="rosenbrock", x0="abc123",
                  iterations=5, final_f=1.25e-12, final_grad_norm=3.5e-7,
                  wall_seconds=0.01, termination="converged")
    kwargs.update(overrides)
    return ResultRow(**kwargs)


def test_empty_report_is_header_only():
    assert emit_report([]) == ",".join(
        ("method", "objective", "x0", "iterations", "final_f",
         "final_grad_norm", "wall_seconds", "termination")) + "\n"


def test_csv_report_round_trip():
    text = emit_report([row_fixture()], "csv")
    rec, = csv.DictReader(io.StringIO(text))
    assert rec["method"] == "nqn"
    assert rec["iterations"] == "5"
    assert rec["final_f"] == "1.25e-12"
    assert rec["termination"] == "converged"


def test_csv_report_quotes_commas():
    text = emit_report([row_fixture(termination="error: bad, thing")])
    assert '"error: bad, thing"' in text
    rec, = csv.DictReader(io.StringIO(text))
    assert rec["termination"] == "error: bad, thing"


def test_csv_report_escapes_quotes():
    row = row_fixture(termination='error: bad "key", here')
    text = emit_report([row], "csv")
    header, fields = csv.reader(io.StringIO(text))
    assert len(fields) == len(header) == 8
    assert fields[-1] == 'error: bad "key", here'


@pytest.mark.parametrize("termination", [
    "converged", "error: bad, thing", "error: a,b,,c", "", "numerical-error: "
    "no shift produced an invertible matrix (tried [0.0, 1.0, -1.0])"])
def test_csv_report_unchanged_without_quotes_or_newlines(termination):
    rows = [row_fixture(termination=termination),
            row_fixture(method="newton", objective="ex09", final_f=-0.5)]
    # the hand-written rule the csv module replaced, exact for such cells
    cells = [[_fmt(getattr(r, c)) for c in _COLUMNS] for r in rows]
    lines = [",".join(_COLUMNS)]
    lines += [",".join(f'"{c}"' if "," in c else c for c in row)
              for row in cells]
    assert emit_report(rows, "csv") == "\n".join(lines) + "\n"


def test_markdown_report_shape():
    text = emit_report([row_fixture()], "markdown")
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("| method")
    assert set(lines[1]) == {"|", "-"}
    assert " converged " in lines[2]


def test_unknown_report_format():
    with pytest.raises(InvalidInputError):
        emit_report([row_fixture()], "html")


# ---------------------------------------------------------------------------
# suites, digests, output root
# ---------------------------------------------------------------------------

def test_suite_names():
    assert set(SUITES) == {"rosenbrock2", "rosenbrock30", "styblinski100",
                           "griewank15", "protein-abbba",
                           "stochastic-griewank"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_builds_and_round_trips(name):
    spec = suite_spec(name)
    assert spec.name == name
    assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_suite_spec_lookup():
    spec = suite_spec("Rosenbrock2")
    assert spec.objective == "rosenbrock"
    assert spec.initial_points == (tuple(ROSENBROCK2_X0),)
    assert {m.method for m in spec.methods} == {
        "nqn", "nqn-backtracking", "newton", "random-damping-newton",
        "backtracking-gd"}
    with pytest.raises(InvalidInputError):
        suite_spec("nope")


def test_x0_digest_is_stable_and_short():
    d = x0_digest([1.0, 2.0])
    assert d == x0_digest(np.array([1.0, 2.0]))
    assert len(d) == 10
    assert d != x0_digest([1.0, 2.5])


def test_results_root_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("QNEWTON_RESULTS", str(tmp_path / "out"))
    assert results_root() == tmp_path / "out"
    monkeypatch.delenv("QNEWTON_RESULTS")
    assert results_root() == Path("results")


def test_bench_record_ab_times_each_checkouts_own_code(load_module):
    # two workers on one checkout: each imports that checkout's src/, and
    # every pass of both passes perfbench's output checks
    root = Path(__file__).resolve().parents[1]
    bench_record = load_module("tools/bench_record.py")
    r = bench_record.ab(root, "dense-hessian", 1, 2)
    assert 0 <= r["wins_this"] <= 2
    for side in ("this", "other"):
        s = r[side]
        assert Path(s["qnewton"]).is_relative_to(root / "src")
        assert len(s["pass_s"]) == 2 and s["q1"] <= s["median"] <= s["q3"]
        assert s["failed"] == 0 and s["attempted"] == 3 * 8
