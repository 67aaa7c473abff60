import csv
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qnewton.cli import _build_parser, main
from qnewton.harness import SUITES, ExperimentSpec, suite_spec, x0_digest
from qnewton.objectives import default_start, make_benchmark
from qnewton.optimizers import METHODS, DeltaSchedule, run
from qnewton.rootfind import BUILTINS


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------

def test_minimize_rosenbrock(tmp_path, capsys):
    code = run_cli(["minimize", "--function", "rosenbrock", "--dim", "2",
                    "--x0", "0.55134554,0.75134554",
                    "--out", str(tmp_path / "trace.csv")])
    out, err = capsys.readouterr()
    assert code == 0
    row, = read_rows(out)
    assert row["termination"] == "converged"
    assert row["method"] == "nqn"
    assert "trace written to" in err
    assert (tmp_path / "trace.csv").exists()
    sidecar = json.loads((tmp_path / "trace.json").read_text())
    assert sidecar["termination"] == "converged"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 15
def test_minimize_griewank15(tmp_path, capsys):
    code = run_cli(["minimize", "--function", "griewank",
                    "--x0", ",".join(["10"] * 15),
                    "--out", str(tmp_path / "g.csv")])
    out, _ = capsys.readouterr()
    assert code == 0
    row, = read_rows(out)
    assert row["termination"] == "converged"
    assert int(row["iterations"]) <= 20
    assert float(row["final_f"]) < 1e-12


def test_minimize_random_start_is_seeded(tmp_path, capsys):
    def fields():
        code = run_cli(["minimize", "--function", "ex13",
                        "--x0", "random:7",
                        "--out", str(tmp_path / "t.csv")])
        out, _ = capsys.readouterr()
        assert code == 0
        row, = read_rows(out)
        row.pop("wall_seconds")
        return row

    assert fields() == fields()


@pytest.mark.parametrize("box_flag, box", [([], 2), (["--x0-box", "1.5"], 1.5)])
def test_minimize_random_start_is_the_spec_draw(box_flag, box, tmp_path,
                                                capsys):
    from qnewton.harness import build_spec, x0_digest

    code = run_cli(["minimize", "--function", "ex13", "--x0", "random:7",
                    "--out", str(tmp_path / "t.csv"), *box_flag])
    row, = read_rows(capsys.readouterr().out)
    assert code == 0
    drawn = build_spec("x", "ex13", {}, {"count": 1, "box": [-box, box],
                                         "seed": 7}, ["nqn"])
    assert row["x0"] == x0_digest(drawn.initial_points[0])


def test_minimize_default_out_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QNEWTON_RESULTS", str(tmp_path))
    code = run_cli(["minimize", "--function", "protein:BAB", "--x0", "0.5"])
    _, err = capsys.readouterr()
    assert code == 0
    expected = tmp_path / "minimize" / "protein-BAB-nqn.csv"
    assert expected.exists()
    assert str(expected) in err


def test_minimize_applies_the_shift_schedule(tmp_path, capsys):
    # on ex14 this schedule ends the run in numerical-error, where the
    # default one converges
    x0 = default_start("ex14")
    trace = run("nqn", make_benchmark("ex14"), x0,
                sched=DeltaSchedule((0.0, 2.0, -2.0), 0.5))
    assert trace.termination.startswith("numerical-error")
    code = run_cli(["minimize", "--function", "ex14", "--method", "nqn",
                    "--delta-set", "0,2,-2", "--alpha", "0.5",
                    "--out", str(tmp_path / "t.csv")])
    assert code == 0
    row, = read_rows(capsys.readouterr().out)
    del row["wall_seconds"]
    assert row == {"method": "nqn", "objective": "ex14",
                   "x0": x0_digest(x0), "iterations": str(trace.iterations),
                   "final_f": f"{trace.final_f:.6g}",
                   "final_grad_norm": f"{trace.final_grad_norm:.6g}",
                   "termination": trace.termination}


def test_minimize_list_functions(capsys):
    code = run_cli(["minimize", "--list-functions"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "rosenbrock" in out
    assert "griewank" in out


@pytest.mark.parametrize("argv", [
    ["minimize", "--function", "rosenbrock", "--dim", "2",
     "--x0", "1,2,3"],                                   # x0/dim mismatch
    ["minimize", "--function", "no-such-entry", "--x0", "1"],
    ["minimize", "--function", "ex13", "--x0", "random:banana"],
    ["minimize", "--function", "protein:BAB"],           # no registered start
    ["minimize", "--function", "ex13", "--bogus-flag"],
    ["minimize"],                                        # no function
    ["minimize", "--function", "rosenbrock", "--x0", "random:1",
     "--x0-box", "nan"],                                 # NaN drawn-start box
    ["minimize", "--function", "rosenbrock", "--x0=-1.2,1",
     "--x0-box", "9"],                                   # box, no drawn start
    ["minimize", "--function", "rosenbrock", "--dim", "2", "--x0=0.5,0.5",
     "--method", "newton", "--delta-set", "5,6", "--alpha", "3"],  # no shifts
])
def test_minimize_bad_invocations_exit_2(argv, capsys, tmp_path):
    assert run_cli(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["minimize", "--function", "rosenbrock", "--x0=-1.2,1", "--seed", "-1",
     "--out", "{out}/t.csv"],
    ["roots", "--poly", "1,0,1", "--x0", "0.5,0.5", "--seed", "-1",
     "--out", "{out}/r.csv"],
    ["minimize", "--function", "rosenbrock", "--x0", "random:-3",
     "--out", "{out}/t.csv"],
    ["bench", "--suites", "rosenbrock2", "--seed", "-1", "--out", "{out}"],
])
def test_negative_seed_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QNEWTON_RESULTS", str(tmp_path / "results"))
    out = tmp_path / "out"
    assert run_cli([a.format(out=out) for a in argv]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 10
def test_minimize_runs_stochastic_griewank_as_compare_does(tmp_path, capsys):
    flags = ["--function", "stochastic-griewank", "--x0", ",".join(["10"] * 10),
             "--max-iter", "5"]
    assert run_cli(["minimize", *flags,
                    "--out", str(tmp_path / "m.csv")]) == 0
    single, = read_rows(capsys.readouterr().out)
    assert run_cli(["compare", *flags, "--methods", "nqn", "--format", "csv",
                    "--out", str(tmp_path / "c")]) == 0
    grid, = read_rows(capsys.readouterr().out)
    single.pop("wall_seconds")
    grid.pop("wall_seconds")
    assert single == grid
    assert single["iterations"] == "5"
    assert json.loads((tmp_path / "m.json").read_text())["iterations"] == 5


@pytest.mark.parametrize("command", ["minimize", "compare"])
def test_stochastic_griewank_without_x0_asks_for_one(command, tmp_path,
                                                     capsys):
    code = run_cli([command, "--function", "stochastic-griewank",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: stochastic-griewank has no registered start point; "
        "pass --x0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["minimize", "--function", "rosenbrock", "--x0=-1.2,1", "--gtol", "nan"],
    ["minimize", "--function", "rosenbrock", "--x0=-1.2,1", "--xtol", "nan"],
    ["compare", "--function", "rosenbrock", "--x0=-1.2,1", "--gtol", "nan"],
])
def test_nan_tolerance_exits_2(argv, tmp_path, capsys):
    # a NaN tolerance would switch its stopping test off
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: tolerances must be nonnegative\n"
    assert list(tmp_path.iterdir()) == []


def test_minimize_undefined_start_exits_2(tmp_path, capsys):
    # ex11 is undefined at 0: the run itself rejects the start
    code = run_cli(["minimize", "--function", "ex11", "--x0", "0",
                    "--out", str(tmp_path / "trace.csv")])
    assert code == 2
    assert "undefined at x0" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_inline_markdown(tmp_path, capsys):
    code = run_cli(["compare", "--function", "ex13",
                    "--methods", "nqn,newton",
                    "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| method")
    assert len(lines) == 4        # header, rule, two method rows
    assert (tmp_path / "rows.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 5
def test_compare_takes_the_dim_from_x0(tmp_path, capsys):
    code = run_cli(["compare", "--function", "griewank",
                    "--x0", "10,10,10,10,10", "--methods", "nqn",
                    "--format", "csv", "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    row, = read_rows(out)
    assert row["termination"] == "converged"
    doc = json.loads((tmp_path / "experiment.json").read_text())
    assert doc["params"] == {"dim": 5}


def test_compare_dim_error_names_the_objective_as_written(tmp_path, capsys):
    # rosenbrock is the catalog's ex18
    code = run_cli(["compare", "--function", "rosenbrock", "--dim", "0",
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: rosenbrock needs dim >= 2, got 0\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# experiment documents, run by bench --spec
# ---------------------------------------------------------------------------

def test_bench_spec_file(tmp_path, capsys):
    from qnewton.harness import build_spec

    spec = build_spec(name="fromfile", objective="ex13",
                      initial_points=[[0.3, 0.4]], methods=["nqn"],
                      stop={"max_iter": 100}, out_dir=str(tmp_path / "runs"))
    doc = tmp_path / "spec.json"
    doc.write_text(spec.to_json())
    code = run_cli(["bench", "--spec", str(doc)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("## fromfile\n")
    row, = read_rows((tmp_path / "runs" / "rows.csv").read_text())
    assert row["objective"] == "ex13"
    assert row["termination"] == "converged"


@pytest.mark.parametrize("change", [
    {"stop": {"maxiter": 5}},                             # unknown stop key
    {"methods": [{"method": "nqn", "random_interval": [1]}]},
    {"params": {"dim": "two"}},
    {"initial_points": [[0.5, "a"]]},
    {"objective": "stochastic-griewank", "params": {"batch_size": "ten"}},
    {"seed": "x"},
    {"seed": -1},
    {"seed": 1.5},
    {"sed": 7},                                           # unknown spec key
    {"params": {"dim": 2.9}},
    {"objective": "stochastic-griewank", "params": {"dim": 3.5},
     "initial_points": [[0.5] * 3]},
    {"objective": "stochastic-griewank",
     "params": {"dim": 2, "batch_size": 10.5}},
    {"methods": None},
    {"methods": [5]},
    {"methods": [{"alpha": 1}]},                          # no "method"
    {"methods": [{"method": "nqn", "max_iter": 2.5}]},
    {"stop": {"max_iter": 2.5}},
    {"objective": "griewank", "params": {"dim": True},   # not Griewank-1
     "initial_points": [[0.5]]},
    {"seed": True},
    {"params": {"dim": 2, "dims": 5}},                    # unknown param
    {"objective": "stochastic-griewank",
     "params": {"dim": 2, "batchsize": 5}},
    {"objective": "protein", "params": {"sequence": "ABBBA", "seq": "B"},
     "initial_points": [[0.5] * 3]},
    {"initial_points": {"count": 2.5, "seed": 1}},
    {"stop": {"grad_tol": float("nan")}},
    {"initial_points": {"count": 1, "box": [float("nan"), 1.0]}},
    {"initial_points": {"count": 1, "box": [0.0, float("inf")]}},
    {"initial_points": {"count": 1, "box": [-1e308, 1e308]}},  # width overflows
    {"initial_points": [[float("nan"), 0.7]]},
    {"initial_points": [[float("inf"), 0.7]]},
    {"initial_points": {"count": 1}},                    # a draw needs a seed
    {"methods": [{"method": "newton", "alpha": 0.5}]},    # takes no shifts
])
def test_compare_bad_spec_file_exits_2(change, tmp_path, capsys):
    doc = {"objective": "rosenbrock", "params": {"dim": 2},
           "initial_points": [[0.5, 0.7]], "methods": ["nqn"],
           "out_dir": str(tmp_path / "runs"), **change}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["bench", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "runs").exists()


def test_unknown_spec_key_is_named(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"objective": "ex13", "sed": 7,
                                "initial_points": [[0.5, 0.5]]}))
    assert run_cli(["bench", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown spec keys ['sed']\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"params": {}}', "{bad json"])
def test_compare_malformed_spec_document_exits_2(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert run_cli(["bench", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["compare"],                                          # nothing picked
    ["compare", "--suite", "rosenbrock2", "--function", "ex13"],
    ["compare", "--function", "ex13", "--methods", ","],
    ["compare", "--suite", "no-such-suite"],
    ["compare", "--function", "ex13", "--x0", "nan,1", "--max-iter", "2"],
])
def test_compare_bad_invocations_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["bench", "--suites", "no-such-suite"],
     "unknown suite 'no-such-suite'"),
    (["bench", "--spec", "{tmp}/missing.json"], "cannot read spec"),
    (["bench", "--spec", "{tmp}"], "cannot read spec"),    # a directory
    (["bench", "--suites", "rosenbrock2", "--spec", "{tmp}/missing.json"],
     "cannot read spec"),                     # read before any suite runs
])
def test_bench_bad_invocations_exit_2(argv, message, tmp_path, capsys,
                                      monkeypatch):
    monkeypatch.setenv("QNEWTON_RESULTS", str(tmp_path / "results"))
    code = run_cli([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def test_roots_builtin_choices_are_the_builtins():
    roots = _build_parser()._subparsers._group_actions[0].choices["roots"]
    builtin_flag, = [a for a in roots._actions if a.dest == "builtin"]
    assert list(builtin_flag.choices) == list(BUILTINS)


def test_roots_builtin_json(capsys):
    code = run_cli(["roots", "--builtin", "g2",
                    "--x0", "4.0963223,-8.0935966"])
    out, _ = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "root-of-g"
    assert abs(abs(doc["z"][1]) - 1.0) <= 1e-8


def test_roots_negative_leading_coordinate(capsys):
    # the --x0=… form is how argparse takes a leading minus sign
    code = run_cli(["roots", "--builtin", "g3", "--x0=-0.227,1.115"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["classification"] == "root-of-g"


def test_roots_poly_with_trace(tmp_path, capsys):
    code = run_cli(["roots", "--poly", "1,0,1", "--x0", "0,0.9",
                    "--out", str(tmp_path / "r.csv")])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"] == "root-of-g"
    assert (tmp_path / "r.csv").exists()
    sidecar = json.loads((tmp_path / "r.json").read_text())
    assert sidecar["termination"] == doc["termination"]
    assert "trace written to" in err


@pytest.mark.parametrize("argv", [
    ["roots", "--x0", "0,1"],                             # neither source
    ["roots", "--poly", "1,0,1", "--builtin", "g2", "--x0", "0,1"],
    ["roots", "--poly", "1,0,1", "--x0", "1"],            # not re,im
    ["roots", "--poly", "zzz", "--x0", "0,1"],
    ["roots", "--poly", "1,0,1", "--x0", "0.5,0.5", "--method",
     "backtracking-gd", "--delta-set", "7", "--alpha", "9"],   # no shifts
])
def test_roots_bad_invocations_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# usage errors, bench and help
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["minimize", "--function", "rosenbrock", "--x0", "random:-3"],
    ["compare"],
    ["compare", "--suite", "rosenbrock2", "--function", "ex13"],
    ["roots", "--x0", "0,1"],
    ["roots", "--poly", "1,0,1", "--x0", "1"],
    ["minimize", "--function", "rosenbrock", "--list-functions"],
    # a flag the run would not read is an unknown flag of its subcommand
    ["minimize", "--function", "ex13", "--bogus-flag"],
    ["compare", "--suite", "rosenbrock2", "--max-iter", "3"],
    ["compare", "--function", "ex13", "--spec", "F", "--seed", "3"],
    ["bench", "--suites", "rosenbrock2", "--max-iter", "3"],
    ["bench", "--suites", ","],
])
def test_usage_error_prints_the_subcommand_usage(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qnewton {argv[0]} ")


def test_bench_one_suite(tmp_path, capsys):
    code = run_cli(["bench", "--suites", "rosenbrock2", "--seed", "9",
                    "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("## rosenbrock2\n")
    assert "| method" in out
    assert (tmp_path / "rosenbrock2" / "rows.csv").exists()
    doc = json.loads((tmp_path / "rosenbrock2" / "experiment.json").read_text())
    assert doc["seed"] == 9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim > 2
def test_every_suite_replays_from_the_experiment_json_it_wrote(tmp_path,
                                                               capsys):
    # experiment.json records the configuration as run, so bench --spec on
    # it gives the same rows in every column but wall_seconds; a spec's
    # name is its suite's, so the replay of a suite writes replay/<suite>
    assert run_cli(["bench", "--suites", "all",
                    "--out", str(tmp_path / "bench")]) == 0
    written = sorted((tmp_path / "bench").glob("*/experiment.json"))
    assert [p.parent.name for p in written] == sorted(SUITES)
    for path in written:
        assert run_cli(["bench", "--spec", str(path),
                        "--out", str(tmp_path / "replay")]) == 0
    capsys.readouterr()

    def rows(path):
        return [{k: v for k, v in row.items() if k != "wall_seconds"}
                for row in read_rows(path.read_text())]

    for suite in sorted(SUITES):
        first = rows(tmp_path / "bench" / suite / "rows.csv")
        assert first and rows(tmp_path / "replay" / suite / "rows.csv") \
            == first, suite


def test_help_shows_defaults(capsys):
    assert run_cli(["minimize", "--help"]) == 0
    out, _ = capsys.readouterr()
    assert "(0.0, 1.0, -1.0)" in out
    assert run_cli(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "QNEWTON_RESULTS" in out


# ---------------------------------------------------------------------------
# every flag given to compare or bench is read by the run or rejected
# ---------------------------------------------------------------------------

# Each subcommand's flags, with (valid, malformed) values.  An example gives
# a malformed value to about one flag in six, and to about one invocation in
# five a flag of the other subcommand, which it must reject.  Every compare
# gets --function and --max-iter, and bench runs only rosenbrock2 and the
# spec files below, so that each example runs in milliseconds.
_SEEDS = (("0", "9"), ("-1", "1.5", "nan", ""))
_FLAGS = {
    "compare": {
        "--function": (("ex13", "rosenbrock", "stochastic-griewank"),
                       ("no-such-entry", "")),
        "--methods": (("nqn", "nqn,newton", "all"), ("bogus", ",")),
        "--x0": (("0.3,0.4",), ("1,2,3", "nan,1", "a,b", "")),
        "--dim": (("2",), ("3", "0", "-1", "2.5", "nan")),
        "--max-iter": (("1", "2", "3"), ("0", "-1", "2.5", "nan")),
        "--gtol": (("1e-10", "0", "1"), ("-1", "nan", "x")),
        "--seed": _SEEDS,
        "--format": (("csv", "markdown"), ("html",)),
    },
    "bench": {
        "--suites": (("rosenbrock2",), ("no-such-suite", ",", "")),
        # "." is the spec directory itself
        "--spec": (("a.json", "b.json"), ("bad.json", "missing.json", ".")),
        "--seed": _SEEDS,
    },
}
_REPEATABLE = ("--x0", "--spec")
_SPEC_FILES = {
    "a.json": {"name": "spec-a", "objective": "ex13",
               "initial_points": [[0.3, 0.4]], "methods": ["nqn", "newton"],
               "stop": {"max_iter": 3}, "seed": 1},
    "b.json": {"objective": "rosenbrock", "params": {"dim": 2},
               "initial_points": {"count": 2, "box": [-1.0, 1.0],
                                  "seed": 4},
               "methods": ["nqn-backtracking"], "stop": {"max_iter": 2}},
}


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    own = _FLAGS[command]
    names = draw(st.lists(st.sampled_from(sorted(own)), unique=True,
                          max_size=4))
    if command == "compare":
        names += [n for n in ("--function", "--max-iter") if n not in names]
    if command == "bench" and not {"--suites", "--spec"} & set(names):
        names.append(draw(st.sampled_from(("--suites", "--spec"))))
    other, = set(_FLAGS) - {command}
    flags = {**_FLAGS[other], **own}
    if draw(st.integers(0, 4)) == 4:
        names.append(draw(st.sampled_from(sorted(set(flags) - set(own)))))
    argv = [command]
    for name in names:
        for _ in range(draw(st.integers(1, 2)) if name in _REPEATABLE else 1):
            valid, malformed = flags[name]
            pool = malformed if draw(st.integers(0, 5)) == 5 else valid
            argv += [name, draw(st.sampled_from(pool))]
    return argv


def _written(root):
    return sorted(root.rglob("*"))


def _check_applied(argv, out, stdout):
    """Every flag in ``argv`` has its value in the experiments written."""
    command = argv[0]
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        given.setdefault(flag, []).append(value)
    dropped = set(given) - set(_FLAGS[command])
    assert not dropped, f"{command} exited 0 without reading {dropped}"
    docs = {p.parent.name: ExperimentSpec.from_json(p.read_text())
            for p in out.rglob("experiment.json")}
    seed = int(given["--seed"][0]) if "--seed" in given else None

    if command == "bench":
        expected = [ExperimentSpec.from_json(json.dumps(_SPEC_FILES[v]))
                    for v in given.get("--spec", ())]
        if "--suites" in given:
            expected.append(suite_spec(given["--suites"][0]))
        assert set(docs) == {spec.name for spec in expected}
        for spec in expected:
            if seed is not None:
                spec = replace(spec, seed=seed)
            assert docs[spec.name] == replace(spec,
                                              out_dir=str(out / spec.name))
        return

    spec, = docs.values()
    assert spec.out_dir == str(out)
    assert spec.objective == given["--function"][0]
    assert spec.stop.max_iter == int(given["--max-iter"][0])
    assert spec.seed == seed
    if "--gtol" in given:
        assert spec.stop.grad_tol == float(given["--gtol"][0])
    if "--dim" in given:
        assert spec.params["dim"] == int(given["--dim"][0])
    if "--methods" in given:
        text = given["--methods"][0]
        assert [m.method for m in spec.methods] == (
            list(METHODS) if text == "all" else text.split(","))
    if "--x0" in given:
        starts = [[float(v) for v in x0.split(",")] for x0 in given["--x0"]]
        assert np.array_equal(spec.initial_points, starts, equal_nan=True)
    report = given.get("--format", ["markdown"])[0]
    assert stdout.startswith("method," if report == "csv" else "| method")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 3
@settings(max_examples=120, deadline=None)
@given(argv=_invocations())
@example(argv=["compare", "--spec", "a.json", "--max-iter", "2"])
@example(argv=["compare", "--spec", "missing.json", "--max-iter", "3"])
@example(argv=["bench", "--suites", "rosenbrock2", "--seed", "9"])
@example(argv=["bench", "--spec", "a.json", "--spec", ".", "--seed", "3"])
def test_every_flag_is_read_or_rejected(argv):
    # exit 0 with each flag's value in every experiment.json written, or
    # exit 2 with one error: line and nothing written; never exit 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        specs = work / "specs"
        specs.mkdir()
        for name, doc in _SPEC_FILES.items():
            (specs / name).write_text(json.dumps(doc))
        (specs / "bad.json").write_text("{bad json")
        out = work / "out"
        full = [str(specs / a) if flag == "--spec" else a
                for flag, a in zip(["", *argv], argv)]
        before = _written(work)
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ,
                             {"QNEWTON_RESULTS": str(work / "results")}), \
                redirect_stdout(stdout), redirect_stderr(stderr):
            code = run_cli(full + ["--out", str(out)])
        event(f"{argv[0]} exit {code}")
        if code == 2:
            err = stderr.getvalue()
            assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
            # a usage error shows the subcommand's usage, not the top level's
            assert (not err.startswith("usage:")
                    or err.startswith(f"usage: qnewton {argv[0]} ")), err
            assert _written(work) == before
        else:
            assert code == 0, stderr.getvalue()
            _check_applied(argv, out, stdout.getvalue())
