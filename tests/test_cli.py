import csv
import io
import json

import pytest

from qnewton.cli import _build_parser, main
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
    assert (tmp_path / "trace.json").exists()


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
    ["compare", "--suite", "rosenbrock2", "--seed", "-1", "--out", "{out}"],
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


def test_compare_spec_file(tmp_path, capsys):
    from qnewton.harness import build_spec

    spec = build_spec(name="fromfile", objective="ex13",
                      initial_points=[[0.3, 0.4]], methods=["nqn"],
                      stop={"max_iter": 100}, out_dir=str(tmp_path / "runs"))
    doc = tmp_path / "spec.json"
    doc.write_text(spec.to_json())
    code = run_cli(["compare", "--spec", str(doc), "--format", "csv"])
    out, _ = capsys.readouterr()
    assert code == 0
    row, = read_rows(out)
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
])
def test_compare_bad_spec_file_exits_2(change, tmp_path, capsys):
    doc = {"objective": "rosenbrock", "params": {"dim": 2},
           "initial_points": [[0.5, 0.7]], "methods": ["nqn"],
           "out_dir": str(tmp_path / "runs"), **change}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["compare", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "runs").exists()


def test_unknown_spec_key_is_named(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"objective": "ex13", "sed": 7,
                                "initial_points": [[0.5, 0.5]]}))
    assert run_cli(["compare", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == "error: unknown spec keys ['sed']\n"


@pytest.mark.parametrize("text", ["[1, 2]", '{"params": {}}', "{bad json"])
def test_compare_malformed_spec_document_exits_2(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert run_cli(["compare", "--spec", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["compare"],                                          # nothing picked
    ["compare", "--suite", "rosenbrock2", "--function", "ex13"],
    ["compare", "--function", "ex13", "--methods", ","],
    ["compare", "--suite", "no-such-suite"],
])
def test_compare_bad_invocations_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    capsys.readouterr()


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
    assert "trace written to" in err


@pytest.mark.parametrize("argv", [
    ["roots", "--x0", "0,1"],                             # neither source
    ["roots", "--poly", "1,0,1", "--builtin", "g2", "--x0", "0,1"],
    ["roots", "--poly", "1,0,1", "--x0", "1"],            # not re,im
    ["roots", "--poly", "zzz", "--x0", "0,1"],
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
])
def test_usage_error_prints_the_subcommand_usage(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qnewton {argv[0]} ")


def test_bench_one_suite(tmp_path, capsys):
    code = run_cli(["bench", "--suites", "rosenbrock2",
                    "--out", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("## rosenbrock2\n")
    assert "| method" in out
    assert (tmp_path / "rosenbrock2" / "rows.csv").exists()


def test_help_shows_defaults(capsys):
    assert run_cli(["minimize", "--help"]) == 0
    out, _ = capsys.readouterr()
    assert "0,1,-1" in out
    assert run_cli(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "QNEWTON_RESULTS" in out
