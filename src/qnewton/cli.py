"""Command-line front end.

Four subcommands: ``minimize`` runs one optimizer on one objective and
writes its iteration trace, ``compare`` runs a method grid and prints a
report table, ``roots`` searches for roots of a complex function by
minimizing its squared modulus, and ``bench`` executes the named
reproduction suites.  Exit code 2 means the invocation itself was invalid:
argparse rejects a malformed flag with the subcommand's usage, and any other
invalid value raises InvalidInputError, which ``main`` reports as ``error:``.
A run that diverges or hits a numerical error still exits 0 with the
termination status in the output, because divergence is a result, not a
failure of the tool.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import InvalidInputError
from .harness import (ExperimentSpec, SUITES, _resolve_objective, build_spec,
                      emit_report, results_root, run_experiment, run_to_row,
                      suite_spec)
from .objectives import catalog_listing, default_start
from .optimizers import METHODS, DeltaSchedule, StopCriteria
from .rootfind import (BUILTINS, builtin, find_root, parse_poly_coeffs,
                       poly_mero)


def _floats(text):
    """The argparse type of a comma-separated list of numbers."""
    try:
        vals = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated numbers, got {text!r}")
    return vals


def _seed(text):
    """The argparse type of every seed: a nonnegative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"a seed is a nonnegative integer, got {text!r}")


def _start(text):
    """``minimize --x0``: a point, or random:<seed> as a drawn-start dict."""
    if text.startswith("random:"):
        return {"count": 1, "seed": _seed(text[len("random:"):])}
    return [_floats(text)]


def _complex(text):
    """``roots --x0``: two numbers re,im."""
    vals = _floats(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(
            f"expects two numbers re,im, got {text!r}")
    return complex(*vals)


def _names(table):
    """The argparse type of a comma-separated list of keys, or 'all'."""
    def names(text):
        if text.strip().lower() == "all":
            return list(table)
        picked = [t.strip() for t in text.split(",") if t.strip()]
        if not picked:
            raise argparse.ArgumentTypeError("expects at least one name")
        return picked
    return names


def _inline_spec(args, name, start, methods, stop):
    """The spec of ``minimize`` or ``compare --function`` from ``--x0``.

    With no ``--x0`` (``start`` None) the run takes the registered start.
    An explicit point with no ``--dim`` sets a parametric objective's dim.
    """
    dim = args.dim
    if start is None:
        # stochastic-griewank is built outside the catalog and registers none
        registered = (None if args.function == "stochastic-griewank"
                      else default_start(args.function))
        if registered is None:
            raise InvalidInputError(
                f"{args.function} has no registered start point; pass --x0")
        start = [registered]
    elif dim is None and not isinstance(start, dict):
        dim = len(start[0])
    return build_spec(
        name=name, objective=args.function,
        params={} if dim is None else {"dim": dim}, initial_points=start,
        methods=methods, stop=stop, seed=args.seed)


def _stop_from(args):
    return StopCriteria(max_iter=args.max_iter, grad_tol=args.gtol,
                        step_tol=args.xtol)


def cmd_minimize(args):
    if args.list_functions:
        sys.stdout.write(catalog_listing() + "\n")
        return 0

    start = args.x0
    if isinstance(start, dict):
        start = dict(start, box=[-args.x0_box, args.x0_box])
    spec = _inline_spec(
        args, args.function, start,
        [{"method": args.method, "deltas": args.delta_set,
          "alpha": args.alpha}], _stop_from(args))

    slug = args.function.replace(":", "-")
    out = (Path(args.out) if args.out
           else results_root() / "minimize" / f"{slug}-{args.method}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg, = spec.methods
    obj = _resolve_objective(spec.objective, spec.params, spec.seed)
    row = run_to_row(cfg.method, args.function, obj, spec.initial_points[0],
                     cfg.sched, spec.stop, args.seed, out)
    sys.stdout.write(emit_report([row], "csv"))
    sys.stderr.write(f"trace written to {out}\n")
    return 0


def cmd_compare(args):
    if args.suite:
        spec = suite_spec(args.suite)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    elif args.spec:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    else:
        spec = _inline_spec(
            args, "compare-" + args.function.replace(":", "-"), args.x0,
            args.methods, {"max_iter": args.max_iter, "grad_tol": args.gtol})
    if args.out:
        spec = replace(spec, out_dir=args.out)

    rows = run_experiment(spec)
    sys.stdout.write(emit_report(rows, args.format))
    return 0


def cmd_roots(args):
    m = poly_mero(parse_poly_coeffs(args.poly)) if args.poly \
        else builtin(args.builtin)
    result = find_root(m, args.x0, method=args.method,
                       sched=DeltaSchedule(args.delta_set, args.alpha),
                       stop=_stop_from(args), seed=args.seed)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        result.trace.to_csv(out)
        sys.stderr.write(f"trace written to {out}\n")
    sys.stdout.write(result.to_json() + "\n")
    return 0


def cmd_bench(args):
    specs = [suite_spec(name) for name in args.suites]
    for spec in specs:
        if args.out:
            spec = replace(spec, out_dir=str(Path(args.out) / spec.name))
        rows = run_experiment(spec)
        sys.stdout.write(f"## {spec.name}\n\n")
        sys.stdout.write(emit_report(rows, "markdown"))
        sys.stdout.write("\n")
    return 0


def _add_stop_flags(p):
    p.add_argument("--max-iter", type=int, default=1000, help="iteration cap")
    p.add_argument("--gtol", type=float, default=1e-10,
                   help="stop when the gradient norm falls to this")
    p.add_argument("--seed", type=_seed, default=None,
                   help="seed of random-damping-newton's draws and of "
                        "stochastic-griewank's samples")


def _add_run_flags(p):
    p.add_argument("--method", default="nqn", choices=list(METHODS),
                   help="optimizer to run")
    p.add_argument("--delta-set", type=_floats, default="0,1,-1",
                   help="comma-separated shift coefficients, tried in order")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="exponent in the shift size h(t) = min{1, t^(1+alpha)}")
    _add_stop_flags(p)
    p.add_argument("--xtol", type=float, default=1e-20,
                   help="stop when the step norm falls to this")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qnewton",
        description="Newton-type optimization with spectrally reflected "
                    "steps and shift-stabilized Hessians: single runs, "
                    "method comparisons, benchmark suites, and complex "
                    "root finding.",
        epilog="Result files go under ./results by default; set the "
               "QNEWTON_RESULTS environment variable to move them.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "minimize", formatter_class=fmt,
        help="run one optimizer on one objective and write its trace",
        description="Run one optimizer on one objective, write the "
                    "iteration trace as CSV (plus a .json summary sidecar), "
                    "and print the result row.")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--function", default=None,
                      help="objective identifier or alias, e.g. rosenbrock, "
                           "griewank, protein:ABBBA")
    what.add_argument("--list-functions", action="store_true",
                      help="print the objective catalog and exit")
    p.add_argument("--x0", type=_start, default=None,
                   help="comma-separated start point (use --x0=-1,2 when "
                        "the first coordinate is negative), or random:<seed> "
                        "for a uniform draw; defaults to the registered "
                        "start")
    p.add_argument("--x0-box", type=float, default=2.0,
                   help="half-width of the cube random:<seed> draws from")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension for size-parametric objectives")
    _add_run_flags(p)
    p.add_argument("--out", default=None,
                   help="trace CSV path (default: "
                        "<results>/minimize/<function>-<method>.csv)")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser(
        "compare", formatter_class=fmt,
        help="run a grid of methods and print a report table",
        description="Run a method-by-start grid from a named suite, a JSON "
                    "spec file, or inline flags, and print the result "
                    "table.")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--suite", default=None, choices=sorted(SUITES),
                      help="named reproduction suite")
    what.add_argument("--spec", default=None,
                      help="path to an experiment JSON document")
    what.add_argument("--function", default=None,
                      help="objective identifier for an inline comparison")
    p.add_argument("--methods", type=_names(METHODS), default="all",
                   help="comma-separated method ids, or 'all'")
    p.add_argument("--x0", type=_floats, action="append", default=None,
                   help="start point as comma-separated numbers; repeat the "
                        "flag for several starts")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension for size-parametric objectives")
    _add_stop_flags(p)
    p.add_argument("--out", default=None,
                   help="directory for traces and rows.csv "
                        "(default: <results>/<experiment-name>)")
    p.add_argument("--format", default="markdown",
                   choices=("markdown", "csv"), help="report format")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "roots", formatter_class=fmt,
        help="find a root of a complex function from a start point",
        description="Minimize the squared modulus of a polynomial or a "
                    "built-in complex function and print the end point, "
                    "its classification, and the iteration count as JSON.")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--poly", default=None,
                      help="polynomial coefficients, highest degree first, "
                           "e.g. 1,0,1 for z^2+1 (complex entries like 1+2j "
                           "are accepted)")
    what.add_argument("--builtin", default=None,
                      choices=list(BUILTINS),
                      help="built-in test function")
    p.add_argument("--x0", type=_complex, required=True,
                   help="start point as re,im (use --x0=-1,2 when the "
                        "first coordinate is negative)")
    _add_run_flags(p)
    p.add_argument("--out", default=None,
                   help="optional trace CSV path")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser(
        "bench", formatter_class=fmt,
        help="run the named reproduction suites",
        description="Run reproduction suites and print one markdown table "
                    "per suite.  Available: " + ", ".join(sorted(SUITES)) + ".")
    p.add_argument("--suites", type=_names(SUITES), default="all",
                   help="comma-separated suite names, or 'all'")
    p.add_argument("--out", default=None,
                   help="base directory for suite outputs "
                        "(default: <results>/<suite-name>)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
