"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Every check states its tolerance inline; stop-rule or band
adjustments that were needed to make a criterion decidable are recorded in
the repository notes, not silently absorbed.
"""

import time

import numpy as np
import pytest

from qnewton.fixtures import (
    ABBBA_STARTS,
    GRIEWANK15_X0,
    ROOT_STARTS,
    ROSENBROCK2_X0,
    ROSENBROCK30_X0,
    STYBLINSKI100_X0,
)
from qnewton.objectives import (
    catalog_entries,
    fd_gradient,
    fd_hessian,
    make_benchmark,
    make_stochastic_griewank,
)
from qnewton.optimizers import DeltaSchedule, StopCriteria, run, select_delta
from qnewton.rootfind import builtin, find_root, mero_objective

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def spread_deltas(n):
    out = [0.0]
    k = 1
    while len(out) < n:
        out += [float(k), float(-k)]
        k += 1
    return tuple(out[:n])


def test_criterion_01_saddle_contrast():
    # f = (x^2 - y^2)/2: plain Newton lands on the saddle in one exact
    # step from anywhere; the shifted-reflected update never stops there
    # and runs off along the y-axis instead
    obj = make_benchmark("saddle")
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        while True:
            x0 = rng.uniform(-2.0, 2.0, 2)
            if abs(x0[1]) > 1e-3:
                break
        tn = run("newton", obj, x0)
        tq = run("nqn", obj, x0)
        ok = ok and tn.iterations == 1 and tn.termination == "converged"
        ok = ok and tn.final_x[0] == 0.0 and tn.final_x[1] == 0.0
        ok = ok and tq.termination == "diverged"
        ok = ok and tq.final_x[0] == 0.0 and abs(tq.final_x[1]) > 1e10
    wall = time.perf_counter() - t0
    ok = ok and wall < 1.0
    report(1, ok, f"100 starts, newton 1-step to saddle, "
                  f"nqn diverged along y ({wall:.2f}s)")


def test_criterion_02_rosenbrock_2():
    obj = make_benchmark("rosenbrock", dim=2)
    t0 = time.perf_counter()
    tr = run("nqn", obj, np.array(ROSENBROCK2_X0))
    wall = time.perf_counter() - t0
    dist = np.linalg.norm(tr.final_x - 1.0)
    ok = (tr.final_grad_norm < 1e-10 and dist < 1e-8
          and tr.iterations <= 50 and wall < 1.0)
    report(2, ok, f"{tr.iterations} iterations, |x-(1,1)|={dist:.2e}, "
                  f"grad={tr.final_grad_norm:.2e} ({wall:.2f}s)")


def test_criterion_03_rosenbrock_30():
    obj = make_benchmark("rosenbrock", dim=30)
    t0 = time.perf_counter()
    tr = run("nqn", obj, np.array(ROSENBROCK30_X0),
             stop=StopCriteria(max_iter=60))
    wall = time.perf_counter() - t0
    hits = [r.index for r in tr.records if r.f < 1e-20]
    ok = bool(hits) and hits[0] <= 60 and wall < 30.0
    report(3, ok, f"f<1e-20 at iteration {hits[0] if hits else 'never'}, "
                  f"final f={tr.final_f:.2e} ({wall:.2f}s)")


def test_criterion_04_styblinski_100():
    # the exact basin value from this start is f = -3308.73765..., just
    # below the printed 3-decimal band; the checked band is widened to
    # [-3308.7380, -3308.7365] on the low side (see repo notes)
    obj = make_benchmark("styblinski-tang", dim=100)
    x0 = np.array(STYBLINSKI100_X0)
    t0 = time.perf_counter()
    best = {}
    for method in ("nqn", "backtracking-gd"):
        tr = run(method, obj, x0, stop=StopCriteria(max_iter=50))
        best[method] = min(r.f for r in tr.records)
    wall = time.perf_counter() - t0
    ok = all(-3308.7380 <= b <= -3308.7365 for b in best.values())
    ok = ok and wall < 60.0
    report(4, ok, f"best f within 50 iterations: "
                  f"nqn={best['nqn']:.6f}, gd={best['backtracking-gd']:.6f} "
                  f"({wall:.1f}s)")


def test_criterion_05_griewank_15():
    obj = make_benchmark("griewank", dim=15)
    t0 = time.perf_counter()
    tr = run("nqn", obj, np.array(GRIEWANK15_X0))
    wall = time.perf_counter() - t0
    ok = (tr.termination == "converged" and tr.final_grad_norm < 1e-10
          and tr.iterations <= 20 and tr.final_f < 1e-12 and wall < 5.0)
    report(5, ok, f"{tr.iterations} iterations, f={tr.final_f:.2e}, "
                  f"grad={tr.final_grad_norm:.2e} ({wall:.2f}s)")


def test_criterion_06_three_bead_chains():
    aaa = make_benchmark("protein:AAA")
    bab = make_benchmark("protein:BAB")
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    best_a, theta_a, best_b = np.inf, None, np.inf
    for _ in range(20):
        th = rng.uniform(-np.pi, np.pi, 1)
        ta = run("nqn", aaa, th, stop=StopCriteria(max_iter=200))
        tb = run("nqn", bab, th, stop=StopCriteria(max_iter=200))
        if ta.final_f < best_a:
            best_a, theta_a = ta.final_f, ta.final_x[0]
        best_b = min(best_b, tb.final_f)
    wall = time.perf_counter() - t0
    wrapped = (theta_a + np.pi) % (2.0 * np.pi) - np.pi
    ok = (best_a < 1e-10 and abs(wrapped) < 1e-6
          and abs(best_b - 2.0) <= 1e-8 and wall < 5.0)
    report(6, ok, f"AAA min={best_a:.2e} at theta mod 2pi = {wrapped:.1e}, "
                  f"BAB min={best_b:.10f} ({wall:.2f}s)")


def test_criterion_07_five_bead_chain():
    obj = make_benchmark("protein:ABBBA")
    t0 = time.perf_counter()
    good = 0
    finals = []
    for x0 in ABBBA_STARTS:
        tr = run("nqn", obj, np.array(x0))
        finals.append(tr.final_f)
        if (tr.termination == "converged" and tr.final_grad_norm < 1e-8
                and 13.962 <= tr.final_f <= 13.964):
            good += 1
    wall = time.perf_counter() - t0
    ok = good >= 2 and wall < 60.0
    report(7, ok, f"{good}/3 starts at f in [13.962, 13.964] "
                  f"(finals {[f'{f:.4f}' for f in finals]}, {wall:.1f}s)")


def test_criterion_08_quadratic_roots():
    # grad_tol=0 lets the run continue to the f<1e-30 bar instead of
    # stopping at the default gradient tolerance (see repo notes)
    deep = StopCriteria(max_iter=20, grad_tol=0.0)
    t0 = time.perf_counter()
    ok = True
    dists = []
    for key in ("g2", "g2-point2"):
        res = find_root(builtin("g2"), ROOT_STARTS[key], stop=deep)
        d = min(abs(res.z - 1j), abs(res.z + 1j))
        dists.append(d)
        ok = ok and res.f_value < 1e-30 and d < 1e-8
        ok = ok and res.trace.iterations <= 20
    saddle = find_root(builtin("g2"), ROOT_STARTS["g2-point2"],
                       method="newton")
    ok = ok and abs(saddle.f_value - 1.0) <= 1e-10
    ok = ok and saddle.classification == "saddle-of-f"
    wall = time.perf_counter() - t0
    ok = ok and wall < 1.0
    report(8, ok, f"both starts within {max(dists):.1e} of (0,±1), "
                  f"newton saddle f={saddle.f_value:.10f} ({wall:.2f}s)")


def test_criterion_09_multiple_roots():
    deep = StopCriteria(max_iter=100, grad_tol=0.0)
    t0 = time.perf_counter()
    res = find_root(builtin("g4"), ROOT_STARTS["g4"], stop=deep)
    wall = time.perf_counter() - t0
    roots = (0.0, 1.0, 2.0, 5.0)
    hit = None
    for rec in res.trace.records:
        z = complex(rec.x[0], rec.x[1])
        if rec.f < 1e-12 and min(abs(z - r) for r in roots) <= 1e-3:
            hit = rec.index
            break
    ok = hit is not None and hit <= 100 and wall < 5.0
    report(9, ok, f"f<1e-12 within 1e-3 of a root at iteration {hit} "
                  f"(final dist {min(abs(res.z - r) for r in roots):.1e}, "
                  f"{wall:.2f}s)")


def test_criterion_10_quadratic_rate():
    # basin starts: the property is local (see repo notes on the choice)
    cases = [
        ("rosenbrock-2", make_benchmark("rosenbrock", dim=2),
         ROSENBROCK2_X0, (1.0, 1.0)),
        ("beale", make_benchmark("beale"), (2.8, 0.45), (3.0, 0.5)),
    ]
    ok = True
    details = []
    for label, obj, x0, xstar in cases:
        tr = run("nqn", obj, np.array(x0), stop=StopCriteria(max_iter=100))
        xstar = np.asarray(xstar)
        e = np.array([np.linalg.norm(r.x - xstar) for r in tr.records])
        cut = 5e-15 * (1.0 + np.linalg.norm(xstar))
        while len(e) > 2 and e[-1] < cut:
            e = e[:-1]
        ratios = e[1:] / e[:-1] ** 2
        bounded = all(r <= 10.0 * ratios[-2] for r in ratios[-3:])
        contracting = e[-1] / e[-2] < 0.1
        ok = ok and bounded and contracting
        details.append(f"{label}: R[-3:]={[f'{r:.2f}' for r in ratios[-3:]]} "
                       f"e-contraction {e[-1]/e[-2]:.1e}")
    report(10, ok, "; ".join(details))


def test_criterion_11_descent_property():
    rng = np.random.default_rng(11)
    ok = True
    checked = 0
    worst = ""
    for entry in catalog_entries():
        if not entry.smooth:
            continue
        obj = make_benchmark(entry.ident)
        lo, hi = entry.probe_box
        sched = DeltaSchedule(deltas=spread_deltas(obj.dim + 1))
        for _ in range(10):
            x0 = rng.uniform(lo, hi, obj.dim)
            tr = run("nqn-backtracking", obj, x0, sched=sched,
                     stop=StopCriteria(max_iter=100))
            fs = [r.f for r in tr.records]
            mono = all(b <= a for a, b in zip(fs, fs[1:]))
            if not mono:
                worst = f" (violated on {entry.ident})"
            ok = ok and mono
            checked += 1
    report(11, ok, f"f non-increasing on {checked} runs over "
                   f"all smooth catalog entries{worst}")


def test_criterion_12_shift_selection_always_succeeds():
    rng = np.random.default_rng(12)
    ok = True
    for i in range(1000):
        d = 1 + i % 8
        raw = rng.uniform(-10.0, 10.0, (d, d))
        H = 0.5 * (raw + raw.T)
        gn = float(10.0 ** rng.uniform(-8.0, 3.0))
        sched = DeltaSchedule(deltas=spread_deltas(d + 1))
        for floor in (False, True):
            delta, lam, _ = select_delta(H, gn, sched=sched, floor=floor)
            ok = ok and delta in sched.deltas
            ok = ok and min(abs(v) for v in lam) > 0.0
    report(12, ok, "1000 random (H, |grad|) draws, dims 1-8, "
                   "plain and floor modes all succeeded")


def test_criterion_13_derivative_oracles():
    def mixed_err(a, b):
        return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))

    rng = np.random.default_rng(13)
    t0 = time.perf_counter()
    worst_g = worst_h = 0.0
    n_funcs = 0

    def probe(obj, draw):
        nonlocal worst_g, worst_h, n_funcs
        n_funcs += 1
        for _ in range(100):
            x = draw()
            if obj.analytic_gradient:
                worst_g = max(worst_g, mixed_err(
                    obj.gradient(x), fd_gradient(obj.value, x)))
            if obj.analytic_hessian:
                worst_h = max(worst_h, mixed_err(
                    obj.hessian(x), fd_hessian(obj.value, x)))

    for entry in catalog_entries():
        if entry.ident == "protein":
            continue
        obj = make_benchmark(entry.ident)
        if not (obj.analytic_gradient or obj.analytic_hessian):
            continue
        lo, hi = entry.probe_box
        probe(obj, lambda lo=lo, hi=hi, d=obj.dim: rng.uniform(lo, hi, d))

    boxes = {"g2": (-2.0, 2.0, -2.0, 2.0), "g3": (0.2, 1.2, -0.6, 0.6)}
    for name, (a, b, c, d) in boxes.items():
        probe(mero_objective(builtin(name)),
              lambda a=a, b=b, c=c, d=d: np.array(
                  [rng.uniform(a, b), rng.uniform(c, d)]))

    wall = time.perf_counter() - t0
    ok = worst_g <= 1e-4 and worst_h <= 1e-3 and wall < 30.0
    report(13, ok, f"{n_funcs} functions x 100 probes: worst grad err "
                   f"{worst_g:.1e} (bar 1e-4), worst hess err {worst_h:.1e} "
                   f"(bar 1e-3) ({wall:.1f}s)")


def test_criterion_14_stochastic_griewank():
    # the asserted batch-500 cell runs with the fixture seed.  The blow-up
    # cells depend on the noise realization (and, for a single seed, on
    # last-bit rounding of the eigensolver), so they are a population
    # claim: over the realization seeds fixed below, at least
    # BLOWUP_MIN_COUNT runs per cell end diverged/max-iter at f >= 1e16.
    # Panel and threshold were fixed before the eigensolver changed; the
    # threshold is under half the weakest cell of the reference counts
    # (17/11/15 of 20).  Never re-pick the seeds or tune the threshold.
    BLOWUP_SEEDS = range(20)
    BLOWUP_MIN_COUNT = 5
    x0 = np.full(10, 10.0)
    t0 = time.perf_counter()
    obj = make_stochastic_griewank(dim=10, batch_size=500,
                                   sigma=float(np.sqrt(0.1)), seed=42)
    tr = run("nqn", obj, x0, stop=StopCriteria(max_iter=50))
    ok = (tr.termination == "converged" and tr.iterations <= 50
          and tr.final_f < 1e-8)
    detail = [f"batch 500: f={tr.final_f:.1e} in {tr.iterations} iterations"]

    for batch, sigma in ((10, 1.0), (100, float(np.sqrt(0.1))), (100, 1.0)):
        blowups = 0
        for seed in BLOWUP_SEEDS:
            obj = make_stochastic_griewank(dim=10, batch_size=batch,
                                           sigma=sigma, seed=seed)
            tr = run("nqn", obj, x0, stop=StopCriteria(max_iter=1000))
            blowups += (tr.termination in ("diverged", "max-iter")
                        and tr.final_f >= 1e16)
        ok = ok and blowups >= BLOWUP_MIN_COUNT
        detail.append(f"batch {batch} sigma^2={sigma**2:.1f}: "
                      f"{blowups}/{len(BLOWUP_SEEDS)} blow-ups")
    wall = time.perf_counter() - t0
    ok = ok and wall < 600.0
    report(14, ok, "; ".join(detail) + f" ({wall:.1f}s)")
