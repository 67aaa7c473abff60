"""Step rules, shift selection, the run driver, and trace serialization."""

import csv
import errno
import importlib.util
import json
import os
import stat
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnewton.errors import (DomainError, InvalidInputError, NoValidDeltaError,
                            QNewtonError, SingularMatrixError)
from qnewton.objectives import (Objective, make_benchmark,
                                make_stochastic_griewank,
                                sample_batch_objective)
from qnewton.optimizers import (METHODS, X_DIVERGENCE_CAP, DeltaSchedule,
                                IterationRecord, StopCriteria, Trace,
                                _classify, _write_utf8, backtracking_gd_step,
                                newton_step, nqn_backtracking_step, nqn_step,
                                run, select_delta)
from qnewton.fixtures import GRIEWANK15_X0, ROOT_STARTS, ROSENBROCK2_X0
from qnewton.rootfind import builtin, find_root
from qnewton.spectral import eigh, reflect_inverse_apply


def quadratic_1d():
    return Objective(1, lambda x: 0.5 * x[0] ** 2,
                     gradient=lambda x: np.array([x[0]]),
                     hessian=lambda x: np.array([[1.0]]),
                     name="half-square")


def at(obj, x):
    """The step arguments (x, f, grad f, |grad f|) for the point x."""
    x = np.asarray(x, dtype=float)
    g = obj.gradient(x)
    return x, obj.value(x), g, float(np.linalg.norm(g))


def counting(obj):
    """``obj`` with its value and gradient calls counted."""
    calls = Counter()

    def counted(kind, fn):
        def call(x):
            calls[kind] += 1
            return fn(x)
        return call

    wrapped = Objective(obj.dim, counted("value", obj.value),
                        gradient=counted("gradient", obj.gradient),
                        hessian=obj.hessian, name=obj.name)
    return wrapped, calls


# ---------------------------------------------------------------------------
# DeltaSchedule / StopCriteria
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        DeltaSchedule(deltas=(0.0, 0.0, 1.0))
    with pytest.raises(InvalidInputError):
        DeltaSchedule(deltas=())
    with pytest.raises(InvalidInputError):
        DeltaSchedule(alpha=0.0)
    with pytest.raises(InvalidInputError):
        DeltaSchedule(h_mode="exotic")
    with pytest.raises(InvalidInputError):
        DeltaSchedule(h_mode=lambda t: 1.0)
    with pytest.raises(InvalidInputError):
        DeltaSchedule(selection="alphabetical")
    with pytest.raises(InvalidInputError):
        DeltaSchedule(selection="random-per-iteration", random_interval=(2, 2))
    with pytest.raises(InvalidInputError):
        DeltaSchedule(random_interval=[1])
    with pytest.raises(InvalidInputError):
        DeltaSchedule(deltas=["a"])
    with pytest.raises(InvalidInputError):
        DeltaSchedule(alpha="x")


def test_schedule_min_gap_and_h():
    sched = DeltaSchedule(deltas=(0.0, 1.0, -1.0), alpha=1.0)
    assert sched.min_gap == 1.0
    assert DeltaSchedule(deltas=(0.5,)).min_gap == 0.0
    assert sched.h(2.0) == 1.0                      # capped at 1
    assert sched.h(0.5) == 0.25
    power = DeltaSchedule(h_mode="power")
    assert power.h(2.0) == 4.0


def test_capped_h_of_a_huge_gradient_norm_is_one():
    # t ** 2 overflows a float above about 1.3e154
    assert DeltaSchedule().h(1e155) == 1.0
    assert DeltaSchedule().h(float("inf")) == 1.0
    delta, _, _ = select_delta(np.eye(2), 1e200)
    assert delta == 0.0


def test_stop_criteria_validation():
    with pytest.raises(InvalidInputError):
        StopCriteria(max_iter=0)
    with pytest.raises(InvalidInputError):
        StopCriteria(grad_tol=-1e-3)
    for key in ("grad_tol", "step_tol", "f_divergence_cap"):
        with pytest.raises(InvalidInputError,
                           match="^tolerances must be nonnegative$"):
            StopCriteria(**{key: float("nan")})
    assert StopCriteria(f_divergence_cap=float("inf")).f_divergence_cap \
        == float("inf")
    with pytest.raises(InvalidInputError):
        StopCriteria(max_iter="ten")
    for bad in (2.5, 3.0, True, None):
        with pytest.raises(InvalidInputError,
                           match="max_iter must be an integer"):
            StopCriteria(max_iter=bad)
    stop = StopCriteria(max_iter=np.int64(3))
    assert stop.max_iter == 3 and type(stop.max_iter) is int


# ---------------------------------------------------------------------------
# select_delta
# ---------------------------------------------------------------------------

def test_select_delta_invertible_takes_zero():
    H = np.array([[2.0]])
    delta, lam, V = select_delta(H, 3.7)
    A = H + delta * DeltaSchedule().h(3.7) * np.eye(1)
    assert delta == 0.0
    assert_allclose(A, [[2.0]])
    assert lam == [2.0]
    assert_allclose(V, [[1.0]])


def test_select_delta_singular_hand_case():
    H = np.array([[0.0]])
    sched = DeltaSchedule(h_mode="power", alpha=1.0)
    delta, _, _ = select_delta(H, 2.0, sched)
    A = H + delta * sched.h(2.0) * np.eye(1)
    assert delta == 1.0
    assert_allclose(A, [[4.0]])
    # capped scaling shifts by min(1, 4) = 1 instead
    delta, _, _ = select_delta(H, 2.0, DeltaSchedule())
    A = H + delta * DeltaSchedule().h(2.0) * np.eye(1)
    assert delta == 1.0
    assert_allclose(A, [[1.0]])


def test_select_delta_floor_mode_hand_case():
    delta, lam, _ = select_delta(np.diag([0.0, 5.0]), 1.0, floor=True)
    assert delta == 1.0
    assert lam == [1.0, 6.0]


def test_select_delta_exhaustion():
    # eigenvalue spread so wide that no shift clears the relative bar
    with pytest.raises(NoValidDeltaError) as err:
        select_delta(np.diag([0.0, 1e15]), 1.0)
    assert "tried" in str(err.value)


@pytest.mark.parametrize("h_mode", ["capped", "power"])
def test_scaling_the_objective_changes_the_selected_shift(h_mode):
    # EPS_SING_RTOL's bar scales with H and the shift delta*h does not, so
    # once delta = 0 is rejected the same problem at another scale can
    # exhaust the list
    sched = DeltaSchedule(h_mode=h_mode)
    H = np.diag([1.0, 0.0])
    delta, _, _ = select_delta(H, 1e-3, sched)
    assert delta == 1.0
    c = 1e-8
    with pytest.raises(NoValidDeltaError):
        select_delta(c * H, c * 1e-3, sched)


def test_select_delta_random_mode_seeded():
    sched = DeltaSchedule(selection="random-per-iteration")
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    d1, _, _ = select_delta(np.array([[0.0]]), 1.0, sched, rng=rng1)
    d2, _, _ = select_delta(np.array([[0.0]]), 1.0, sched, rng=rng2)
    assert d1 == d2 and d1 != 0.0
    # the Generator advances by one draw per candidate: one when it is
    # accepted, _MAX_RANDOM_DRAWS when none is
    lo, hi = sched.random_interval
    for H, draws in ((np.array([[0.0]]), 1), (np.diag([0.0, 1.0, 1e15]), 100)):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        want = [float(ref.uniform(lo, hi)) for _ in range(draws)]
        try:
            delta, _, _ = select_delta(H, 1.0, sched, rng)
            assert delta == want[-1]
        except NoValidDeltaError as exc:
            assert str(exc) == (
                f"no shift produced an invertible matrix (tried {want})")
        assert rng.bit_generator.state == ref.bit_generator.state


def test_select_delta_floor_always_succeeds_on_singular_input():
    rng = np.random.default_rng(12)
    deltas = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        B = rng.uniform(-10, 10, (n, n))
        A = 0.5 * (B + B.T)
        # zero out one eigenvalue to force a genuinely singular matrix
        lam, V = np.linalg.eigh(A)
        lam[int(rng.integers(0, n))] = 0.0
        H = (V * lam) @ V.T
        H = 0.5 * (H + H.T)
        sched = DeltaSchedule(deltas=deltas[:n + 1])
        gn = float(10.0 ** rng.uniform(-6, 2))
        delta, lam, _ = select_delta(H, gn, sched, floor=True)
        assert min(abs(v) for v in lam) >= 0.5 * sched.min_gap * sched.h(gn)


def test_select_delta_decomposes_once_per_call(monkeypatch):
    import qnewton.optimizers

    calls = []

    def counting_eigh(A):
        calls.append(A)
        return eigh(A)

    monkeypatch.setattr(qnewton.optimizers, "eigh", counting_eigh)
    # delta=0 leaves the zero eigenvalue in place and is rejected
    delta, lam, _ = select_delta(np.diag([1.0, 0.0]), 1.0, floor=True)
    assert delta == 1.0
    assert len(calls) == 1
    assert lam == [1.0, 2.0]


def test_select_delta_shifted_spectrum_matches_direct_decomposition():
    rng = np.random.default_rng(4)
    cases = [(np.diag([1.0, 0.0]), 1.0)]
    for _ in range(50):
        n = int(rng.integers(1, 12))
        B = rng.uniform(-5, 5, (n, n))
        cases.append((0.5 * (B + B.T), float(10.0 ** rng.uniform(-3, 1))))
    deltas = (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0, 5.0, -5.0, 6.0)
    for H, gn in cases:
        sched = DeltaSchedule(deltas=deltas[:H.shape[0] + 1], h_mode="power")
        delta, lam, V = select_delta(H, gn, sched, floor=True)
        A = H + delta * sched.h(gn) * np.eye(H.shape[0])
        lam, V = np.array(lam), np.array(V)
        scale = float(np.max(np.abs(lam)))
        assert np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(lam - eigh(A)[0])) <= 1e-12 * scale
        assert np.max(np.abs((V * lam) @ V.T - A)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# what the steps' spectral calls raise
# ---------------------------------------------------------------------------

def spectral_outcome(H, g, sched, mode):
    """The exception class and message of the calls a step makes on the
    Hessian H: select_delta for a shifted step ("shift", "floor"), or
    newton_step, which calls eigh and the singularity test ("newton")."""
    gn = float(np.linalg.norm(g))
    try:
        if mode == "newton":
            obj = Objective(len(H), lambda x: 0.0, hessian=lambda x: H)
            newton_step(obj, np.zeros(len(H)), 0.0, g, gn)
        else:
            select_delta(H, gn, sched, floor=mode == "floor")
    except QNewtonError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("H, mode, sched, error, message", [
    ([[np.nan, 0.0], [0.0, 1.0]], "shift", None, InvalidInputError,
     "matrix has non-finite entries"),
    ([[1.0, np.inf], [np.inf, 1.0]], "newton", None, InvalidInputError,
     "matrix has non-finite entries"),
    ([[1.0, 2.0], [3.0, 1.0]], "floor", None, InvalidInputError,
     "matrix is not exactly symmetric"),
    ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0]], "shift", None, InvalidInputError,
     "expected a square matrix, got shape (2, 3)"),
    ([[1.0, 0.0], [0.0, 0.0]], "newton", None, SingularMatrixError,
     "singular Hessian in Newton update"),
    ([[1e-8, 0.0], [0.0, 0.0]], "shift", None, NoValidDeltaError,
     "no shift produced an invertible matrix (tried [0.0, 1.0, -1.0])"),
    ([[0.0, 0.0], [0.0, 1e15]], "floor", DeltaSchedule(deltas=(0.0,)),
     NoValidDeltaError,
     "no shift produced an invertible matrix (tried [0.0])"),
    (np.diag([1.0, np.nan, 1.0]), "newton", None, InvalidInputError,
     "matrix has non-finite entries"),
    ([[1.0, 2.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "shift", None,
     InvalidInputError, "matrix is not exactly symmetric"),
    (np.diag([1.0, 0.0, 2.0]), "newton", None, SingularMatrixError,
     "singular Hessian in Newton update"),
    ([[np.nan]], "shift", None, InvalidInputError,
     "matrix has non-finite entries"),
    (np.ones((1, 2)), "newton", None, InvalidInputError,
     "expected a square matrix, got shape (1, 2)"),
    ([[0.0]], "newton", None, SingularMatrixError,
     "singular Hessian in Newton update"),
    ([[0.0]], "floor", DeltaSchedule(deltas=(0.0,)), NoValidDeltaError,
     "no shift produced an invertible matrix (tried [0.0])"),
    (np.ones((3, 2)), "floor", None, InvalidInputError,
     "expected a square matrix, got shape (3, 2)"),
    (np.diag([0.0, 0.0, 1e15]), "shift", None, NoValidDeltaError,
     "no shift produced an invertible matrix (tried [0.0, 1.0, -1.0])"),
])
def test_2x2_direction_rejects_as_the_array_chain(H, mode, sched, error,
                                                   message):
    # the classes and messages the array chain raised at n = 2 and 3, and
    # the same checks at n = 1
    g = np.array([1e-11, 0.0])
    out = spectral_outcome(np.array(H), g, sched or DeltaSchedule(), mode)
    assert out == (error, message)


@pytest.mark.parametrize("signed", [False, True])
def test_2x2_apply_rejects_a_zero_eigenvalue(signed):
    for lam in ([-2.0, 0.0], [-0.0, 1.0, 3.0]):
        g = np.ones(len(lam))
        V = np.eye(len(lam))[::-1]
        with pytest.raises(SingularMatrixError, match="^matrix has a zero "):
            reflect_inverse_apply(lam, V, g, signed)
        with pytest.raises(SingularMatrixError, match="^matrix has a zero "):
            reflect_inverse_apply(lam, V.tolist(), g, signed)


# ---------------------------------------------------------------------------
# perfbench's tracer
# ---------------------------------------------------------------------------

def load_tracing():
    """perfbench/tracing.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_boundary_is_bound_where_the_tracer_reads_it():
    # perfbench's tracer swaps a wrapper in for each name, read from the
    # owner's __dict__; a refactor that drops one breaks every traced pass
    tracing = load_tracing()
    missing = [(owner.__name__, attr)
               for owner, attr, _, _ in tracing._BOUNDARIES
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 15
def test_the_tracer_sees_every_spectral_call():
    # each Newton-type step decomposes its Hessian once and applies the
    # reflected inverse once, through names the tracer wraps
    tracing = load_tracing()
    for obj, x0, cap in ((make_benchmark("rosenbrock", 2), ROSENBROCK2_X0, 5),
                         (make_benchmark("griewank", 15), GRIEWANK15_X0, 3)):
        with tracing.Tracer().installed() as tracer:
            for method in ("nqn", "nqn-backtracking", "newton",
                           "random-damping-newton"):
                trace = run(method, obj, x0, stop=StopCriteria(max_iter=cap),
                            seed=1)
                assert trace.iterations == cap
        calls = Counter(span.name for span in tracer.spans)
        assert calls["spectral.eigh"] == calls["objectives.hessian"] \
            == calls["spectral.reflect_inverse_apply"] == 4 * cap
        # the shifted steps: nqn's and nqn-backtracking's
        assert calls["optimizers.select_delta"] == 2 * cap
        assert {span.size for span in tracer.spans
                if span.name == "spectral.eigh"} == {obj.dim}


def test_the_tracer_sees_every_root_classification():
    # find_root classifies its end point through classify_critical_point,
    # the name the tracer wraps; a diverged run is not classified
    tracing = load_tracing()
    for key, z0 in sorted(ROOT_STARTS.items()):
        with tracing.Tracer().installed() as tracer:
            res = find_root(builtin(key.split("-")[0]), z0)
        spans = [s for s in tracer.spans if s.name == "rootfind.classify"]
        want = 0 if res.trace.termination == "diverged" else 1
        assert len(spans) == want, key


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_nqn_step_quadratic_exact():
    x1, _, delta, _, _ = nqn_step(quadratic_1d(), *at(quadratic_1d(), [1.0]))
    assert x1[0] == 0.0
    assert delta == 0.0


def test_nqn_step_saddle_escape():
    obj = make_benchmark("saddle")
    x1, _, delta, _, _ = nqn_step(obj, *at(obj, [0.3, 0.7]))
    assert_allclose(x1, [0.0, 1.4], atol=0)
    assert delta == 0.0


def test_nqn_backtracking_quadratic_full_step():
    x1, _, _, _, backtracks = nqn_backtracking_step(
        quadratic_1d(), *at(quadratic_1d(), [1.0]))
    assert x1[0] == 0.0
    assert backtracks == 0


def half_square_undefined_left_of(edge):
    """0.5*x^2, whose value raises DomainError for x < edge."""
    def value(x):
        if x[0] < edge:
            raise DomainError(f"x={x[0]} is outside the domain")
        return 0.5 * x[0] ** 2

    return Objective(1, value, gradient=lambda x: np.array([x[0]]),
                     hessian=lambda x: np.array([[1.0]]),
                     name="half-square-on-a-half-line")


def test_nqn_backtracking_probe_that_raises_is_halved():
    # the full step lands on x = 0, outside the domain; half of it is fine
    obj = half_square_undefined_left_of(0.5)
    x1, f1, _, _, backtracks = nqn_backtracking_step(obj, *at(obj, [2.0]))
    assert x1[0] == 1.0
    assert backtracks == 1
    assert f1 == 0.5


def test_backtracking_gd_probe_that_raises_is_shrunk():
    # lr = 1 lands on x = 0, outside the domain; lr = 0.7 passes Armijo
    obj = half_square_undefined_left_of(0.5)
    x1, f1, _, _, backtracks = backtracking_gd_step(obj, *at(obj, [2.0]))
    assert_allclose(x1, [0.6], rtol=1e-15)
    assert backtracks == 1
    assert f1 == obj.value(x1)


def test_newton_step_quadratic():
    obj = make_benchmark("ex12")  # x^2 + y^2 + 4xy, critical point at 0
    x1, *_ = newton_step(obj, *at(obj, [1.3, -0.4]))
    assert_allclose(x1, [0.0, 0.0], atol=1e-12)


def test_newton_cycles_on_quartic():
    trace = run("newton", make_benchmark("ex10"), np.array([0.0]),
                stop=StopCriteria(max_iter=6))
    xs = [float(r.x[0]) for r in trace.records]
    assert xs == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert trace.termination == "max-iter"


def test_random_damping_equals_newton_when_forced():
    class Unit:
        def uniform(self, lo, hi):
            return 1.0

    obj = make_benchmark("rosenbrock", 2)
    x = np.array([0.3, -0.2])
    x_newton, *_ = newton_step(obj, *at(obj, x))
    x_damped, _, delta, _, _ = METHODS["random-damping-newton"](
        obj, *at(obj, x), rng=Unit())
    assert np.array_equal(x_newton, x_damped)
    assert delta == 1.0


def test_random_damping_contracts_to_saddle_along_ray():
    obj = make_benchmark("saddle")
    x0 = np.array([1.0, 0.8])
    trace = run("random-damping-newton", obj, x0, seed=3,
                stop=StopCriteria(max_iter=200))
    assert trace.termination == "converged"
    assert np.linalg.norm(trace.final_x) <= 1e-10
    for rec in trace.records:
        cross = rec.x[0] * x0[1] - rec.x[1] * x0[0]
        assert abs(cross) <= 1e-9 * max(1.0, np.linalg.norm(rec.x))


def test_backtracking_gd_quadratic_unit_step():
    state = {}
    x1, _, _, _, backtracks = backtracking_gd_step(
        quadratic_1d(), *at(quadratic_1d(), [1.0]), state=state)
    assert x1[0] == 0.0
    assert state["lr"] == 1.0
    assert backtracks == 0


def test_backtracking_gd_grows_to_cap_on_shallow_slope():
    obj = Objective(1, lambda x: 0.01 * x[0],
                    gradient=lambda x: np.array([0.01]), name="shallow")
    state = {}
    x1, f1, lr, _, _ = backtracking_gd_step(obj, *at(obj, [0.0]),
                                            state=state)
    cap = 0.01 ** -0.5
    assert 1.0 < state["lr"] == lr <= cap
    # the step is the last passing probe, not the first
    assert x1[0] == -lr * 0.01
    assert f1 == obj.value(x1)


def test_backtracking_gd_learning_rate_persists():
    obj = make_benchmark("rosenbrock", 2)
    state = {}
    x = np.asarray(ROSENBROCK2_X0, dtype=float)
    backtracking_gd_step(obj, *at(obj, x), state=state)
    first = state["lr"]
    backtracking_gd_step(obj, *at(obj, x), state=state)
    assert state["lr"] != 1.0 or first != 1.0


def test_backtracking_gd_stall_reported():
    obj = Objective(1, lambda x: abs(x[0]),
                    gradient=lambda x: np.array([np.sign(x[0])]),
                    name="kink")
    trace = run("backtracking-gd", obj, np.array([1e-40]),
                stop=StopCriteria(max_iter=5))
    assert trace.termination.startswith("numerical-error")
    assert "shrink" in trace.termination


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def test_zero_gradient_start_is_fixed_point():
    obj = make_benchmark("rosenbrock", 2)
    for method in ("nqn", "nqn-backtracking", "newton",
                   "random-damping-newton", "backtracking-gd"):
        trace = run(method, obj, np.array([1.0, 1.0]), seed=0)
        assert trace.iterations == 0
        assert trace.termination == "converged"
        assert np.array_equal(trace.final_x, [1.0, 1.0])


def test_trace_shape_and_indices():
    trace = run("nqn", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0))
    assert trace.termination == "converged"
    assert trace.iterations == len(trace.records) - 1
    assert [r.index for r in trace.records] == list(range(len(trace.records)))
    assert trace.records[0].delta_used is None
    assert trace.records[0].step_norm == 0.0
    assert trace.final_grad_norm <= 1e-10


def test_step_tol_stop_fires_after_first_update():
    trace = run("nqn", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0),
                stop=StopCriteria(step_tol=1e10))
    assert trace.iterations == 1
    assert trace.termination == "converged"


def test_divergence_cap_on_initial_value():
    trace = run("nqn", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0),
                stop=StopCriteria(f_divergence_cap=1e-5))
    assert trace.iterations == 0
    assert trace.termination == "diverged"


def test_nonsmooth_power_escapes():
    # On |x|^(4/3) the update is x -> -2x, so the iterates double away from
    # the minimum.  With closed-form derivatives that crosses the divergence
    # bar; the catalog entry differentiates by finite differences, whose
    # second-difference noise floor (~|f| eps / h^2) caps the escape around
    # |x| ~ 1e4, where it oscillates until the iteration budget runs out.
    analytic = Objective(
        1, lambda x: abs(x[0]) ** (4.0 / 3.0),
        gradient=lambda x: np.array(
            [(4.0 / 3.0) * np.sign(x[0]) * abs(x[0]) ** (1.0 / 3.0)]),
        hessian=lambda x: np.array(
            [[(4.0 / 9.0) * abs(x[0]) ** (-2.0 / 3.0)]]))
    trace = run("nqn", analytic, np.array([1.0]),
                stop=StopCriteria(max_iter=300))
    assert trace.termination == "diverged"

    trace = run("nqn", make_benchmark("ex01"), np.array([1.0]),
                stop=StopCriteria(max_iter=300))
    assert trace.termination in ("diverged", "max-iter")
    tail = [abs(float(r.x[0])) for r in trace.records[10:]]
    assert min(tail) > 1e3


def test_numerical_error_status_on_shift_exhaustion():
    obj = Objective(2, lambda x: float(x[0]),
                    gradient=lambda x: np.array([1.0, 0.0]),
                    hessian=lambda x: np.diag([0.0, 1e15]), name="spread")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trace = run("nqn", obj, np.array([0.0, 0.0]))
    assert trace.termination.startswith("numerical-error: no shift")


@pytest.mark.parametrize("method", ["nqn", "nqn-backtracking", "newton",
                                    "random-damping-newton"])
def test_non_finite_hessian_ends_as_numerical_error(method):
    # eigh, the step's one check of its Hessian, rejects it before any update
    for n in (1, 2, 3):
        for bad in (np.nan, np.inf, -np.inf):
            H = np.eye(n)
            H[-1, -1] = bad
            obj = Objective(n, lambda x: 0.5 * float(x @ x),
                            gradient=lambda x: x.copy(),
                            hessian=lambda x, H=H: H, name="bad-hess")
            trace = run(method, obj, np.ones(n), seed=0,
                        sched=DeltaSchedule(deltas=(0.0, 1.0, -1.0, 2.0)))
            assert trace.termination == (
                "numerical-error: matrix has non-finite entries")
            assert trace.error_class == "InvalidInputError"
            assert trace.iterations == 0


def test_driver_warns_on_small_delta_set():
    obj = make_benchmark("rosenbrock", 3)
    with pytest.warns(RuntimeWarning, match="dim"):
        run("nqn", obj, np.array([0.9, 0.9, 0.9]),
            stop=StopCriteria(max_iter=2))


def test_no_warning_when_schedule_covers_dimension():
    obj = make_benchmark("rosenbrock", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run("nqn", obj, np.asarray(ROSENBROCK2_X0))


def test_monotone_descent_backtracking_variant():
    trace = run("nqn-backtracking", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0))
    fs = [r.f for r in trace.records]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    assert trace.termination == "converged"


def test_bitwise_determinism():
    obj = make_benchmark("rosenbrock", 5)
    x0 = np.array([-1.2, 0.7, 2.0, -0.3, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        t1 = run("nqn", obj, x0, seed=1)
        t2 = run("nqn", obj, x0, seed=1)
        t3 = run("random-damping-newton", obj, x0, seed=9)
        t4 = run("random-damping-newton", obj, x0, seed=9)
    for a, b in ((t1, t2), (t3, t4)):
        assert a.termination == b.termination
        assert [r.f for r in a.records] == [r.f for r in b.records]
        assert all(np.array_equal(ra.x, rb.x)
                   for ra, rb in zip(a.records, b.records))


def test_random_schedule_selection_converges():
    sched = DeltaSchedule(selection="random-per-iteration")
    trace = run("nqn", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0), sched=sched, seed=4)
    assert trace.termination == "converged"
    assert all(r.delta_used is None or r.delta_used != 0.0
               for r in trace.records[1:])


@pytest.fixture
def built_generators(monkeypatch):
    """The arguments of every np.random.default_rng call during the test."""
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return built


@pytest.mark.parametrize("method, sched, generators", [
    ("nqn", None, 0),
    ("nqn-backtracking", None, 0),
    ("newton", None, 0),
    ("backtracking-gd", None, 0),
    ("random-damping-newton", None, 1),
    ("nqn", DeltaSchedule(selection="random-per-iteration"), 1),
    ("nqn-backtracking", DeltaSchedule(selection="random-per-iteration"), 1),
])
def test_only_a_drawing_run_builds_a_generator(method, sched, generators,
                                               built_generators):
    run(method, make_benchmark("rosenbrock", 2), np.asarray(ROSENBROCK2_X0),
        sched=sched, stop=StopCriteria(max_iter=20), seed=7)
    assert built_generators == [(7,)] * generators


def test_find_root_builds_no_generator(built_generators):
    res = find_root(builtin("g2"), ROOT_STARTS["g2"], seed=7)
    assert res.classification == "root-of-g"
    assert built_generators == []


@pytest.mark.parametrize("method", sorted(METHODS))
def test_each_point_evaluated_once(method):
    obj, calls = counting(make_benchmark("rosenbrock", 2))
    trace = run(method, obj, np.asarray(ROSENBROCK2_X0), seed=0,
                stop=StopCriteria(max_iter=20))
    records = trace.records
    assert calls["gradient"] == len(records)
    if method != "backtracking-gd":
        assert calls["value"] == len(records) + sum(r.ls_backtracks
                                                     for r in records)
    # reusing f and grad f gives what a fresh evaluation at x gives
    fresh = make_benchmark("rosenbrock", 2)
    for rec in records:
        assert rec.f == fresh.value(rec.x)
        assert rec.grad_norm == float(np.linalg.norm(fresh.gradient(rec.x)))


def test_backtracking_gd_keeps_the_accepted_probe_value():
    obj, calls = counting(quadratic_1d())
    trace = run("backtracking-gd", obj, np.array([1.0]),
                stop=StopCriteria(max_iter=1))
    assert trace.iterations == 1
    assert calls["value"] == 2            # f(x0) and the one Armijo probe


def test_stochastic_records_match_fresh_batch_evaluation():
    obj = make_stochastic_griewank(dim=2, batch_size=20, sigma=0.3, seed=5)
    trace = run("nqn", obj, np.full(2, 3.0), stop=StopCriteria(max_iter=8))
    assert trace.iterations == 8
    for rec in trace.records:
        batch = sample_batch_objective(obj, rec.index)
        assert rec.f == batch.value(rec.x)
        assert rec.grad_norm == float(np.linalg.norm(batch.gradient(rec.x)))


def test_stochastic_run_evaluates_f_once_per_point(monkeypatch):
    calls = Counter()
    for kind in ("value", "gradient"):
        def counted(self, x, _kind=kind, _orig=getattr(Objective, kind)):
            calls[_kind] += 1
            return _orig(self, x)
        monkeypatch.setattr(Objective, kind, counted)
    obj = make_stochastic_griewank(dim=10, batch_size=100, sigma=0.3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # 3 shifts, dim 10
        trace = run("nqn", obj, np.full(10, 10.0),
                    stop=StopCriteria(max_iter=10))
    assert trace.iterations == 10
    # f and grad f at x0 on batch 0, then at each x_k on batch k only
    assert calls == {"value": 11, "gradient": 11}


def _classify_reference(rec, stop):
    """The numpy-wrapper form of _classify, kept as the oracle."""
    bad = not np.isfinite(rec.grad_norm) or np.isnan(rec.f) \
        or np.any(np.isnan(rec.x))
    if bad:
        return "numerical-error: non-finite iterate"
    if rec.f > stop.f_divergence_cap or np.isinf(rec.f) \
            or float(np.linalg.norm(rec.x)) > X_DIVERGENCE_CAP:
        return "diverged"
    if rec.grad_norm <= stop.grad_tol:
        return "converged"
    if rec.index > 0 and rec.step_norm <= stop.step_tol:
        return "converged"
    return None


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("f, grad_norm, x, step_norm, verdict", [
    (NAN, 1.0, [1.0, 2.0], 1.0, "numerical-error: non-finite iterate"),
    (1.0, NAN, [1.0, 2.0], 1.0, "numerical-error: non-finite iterate"),
    (1.0, INF, [1.0, 2.0], 1.0, "numerical-error: non-finite iterate"),
    (1.0, 1.0, [NAN, 2.0], 1.0, "numerical-error: non-finite iterate"),
    (INF, 1.0, [1.0, 2.0], 1.0, "diverged"),
    (-INF, 1.0, [1.0, 2.0], 1.0, "diverged"),
    (1e101, 1.0, [1.0, 2.0], 1.0, "diverged"),
    (1.0, 1.0, [2e10, 0.0], 1.0, "diverged"),
    (1.0, 1.0, [INF, 0.0], 1.0, "diverged"),
    (1.0, 1.0, [1e200, 1e200], 1.0, "diverged"),      # |x|^2 overflows
    (1.0, 1.0, [1e10, 1e5], 1.0, "diverged"),         # just over the cap
    (1.0, 1.0, [1e10, 0.0], 1.0, None),               # at the cap
    (1.0, 0.0, [1.0, 2.0], 1.0, "converged"),
    (1.0, 1.0, [1.0, 2.0], 0.0, "converged"),
    (1.0, 1.0, [1.0, 2.0], 1.0, None),
    (1.0, 1.0, [NAN, INF], 1.0, "numerical-error: non-finite iterate"),
    (1.0, 1.0, [INF, -INF], 1.0, "diverged"),
])
def test_classify_verdicts(f, grad_norm, x, step_norm, verdict):
    rec = IterationRecord(1, np.array(x), f, grad_norm, None, step_norm, 0,
                          0)
    stop = StopCriteria()
    with np.errstate(over="ignore"):
        assert _classify(rec, stop) == verdict
        assert _classify_reference(rec, stop) == verdict


def test_unknown_method_rejected():
    with pytest.raises(InvalidInputError):
        run("sgd", make_benchmark("rosenbrock", 2), np.zeros(2))


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        run("nqn", make_benchmark("rosenbrock", 2), np.zeros(3))


def test_undefined_start_rejected():
    obj = make_benchmark("protein:AAAA")
    with pytest.raises(InvalidInputError):
        run("nqn", obj, np.array([0.3, np.pi]))


def _trace_csv_reference(records, path):
    """The csv.writer loop that Trace.to_csv's rows must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "f", "grad_norm", "delta", "step_norm",
                    "ls_backtracks", "wall_ns"])
        for r in records:
            w.writerow([r.index, repr(r.f), repr(r.grad_norm),
                        "" if r.delta_used is None else repr(r.delta_used),
                        repr(r.step_norm), r.ls_backtracks, r.wall_ns])


def test_trace_csv_bytes_match_csv_writer(tmp_path):
    nan, inf = float("nan"), float("inf")
    records = [
        IterationRecord(0, np.zeros(2), 1.5, 2.0, None, 0.0, 0, 0),
        IterationRecord(1, np.zeros(2), nan, inf, -0.0, -inf, 3, 12345),
        IterationRecord(2, np.zeros(2), -0.0, 5e-324, 1e-310, nan, 0, 7),
        IterationRecord(3, np.zeros(2), -inf, 2.2250738585072014e-308,
                        0.1 + 0.2, 1e300, 250, 10 ** 12),
        IterationRecord(4, np.zeros(2), -1e-320, 0.0, None, 4.9e-324, 1, 0),
    ]
    trace = Trace(records=records, termination="max-iter")
    trace.to_csv(tmp_path / "trace.csv")
    _trace_csv_reference(records, tmp_path / "reference.csv")
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_trace_csv_roundtrip(tmp_path):
    trace = run("nqn", make_benchmark("rosenbrock", 2),
                np.asarray(ROSENBROCK2_X0))
    path = trace.to_csv(tmp_path / "trace.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "f", "grad_norm", "delta", "step_norm",
                       "ls_backtracks", "wall_ns"]
    assert len(rows) == len(trace.records) + 1
    for row, rec in zip(rows[1:], trace.records):
        assert int(row[0]) == rec.index
        assert float(row[1]) == rec.f          # repr round-trips exactly
        assert float(row[2]) == rec.grad_norm
        assert (row[3] == "") == (rec.delta_used is None)
    sidecar = json.loads((tmp_path / "trace.json").read_text())
    assert sidecar["termination"] == trace.termination
    assert sidecar["final_f"] == trace.final_f
    assert_allclose(sidecar["final_x"], trace.final_x)
    assert sidecar["termination_kind"] == "converged"
    assert "error" not in sidecar

    spread = Objective(2, lambda x: float(x[0]),
                       gradient=lambda x: np.array([1.0, 0.0]),
                       hessian=lambda x: np.diag([0.0, 1e15]), name="spread")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        trace = run("nqn", spread, np.array([0.0, 0.0]))
    trace.to_csv(tmp_path / "failed.csv")
    sidecar = json.loads((tmp_path / "failed.json").read_text())
    assert sidecar["termination"] == trace.termination
    assert sidecar["termination_kind"] == "numerical-error"
    assert sidecar["error"]["class"] == "NoValidDeltaError"
    assert sidecar["error"]["detail"].startswith("no shift produced")
    assert trace.termination == "numerical-error: " + sidecar["error"]["detail"]


# ---------------------------------------------------------------------------
# the file writer behind every trace, sidecar and experiment file
# ---------------------------------------------------------------------------

def test_write_utf8_replaces_a_longer_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"x" * 1000)
    _write_utf8(path, "short\n")
    assert path.read_bytes() == b"short\n"


def test_write_utf8_mode_is_that_of_write_text(tmp_path):
    old = os.umask(0o002)
    try:
        _write_utf8(tmp_path / "a", "a")
        (tmp_path / "b").write_text("b")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "a").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "b").st_mode) == 0o664


def test_write_utf8_encodes_as_utf8(tmp_path):
    text = "δ = 1 · ‖∇f‖ ≥ 0, 𝔼[x]\r\n"
    _write_utf8(tmp_path / "u.txt", text)
    assert (tmp_path / "u.txt").read_bytes() == text.encode("utf-8")


def test_write_utf8_finishes_short_writes(tmp_path, monkeypatch):
    real_write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(real_write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    text = "".join(f"{i},{i * 0.1!r}\r\n" for i in range(50))
    _write_utf8(tmp_path / "s.csv", text)
    monkeypatch.undo()
    assert (tmp_path / "s.csv").read_bytes() == text.encode()
    assert max(sizes) == 7 and len(sizes) == -(-len(text) // 7)


def test_write_utf8_closes_when_the_write_fails(tmp_path, monkeypatch):
    real_open, real_close = os.open, os.close
    opened, closed = [], []

    def recording_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def failing_write(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def recording_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "write", failing_write)
    monkeypatch.setattr(os, "close", recording_close)
    with pytest.raises(OSError):
        _write_utf8(tmp_path / "full.txt", "data")
    monkeypatch.undo()
    assert len(opened) == 1 and closed == opened
    with pytest.raises(OSError):
        os.fstat(opened[0])
