"""Second-order descent iterations built on spectral reflection.

The central update perturbs the Hessian by one of a fixed list of shifts
delta, scaled by a power of the gradient norm, picks the first shift that
makes the perturbed matrix comfortably invertible, and then steps against
the gradient through the *reflected* inverse (eigenvalues replaced by their
absolute values).  Near a nondegenerate critical point the shift term
vanishes fast enough to preserve Newton's quadratic rate, while the
reflection turns saddles into repellers instead of attractors.

Also here: the backtracking variant (shift floor plus Armijo halving, which
buys monotone function values), classical Newton, randomly damped Newton,
and a two-way backtracking gradient descent, all driven by one loop with a
shared trace format.  Both line searches probe through ``_armijo`` and
step to their last passing probe, returning its value.

Each Newton-type step makes the same calls at every size.  ``nqn`` and
``nqn-backtracking`` call ``select_delta``, which decomposes the Hessian
with ``spectral.eigh`` and picks the shift on the eigenvalue list, and then
``spectral.reflect_inverse_apply``.  ``newton`` and
``random-damping-newton`` call ``eigh``, Newton's singularity test and the
signed ``reflect_inverse_apply``.  The steps call them through this
module's names, so a wrapper put in their place sees every call.
"""

import json
import math
import os
import time
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import (DomainError, InvalidInputError, NoConvergenceError,
                     NoValidDeltaError, SingularMatrixError,
                     StalledLineSearchError)
from .objectives.base import as_integer
from .objectives.stochastic import StochasticObjective, sample_batch_objective
from .spectral import eigh, reflect_inverse_apply

# Step failures that end a run with a "numerical-error" status instead of
# propagating: everything that floating-point evaluation or the update rule
# can legitimately hit at a bad point.  Inside the loop InvalidInputError
# comes from eigh alone, the one check that the step's Hessian is
# finite and exactly symmetric.
_STEP_FAILURES = (NoValidDeltaError, SingularMatrixError,
                  StalledLineSearchError, NoConvergenceError, DomainError,
                  InvalidInputError, OverflowError, ZeroDivisionError,
                  FloatingPointError)

# Failures of f at a line-search probe.  A probe that hits one counts as a
# failed Armijo test, so the search shrinks the step instead of ending the
# run: a step too long for the objective's domain is still just too long.
_PROBE_FAILURES = (DomainError, OverflowError, ZeroDivisionError,
                   FloatingPointError)

# A shifted matrix counts as invertible when its smallest eigenvalue
# magnitude clears this fraction of the largest.  The bar scales with H but
# the shift delta*h(||grad f||) does not (it grows like ||grad f||^(1+alpha),
# or is capped at |delta|), so scaling the objective by a constant can change
# which shift is selected, and can make every shift fail once delta = 0 is
# rejected: select_delta(c*diag(1, 0), c*1e-3) takes delta = 1 at c = 1 and
# finds none at c = 1e-8.
EPS_SING_RTOL = 1e-13

# Iterates further out than this are declared divergent.
X_DIVERGENCE_CAP = 1e10

_EPS = float(np.finfo(float).eps)
_MAX_HALVINGS = 100
_MAX_RANDOM_DRAWS = 100
_GD_MAX_GROWS = 100


@dataclass(frozen=True)
class DeltaSchedule:
    """The shift candidates and the gradient-norm scaling they multiply.

    h_mode "power" uses the paper's h(t) = t^(1+alpha); "capped" (the
    default) uses min(1, t^(1+alpha)), which keeps shifts bounded far from
    critical points.  selection "sequential" tries ``deltas`` in order;
    "random-per-iteration" draws fresh candidates uniformly from
    ``random_interval`` each iteration.  Every field is plain data, so an
    experiment's JSON records the schedule in full.
    """

    deltas: tuple = (0.0, 1.0, -1.0)
    alpha: float = 1.0
    h_mode: str = "capped"
    selection: str = "sequential"
    random_interval: tuple = (-2.0, 2.0)

    def __post_init__(self):
        try:
            deltas = tuple(float(d) for d in np.atleast_1d(self.deltas))
            lo, hi = (float(v) for v in self.random_interval)
            alpha_positive = bool(self.alpha > 0)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed schedule: {exc}") from exc
        if not deltas:
            raise InvalidInputError("delta schedule needs at least one shift")
        if not np.all(np.isfinite(deltas)):
            raise InvalidInputError("shifts must be finite")
        if len(set(deltas)) != len(deltas):
            raise InvalidInputError(f"shifts must be distinct, got {deltas}")
        object.__setattr__(self, "deltas", deltas)
        if not alpha_positive:
            raise InvalidInputError("alpha must be positive")
        if self.h_mode not in ("power", "capped"):
            raise InvalidInputError(
                f"h_mode must be 'power' or 'capped', got {self.h_mode!r}")
        if self.selection not in ("sequential", "random-per-iteration"):
            raise InvalidInputError(f"unknown selection {self.selection!r}")
        if not lo < hi:
            raise InvalidInputError("random_interval must be increasing")
        object.__setattr__(self, "random_interval", (lo, hi))

    @cached_property
    def min_gap(self):
        """Smallest spacing between two shifts (0.0 for a single shift)."""
        ds = sorted(self.deltas)
        if len(ds) < 2:
            return 0.0
        return float(min(b - a for a, b in zip(ds, ds[1:])))

    def h(self, t):
        """The shift scale as a function of the gradient norm.

        Under "capped", t >= 1 gives 1.0 without taking the power, which
        overflows for t above about 1e154.
        """
        t = float(t)
        if self.h_mode == "power":
            return t ** (1.0 + self.alpha)
        return 1.0 if t >= 1.0 else min(1.0, t ** (1.0 + self.alpha))


@dataclass(frozen=True)
class StopCriteria:
    max_iter: int = 1000
    grad_tol: float = 1e-10
    step_tol: float = 1e-20
    f_divergence_cap: float = 1e100

    def __post_init__(self):
        max_iter = as_integer(self.max_iter, "max_iter")
        if max_iter < 1:
            raise InvalidInputError("max_iter must be >= 1")
        object.__setattr__(self, "max_iter", max_iter)
        # NaN fails v >= 0 too: as a tolerance it would switch its test off
        try:
            valid = all(v >= 0 for v in (self.grad_tol, self.step_tol,
                                         self.f_divergence_cap))
        except TypeError as exc:
            raise InvalidInputError(f"malformed stop criteria: {exc}") from exc
        if not valid:
            raise InvalidInputError("tolerances must be nonnegative")


@dataclass
class IterationRecord:
    """State after one update (index 0 is the initial point)."""

    index: int
    x: np.ndarray
    f: float
    grad_norm: float
    delta_used: float | None
    step_norm: float
    ls_backtracks: int
    wall_ns: int


@dataclass
class Trace:
    records: list
    termination: str
    seed: int | None = None
    # class name of the exception behind a "numerical-error" termination
    # (None when the run stopped on a non-finite iterate instead)
    error_class: str | None = None

    @property
    def iterations(self):
        return len(self.records) - 1

    @property
    def final_x(self):
        return self.records[-1].x

    @property
    def final_f(self):
        return self.records[-1].f

    @property
    def final_grad_norm(self):
        return self.records[-1].grad_norm

    def to_csv(self, path):
        """Write per-iteration rows plus a JSON sidecar with the outcome."""
        path = Path(path)
        # The bytes csv.writer would write: every field is an integer or a
        # float repr, so none needs quoting, and rows end in \r\n.
        rows = "".join(
            f"{r.index},{r.f!r},{r.grad_norm!r},"
            f"{'' if r.delta_used is None else repr(r.delta_used)},"
            f"{r.step_norm!r},{r.ls_backtracks},{r.wall_ns}\r\n"
            for r in self.records)
        _write_utf8(path, "iter,f,grad_norm,delta,step_norm,ls_backtracks,"
                          "wall_ns\r\n" + rows)
        kind, _, detail = self.termination.partition(": ")
        sidecar = {
            "termination": self.termination,
            "iterations": self.iterations,
            "final_x": [float(v) for v in self.final_x],
            "final_f": self.final_f,
            "final_grad_norm": self.final_grad_norm,
            "seed": self.seed,
            "termination_kind": kind,
        }
        if kind == "numerical-error":
            sidecar["error"] = {"class": self.error_class, "detail": detail}
        # no indent: json's C encoder runs only without one
        _write_utf8(path.with_suffix(".json"), json.dumps(sidecar))
        return path


def _write_utf8(path, text):
    """Write ``text`` to ``path`` as UTF-8, replacing what the file held.

    One open, as many writes as the bytes take, and one close, without the
    syscalls and Python that ``Path.write_text``'s text layer adds per
    file.  A new file gets mode 0o666 less the umask, as with ``write_text``.
    """
    view = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _magnitude_range(lam, shift=0.0):
    """min and max of |l + shift| over the eigenvalue list ``lam``.

    On Python floats: l + shift has the bits of numpy's ``lam + shift``,
    without an array per candidate shift.
    """
    mags = [abs(v + shift) for v in lam]
    return min(mags), max(mags)


def select_delta(hessian, grad_norm, sched=None, rng=None, floor=False):
    """Pick the first acceptable shift; return (delta, lam, V).

    H is decomposed once per call, with ``eigh``.  Shifting by delta*h*I
    moves every eigenvalue by delta*h and leaves the eigenvectors alone, so
    each candidate is tested on lambda(H) + delta*h at O(n) cost, and the
    decomposition of A = H + delta*h*I is returned as its eigenvalue list,
    ascending, with H's eigenvectors V, ready for
    ``reflect_inverse_apply``.  l + delta*h on a Python float has the bits
    of numpy's ``eigenvalues + delta*h``.

    The candidates are the schedule's shifts in order, or fresh draws from
    ``rng`` under "random-per-iteration".  With ``floor`` the acceptance
    bar is min |eig| >= min_gap/2 * h (the spacing argument: of any m+1
    distinct shifts at most m can land an eigenvalue inside the band, so
    some shift always clears it); otherwise it is the relative
    EPS_SING_RTOL test.  h(grad_norm) is computed before H is decomposed,
    so a call that fails both ways raises h's error.
    """
    sched = sched or DeltaSchedule()
    hval = sched.h(grad_norm)
    lam, V = eigh(hessian)
    if sched.selection == "random-per-iteration":
        if rng is None:
            rng = np.random.default_rng()
        lo, hi = sched.random_interval
        candidates = (float(rng.uniform(lo, hi))
                      for _ in range(_MAX_RANDOM_DRAWS))
    else:
        candidates = sched.deltas

    tried = []
    for delta in candidates:
        shift = delta * hval
        amin, amax = _magnitude_range(lam, shift)
        if floor:
            ok = amin > 0.0 and amin >= 0.5 * sched.min_gap * hval
        else:
            ok = amin > EPS_SING_RTOL * amax
        if ok:
            return delta, [v + shift for v in lam], V
        tried.append(delta)
    raise NoValidDeltaError(
        f"no shift produced an invertible matrix (tried {tried})")


def _check_invertible(lam, update):
    """Newton's singularity test on the eigenvalue list ``lam``: raises
    SingularMatrixError when min |eig| <= EPS_SING_RTOL * max |eig|."""
    amin, amax = _magnitude_range(lam)
    if amin <= EPS_SING_RTOL * amax:
        raise SingularMatrixError(f"singular Hessian in {update} update")


def _norm(v):
    """Euclidean norm of a real 1-d array: the bits of np.linalg.norm(v).

    np.linalg.norm computes sqrt(v.dot(v)) for this case; calling it costs
    several microseconds of argument handling, this costs one dot.
    """
    return math.sqrt(v @ v)


def _armijo(obj, x, f, d, slope, t):
    """Probe x1 = x - t*d: (x1, f(x1), whether f(x1) - f <= -t/2 * slope).
    f(x1) is NaN, failing that Armijo test, if f raises one of the
    _PROBE_FAILURES there; ``slope`` is <d, grad f(x)>."""
    x1 = x - t * d
    try:
        f1 = obj.value(x1)
    except _PROBE_FAILURES:
        f1 = math.nan
    return x1, f1, f1 - f <= -0.5 * t * slope


# Step contract: step(obj, x, f(x), grad f(x), |grad f(x)|, sched, rng,
# state) returns (x_next, f_next, delta, step_norm, backtracks).  A
# line-search step returns the value of its accepted probe, f(x_next), as
# f_next; the others return None.  run evaluates the gradient at x_next,
# and f too unless the step supplied it on a deterministic objective, so no
# step calls obj.gradient and no point is evaluated twice.

def nqn_step(obj, x, f, g, gn, sched=None, rng=None, state=None):
    """One shifted-reflected-Newton update (see the step contract above)."""
    delta, lam, V = select_delta(obj.hessian(x), gn, sched, rng)
    w = reflect_inverse_apply(lam, V, g)
    return x - w, None, delta, _norm(w), 0


def nqn_backtracking_step(obj, x, f, g, gn, sched=None, rng=None, state=None):
    """Shifted-reflected update with an eigenvalue floor and Armijo halving.

    The floor keeps |A^-1| bounded by 2/(min_gap*h); halving beta until
    the probe x - beta*w passes ``_armijo`` with slope <w, grad f> then
    guarantees descent.  A probe at which f raises (a pole, an overflow)
    fails the test.
    """
    delta, lam, V = select_delta(obj.hessian(x), gn, sched, rng, floor=True)
    w = reflect_inverse_apply(lam, V, g)
    wg = float(w @ g)            # nonnegative by construction
    beta = 1.0
    for halvings in range(_MAX_HALVINGS + 1):
        x1, f1, passed = _armijo(obj, x, f, w, wg, beta)
        if passed:
            return x1, f1, delta, beta * _norm(w), halvings
        beta *= 0.5
    raise StalledLineSearchError(
        f"no Armijo step after {_MAX_HALVINGS} halvings (f={f!r})")


def newton_step(obj, x, f, g, gn, sched=None, rng=None, state=None,
                damped=False):
    """Classical Newton through the same spectral path (signed eigenvalues).

    With ``damped`` the step is scaled by a fresh uniform draw from (0, 2),
    returned as the step's delta.
    """
    lam, V = eigh(obj.hessian(x))
    _check_invertible(lam, "damped Newton" if damped else "Newton")
    w = reflect_inverse_apply(lam, V, g, signed=True)
    damping = None
    if damped:
        damping = float(rng.uniform(0.0, 2.0))
        w = damping * w
    return x - w, None, damping, _norm(w), 0


def backtracking_gd_step(obj, x, f, g, gn, sched=None, rng=None, state=None):
    """Two-way backtracking gradient descent with an unbounded start.

    The learning rate carries over between iterations; each iteration may
    grow it (divide by 0.7 while the Armijo test keeps passing, up to
    max(1, grad_norm^-1/2)) or shrink it (multiply by 0.7 until the test
    passes).  Each probe x - lr*g is ``_armijo``'s with slope |g|^2; a probe
    at which f raises fails it.  Shrinking stops with StalledLineSearchError
    once the step lr*|g| is at most eps*max(1, |x|): relative to |x| when
    |x| > 1, an absolute floor of eps when |x| <= 1.  The step is the last
    passing probe, returned with its value as f_next.
    """
    state = state if state is not None else {}
    gg = gn * gn
    cap = max(1.0, gn ** -0.5) if gn > 0 else 1.0
    lr = min(float(state.get("lr", 1.0)), cap)
    backtracks = 0
    x1, f1, passed = _armijo(obj, x, f, g, gg, lr)
    if passed:
        for _ in range(_GD_MAX_GROWS):
            trial = lr / 0.7
            if trial > cap:
                break
            xt, ft, passed = _armijo(obj, x, f, g, gg, trial)
            if not passed:
                break
            lr, x1, f1 = trial, xt, ft
    else:
        floor = _EPS * max(1.0, _norm(x))
        while not passed:
            lr *= 0.7
            if lr * gn <= floor:
                raise StalledLineSearchError(
                    f"no Armijo learning rate after {backtracks} shrinks")
            backtracks += 1
            x1, f1, passed = _armijo(obj, x, f, g, gg, lr)
    state["lr"] = lr
    return x1, f1, lr, lr * gn, backtracks


METHODS = {
    "nqn": nqn_step,
    "nqn-backtracking": nqn_backtracking_step,
    "newton": newton_step,
    "random-damping-newton": partial(newton_step, damped=True),
    "backtracking-gd": backtracking_gd_step,
}

_USES_DELTAS = ("nqn", "nqn-backtracking")


def _classify(rec, stop):
    """Termination decision for the newest record, or None to continue."""
    f = rec.f
    # NaN exactly when a component of x is NaN: inf components and an
    # overflowing sum of squares give inf
    nx = _norm(rec.x)
    if not math.isfinite(rec.grad_norm) or math.isnan(f) or math.isnan(nx):
        return "numerical-error: non-finite iterate"
    if f > stop.f_divergence_cap or math.isinf(f) or nx > X_DIVERGENCE_CAP:
        return "diverged"
    if rec.grad_norm <= stop.grad_tol:
        return "converged"
    if rec.index > 0 and rec.step_norm <= stop.step_tol:
        return "converged"
    return None


def run(method, obj, x0, sched=None, stop=None, seed=None):
    """Drive one method from x0 until a stopping rule fires; returns a Trace.

    ``obj`` may be a StochasticObjective, in which case update k works on
    the mini-batch drawn for step index k-1 and each record's f/grad_norm
    are evaluated on the batch the *next* step will see.  The gradient is
    evaluated here, once per point, and handed to the next step with f; f
    is evaluated here too unless a line search already has it.
    """
    if method not in METHODS:
        raise InvalidInputError(
            f"unknown method {method!r}; have {sorted(METHODS)}")
    step = METHODS[method]
    sched = sched or DeltaSchedule()
    stop = stop or StopCriteria()
    shifted = method in _USES_DELTAS
    random_shifts = shifted and sched.selection == "random-per-iteration"
    # only a run that draws builds a Generator: it costs more than a 2-d step
    rng = (np.random.default_rng(seed)
           if random_shifts or method == "random-damping-newton" else None)
    state = {}

    stochastic = isinstance(obj, StochasticObjective)
    dim = obj.dim
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.size != dim:
        raise InvalidInputError(f"x0 has size {x.size}, objective dim {dim}")
    if shifted and not random_shifts and len(sched.deltas) < dim + 1:
        warnings.warn(
            f"{len(sched.deltas)} shifts for dimension {dim}: the "
            f"always-invertible guarantee needs dim+1 distinct shifts",
            RuntimeWarning, stacklevel=2)

    cur = sample_batch_objective(obj, 0) if stochastic else obj
    try:
        f = cur.value(x)
        g = cur.gradient(x)
        gn = _norm(g)
    except _STEP_FAILURES as exc:
        raise InvalidInputError(f"objective undefined at x0: {exc}") from exc
    records = [IterationRecord(0, x.copy(), f, gn, None, 0.0, 0, 0)]
    termination = _classify(records[0], stop)
    error_class = None

    k = 0
    while termination is None and k < stop.max_iter:
        k += 1
        t0 = time.perf_counter_ns()
        try:
            x, f, delta, step_norm, backtracks = step(cur, x, f, g, gn,
                                                      sched, rng, state)
            if stochastic:
                cur = sample_batch_objective(obj, k)
            if stochastic or f is None:
                f = cur.value(x)
            g = cur.gradient(x)
            gn = _norm(g)
        except _STEP_FAILURES as exc:
            termination = f"numerical-error: {exc}"
            error_class = type(exc).__name__
            break
        rec = IterationRecord(k, x, f, gn, delta, step_norm, backtracks,
                              time.perf_counter_ns() - t0)
        records.append(rec)
        termination = _classify(rec, stop)
    if termination is None:
        termination = "max-iter"
    return Trace(records=records, termination=termination, seed=seed,
                 error_class=error_class)
