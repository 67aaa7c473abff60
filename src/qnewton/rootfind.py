"""Root finding for univariate meromorphic functions via minimization.

A complex function g becomes the real objective f(x, y) = |g(x+iy)|^2.  The
Cauchy-Riemann identities collapse f's gradient and Hessian to three complex
quantities (conj(g)*g', |g'|^2, conj(g)*g''), so exact derivatives come for
free once g' and g'' are supplied.  Minimizing f with the shifted-reflected
Newton update walks to f = 0 — a root of g — and ``classify_critical_point``
labels the terminal point from the run's cached (g, g', g''): roots of
f=|g|^2 keep f=0, while other critical points are saddles of f whenever
g*g'' is nonzero there, which is what lets the method escape them.
"""

import cmath
import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError, InvalidInputError
from .objectives.base import Objective
from .optimizers import Trace, run

ROOT_TOL = 1e-8
POLE_GUARD = 1e50


@dataclass(frozen=True)
class MeroFunction:
    """g with its first two complex derivatives and a near-pole threshold.

    ``eval_all(z)`` returns (g, g', g'') at z; ``mero_objective`` calls it
    once per point, so a hand-built MeroFunction has each of its three
    callables called once per point, line-search probes included.  The
    builders below evaluate the three together, from one triple.
    """

    g: object
    g1: object
    g2: object
    pole_guard: float = POLE_GUARD
    name: str = ""

    def eval_all(self, z):
        return complex(self.g(z)), complex(self.g1(z)), complex(self.g2(z))


@dataclass(frozen=True)
class _TripleMero(MeroFunction):
    """A builder's MeroFunction: ``triple(z)`` returns (g, g', g'') as
    complex numbers, and ``eval_all`` is that one call."""

    triple: object = None

    def eval_all(self, z):
        return self.triple(z)


@dataclass
class RootResult:
    z: complex
    f_value: float
    classification: str        # root-of-g | saddle-of-f | degenerate | diverged
    trace: Trace

    def to_json(self):
        return json.dumps({
            "z": [self.z.real, self.z.imag],
            "f": self.f_value,
            "classification": self.classification,
            "iterations": self.trace.iterations,
            "termination": self.trace.termination,
        }, indent=2)


def _check_pole(m, z, val):
    if not (cmath.isfinite(val) and abs(val) < m.pole_guard):
        raise DomainError(f"near a pole of g at z={z}",
                          point=np.array([z.real, z.imag]))


def mero_objective(m):
    """The dim-2 Objective f(x, y) = |g(x+iy)|^2 with exact derivatives.

    With w = conj(g)*g': grad f = (2 Re w, -2 Im w).  With s = |g'|^2 and
    t = conj(g)*g'': Hess f = [[2(s + Re t), -2 Im t], [-2 Im t, 2(s - Re t)]].
    Both follow from u_y = -v_x, v_y = u_x applied to f = u^2 + v^2.

    The last two points' (g, g', g'') are kept, keyed by the bytes of x,
    so the value, gradient and Hessian at one point call ``m.eval_all``
    and check for a pole once.  Two, because a line search that rejects
    its last probe steps to the probe before it: backtracking-gd's growth
    stops at the first rejected learning rate.  A point at which either
    raises keeps nothing.
    """
    return _mero_parts(m)[0]


def _mero_parts(m):
    """(mero_objective(m), at): at(x) is the cached (g, g', g'') at x."""
    cache = {}          # bytes of x -> triple, the latest used last

    def at(x):
        k = x.tobytes()
        vals = cache.pop(k, None)
        if vals is None:
            z = complex(x[0], x[1])
            vals = m.eval_all(z)
            _check_pole(m, z, vals[0])
            if len(cache) == 2:
                del cache[next(iter(cache))]
        cache[k] = vals
        return vals

    def value(x):
        gv = at(x)[0]
        return float(gv.real ** 2 + gv.imag ** 2)

    def grad(x):
        gv, g1, _ = at(x)
        w = gv.conjugate() * g1
        return np.array([2.0 * w.real, -2.0 * w.imag])

    def hess(x):
        gv, g1, g2 = at(x)
        s = g1.real ** 2 + g1.imag ** 2
        t = gv.conjugate() * g2
        return np.array([[2.0 * (s + t.real), -2.0 * t.imag],
                         [-2.0 * t.imag, 2.0 * (s - t.real)]])

    return Objective(2, value, grad, hess,
                     name=m.name or "mero-squared-modulus"), at


def classify_critical_point(m, z):
    """Label a (near-)critical point of f = |g|^2.

    |g| <= ROOT_TOL: a root of g.  Otherwise a zero of g' with g*g'' != 0
    is a saddle of f (the Hessian there has determinant -|g*g''|^2 < 0);
    anything else is reported degenerate rather than guessed.
    """
    gv, g1, g2 = m.eval_all(complex(z))
    if abs(gv) <= ROOT_TOL:
        return "root-of-g"
    if abs(g1) <= ROOT_TOL and abs(gv * g2) > ROOT_TOL:
        return "saddle-of-f"
    return "degenerate"


def find_root(m, z0, method="nqn", sched=None, stop=None, seed=None):
    """Minimize |g|^2 from z0 with the chosen method and classify the end."""
    z0 = complex(z0)
    obj, at = _mero_parts(m)
    trace = run(method, obj, np.array([z0.real, z0.imag]),
                sched=sched, stop=stop, seed=seed)
    zf = complex(trace.final_x[0], trace.final_x[1])
    if trace.termination == "diverged":
        classification = "diverged"
    else:       # the cache holds the end point unless a probe came last
        end = _TripleMero(m.g, m.g1, m.g2, triple=lambda z: at(trace.final_x))
        classification = classify_critical_point(end, zf)
    return RootResult(z=zf, f_value=trace.final_f,
                      classification=classification, trace=trace)


# --------------------------------------------------------------------------
# evaluators
# --------------------------------------------------------------------------

def _from_triple(triple, name):
    """The MeroFunction of ``triple``: ``eval_all`` calls it once, and g,
    g' and g'' each call it and take their part."""
    return _TripleMero(g=lambda z: triple(z)[0],
                       g1=lambda z: triple(z)[1],
                       g2=lambda z: triple(z)[2],
                       name=name, triple=triple)


def poly_mero(coeffs, name=""):
    """Polynomial from coefficients, highest degree first (Horner triple)."""
    coeffs = [complex(c) for c in coeffs]
    if not coeffs:
        raise InvalidInputError("empty coefficient list")

    def triple(z):
        b = 0j  # value
        d = 0j  # first derivative
        e = 0j  # half the second derivative
        for c in coeffs:
            e = e * z + d
            d = d * z + b
            b = b * z + c
        return b, d, 2.0 * e

    return _from_triple(triple, name or "poly")


def poly_from_roots(root_mults, name=""):
    """Polynomial in factored form: product of (z - r)^k pairs.

    Evaluating factor-by-factor (Leibniz for the derivative triple) stays
    accurate near a high-multiplicity root, where the expanded-coefficient
    form loses everything to cancellation.
    """
    root_mults = [(complex(r), int(k)) for r, k in root_mults]

    def triple(z):
        v, d1, d2 = 1.0 + 0j, 0j, 0j
        for r, k in root_mults:
            w = z - r
            u = w ** k
            u1 = k * w ** (k - 1)
            u2 = k * (k - 1) * w ** (k - 2) if k > 1 else 0j
            v, d1, d2 = (v * u,
                         v * u1 + d1 * u,
                         v * u2 + 2.0 * d1 * u1 + d2 * u)
        return v, d1, d2

    return _from_triple(triple, name or "poly-factored")


def zeta_partial(n_terms, name=""):
    """Partial sum of the zeta series: g(z) = sum_{n=1}^{N} n^(-z)."""
    if n_terms < 1:
        raise InvalidInputError("need at least one term")
    lns = np.log(np.arange(1, n_terms + 1, dtype=float))

    def triple(z):
        e = np.exp(-lns * z)
        return (complex(np.sum(e)),
                complex(np.sum(-lns * e)),
                complex(np.sum(lns * lns * e)))

    return _from_triple(triple, name or f"zeta-partial-{n_terms}")


def exp_rational_derivative(p_coeffs, q_coeffs, name=""):
    """g = (p/q)' for polynomials p, q in exp(-z), with g' and g'' baked.

    With N = p'q - pq':  g = N/q^2,  g' = (N'q - 2Nq')/q^3  and, setting
    M = N'q - 2Nq',  g'' = (M'q - 3Mq')/q^4 where M' = N''q - N'q' - 2Nq''.
    N' = p''q - pq'' and N'' = p'''q + p''q' - p'q'' - pq''' close the set,
    so four derivatives of p and q suffice.
    """
    kp = np.arange(len(p_coeffs), dtype=float)
    cp = np.asarray(p_coeffs, dtype=float)
    kq = np.arange(len(q_coeffs), dtype=float)
    cq = np.asarray(q_coeffs, dtype=float)

    def derivs(ks, cs, z, upto):
        e = np.exp(-ks * z)
        return [complex(np.sum(((-ks) ** j) * cs * e)) for j in range(upto + 1)]

    def triple(z):
        p0, p1, p2, p3 = derivs(kp, cp, z, 3)
        q0, q1, q2, q3 = derivs(kq, cq, z, 3)
        if q0 == 0:
            raise ZeroDivisionError(f"q(z) = 0 at z={z}")
        N = p1 * q0 - p0 * q1
        N1 = p2 * q0 - p0 * q2
        N2 = p3 * q0 + p2 * q1 - p1 * q2 - p0 * q3
        M = N1 * q0 - 2.0 * N * q1
        M1 = N2 * q0 - N1 * q1 - 2.0 * N * q2
        return (N / q0 ** 2,
                M / q0 ** 3,
                (M1 * q0 - 3.0 * M * q1) / q0 ** 4)

    return _from_triple(triple, name or "exp-rational-derivative")


# The printed z^18 in the degree-8 slot of this coefficient list is a typo:
# the exponents otherwise descend 16..0, so the term is taken as z^8.
G1_COEFFS = (1250162561, 385455882, 845947696, 240775148, 247926664,
             64249356, 41018752, 9490840, 4178260, 837860, 267232, 44184,
             10416, 1288, 242, 16, 2)

G3_P = (1.0, -1.005, 0.525, -0.475, -0.045)
G3_Q = (0.0, 2.27, -2.19, 1.86, -0.38)

G4_ROOTS = ((0.0, 1), (1.0, 2), (2.0, 3), (5.0, 5))


BUILTINS = {
    "g1": partial(poly_mero, G1_COEFFS, name="g1"),
    "g2": partial(poly_mero, (1.0, 0.0, 1.0), name="g2"),
    "g3": partial(exp_rational_derivative, G3_P, G3_Q, name="g3"),
    # factored evaluation: expanded coefficients lose ~1e-13 of relative
    # accuracy near the multiplicity-5 root at z=5
    "g4": partial(poly_from_roots, G4_ROOTS, name="g4"),
    "g5": partial(zeta_partial, 101, name="g5"),
    "g6": partial(zeta_partial, 1001, name="g6"),
}


def builtin(name):
    """The named test function: ``BUILTINS[name]()``, case-insensitive."""
    key = str(name).strip().lower()
    if key not in BUILTINS:
        raise InvalidInputError(
            f"unknown builtin {name!r}; have {sorted(BUILTINS)}")
    return BUILTINS[key]()


def parse_poly_coeffs(text):
    """Comma-separated coefficients, highest degree first; `a+bi` allowed."""
    out = []
    for tok in str(text).split(","):
        tok = tok.strip().replace(" ", "")
        if not tok:
            raise InvalidInputError("empty coefficient")
        try:
            out.append(complex(tok.replace("i", "j")))
        except ValueError as exc:
            raise InvalidInputError(f"bad coefficient {tok!r}") from exc
    return out
