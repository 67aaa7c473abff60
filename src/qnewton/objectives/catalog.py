"""Benchmark objective catalog.

Every entry registers under a stable identifier ``ex01`` … ``ex26``; the
widely known functions also register under their common names (rosenbrock,
griewank, beale, …).  Entries carry the exact constants of their printed
definitions.  Analytic gradients/Hessians are provided wherever the formula
is smooth and closed-form; the genuinely non-C² entries (ex01, ex02, ex09,
ex20, ex22) fall back to central finite differences on purpose — divergence
or cycling on them is expected behavior to reproduce, not a bug to fix.
"""

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, InvalidInputError
from .base import Objective, as_integer
from .protein import protein_objective

_E = math.e
_PI = math.pi


def _exclusion_products(C):
    """Row-wise products of C excluding one column at a time (no division).

    C has shape (..., d); returns the same shape where entry [..., a] is the
    product over all columns except a, computed from prefix/suffix products.
    """
    L = np.ones_like(C)
    R = np.ones_like(C)
    if C.shape[-1] > 1:
        np.cumprod(C[..., :-1], axis=-1, out=L[..., 1:])
        np.cumprod(C[..., :0:-1], axis=-1, out=R[..., -2::-1])
    return L * R


def _pairwise_exclusion_products(C):
    """Products of C excluding two entries at a time (no division).

    C has shape (d,); returns shape (d, d) where entry [a, b], a != b, is the
    product over all entries except a and b.  Row a is C with C[a] set to 1,
    reduced by the prefix/suffix products of ``_exclusion_products``; the
    diagonal [a, a] is therefore the product excluding a alone.
    """
    M = np.tile(C, (C.size, 1))
    np.fill_diagonal(M, 1.0)
    return _exclusion_products(M)


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------

def _scalar(x):
    return float(np.asarray(x, dtype=float).reshape(-1)[0])


def _make_1d(value, grad=None, hess=None, name=""):
    g = None if grad is None else (lambda x: np.array([grad(_scalar(x))]))
    h = None if hess is None else (lambda x: np.array([[hess(_scalar(x))]]))
    return Objective(1, lambda x: value(_scalar(x)), g, h, name=name)


def _abs_power_43(dim):
    return _make_1d(lambda t: abs(t) ** (4.0 / 3.0), name="ex01")


def _abs_power_13(dim):
    return _make_1d(lambda t: abs(t) ** (1.0 / 3.0), name="ex02")


def _exp_inv_square(dim):
    def value(t):
        return math.exp(-1.0 / (t * t)) if t != 0.0 else 0.0

    def grad(t):
        return 2.0 * value(t) / t ** 3 if t != 0.0 else 0.0

    def hess(t):
        return value(t) * (4.0 / t ** 6 - 6.0 / t ** 4) if t != 0.0 else 0.0

    return _make_1d(value, grad, hess, name="ex03")


def _cubic_sin_inv(dim):
    def value(t):
        return t ** 3 * math.sin(1.0 / t) if t != 0.0 else 0.0

    def grad(t):
        if t == 0.0:
            return 0.0
        return 3 * t * t * math.sin(1 / t) - t * math.cos(1 / t)

    def hess(t):
        if t == 0.0:
            return 0.0  # second derivative has no limit at 0
        return (6 * t * math.sin(1 / t) - 4 * math.cos(1 / t)
                - math.sin(1 / t) / t)

    return _make_1d(value, grad, hess, name="ex04")


def _cubic_cos_inv(dim):
    def value(t):
        return t ** 3 * math.cos(1.0 / t) if t != 0.0 else 0.0

    def grad(t):
        if t == 0.0:
            return 0.0
        return 3 * t * t * math.cos(1 / t) + t * math.sin(1 / t)

    def hess(t):
        if t == 0.0:
            return 0.0
        return (6 * t * math.cos(1 / t) + 4 * math.sin(1 / t)
                - math.cos(1 / t) / t)

    return _make_1d(value, grad, hess, name="ex05")


def _exp_sq_minus_cubic(dim):
    return _make_1d(
        lambda t: math.exp(t * t) - 2 * t ** 3,
        lambda t: 2 * t * math.exp(t * t) - 6 * t * t,
        lambda t: (2 + 4 * t * t) * math.exp(t * t) - 12 * t,
        name="ex06")


# Rosenbrock is evaluated on Python floats, one pass over the consecutive
# pairs (a, b) = (x[i], x[i+1]): at small n numpy's per-call cost on
# one-element slices is most of the time.  The gradient and Hessian keep the
# operation order of the numpy array forms (the reference in
# tests/test_objectives.py, which accumulate into zeros), so their bits match
# them for every n; the value sums left to right, which matches numpy's
# pairwise sum for n <= 8 and differs by a few ulps above.

def _rosenbrock_value(x):
    v = x.tolist()
    f = 0.0
    for a, b in zip(v, v[1:]):
        t = a - 1.0
        d = b - a * a
        f += t * t + 100.0 * (d * d)
    return f


def _rosenbrock_grad(x):
    v = x.tolist()
    g = []
    prev = 0.0                      # 200·d of the pair ending at a
    for a, b in zip(v, v[1:]):
        d = b - a * a
        g.append((2.0 * (a - 1.0) - 400.0 * a * d) + prev)
        prev = 200.0 * d
    g.append(0.0 + prev)            # 0.0 + turns -0.0 into 0.0, as zeros do
    return np.array(g)


def _rosenbrock_hess(x):
    v = x.tolist()
    n = len(v)
    diag, off = [], []
    prev = 0.0                      # what the pair ending at a adds at a
    try:
        for a, b in zip(v, v[1:]):
            # a ** 2 is pow(), whose last bit can differ from a * a
            diag.append(prev + (2.0 + 1200.0 * a ** 2 - 400.0 * b))
            off.append(0.0 - 400.0 * a)
            prev = 200.0
    except OverflowError:
        # |a| > 1.3e154: float ** raises where numpy's power gives inf; the
        # Hessian is non-finite either way
        return np.full((n, n), math.inf)
    diag.append(prev)
    H = np.zeros(n * n)
    H[::n + 1] = diag
    H[1::n + 1] = off
    H[n::n + 1] = off
    return H.reshape(n, n)


def _rosenbrock(dim):
    return Objective(dim, _rosenbrock_value, _rosenbrock_grad,
                     _rosenbrock_hess, name=f"rosenbrock-{dim}")


def _bolte_abs(dim):
    def value(x):
        return float(100.0 * (x[1] - abs(x[0])) ** 2 + abs(1.0 - x[0]))

    return Objective(2, value, name="ex09")


def _quartic_cycling(dim):
    return _make_1d(
        lambda t: t ** 4 / 4.0 - t * t + 2.0 * t,
        lambda t: t ** 3 - 2.0 * t + 2.0,
        lambda t: 3.0 * t * t - 2.0,
        name="ex10")


def _cosine_integral_mix(dim):
    def value(x):
        t = _scalar(x)
        if t <= 0.0:
            # Ci(2/t) is real only for t > 0
            raise DomainError("undefined for t <= 0", point=np.asarray(x))
        import mpmath  # optional dependency, only needed for this entry
        return (4.0 / 3.0 * float(mpmath.ci(2.0 / t))
                + t * (t * t - 2.0) * math.sin(2.0 / t) / 3.0
                + t * t / 2.0 + t * t * math.cos(2.0 / t) / 3.0)

    return Objective(1, value, name="ex11")


def _quadratic_2d(k, ident):
    def factory(dim):
        H = np.array([[2.0, k], [k, 2.0]])
        H.setflags(write=False)     # hessian returns it as it is

        def value(x):
            return float(x[0] ** 2 + x[1] ** 2 + k * x[0] * x[1])

        return Objective(2, value, lambda x: H.dot(x), lambda x: H,
                         name=ident)

    return factory


_H15 = np.array([[-23.0, -61.0, 40.0],
                 [-61.0, -39.5, 155.0],
                 [40.0, 155.0, -50.0]])
_H15.setflags(write=False)


def _homogeneous_3d(dim):
    return Objective(
        3,
        lambda x: float((0.5 * x).dot(_H15.dot(x))),
        lambda x: _H15.dot(x),
        lambda x: _H15,
        name="ex15")


def _ackley(dim):
    # Printed with fixed 0.5 coefficients inside both exponentials
    # (independent of dimension); minimum value e - e^(0.5*dim) at the origin.
    def parts(x):
        r = math.sqrt(0.5 * float(x.dot(x)))
        c = float(np.sum(np.cos(2 * _PI * x)))
        return r, c

    def value(x):
        r, c = parts(x)
        return -20.0 * math.exp(-0.2 * r) - math.exp(0.5 * c) + _E + 20.0

    def grad(x):
        r, c = parts(x)
        if r == 0.0:
            return np.zeros_like(x)  # no limit at the origin; see probe note
        t1 = math.exp(-0.2 * r)
        return 2.0 * t1 * x / r + _PI * np.sin(2 * _PI * x) * math.exp(0.5 * c)

    def hess(x):
        r, c = parts(x)
        n = x.size
        if r == 0.0:
            return np.zeros((n, n))
        t1 = math.exp(-0.2 * r)
        xx = np.outer(x, x)
        H = 2.0 * t1 * (-0.1 * xx / r ** 2 + np.eye(n) / r - xx / (2 * r ** 3))
        s = np.sin(2 * _PI * x)
        ec = math.exp(0.5 * c)
        H += _PI * ec * (2 * _PI * np.diag(np.cos(2 * _PI * x))
                         - _PI * np.outer(s, s))
        return H

    return Objective(dim, value, grad, hess, name=f"ackley-{dim}")


def _rastrigin(dim):
    A = 10.0

    def value(x):
        return float(A * x.size + np.sum(x * x - A * np.cos(2 * _PI * x)))

    def grad(x):
        return 2.0 * x + 2 * _PI * A * np.sin(2 * _PI * x)

    def hess(x):
        return np.diag(2.0 + 4 * _PI * _PI * A * np.cos(2 * _PI * x))

    return Objective(dim, value, grad, hess, name=f"rastrigin-{dim}")


def _beale(dim):
    def terms(x, y):
        return (1.5 - x + x * y, 2.25 - x + x * y * y,
                2.625 - x + x * y ** 3)

    def value(v):
        t1, t2, t3 = terms(v[0], v[1])
        return float(t1 * t1 + t2 * t2 + t3 * t3)

    def grad(v):
        x, y = v
        t1, t2, t3 = terms(x, y)
        d = (y - 1.0, y * y - 1.0, y ** 3 - 1.0)      # dt_i/dx
        e = (x, 2.0 * x * y, 3.0 * x * y * y)         # dt_i/dy
        return np.array([2 * (t1 * d[0] + t2 * d[1] + t3 * d[2]),
                         2 * (t1 * e[0] + t2 * e[1] + t3 * e[2])])

    def hess(v):
        x, y = v
        t1, t2, t3 = terms(x, y)
        d = (y - 1.0, y * y - 1.0, y ** 3 - 1.0)
        e = (x, 2.0 * x * y, 3.0 * x * y * y)
        hxx = 2.0 * (d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        hxy = 2.0 * (d[0] * e[0] + t1
                     + d[1] * e[1] + 2.0 * y * t2
                     + d[2] * e[2] + 3.0 * y * y * t3)
        hyy = 2.0 * (e[0] ** 2 + e[1] ** 2 + e[2] ** 2
                     + 2.0 * x * t2 + 6.0 * x * y * t3)
        return np.array([[hxx, hxy], [hxy, hyy]])

    return Objective(2, value, grad, hess, name="beale")


def _bukin6(dim):
    def value(v):
        x, y = v
        return float(100.0 * math.sqrt(abs(y - 0.01 * x * x))
                     + 0.01 * abs(x + 10.0))

    return Objective(2, value, name="bukin6")


def _levi13(dim):
    def value(v):
        x, y = v
        return float(math.sin(3 * _PI * x) ** 2
                     + (x - 1) ** 2 * (1 + math.sin(3 * _PI * y) ** 2)
                     + (y - 1) ** 2 * (1 + math.sin(2 * _PI * y) ** 2))

    def grad(v):
        x, y = v
        return np.array([
            3 * _PI * math.sin(6 * _PI * x)
            + 2 * (x - 1) * (1 + math.sin(3 * _PI * y) ** 2),
            3 * _PI * (x - 1) ** 2 * math.sin(6 * _PI * y)
            + 2 * (y - 1) * (1 + math.sin(2 * _PI * y) ** 2)
            + 2 * _PI * (y - 1) ** 2 * math.sin(4 * _PI * y),
        ])

    def hess(v):
        x, y = v
        hxx = 18 * _PI ** 2 * math.cos(6 * _PI * x) \
            + 2 * (1 + math.sin(3 * _PI * y) ** 2)
        hxy = 6 * _PI * (x - 1) * math.sin(6 * _PI * y)
        hyy = (18 * _PI ** 2 * (x - 1) ** 2 * math.cos(6 * _PI * y)
               + 2 * (1 + math.sin(2 * _PI * y) ** 2)
               + 8 * _PI * (y - 1) * math.sin(4 * _PI * y)
               + 8 * _PI ** 2 * (y - 1) ** 2 * math.cos(4 * _PI * y))
        return np.array([[hxx, hxy], [hxy, hyy]])

    return Objective(2, value, grad, hess, name="levi13")


def _eggholder(dim):
    def value(v):
        x, y = v
        return float(-(y + 47.0) * math.sin(math.sqrt(abs(x / 2.0 + y + 47.0)))
                     - x * math.sin(math.sqrt(abs(x - (y + 47.0)))))

    return Objective(2, value, name="eggholder")


def _mccormick(dim):
    def value(v):
        x, y = v
        return float(math.sin(x + y) + (x - y) ** 2 - 1.5 * x + 2.5 * y + 1.0)

    def grad(v):
        x, y = v
        c = math.cos(x + y)
        return np.array([c + 2 * (x - y) - 1.5, c - 2 * (x - y) + 2.5])

    def hess(v):
        s = -math.sin(v[0] + v[1])
        return np.array([[s + 2.0, s - 2.0], [s - 2.0, s + 2.0]])

    return Objective(2, value, grad, hess, name="mccormick")


def _ratio_objective(Nfuncs, name):
    """Objective of the form 0.5 + N(x, y) / D(x, y)^2, D = 1 + 0.001 (x²+y²).

    ``Nfuncs(x, y)`` returns (N, N_x, N_y, N_xx, N_xy, N_yy).
    """

    def pieces(v):
        x, y = v
        D = 1.0 + 0.001 * (x * x + y * y)
        return (x, y, D) + Nfuncs(x, y)

    def value(v):
        x, y, D, N, *_ = pieces(v)
        return float(0.5 + N / D ** 2)

    def grad(v):
        x, y, D, N, Nx, Ny, *_ = pieces(v)
        Dx, Dy = 0.002 * x, 0.002 * y
        return np.array([Nx / D ** 2 - 2 * N * Dx / D ** 3,
                         Ny / D ** 2 - 2 * N * Dy / D ** 3])

    def hess(v):
        x, y, D, N, Nx, Ny, Nxx, Nxy, Nyy = pieces(v)
        Dx, Dy, Dss = 0.002 * x, 0.002 * y, 0.002
        fxx = Nxx / D ** 2 - (4 * Nx * Dx + 2 * N * Dss) / D ** 3 \
            + 6 * N * Dx * Dx / D ** 4
        fyy = Nyy / D ** 2 - (4 * Ny * Dy + 2 * N * Dss) / D ** 3 \
            + 6 * N * Dy * Dy / D ** 4
        fxy = Nxy / D ** 2 - 2 * (Nx * Dy + Ny * Dx) / D ** 3 \
            + 6 * N * Dx * Dy / D ** 4
        return np.array([[fxx, fxy], [fxy, fyy]])

    return Objective(2, value, grad, hess, name=name)


def _schaffer2(dim):
    def N(x, y):
        u = x * x - y * y
        s2u, c2u = math.sin(2 * u), math.cos(2 * u)
        n = math.sin(u) ** 2 - 0.5
        return (n, 2 * x * s2u, -2 * y * s2u,
                2 * s2u + 8 * x * x * c2u, -8 * x * y * c2u,
                -2 * s2u + 8 * y * y * c2u)

    return _ratio_objective(N, "schaffer2")


def _schaffer4(dim):
    # cos²(sin|u|) equals cos²(sin u): the absolute value inside is
    # neutralized by the even outer functions, so derivatives are global.
    def N(x, y):
        u = x * x - y * y
        su, cu = math.sin(u), math.cos(u)
        n = math.cos(su) ** 2 - 0.5
        Nu = -math.sin(2 * su) * cu
        Nuu = -2 * cu * cu * math.cos(2 * su) + su * math.sin(2 * su)
        return (n, 2 * x * Nu, -2 * y * Nu,
                4 * x * x * Nuu + 2 * Nu, -4 * x * y * Nuu,
                4 * y * y * Nuu - 2 * Nu)

    return _ratio_objective(N, "schaffer4")


def _styblinski(dim):
    def value(x):
        return float(np.sum(x ** 4 - 16.0 * x * x + 5.0 * x) / 2.0)

    def grad(x):
        return 2.0 * x ** 3 - 16.0 * x + 2.5

    def hess(x):
        return np.diag(6.0 * x * x - 16.0)

    return Objective(dim, value, grad, hess, name=f"styblinski-tang-{dim}")


def _griewank(dim):
    idx = np.arange(1, dim + 1, dtype=float)
    rs = np.sqrt(idx)

    def value(x):
        return float(1.0 + float(x.dot(x)) / 4000.0 - np.prod(np.cos(x / rs)))

    def grad(x):
        u = x / rs
        C, S = np.cos(u), np.sin(u)
        return x / 2000.0 + (S / rs) * _exclusion_products(C)

    def hess(x):
        u = x / rs
        C, S = np.cos(u), np.sin(u)
        P = float(np.prod(C))
        T = S / rs
        H = -np.outer(T, T) * _pairwise_exclusion_products(C)
        # [a, b] and [b, a] multiply their n - 2 cosines in different
        # orders: a pair that differs takes 0.5*H[a, b] + 0.5*H[b, a]
        differs = H != H.T
        H[differs] = (0.5 * H + 0.5 * H.T)[differs]
        np.fill_diagonal(H, 1.0 / 2000.0 + P / idx)
        return H

    return Objective(dim, value, grad, hess, name=f"griewank-{dim}")


def _saddle(dim):
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    H.setflags(write=False)
    return Objective(
        2,
        lambda x: float(0.5 * (x[0] ** 2 - x[1] ** 2)),
        lambda x: np.array([x[0], -x[1]]),
        lambda x: H,
        name="saddle")


def _protein(dim, sequence=None):
    if not sequence:
        raise InvalidInputError(
            "protein needs a sequence parameter, e.g. protein:ABBBA")
    return protein_objective(sequence)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    ident: str
    factory: object
    num: int | None = None          # catalog number for exNN entries
    aliases: tuple = ()
    default_dim: int = 1
    fixed_dim: bool = True          # False: any dim >= min_dim
    min_dim: int = 1
    known_min: str = ""
    smooth: bool = False
    default_x0: tuple | None = None
    # coordinate range for random derivative probes / descent starts,
    # chosen to stay clear of kinks and essential singularities
    probe_box: tuple = (-3.0, 3.0)


_REGISTRY: dict[str, CatalogEntry] = {}
_ALIASES: dict[str, str] = {}


def _register(entry):
    _REGISTRY[entry.ident] = entry
    for a in entry.aliases:
        _ALIASES[a] = entry.ident


_register(CatalogEntry("ex01", _abs_power_43, 1, ("abs-power-4-3",),
                       known_min="0 at 0", default_x0=(1.0,)))
_register(CatalogEntry("ex02", _abs_power_13, 2, ("abs-power-1-3",),
                       known_min="0 at 0", default_x0=(1.0,)))
_register(CatalogEntry("ex03", _exp_inv_square, 3, ("exp-inv-square",),
                       known_min="0 at 0", smooth=True, default_x0=(3.0,),
                       probe_box=(0.3, 3.0)))
_register(CatalogEntry("ex04", _cubic_sin_inv, 4, ("cubic-sin-inv",),
                       known_min="", default_x0=(0.75134554,),
                       probe_box=(0.3, 3.0)))
_register(CatalogEntry("ex05", _cubic_cos_inv, 5, ("cubic-cos-inv",),
                       known_min="", default_x0=(0.75134554,),
                       probe_box=(0.3, 3.0)))
_register(CatalogEntry("ex06", _exp_sq_minus_cubic, 6, ("exp-sq-minus-cubic",),
                       known_min="", smooth=True, default_x0=(0.6,),
                       probe_box=(-1.5, 1.5)))
_register(CatalogEntry("ex07", _rosenbrock, 7, (), default_dim=2, min_dim=2,
                       known_min="0 at (1,1)",
                       smooth=True, default_x0=(0.55134554, 0.75134554)))
_register(CatalogEntry("ex08", _rosenbrock, 8, (), default_dim=4, min_dim=4,
                       known_min="0 at (1,1,1,1)", smooth=True,
                       default_x0=(-0.7020, 0.5342, -2.0101, 2.002)))
_register(CatalogEntry("ex09", _bolte_abs, 9, ("abs-valley",), default_dim=2,
                       known_min="0 at (1,1)",
                       default_x0=(-0.99998925, 2.00001188)))
_register(CatalogEntry("ex10", _quartic_cycling, 10, ("quartic-cycling",),
                       known_min="", smooth=True, default_x0=(0.0,)))
_register(CatalogEntry("ex11", _cosine_integral_mix, 11,
                       ("cosine-integral-mix",), known_min="",
                       default_x0=(1.00001188,), probe_box=(0.3, 3.0)))
_register(CatalogEntry("ex12", _quadratic_2d(4.0, "ex12"), 12,
                       ("quadratic-saddle-4xy",), default_dim=2,
                       known_min="saddle at origin", smooth=True,
                       default_x0=(1.0, 2.0)))
_register(CatalogEntry("ex13", _quadratic_2d(1.0, "ex13"), 13,
                       ("quadratic-xy",), default_dim=2,
                       known_min="0 at origin", smooth=True,
                       default_x0=(0.55134554, 0.75134554)))
_register(CatalogEntry("ex14", _quadratic_2d(2.0, "ex14"), 14,
                       ("quadratic-2xy",), default_dim=2,
                       known_min="0 on the line x+y=0", smooth=True,
                       default_x0=(0.55134554, 0.75134554)))
_register(CatalogEntry("ex15", _homogeneous_3d, 15, ("homogeneous-3d",),
                       default_dim=3, known_min="degenerate saddles only",
                       smooth=True,
                       default_x0=(0.00001188, 0.00002188, 0.00003188)))
_register(CatalogEntry("ex16", _ackley, 16, ("ackley",), default_dim=3,
                       fixed_dim=False,
                       known_min="e - e^(dim/2) at origin",
                       default_x0=(-2.94501548, -1.81794532, -2.44883475),
                       probe_box=(0.5, 3.0)))
_register(CatalogEntry("ex17", _rastrigin, 17, ("rastrigin",), default_dim=4,
                       fixed_dim=False, known_min="0 at origin", smooth=True,
                       default_x0=(-4.66266579, -2.69585675, -3.08589085,
                                   -2.25482451)))
_register(CatalogEntry("ex18", _rosenbrock, 18, ("rosenbrock",),
                       default_dim=7, fixed_dim=False, min_dim=2,
                       known_min="0 at (1,…,1)", smooth=True,
                       default_x0=(-2.95108579, -0.76552935, 1.83618076,
                                   -0.6336922, 1.33774087, -0.93499206,
                                   3.51430143)))
_register(CatalogEntry("ex19", _beale, 19, ("beale",), default_dim=2,
                       known_min="0 at (3, 0.5)", smooth=True,
                       default_x0=(-0.52012358, -1.28227229)))
_register(CatalogEntry("ex20", _bukin6, 20, ("bukin6",), default_dim=2,
                       known_min="0 at (-10, 1)",
                       default_x0=(4.38848192, -3.47943683)))
_register(CatalogEntry("ex21", _levi13, 21, ("levi13",), default_dim=2,
                       known_min="0 at (1, 1)", smooth=True,
                       default_x0=(-3.52914182, 1.36683019)))
_register(CatalogEntry("ex22", _eggholder, 22, ("eggholder",), default_dim=2,
                       known_min="-959.6407 at (512, 404.2319)",
                       default_x0=(224.63208339, -188.85104265)))
_register(CatalogEntry("ex23", _mccormick, 23, ("mccormick",), default_dim=2,
                       known_min="-1.9133 at (-0.54719, -1.54719)",
                       smooth=True, default_x0=(-2.28637302, 1.52532269)))
_register(CatalogEntry("ex24", _schaffer2, 24, ("schaffer2",), default_dim=2,
                       known_min="0 at origin", smooth=True,
                       default_x0=(-57.32135254, -17.85920667)))
_register(CatalogEntry("ex25", _schaffer4, 25, ("schaffer4",), default_dim=2,
                       known_min="0.292579 at (0, ±1.25313)", smooth=True,
                       default_x0=(86.64664502, 23.63197178)))
_register(CatalogEntry("ex26", _styblinski, 26, ("styblinski-tang",),
                       default_dim=2, fixed_dim=False,
                       known_min="about -39.166165 per coordinate at "
                                 "x_i = -2.903534",
                       smooth=True, default_x0=(1.02183524, 0.13979978)))
_register(CatalogEntry("griewank", _griewank, None, (), default_dim=2,
                       fixed_dim=False, known_min="0 at origin", smooth=True,
                       default_x0=(10.0, 10.0)))
_register(CatalogEntry("saddle", _saddle, None, ("quadratic-saddle",),
                       default_dim=2, known_min="saddle at origin",
                       smooth=True, default_x0=(1.0, 1.0)))
_register(CatalogEntry("protein", _protein, None, (), default_dim=1,
                       fixed_dim=False,
                       known_min="sequence-dependent; see pair couplings"))


def _normalize(name):
    return str(name).strip().lower().replace("_", "-")


def resolve_entry(name):
    """Return (CatalogEntry, params) for a catalog name.

    ``protein:SEQ`` attaches the sequence as a parameter.
    """
    key = _normalize(name)
    params = {}
    if key.startswith("protein:"):
        params["sequence"] = key.split(":", 1)[1].upper()
        key = "protein"
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise InvalidInputError(f"unknown objective {name!r}")
    return _REGISTRY[key], params


def make_benchmark(name, dim=None, params=None):
    """Build a catalog Objective by identifier or alias.

    A ``dim`` below the entry's minimum is rejected.  Fixed entries are
    built at their registered dimension and parametric ones at ``dim``
    (default: the registered one); a ``dim`` the built objective does not
    have is rejected, so a protein chain's dim follows from its sequence.
    ``params`` are the entry's keyword arguments: protein's ``sequence`` is
    the only one, and any other key, ``dim`` included, is rejected.
    """
    entry, extra = resolve_entry(name)
    params = {**extra, **(params or {})}
    if dim is not None:
        dim = as_integer(dim, "dim")
        if dim < entry.min_dim:
            raise InvalidInputError(
                f"{name} needs dim >= {entry.min_dim}, got {dim}")
    size = entry.default_dim if dim is None or entry.fixed_dim else dim
    try:
        if params:          # only params can fail to bind
            inspect.signature(entry.factory).bind(size, **params)
    except TypeError as exc:
        raise InvalidInputError(f"{name}: {exc}") from None
    obj = entry.factory(size, **params)
    if dim is not None and obj.dim != dim:
        raise InvalidInputError(f"{name} has dim {obj.dim}, got {dim}")
    return obj


def catalog_entries():
    """All registered entries in registration order."""
    return list(_REGISTRY.values())


def default_start(name):
    """The registered initial point for an entry, or None."""
    entry, _ = resolve_entry(name)
    if entry.default_x0 is None:
        return None
    return np.array(entry.default_x0, dtype=float)


def catalog_listing():
    """Structured text listing: identifier, aliases, dims, known minimum, num."""
    rows = [("identifier", "aliases", "dims", "global-min", "num")]
    for e in catalog_entries():
        dims = str(e.default_dim) if e.fixed_dim else f"any>={e.min_dim}"
        rows.append((e.ident, ",".join(e.aliases) or "-", dims,
                     e.known_min or "-", str(e.num) if e.num else "-"))
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)
