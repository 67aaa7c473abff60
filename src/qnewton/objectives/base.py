"""Objective contract and central finite differences."""

import numpy as np

from ..errors import DomainError, InvalidInputError

FD_GRAD_STEP = 1e-5
FD_HESS_STEP = 1e-4


def as_integer(value, what):
    """``value`` as an int; InvalidInputError unless it has an integer type.

    A bool is rejected although Python counts it as an int: ``True`` is
    not a dimension or a count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _eval_finite(f, x):
    v = f(x)
    if not np.isfinite(v):
        raise DomainError(f"objective non-finite at {x!r}", point=np.array(x))
    return float(v)


def fd_gradient(f, x):
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / 2h.

    h is FD_GRAD_STEP.  Raises DomainError (carrying the offending point)
    if f evaluates non-finite anywhere on the stencil.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_GRAD_STEP
        g[i] = (_eval_finite(f, x + e) - _eval_finite(f, x - e)) \
            / (2.0 * FD_GRAD_STEP)
    return g


def fd_hessian(f, x):
    """Second-order central-difference Hessian with step FD_HESS_STEP.

    Each off-diagonal pair is computed once and written to both triangles,
    so the result is exactly symmetric.  Raises DomainError (carrying the
    offending point) if f evaluates non-finite anywhere on the stencil.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = FD_HESS_STEP
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = FD_HESS_STEP
            v = (_eval_finite(f, x + ei + ej) - _eval_finite(f, x + ei - ej)
                 - _eval_finite(f, x - ei + ej) + _eval_finite(f, x - ei - ej))
            H[i, j] = H[j, i] = v / (4.0 * FD_HESS_STEP * FD_HESS_STEP)
    return H


class Objective:
    """Value/gradient/Hessian provider.

    ``value``, ``gradient``, ``hessian`` are callables on a point (1-d array
    of length ``dim``).  When analytic derivatives are not supplied they fall
    back to central finite differences of ``value``; the ``analytic_gradient``
    / ``analytic_hessian`` flags record which is which.

    ``hessian`` only evaluates: it returns the provider's array as a float
    array (possibly the provider's own object, so a constant Hessian should
    be read-only) or the finite-difference Hessian, and checks nothing.  A
    step decomposes it with ``spectral.eigh``, the one check that it is
    finite and exactly symmetric; a provider whose formula rounds the two
    triangles differently symmetrizes its own product.
    """

    def __init__(self, dim, value, gradient=None, hessian=None, name=""):
        self.dim = as_integer(dim, "dim")
        if self.dim < 1:
            raise InvalidInputError("dim must be >= 1")
        self._value = value
        self.analytic_gradient = gradient is not None
        self.analytic_hessian = hessian is not None
        self._gradient = gradient
        self._hessian = hessian
        self.name = name

    def value(self, x):
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return fd_gradient(self._value, x)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        if self._hessian is not None:
            return np.asarray(self._hessian(x), dtype=float)
        return fd_hessian(self._value, x)

    def __repr__(self):
        kind = "analytic" if self.analytic_hessian else "fd"
        return f"Objective({self.name or '<anon>'}, dim={self.dim}, {kind})"
