"""Symmetric eigendecomposition and spectral-reflection arithmetic.

Two functions carry every size: ``eigh`` decomposes a matrix and
``reflect_inverse_apply`` applies the reflected inverse.  They are the only
two places that tell n = 2 apart, and both run it on Python floats, which
skips numpy's per-call overhead on 2-element arrays.

``eigh`` checks its input and returns the eigenvalues, ascending, as
a list of Python floats.  A 2x2 matrix is decomposed in closed form by one
Jacobi rotation, the symmetric Schur decomposition (Golub & Van Loan,
*Matrix Computations*, 4th ed., Alg. 8.5.1); a matrix with entries near
overflow or in the subnormal range is scaled by a power of two first, so it
keeps its accuracy.  Its eigenvalues are within 8*eps*max|A| of LAPACK's
(plus the spacing of the subnormal grid), and its eigenvectors, nested
lists of columns, are orthonormal to 8*eps.  Every other size goes through
LAPACK's divide-and-conquer ``syevd`` as numpy's ``np.linalg.eigh`` calls it
and keeps LAPACK's eigenvector array.  No size promises an eigenvector's
sign, and no result reads one: ``reflect_inverse_apply`` uses each e_i twice
and negation is exact, so flipping a column leaves its output unchanged bit
for bit.  For identical input and a fixed BLAS thread count the output is
deterministic bit for bit, so runs replay exactly.

``reflect_inverse_apply`` implements the core update arithmetic: given the
eigenvalues and eigenvectors of an invertible symmetric A and a vector
g, it returns

    w = sum_i (<e_i, g> / |lambda_i|) e_i

i.e. |A|^-1 g, the inverse applied after reflecting negative eigenvalues to
positive.  Equivalently w = pr+(A^-1 g) - pr-(A^-1 g).  With
``signed=True`` it divides by lambda_i itself, which is the Newton step
A^-1 g.  With two eigenvalues it computes c_j = (E_0j g_0 + E_1j g_1) /
|lambda_j| and w = E c on floats, which agrees with the array form
E (E^T g / |lambda|) of every other size to within the rounding of
those sums.  A shift of A by s*I moves every eigenvalue by s and keeps the
eigenvectors, and l + s on a Python float rounds as numpy's
``eigenvalues + s`` does, so a shifted matrix is applied from the list
``[l + s for l in lam]``.
"""

import math

import numpy as np

from .errors import InvalidInputError, NoConvergenceError, SingularMatrixError


# With max|A| in this range the 2x2 rotation runs on the entries as they
# are: nothing can overflow, and anything that underflows is far below
# eps * max|A|.  Outside it the matrix is scaled first.
_SAFE_MIN, _SAFE_MAX = 2.0 ** -500, 2.0 ** 500

_NON_FINITE = "matrix has non-finite entries"
_ASYMMETRIC = "matrix is not exactly symmetric"
_ZERO_EIGENVALUE = "matrix has a zero eigenvalue"


def _diagonal2(a, d):
    if a <= d:
        return [a, d], [[1.0, 0.0], [0.0, 1.0]]
    return [d, a], [[0.0, 1.0], [1.0, 0.0]]


def _rotate2(a, b, d):
    """One Jacobi rotation for [[a, b], [b, d]] with b != 0."""
    # The rotation [[c, s], [-s, c]] zeroes the off-diagonal; t = s/c is
    # the root of t^2 + 2*tau*t - 1 = 0 of smaller magnitude.
    tau = (d - a) / (2.0 * b)
    if tau >= 0.0:
        t = 1.0 / (tau + math.hypot(1.0, tau))
    else:
        t = -1.0 / (math.hypot(1.0, tau) - tau)
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    l1, l2 = a - t * b, d + t * b
    if l2 < l1:
        return [l2, l1], [[s, c], [c, -s]]
    return [l1, l2], [[c, s], [-s, c]]


def _schur2(a, b, d):
    """Eigenpairs of [[a, b], [b, d]]: the symmetric Schur decomposition.

    Returns ([l1, l2], [[v1x, v2x], [v1y, v2y]]) with l1 <= l2.
    Off-diagonal 0 gives the diagonal and the identity.  Entries outside
    the safe range are first scaled by a power of two, which is exact for
    normal floats, so that d - a and 2b cannot overflow and subnormal
    entries keep their precision.
    """
    if b == 0.0:
        return _diagonal2(a, d)
    m = max(abs(a), abs(b), abs(d))
    if _SAFE_MIN <= m <= _SAFE_MAX:
        return _rotate2(a, b, d)
    e = math.frexp(m)[1]
    bs = math.ldexp(b, -e)
    if bs == 0.0:      # under 2**-1074 of the largest entry
        return _diagonal2(a, d)
    (l1, l2), V = _rotate2(math.ldexp(a, -e), bs, math.ldexp(d, -e))
    # scale back in two steps, since 2.0**e alone overflows at e = 1024;
    # an eigenvalue that overflows becomes +-inf
    h = e // 2
    up1, up2 = 2.0 ** h, 2.0 ** (e - h)
    return [l1 * up1 * up2, l2 * up1 * up2], V


def eigh(A):
    """Checked eigendecomposition of a symmetric matrix, as (lam, V).

    This is the one validity check on a step's Hessian: ``Objective.hessian``
    only evaluates, and every step decomposes what it returns here, so a
    non-finite or asymmetric Hessian ends the run "numerical-error" with
    the message of the InvalidInputError raised here.

    Parameters
    ----------
    A : (n, n) array_like
        Exactly symmetric with finite entries.  Symmetrize first
        (e.g. ``(A + A.T) / 2``) if your construction does not guarantee it.

    Returns
    -------
    lam : list of float
        The eigenvalues, ascending.  One beyond the float range is +-inf.
    V : nested lists or (n, n) ndarray
        The eigenvectors as columns: ``[[v1x, v2x], [v1y, v2y]]`` from the
        closed form at n = 2, LAPACK's array otherwise.

    Raises
    ------
    InvalidInputError
        Non-finite entries, non-square or asymmetric input.
    NoConvergenceError
        LAPACK reported that the decomposition did not converge.
    """
    A = np.asarray(A, dtype=float)
    if A.shape == (2, 2):
        (a, b), (c, d) = A.tolist()
        if not (math.isfinite(a) and math.isfinite(b)
                and math.isfinite(c) and math.isfinite(d)):
            raise InvalidInputError(_NON_FINITE)
        if b != c:
            raise InvalidInputError(_ASYMMETRIC)
        return _schur2(a, b, d)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError(_NON_FINITE)
    if not (A == A.T).all():
        raise InvalidInputError(_ASYMMETRIC)
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return lam.tolist(), V


def reflect_inverse_apply(lam, V, g, signed=False):
    """Apply |A|^-1 to g from the eigendecomposition of A (A^-1 if
    ``signed``).

    ``lam`` is the eigenvalue list and ``V`` the eigenvectors, as ``eigh``
    returns them or as an array; g is a float array.
    Returns w with <w, g> >= 0 and ||w|| = ||A^-1 g||: positive-eigenvalue
    components of A^-1 g are kept, negative-eigenvalue components have
    their sign flipped.  With ``signed=True`` nothing is flipped:
    w = A^-1 g.

    Raises
    ------
    SingularMatrixError
        If any eigenvalue is exactly zero (the caller's delta selection is
        responsible for never letting that happen).
    """
    if 0.0 in lam:
        raise SingularMatrixError(_ZERO_EIGENVALUE)
    if len(lam) == 2:
        l0, l1 = lam if signed else (abs(lam[0]), abs(lam[1]))
        (e00, e01), (e10, e11) = V
        g0, g1 = g.tolist()
        c0 = (e00 * g0 + e10 * g1) / l0
        c1 = (e01 * g0 + e11 * g1) / l1
        return np.array([e00 * c0 + e01 * c1, e10 * c0 + e11 * c1])
    lam = np.array(lam)
    return V.dot(V.T.dot(g) / (lam if signed else np.abs(lam)))
