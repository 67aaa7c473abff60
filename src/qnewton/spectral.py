"""Symmetric eigendecomposition and spectral-reflection arithmetic.

A 2x2 matrix is decomposed in closed form by one Jacobi rotation, the
symmetric Schur decomposition (Golub & Van Loan, *Matrix Computations*,
4th ed., Alg. 8.5.1), on Python floats; a matrix with entries near
overflow or in the subnormal range is scaled by a power of two first, so
it keeps its accuracy.  Its eigenvalues are within 8*eps*max|A| of
LAPACK's (plus the spacing of the subnormal grid), and its eigenvectors
are orthonormal to 8*eps, each with its largest-magnitude component
nonnegative (the first one on a tie).  Every other size goes through
LAPACK's divide-and-conquer ``syevd`` as numpy's ``np.linalg.eigh`` calls
it and keeps LAPACK's signs.  No result reads a sign: the one reader of
eigenvectors, ``reflect_inverse_apply``, uses each e_i twice and negation
is exact, so flipping a column leaves its output unchanged bit for bit.
Eigenvalues are ascending, and for identical input and a fixed BLAS
thread count the output is deterministic bit for bit, so runs replay
exactly.

``reflect_inverse_apply`` implements the core update arithmetic: given the
eigenpairs of an invertible symmetric A and a vector g, it returns

    w = sum_i (<e_i, g> / |lambda_i|) e_i

i.e. |A|^-1 g, the inverse applied after reflecting negative eigenvalues to
positive.  Equivalently w = pr+(A^-1 g) - pr-(A^-1 g).  With
``signed=True`` it divides by lambda_i itself, which is the Newton step
A^-1 g.  With two eigenpairs it also runs on Python floats, as
c_j = (E_0j g_0 + E_1j g_1) / |lambda_j| and w = E c, which skips numpy's
per-call overhead on 2-element arrays; its result agrees with the array
form E @ ((E.T @ g) / |lambda|) to within the rounding of those sums.
Every other size uses the array form.

The 2x2 pieces have one home each, on Python floats: ``eigh_2x2`` (the
checks and the closed form) and ``reflect_apply_2x2`` (the apply).
``eigh`` and ``reflect_inverse_apply`` wrap them at n = 2, with the same
signatures and outputs as at every other size; the Newton-type steps of
``optimizers`` call them directly on a 2-d problem, so no decomposition
arrays are built between them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NoConvergenceError, SingularMatrixError


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors.

    ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


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
    # |t| <= 1, so |s| <= c: c is the largest component of both columns,
    # except on the tie s = -c, where the first component of (s, c) wins
    # and the column is negated.
    v1, v2 = (c, -s), ((-s, -c) if s == -c else (s, c))
    if l2 < l1:
        l1, l2, v1, v2 = l2, l1, v2, v1
    return [l1, l2], [[v1[0], v2[0]], [v1[1], v2[1]]]


def _schur2(a, b, d):
    """Eigenpairs of [[a, b], [b, d]]: the symmetric Schur decomposition.

    Returns ([l1, l2], [[v1x, v2x], [v1y, v2y]]) with l1 <= l2 and the sign
    convention applied.  Off-diagonal 0 gives the diagonal and the
    identity.  Entries outside the safe range are first scaled by a power
    of two, which is exact for normal floats, so that d - a and 2b cannot
    overflow and subnormal entries keep their precision.
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
    """Decompose a symmetric matrix: closed form at n = 2, else LAPACK.

    This is the one validity check on a step's Hessian: ``Objective.hessian``
    only evaluates, and every step decomposes what it returns here (a 2x2
    one in ``eigh_2x2``, which holds the n = 2 checks), so a non-finite or
    asymmetric Hessian ends the run "numerical-error" with the message of
    the InvalidInputError raised here.

    Parameters
    ----------
    A : (n, n) array_like
        Exactly symmetric with finite entries.  Symmetrize first
        (e.g. ``(A + A.T) / 2``) if your construction does not guarantee it.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and orthonormal eigenvectors, read-only and
        deterministic for identical input with the BLAS thread count fixed.
        At n = 2 each eigenvector's largest-magnitude component is >= 0 (the
        first on ties); other sizes keep LAPACK's signs, which no result
        reads (see above).  An eigenvalue beyond the float range is +-inf.

    Raises
    ------
    InvalidInputError
        Non-finite entries, non-square or asymmetric input.
    NoConvergenceError
        LAPACK reported that the decomposition did not converge.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 2:
        lam, V = map(np.array, eigh_2x2(A))
    else:
        if not np.isfinite(A).all():
            raise InvalidInputError(_NON_FINITE)
        if not (A == A.T).all():
            raise InvalidInputError(_ASYMMETRIC)
        try:
            lam, V = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(
                f"eigendecomposition failed: {exc}") from exc
    lam.setflags(write=False)
    V.setflags(write=False)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


def eigh_2x2(A):
    """``eigh`` of a (2, 2) float array on Python floats, as two lists.

    Reads A once with ``tolist``, checks it as ``eigh`` does (same
    InvalidInputError messages) and returns ([l1, l2], [[v1x, v2x],
    [v1y, v2y]]): the eigenvalues and eigenvector columns that ``eigh``
    puts in its arrays.  The caller guarantees the shape.
    """
    (a, b), (c, d) = A.tolist()
    if not (math.isfinite(a) and math.isfinite(b)
            and math.isfinite(c) and math.isfinite(d)):
        raise InvalidInputError(_NON_FINITE)
    if b != c:
        raise InvalidInputError(_ASYMMETRIC)
    return _schur2(a, b, d)


def reflect_inverse_apply(decomp, g, signed=False):
    """Apply |A|^-1 to g using the decomposition of A (A^-1 if ``signed``).

    Returns w with <w, g> >= 0 and ||w|| = ||A^-1 g||.  Positive-eigenvalue
    components of A^-1 g are kept, negative-eigenvalue components have their
    sign flipped.  With ``signed=True`` nothing is flipped: w = A^-1 g.

    Raises
    ------
    SingularMatrixError
        If any eigenvalue is exactly zero (the caller's delta selection is
        responsible for never letting that happen).
    """
    lam = decomp.eigenvalues
    g = np.asarray(g, dtype=float)
    if lam.shape[0] == 2:
        return reflect_apply_2x2(lam.tolist(), decomp.eigenvectors.tolist(), g,
                                 signed)
    if (lam == 0.0).any():
        raise SingularMatrixError(_ZERO_EIGENVALUE)
    E = decomp.eigenvectors
    return E @ ((E.T @ g) / (lam if signed else np.abs(lam)))


def reflect_apply_2x2(lam, V, g, signed=False):
    """``reflect_inverse_apply`` on two eigenpairs given as Python floats.

    ``lam`` is [l1, l2] and ``V`` the eigenvector columns as nested lists,
    as ``eigh_2x2`` returns them; g is a float array of two entries.  The
    result w is the one array built.
    """
    l0, l1 = lam
    if l0 == 0.0 or l1 == 0.0:
        raise SingularMatrixError(_ZERO_EIGENVALUE)
    if not signed:
        l0, l1 = abs(l0), abs(l1)
    (e00, e01), (e10, e11) = V
    g0, g1 = g.tolist()
    c0 = (e00 * g0 + e10 * g1) / l0
    c1 = (e01 * g0 + e11 * g1) / l1
    return np.array([e00 * c0 + e01 * c1, e10 * c0 + e11 * c1])
