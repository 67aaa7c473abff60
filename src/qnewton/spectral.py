"""Symmetric eigendecomposition and spectral-reflection arithmetic.

The eigensolver is LAPACK's divide-and-conquer ``syevd`` as numpy's
``np.linalg.eigh`` calls it, with a fixed output convention on top:
eigenvalues ascending, and each eigenvector's sign chosen so that its
largest-magnitude component is nonnegative.  For identical input and a
fixed BLAS thread count the output is deterministic bit for bit, so runs
replay exactly.

``reflect_inverse_apply`` implements the core update arithmetic: given the
eigenpairs of an invertible symmetric A and a vector g, it returns

    w = sum_i (<e_i, g> / |lambda_i|) e_i

i.e. |A|^-1 g, the inverse applied after reflecting negative eigenvalues to
positive.  Equivalently w = pr+(A^-1 g) - pr-(A^-1 g).
"""

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


def eigh(A):
    """Decompose a symmetric matrix with LAPACK ``syevd`` (via numpy).

    Parameters
    ----------
    A : (n, n) array_like
        Exactly symmetric with finite entries.  Symmetrize first
        (e.g. ``(A + A.T) / 2``) if your construction does not guarantee it.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues and orthonormal eigenvectors, each with its
        largest-magnitude component >= 0 (the first such component on
        ties).  Read-only, and deterministic for identical input with the
        BLAS thread count fixed.

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
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix has non-finite entries")
    if not (A == A.T).all():
        raise InvalidInputError("matrix is not exactly symmetric")
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigendecomposition failed: {exc}") from exc

    # Sign convention: largest-magnitude component of each eigenvector >= 0.
    if V.size:
        peaks = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
        V = V * np.where(peaks < 0.0, -1.0, 1.0)
    lam.setflags(write=False)
    V.setflags(write=False)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


def reflect_inverse_apply(decomp, g):
    """Apply |A|^-1 to g using the decomposition of A.

    Returns w with <w, g> >= 0 and ||w|| = ||A^-1 g||.  Positive-eigenvalue
    components of A^-1 g are kept, negative-eigenvalue components have their
    sign flipped.

    Raises
    ------
    SingularMatrixError
        If any eigenvalue is exactly zero (the caller's delta selection is
        responsible for never letting that happen).
    """
    lam = decomp.eigenvalues
    if (lam == 0.0).any():
        raise SingularMatrixError("matrix has a zero eigenvalue")
    g = np.asarray(g, dtype=float)
    coeffs = decomp.eigenvectors.T @ g
    return decomp.eigenvectors @ (coeffs / np.abs(lam))
