"""Eigendecomposition and reflected-inverse arithmetic."""

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from qnewton.errors import (InvalidInputError, NoConvergenceError,
                            SingularMatrixError)
from qnewton.spectral import eigh, reflect_inverse_apply

EPS = np.finfo(float).eps
TINY = 5e-324          # smallest subnormal: the spacing of the subnormal grid


def test_diagonal_matrix():
    dec = eigh(np.diag([3.0, -1.0]))
    assert_allclose(dec.eigenvalues, [-1.0, 3.0], rtol=0, atol=0)
    # ascending order pairs -1 with e2 and 3 with e1; signs fixed positive
    assert_allclose(dec.eigenvectors, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_symmetric_offdiagonal_pair():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(np.abs(dec.eigenvectors), [[r, r], [r, r]], atol=1e-14)
    for j in range(2):
        v = dec.eigenvectors[:, j]
        resid = np.array([[0.0, 1.0], [1.0, 0.0]]) @ v \
            - dec.eigenvalues[j] * v
        assert la.norm(resid) < 1e-13


def test_indefinite_3x3_sign_pattern():
    A = np.array([[-23.0, -61.0, 40.0],
                  [-61.0, -39.5, 155.0],
                  [40.0, 155.0, -50.0]])
    dec = eigh(A)
    lam = dec.eigenvalues
    scale = np.max(np.abs(A))
    assert lam[0] < 0 and lam[2] > 0
    assert abs(lam[1]) <= 1e-8 * scale


def test_dim_one():
    dec = eigh(np.array([[5.0]]))
    assert_allclose(dec.eigenvalues, [5.0])
    assert_allclose(dec.eigenvectors, [[1.0]])
    assert dec.dim == 1


def test_reflect_identity():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(4)
    w = reflect_inverse_apply(eigh(np.eye(4)), g)
    assert_allclose(w, g, atol=1e-14)


def test_reflect_sign_flip_case():
    # A = diag(1, -1): |A| is the identity, so w equals g itself.
    g = np.array([1.3, -0.7])
    w = reflect_inverse_apply(eigh(np.diag([1.0, -1.0])), g)
    assert_allclose(w, g, atol=1e-15)


def test_reflect_mixed_signs_hand_case():
    w = reflect_inverse_apply(eigh(np.diag([2.0, -3.0])), np.array([4.0, 6.0]))
    assert_allclose(w, [2.0, 2.0], atol=1e-14)


def test_zero_eigenvalue_rejected():
    dec = eigh(np.diag([0.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        reflect_inverse_apply(dec, np.array([1.0, 1.0]))


def test_asymmetric_rejected():
    with pytest.raises(InvalidInputError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nonsquare_rejected():
    with pytest.raises(InvalidInputError):
        eigh(np.zeros((2, 3)))


def test_nonfinite_rejected():
    A = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InvalidInputError):
        eigh(A)


def test_deterministic():
    rng = np.random.default_rng(11)
    B = rng.uniform(-10, 10, (12, 12))
    A = 0.5 * (B + B.T)
    d1, d2 = eigh(A.copy()), eigh(A.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_random_matrices_orthonormal_and_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        B = rng.uniform(-10.0, 10.0, (n, n))
        A = 0.5 * (B + B.T)
        dec = eigh(A)
        V, lam = dec.eigenvectors, dec.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-10
        recon = (V * lam) @ V.T
        bound = 1e-9 * max(1.0, float(np.max(np.abs(A))))
        assert np.max(np.abs(recon - A)) <= bound


def test_sign_convention_on_random_matrices():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        B = rng.uniform(-10.0, 10.0, (n, n))
        V = eigh(0.5 * (B + B.T)).eigenvectors
        for j in range(n):
            assert V[int(np.argmax(np.abs(V[:, j]))), j] >= 0.0


def test_lapack_failure_is_no_convergence(monkeypatch):
    def failing_eigh(A):
        raise la.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(la, "eigh", failing_eigh)
    with pytest.raises(NoConvergenceError):
        eigh(np.eye(3))


def test_reflect_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 9))
        B = rng.uniform(-10.0, 10.0, (n, n))
        A = 0.5 * (B + B.T)
        lam_np, V_np = la.eigh(A)
        if np.min(np.abs(lam_np)) < 1e-4 * np.max(np.abs(lam_np)):
            continue  # keep the comparison well away from singularity
        g = rng.standard_normal(n)
        oracle = np.zeros(n)
        for i in range(n):
            proj = np.outer(V_np[:, i], V_np[:, i])
            oracle += (proj @ g) / abs(lam_np[i])
        w = reflect_inverse_apply(eigh(A), g)
        assert la.norm(w - oracle) <= 1e-10 * max(1.0, la.norm(oracle))
        assert float(w @ g) >= 0.0
        done += 1


def test_positive_definite_solve():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        B = rng.standard_normal((n, n))
        A = B.T @ B + np.eye(n)
        g = rng.standard_normal(n)
        w = reflect_inverse_apply(eigh(A), g)
        assert la.norm(A @ w - g) <= 1e-8 * max(1.0, la.norm(g))


def test_reflect_norm_matches_inverse_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        B = rng.uniform(-5.0, 5.0, (n, n))
        A = 0.5 * (B + B.T) + np.diag(rng.choice([-3.0, 3.0], n))
        lam_np = la.eigvalsh(A)
        if np.min(np.abs(lam_np)) < 1e-6:
            continue
        g = rng.standard_normal(n)
        w = reflect_inverse_apply(eigh(A), g)
        assert abs(la.norm(w) - la.norm(la.solve(A, g))) \
            <= 1e-9 * max(1.0, la.norm(w))


# ---------------------------------------------------------------------------
# the closed-form 2x2 path
# ---------------------------------------------------------------------------

def test_2x2_does_not_call_lapack(monkeypatch):
    def failing_eigh(A):
        raise la.LinAlgError("LAPACK called")

    monkeypatch.setattr(la, "eigh", failing_eigh)
    dec = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(dec.eigenvalues, [1.0, 3.0], rtol=4 * EPS)
    with pytest.raises(NoConvergenceError):
        eigh(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1)])
def test_2x2_nonfinite_rejected(bad, where):
    A = np.array([[1.0, 0.5], [0.5, 2.0]])
    A[where] = bad
    A[where[::-1]] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        eigh(A)


def test_2x2_one_ulp_asymmetry_rejected():
    b = 0.3
    A = np.array([[1.0, b], [np.nextafter(b, 1.0), 2.0]])
    with pytest.raises(InvalidInputError, match="not exactly symmetric"):
        eigh(A)


def test_2x2_output_is_read_only():
    dec = eigh(np.array([[1.0, 2.0], [2.0, -1.0]]))
    assert not dec.eigenvalues.flags.writeable
    assert not dec.eigenvectors.flags.writeable
    assert dec.eigenvalues.dtype == dec.eigenvectors.dtype == np.float64
    assert dec.eigenvalues.shape == (2,) and dec.eigenvectors.shape == (2, 2)


@pytest.mark.parametrize("a, d", [(3.0, -1.0), (-1.0, 3.0), (2.0, 2.0),
                                  (0.0, 0.0), (-0.0, 5e-324)])
def test_2x2_zero_offdiagonal_gives_diagonal_and_identity(a, d):
    dec = eigh(np.array([[a, 0.0], [0.0, d]]))
    lam, V = dec.eigenvalues, dec.eigenvectors
    assert list(lam) == sorted([a, d])
    if a <= d:
        assert V.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    else:
        assert V.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_2x2_near_overflow_is_finite_and_accurate():
    # the unscaled formula computes (d - a) = inf here and returns NaN
    A = np.array([[1e308, 1e308], [1e308, -1e308]])
    dec = eigh(A)
    lam = dec.eigenvalues
    assert np.isfinite(lam).all() and np.isfinite(dec.eigenvectors).all()
    want = la.eigvalsh(A)
    assert np.max(np.abs(lam - want)) <= 8 * EPS * 1e308


def test_2x2_eigenvalue_beyond_float_range_is_inf_like_lapack():
    A = np.full((2, 2), 1.7e308)
    lam = eigh(A).eigenvalues
    assert lam[1] == np.inf
    assert abs(lam[0]) <= 8 * EPS * 1.7e308
    assert la.eigvalsh(A)[1] == np.inf


def test_2x2_subnormal_entries_keep_their_accuracy():
    A = np.array([[1e-310, 3e-310], [3e-310, -2e-310]])
    lam = eigh(A).eigenvalues
    want = la.eigvalsh(A)
    assert np.max(np.abs(lam - want)) <= 8 * EPS * 3e-310 + 8 * TINY


def test_2x2_offdiagonal_pair_tie_takes_the_first_component():
    V = eigh(np.array([[0.0, 1.0], [1.0, 0.0]])).eigenvectors
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(V, [[r, r], [-r, r]], rtol=2 * EPS)
    assert V[0, 0] > 0 and V[0, 1] > 0
