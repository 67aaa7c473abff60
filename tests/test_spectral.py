"""Eigendecomposition and reflected-inverse arithmetic."""

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from qnewton import optimizers
from qnewton.errors import (InvalidInputError, NoConvergenceError,
                            SingularMatrixError)
from qnewton.fixtures import GRIEWANK15_X0, ROSENBROCK30_X0
from qnewton.objectives import make_benchmark
from qnewton.optimizers import StopCriteria, run
from qnewton.spectral import eigh, reflect_inverse_apply

EPS = np.finfo(float).eps
TINY = 5e-324          # smallest subnormal: the spacing of the subnormal grid


def test_diagonal_matrix():
    lam, V = eigh(np.diag([3.0, -1.0]))
    assert lam == [-1.0, 3.0]
    # ascending order pairs -1 with e2 and 3 with e1; signs fixed positive
    assert_allclose(V, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_symmetric_offdiagonal_pair():
    lam, V = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(lam, [-1.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    V = np.array(V)
    assert_allclose(np.abs(V), [[r, r], [r, r]], atol=1e-14)
    for j in range(2):
        v = V[:, j]
        resid = np.array([[0.0, 1.0], [1.0, 0.0]]) @ v - lam[j] * v
        assert la.norm(resid) < 1e-13


def test_indefinite_3x3_sign_pattern():
    A = np.array([[-23.0, -61.0, 40.0],
                  [-61.0, -39.5, 155.0],
                  [40.0, 155.0, -50.0]])
    lam, _ = eigh(A)
    scale = np.max(np.abs(A))
    assert lam[0] < 0 and lam[2] > 0
    assert abs(lam[1]) <= 1e-8 * scale


def test_dim_one():
    lam, V = eigh(np.array([[5.0]]))
    assert lam == [5.0]
    assert_allclose(V, [[1.0]])


def test_reflect_identity():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(4)
    w = reflect_inverse_apply(*eigh(np.eye(4)), g)
    assert_allclose(w, g, atol=1e-14)


def test_reflect_sign_flip_case():
    # A = diag(1, -1): |A| is the identity, so w equals g itself.
    g = np.array([1.3, -0.7])
    w = reflect_inverse_apply(*eigh(np.diag([1.0, -1.0])), g)
    assert_allclose(w, g, atol=1e-15)


def test_reflect_mixed_signs_hand_case():
    w = reflect_inverse_apply(*eigh(np.diag([2.0, -3.0])),
                              np.array([4.0, 6.0]))
    assert_allclose(w, [2.0, 2.0], atol=1e-14)


def test_zero_eigenvalue_rejected():
    lam, V = eigh(np.diag([0.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        reflect_inverse_apply(lam, V, np.array([1.0, 1.0]))


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("diag", [[0.0, 1.0], [-2.0, 0.0], [-0.0, -0.0]])
def test_2x2_zero_eigenvalue_rejected(diag, signed):
    lam, V = eigh(np.diag(diag))
    with pytest.raises(SingularMatrixError):
        reflect_inverse_apply(lam, V, np.array([1.0, 1.0]), signed=signed)


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
    (lam1, V1), (lam2, V2) = eigh(A.copy()), eigh(A.copy())
    assert lam1 == lam2
    assert np.array_equal(V1, V2)


def test_random_matrices_orthonormal_and_reconstruct():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        B = rng.uniform(-10.0, 10.0, (n, n))
        A = 0.5 * (B + B.T)
        lam, V = eigh(A)
        lam, V = np.array(lam), np.array(V)
        assert np.all(np.diff(lam) >= 0)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-10
        recon = (V * lam) @ V.T
        bound = 1e-9 * max(1.0, float(np.max(np.abs(A))))
        assert np.max(np.abs(recon - A)) <= bound


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("n", range(1, 21))
def test_reflect_ignores_eigenvector_signs(n, signed):
    rng = np.random.default_rng(100 + n)
    B = rng.uniform(-10.0, 10.0, (n, n))
    lam, V = eigh(0.5 * (B + B.T))
    g = rng.uniform(-10.0, 10.0, n)
    expected = reflect_inverse_apply(lam, V, g, signed=signed).tobytes()
    flips = [np.ones(n, dtype=bool), np.eye(n, dtype=bool)[n - 1]]
    flips += [rng.random(n) < 0.5 for _ in range(20)]
    for flip in flips:
        w = reflect_inverse_apply(lam, V * np.where(flip, -1.0, 1.0), g,
                                  signed=signed)
        assert w.tobytes() == expected


def record_bits(records):
    """Every field of every record but wall_ns, floats by their bits."""
    return [(r.index, r.x.tobytes(), np.float64(r.f).tobytes(),
             np.float64(r.grad_norm).tobytes(),
             None if r.delta_used is None
             else np.float64(r.delta_used).tobytes(),
             np.float64(r.step_norm).tobytes(), r.ls_backtracks)
            for r in records]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 3 shifts, dim 15/30
@pytest.mark.parametrize("method", ["nqn", "nqn-backtracking", "newton",
                                    "random-damping-newton"])
@pytest.mark.parametrize("problem", [("rosenbrock", ROSENBROCK30_X0),
                                     ("griewank", GRIEWANK15_X0)])
def test_eigenvector_signs_do_not_reach_the_records(problem, method,
                                                    monkeypatch):
    name, x0 = problem
    obj = make_benchmark(name, len(x0))
    stop = StopCriteria(max_iter=40)
    expected = run(method, obj, x0, stop=stop, seed=3)
    flip_rng = np.random.default_rng(5)
    flipped = [0]

    def flipping_eigh(A):
        lam, V = eigh(A)
        flip = flip_rng.random(len(lam)) < 0.5
        flipped[0] += int(flip.sum())
        return lam, V * np.where(flip, -1.0, 1.0)

    monkeypatch.setattr(optimizers, "eigh", flipping_eigh)
    trace = run(method, obj, x0, stop=stop, seed=3)
    assert flipped[0] > 0
    assert trace.termination == expected.termination
    assert record_bits(trace.records) == record_bits(expected.records)


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
        w = reflect_inverse_apply(*eigh(A), g)
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
        w = reflect_inverse_apply(*eigh(A), g)
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
        w = reflect_inverse_apply(*eigh(A), g)
        assert abs(la.norm(w) - la.norm(la.solve(A, g))) \
            <= 1e-9 * max(1.0, la.norm(w))


# ---------------------------------------------------------------------------
# the closed-form 2x2 path
# ---------------------------------------------------------------------------

def test_2x2_does_not_call_lapack(monkeypatch):
    def failing_eigh(A):
        raise la.LinAlgError("LAPACK called")

    monkeypatch.setattr(la, "eigh", failing_eigh)
    lam, _ = eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(lam, [1.0, 3.0], rtol=4 * EPS)
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


def test_2x2_output_is_python_floats():
    lam, V = eigh(np.array([[1.0, 2.0], [2.0, -1.0]]))
    assert type(lam) is list and len(lam) == 2
    assert type(V) is list and [len(col) for col in V] == [2, 2]
    assert all(type(v) is float for v in lam + V[0] + V[1])
    lam3, V3 = eigh(np.eye(3))
    assert type(lam3) is list and all(type(v) is float for v in lam3)
    assert V3.dtype == np.float64 and V3.shape == (3, 3)


@pytest.mark.parametrize("a, d", [(3.0, -1.0), (-1.0, 3.0), (2.0, 2.0),
                                  (0.0, 0.0), (-0.0, 5e-324)])
def test_2x2_zero_offdiagonal_gives_diagonal_and_identity(a, d):
    lam, V = eigh(np.array([[a, 0.0], [0.0, d]]))
    assert lam == sorted([a, d])
    if a <= d:
        assert V == [[1.0, 0.0], [0.0, 1.0]]
    else:
        assert V == [[0.0, 1.0], [1.0, 0.0]]


def test_2x2_near_overflow_is_finite_and_accurate():
    # the unscaled formula computes (d - a) = inf here and returns NaN
    A = np.array([[1e308, 1e308], [1e308, -1e308]])
    lam, V = eigh(A)
    assert np.isfinite(lam).all() and np.isfinite(V).all()
    want = la.eigvalsh(A)
    assert np.max(np.abs(lam - want)) <= 8 * EPS * 1e308


def test_2x2_eigenvalue_beyond_float_range_is_inf_like_lapack():
    A = np.full((2, 2), 1.7e308)
    lam, _ = eigh(A)
    assert lam[1] == np.inf
    assert abs(lam[0]) <= 8 * EPS * 1.7e308
    assert la.eigvalsh(A)[1] == np.inf


def test_2x2_subnormal_entries_keep_their_accuracy():
    A = np.array([[1e-310, 3e-310], [3e-310, -2e-310]])
    lam, _ = eigh(A)
    want = la.eigvalsh(A)
    assert np.max(np.abs(lam - want)) <= 8 * EPS * 3e-310 + 8 * TINY


def test_2x2_offdiagonal_pair_tie_takes_the_first_component():
    _, V = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(V, [[r, r], [-r, r]], rtol=2 * EPS)
    assert V[0][0] > 0 and V[0][1] > 0
