"""Hypothesis properties: bit-exact shortcuts agree with what they replace."""

import struct

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qnewton.optimizers import _norm
from qnewton.rootfind import builtin, mero_objective

# ---------------------------------------------------------------------------
# mero_objective keeps the last two points' triples: its value, gradient and
# Hessian equal a fresh objective's
# ---------------------------------------------------------------------------

_coord = st.one_of(st.sampled_from((0.0, -0.0)),
                   st.floats(-3.0, 3.0, allow_nan=False, width=64))
_points = st.tuples(_coord, _coord)


def _outcome(fn, x):
    """fn(x)'s exact bits, or the exception type it raised."""
    try:
        v = fn(np.array(x))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return np.asarray(v, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(("g1", "g2", "g3", "g4", "g5", "g6")),
       pool=st.lists(_points, min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                      min_size=1, max_size=12))
@example(name="g4", pool=[(0.0, 0.0), (0.0, -0.0)],
         calls=[(0, 0), (1, 1), (0, 1), (1, 2), (1, 1)])
def test_cached_derivatives_match_a_fresh_builder(name, pool, calls):
    # repeated points, the Hessian before the value, and alternating points
    # all hit or miss the two-entry cache in different orders
    obj = mero_objective(builtin(name))
    for i, which in calls:
        x = pool[i % len(pool)]
        attr = ("value", "gradient", "hessian")[which]
        fresh = getattr(mero_objective(builtin(name)), attr)
        assert _outcome(getattr(obj, attr), x) == _outcome(fresh, x)


# ---------------------------------------------------------------------------
# _norm is np.linalg.norm bit for bit
# ---------------------------------------------------------------------------

def _bits(v):
    return struct.pack("<d", v)


_any_float = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True, width=64)


@settings(max_examples=300, deadline=None)
@given(v=arrays(np.float64, st.integers(0, 40), elements=_any_float))
@example(v=np.array([]))
@example(v=np.array([5e-324, 1e-310, -2.2e-308]))
@example(v=np.array([1e200, -1e200, 3.0]))
@example(v=np.array([1.7e308, 1.7e308]))
@example(v=np.array([np.inf, 1.0]))
@example(v=np.array([-np.inf]))
@example(v=np.array([np.nan, 1.0]))
@example(v=np.array([np.inf, np.nan]))
def test_norm_matches_numpy_bit_for_bit(v):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _norm(v)
        want = float(np.linalg.norm(v))
    assert type(got) is float
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# the closed-form 2x2 eigh against LAPACK
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
TINY = 5e-324              # spacing of the subnormal grid
EIG2_RTOL = 8.0            # error bound, in units of eps * max|A|

_extreme = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                            1e-300, 1.7e308, -1.7e308, 1e308, -1e308,
                            8.9e307, 1.0, -1.0))
_entry = st.one_of(_extreme,
                   st.floats(-1e8, 1e8, width=64),
                   st.floats(allow_nan=False, allow_infinity=False,
                             allow_subnormal=True, width=64))


@st.composite
def _sym2(draw):
    a = draw(_entry)
    d = draw(st.one_of(st.just(a), _entry))          # equal diagonals too
    b = draw(st.one_of(
        _entry,
        st.just(0.0), st.just(-0.0),
        # tiny relative to the diagonal
        st.builds(lambda s, r: s * r, st.sampled_from((a, d)),
                  st.sampled_from((1e-17, -1e-30, 2.0 ** -60)))))
    return np.array([[a, b], [b, d]])


@settings(max_examples=500, deadline=None)
@given(A=_sym2())
@example(A=np.array([[0.0, 1.0], [1.0, 0.0]]))
@example(A=np.array([[1e308, 1e308], [1e308, -1e308]]))
@example(A=np.array([[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]))
@example(A=np.array([[1e-310, 3e-310], [3e-310, -2e-310]]))
@example(A=np.array([[5e-324, 5e-324], [5e-324, 5e-324]]))
@example(A=np.array([[1.0, 1e-300], [1e-300, 1.0]]))
@example(A=np.array([[1.0, 5e-324], [5e-324, 1.0 + 2 ** -52]]))
@example(A=np.array([[2.0, -3.0], [-3.0, 2.0]]))
@example(A=np.array([[1.0 + 2.0 ** -52, 1.0], [1.0, 1.0]]))   # t = -1: tie
@example(A=np.array([[1e8, 1e-8], [1e-8, -1e-8]]))
def test_eigh_2x2_matches_lapack(A):
    from qnewton.spectral import eigh
    with np.errstate(over="ignore"):
        want = np.linalg.eigvalsh(A)
    assume(np.isfinite(want).all())     # no eigenvalue beyond the float range
    lam, V = eigh(A)
    lam, V = np.array(lam), np.array(V)
    m = float(np.max(np.abs(A)))
    tol = EIG2_RTOL * EPS * m + EIG2_RTOL * TINY
    assert lam[0] <= lam[1]
    assert np.max(np.abs(lam - want)) <= tol
    assert np.max(np.abs(V.T @ V - np.eye(2))) <= EIG2_RTOL * EPS
    # reconstruct at a power-of-two scale, where no product overflows
    k = int(np.frexp(m)[1]) if m > 0 else 0
    recon = (V * np.ldexp(lam, -k)) @ V.T
    assert np.max(np.abs(recon - np.ldexp(A, -k))) <= np.ldexp(tol, -k)


# ---------------------------------------------------------------------------
# the 2x2 reflected apply on Python floats
# ---------------------------------------------------------------------------

APPLY2_RTOL = 16.0         # error bound, in units of eps * the sum below


def _reflect_apply_array(lam, E, g, signed):
    """The array form that the 2x2 apply replaced."""
    lam, E = np.array(lam), np.array(E)
    return E @ ((E.T @ g) / (lam if signed else np.abs(lam)))


@settings(max_examples=500, deadline=None)
@given(A=_sym2(), g=arrays(np.float64, 2, elements=_entry),
       signed=st.booleans())
@example(A=np.array([[2.0, -3.0], [-3.0, 2.0]]), g=np.array([1.0, -1.0]),
         signed=False)
@example(A=np.array([[1e-300, 0.0], [0.0, -1e300]]),
         g=np.array([1e-10, 1e10]), signed=True)
def test_reflect_inverse_apply_2x2_matches_the_array_form(A, g, signed):
    # the apply on eigh's lists against the array form
    from qnewton.spectral import eigh, reflect_inverse_apply
    lam, V = eigh(A)
    assume(0.0 not in lam)
    with np.errstate(all="ignore"):
        want = _reflect_apply_array(lam, V, g, signed)
        # component i: sum_j |E_ij| (|E_0j g_0| + |E_1j g_1|) / |lambda_j|
        E = np.abs(np.array(V))
        bound = APPLY2_RTOL * EPS * (
            E @ ((E.T @ np.abs(g)) / np.abs(np.array(lam))))
    assume(np.isfinite(want).all())
    w = reflect_inverse_apply(lam, V, g, signed)
    assert w.dtype == np.float64 and w.shape == (2,)
    assert np.all(np.abs(w - want) <= bound)


# ---------------------------------------------------------------------------
# products through ndarray.dot, the damping draw and the root-finders'
# prebuilt weights give the bits of the forms they replaced
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    """Equal shapes and equal bytes, element by element; NaN equals NaN."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    got, want = got.reshape(-1), want.reshape(-1)
    if got.dtype.kind == "c":
        got, want = got.view(np.float64), want.view(np.float64)
    nan = np.isnan(got) & np.isnan(want)
    return bool(np.all(nan | (got.view(np.uint64) == want.view(np.uint64))))


def _triple_outcome(triple, z):
    """triple(z) as one complex array, or the exception type it raised."""
    try:
        with np.errstate(all="ignore"):
            return np.array(triple(z), dtype=complex)
    except ArithmeticError as exc:
        return type(exc)


def _same_outcome(got, want):
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return _same_bits(got, want)


@st.composite
def _sym_n(draw):
    n = draw(st.integers(3, 30))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3)))
    return M + M.T                     # exactly symmetric


@settings(max_examples=200, deadline=None)
@given(A=_sym_n(), data=st.data(), signed=st.booleans())
def test_reflect_inverse_apply_matches_the_matmul_form(A, data, signed):
    from qnewton.spectral import eigh, reflect_inverse_apply
    g = data.draw(arrays(np.float64, A.shape[0], elements=_entry))
    lam, V = eigh(A)
    assume(0.0 not in lam)
    lam_a = np.array(lam)
    with np.errstate(all="ignore"):
        want = V @ ((V.T @ g) / (lam_a if signed else np.abs(lam_a)))
        got = reflect_inverse_apply(lam, V, g, signed)
    assert _same_bits(got, want)


_point = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(("ex12", "ex13", "ex15")), data=st.data())
def test_quadratic_entries_match_the_matmul_form(name, data):
    from qnewton.objectives import make_benchmark
    obj = make_benchmark(name)
    x = data.draw(arrays(np.float64, obj.dim, elements=_point))
    H = obj.hessian(x)
    with np.errstate(all="ignore"):
        assert _same_bits(obj.gradient(x), H @ x)
        if name == "ex15":
            assert _same_bits(obj.value(x), float(0.5 * x @ (H @ x)))


def test_damping_factor_is_the_uniform_draw():
    # 2 * random() is uniform(0, 2) from the same stream position
    from qnewton.objectives import make_benchmark
    from qnewton.optimizers import METHODS
    obj = make_benchmark("rosenbrock", 2)
    x = np.array([0.3, -0.2])
    f, g = obj.value(x), obj.gradient(x)
    ours, theirs = np.random.default_rng(28), np.random.default_rng(28)
    step = METHODS["random-damping-newton"]
    for _ in range(10_000):
        _, _, damping, _, _ = step(obj, x, f, g, _norm(g), rng=ours)
        assert type(damping) is float
        assert _bits(damping) == _bits(float(theirs.uniform(0.0, 2.0)))
    assert ours.bit_generator.state == theirs.bit_generator.state


def _exp_rational_per_call(p_coeffs, q_coeffs):
    """exp_rational_derivative's triple with its weights built per call."""
    kp = np.arange(len(p_coeffs), dtype=float)
    cp = np.asarray(p_coeffs, dtype=float)
    kq = np.arange(len(q_coeffs), dtype=float)
    cq = np.asarray(q_coeffs, dtype=float)

    def derivs(ks, cs, z, upto):
        e = np.exp(-ks * z)
        return [complex(np.sum(((-ks) ** j) * cs * e))
                for j in range(upto + 1)]

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

    return triple


def _zeta_per_call(n_terms):
    """zeta_partial's triple with its weights built per call."""
    lns = np.log(np.arange(1, n_terms + 1, dtype=float))

    def triple(z):
        e = np.exp(-lns * z)
        return (complex(np.sum(e)),
                complex(np.sum(-lns * e)),
                complex(np.sum(lns * lns * e)))

    return triple


_z = st.builds(complex, st.floats(-6.0, 6.0), st.floats(-20.0, 20.0))
# longer than 8 terms, so that np.sum's pairwise blocks run
_coeffs = st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=260)


@settings(max_examples=300, deadline=None)
@given(p=_coeffs, q=_coeffs, zs=st.lists(_z, min_size=1, max_size=4))
@example(p=[1.0, -1.005, 0.525, -0.475, -0.045],          # g3
         q=[0.0, 2.27, -2.19, 1.86, -0.38], zs=[0.5 + 0.25j, 0j])
@example(p=[0.5 * k for k in range(40)], q=[1.0] * 17, zs=[1 + 1j, -3j])
def test_exp_rational_weights_match_the_per_call_form(p, q, zs):
    from qnewton.rootfind import exp_rational_derivative
    got = exp_rational_derivative(p, q).triple
    want = _exp_rational_per_call(p, q)
    for z in zs:
        assert _same_outcome(_triple_outcome(got, z),
                             _triple_outcome(want, z))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), zs=st.lists(_z, min_size=1, max_size=4))
@example(n=1001, zs=[0.5 + 14.1j, 2.0])                   # g6
def test_zeta_weights_match_the_per_call_form(n, zs):
    from qnewton.rootfind import zeta_partial
    got, want = zeta_partial(n).triple, _zeta_per_call(n)
    for z in zs:
        assert _same_outcome(_triple_outcome(got, z),
                             _triple_outcome(want, z))
