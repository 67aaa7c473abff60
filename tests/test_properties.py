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
