import json
import sys

import numpy as np
import pytest

from qnewton.errors import DomainError, InvalidInputError
from qnewton.fixtures import ROOT_STARTS
from qnewton.objectives.base import fd_gradient, fd_hessian
from qnewton import rootfind
from qnewton.optimizers import StopCriteria
from qnewton.spectral import eigh
from qnewton.rootfind import (
    BUILTINS,
    MeroFunction,
    builtin,
    classify_critical_point,
    exp_rational_derivative,
    find_root,
    mero_objective,
    parse_poly_coeffs,
    poly_from_roots,
    poly_mero,
    zeta_partial,
)

EPS = np.finfo(float).eps


def cubic_mero(coeffs):
    """z^3-style test polynomial with hand derivatives."""
    a, b, c, d = [complex(v) for v in coeffs]
    return MeroFunction(
        g=lambda z: a * z**3 + b * z**2 + c * z + d,
        g1=lambda z: 3 * a * z**2 + 2 * b * z + c,
        g2=lambda z: 6 * a * z + 2 * b,
    )


# ---------------------------------------------------------------------------
# the squared-modulus objective
# ---------------------------------------------------------------------------

def test_mero_objective_at_root():
    obj = mero_objective(builtin("g2"))          # z^2 + 1
    x = np.array([0.0, 1.0])                     # z = i
    assert obj.value(x) == 0.0
    np.testing.assert_allclose(obj.gradient(x), [0.0, 0.0], atol=1e-15)


def test_mero_objective_saddle_hand_values():
    # z^2 + 1 at z = 0: f = 1, grad = 0, Hessian diag(4, -4)
    obj = mero_objective(builtin("g2"))
    x = np.array([0.0, 0.0])
    assert obj.value(x) == 1.0
    np.testing.assert_allclose(obj.gradient(x), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(obj.hessian(x), [[4.0, 0.0], [0.0, -4.0]],
                               atol=1e-15)


def test_mero_gradient_matches_finite_differences():
    m = cubic_mero((1.0, 0.0, 0.0, -1.0))        # z^3 - 1
    obj = mero_objective(m)
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=2)
        np.testing.assert_allclose(obj.gradient(x), fd_gradient(obj.value, x),
                                   rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("coeffs", [
    (0.0, 1.0, 0.0, 1.0),                        # z^2 + 1
    (1.0, 0.0, 0.0, -1.0),                       # z^3 - 1
    (1.0, 0.0, -3.0, 2.0),                       # (z - 1)^2 (z + 2)
])
def test_mero_hessian_matches_finite_differences(coeffs):
    obj = mero_objective(cubic_mero(coeffs))
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=2)
        np.testing.assert_allclose(obj.hessian(x), fd_hessian(obj.value, x),
                                   rtol=1e-3, atol=1e-3)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_root():
    assert classify_critical_point(builtin("g2"), 1j) == "root-of-g"


def test_classify_saddle():
    # g = z^2 + 1 at z = 0: g = 1, g' = 0, g * g'' = 2
    assert classify_critical_point(builtin("g2"), 0j) == "saddle-of-f"


def test_classify_multiple_root():
    assert classify_critical_point(builtin("g4"), 1.0 + 0j) == "root-of-g"


def test_classify_degenerate():
    # (z - 1)^3 + 1 at z = 1: g = 1, g' = 0, and g'' = 0 too
    m = poly_mero((1.0, -3.0, 3.0, 0.0))
    assert classify_critical_point(m, 1.0 + 0j) == "degenerate"


# ---------------------------------------------------------------------------
# find_root
# ---------------------------------------------------------------------------

def test_find_root_quadratic_from_far_start():
    res = find_root(builtin("g2"), ROOT_STARTS["g2"])
    assert res.classification == "root-of-g"
    assert res.trace.iterations <= 20
    assert min(abs(res.z - 1j), abs(res.z + 1j)) <= 1e-8


def test_find_root_quadratic_from_near_saddle_start():
    res = find_root(builtin("g2"), ROOT_STARTS["g2-point2"])
    assert res.classification == "root-of-g"
    assert min(abs(res.z - 1j), abs(res.z + 1j)) <= 1e-8


def test_plain_newton_lands_on_saddle():
    # from the same start the undamped Newton iteration walks to the
    # critical point of |g|^2 at z = 0 instead of a root
    res = find_root(builtin("g2"), ROOT_STARTS["g2-point2"], method="newton")
    assert res.classification == "saddle-of-f"
    assert abs(res.f_value - 1.0) <= 1e-10
    assert abs(res.z) <= 1e-6


def test_affine_root_in_one_exact_step():
    c = 0.5 + 0.25j
    res = find_root(poly_mero((1.0, -c)), 1.25 + 1.0j)
    assert res.z == c
    assert res.f_value == 0.0
    assert res.trace.iterations == 1
    assert res.classification == "root-of-g"


def test_random_cubics_hit_a_true_root():
    rng = np.random.default_rng(101)
    for _ in range(20):
        while True:
            roots = rng.uniform(-2.0, 2.0, size=(3, 2)) @ np.array([1.0, 1j])
            gaps = [abs(roots[i] - roots[j])
                    for i in range(3) for j in range(i + 1, 3)]
            if min(gaps) >= 0.5:
                break
        m = poly_from_roots([(r, 1) for r in roots])
        for _ in range(10):
            z0 = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            res = find_root(m, z0, method="nqn-backtracking")
            assert res.classification in ("root-of-g", "diverged")
            if res.classification == "root-of-g":
                assert min(abs(res.z - r) for r in roots) <= 1e-6


def test_backtracking_descent_is_monotone_on_g3():
    res = find_root(builtin("g3"), ROOT_STARTS["g3"],
                    method="nqn-backtracking")
    fs = [rec.f for rec in res.trace.records]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    assert res.f_value <= fs[0]


@pytest.mark.parametrize("name", ["g1", "g3", "g5", "g6"])
def test_builtin_runs_reach_a_root(name):
    res = find_root(builtin(name), ROOT_STARTS[name],
                    stop=StopCriteria(max_iter=2000))
    assert res.classification == "root-of-g"
    assert res.f_value <= 1e-20


def test_multiple_root_pull():
    # near the order-5 root at z = 5 the gradient of |g|^2 shrinks like
    # dist^9, so the gradient test trips while |g| is still above the
    # root bar — the honest label there is degenerate, not root-of-g
    res = find_root(builtin("g4"), ROOT_STARTS["g4"],
                    stop=StopCriteria(max_iter=2000))
    assert res.trace.termination == "converged"
    assert res.classification == "degenerate"
    assert abs(res.z - 5.0) <= 2e-2
    assert res.f_value <= 1e-12


@pytest.mark.parametrize("key", sorted(ROOT_STARTS))
def test_hessian_spectrum_matches_the_complex_formula(key):
    # For f = |g|^2 the Hessian's eigenvalues are 2(|g'|^2 -+ |g g''|):
    # an exact cross-check of eigh at every point of a root find.
    m = builtin(key.split("-")[0])
    obj = mero_objective(m)
    res = find_root(m, ROOT_STARTS[key])
    assert res.trace.iterations > 0
    for rec in res.trace.records:
        gv, g1, g2 = m.eval_all(complex(rec.x[0], rec.x[1]))
        s, r = abs(g1) ** 2, abs(gv * g2)
        want = np.array([2.0 * (s - r), 2.0 * (s + r)])
        lam = eigh(obj.hessian(rec.x)).eigenvalues
        assert np.max(np.abs(lam - want)) <= 16 * EPS * want[1]


def test_backtracking_gd_root_find_survives_probes_past_a_pole():
    # g3's first line-search probes land so far out that q(z) rounds to 0
    # and g raises: they fail the Armijo test instead of ending the run
    res = find_root(builtin("g3"), ROOT_STARTS["g3"],
                    method="backtracking-gd")
    assert res.classification == "root-of-g"


def test_backtracking_gd_on_a_polynomial_never_reports_a_pole():
    # g1 is a polynomial: its overflowing probes are failed Armijo tests,
    # not "near a pole of g"
    res = find_root(builtin("g1"), ROOT_STARTS["g1"],
                    method="backtracking-gd")
    assert res.trace.error_class != "DomainError"
    assert "pole" not in res.trace.termination


@pytest.mark.parametrize("name", ["g1", "g5"])
def test_backtracking_gd_shrinks_past_200_to_a_root(name):
    # from these starts |g|^2 is so steep that the first accepted learning
    # rate lies more than 200 shrinks by 0.7 below the initial one
    res = find_root(builtin(name), ROOT_STARTS[name],
                    method="backtracking-gd")
    records = res.trace.records
    assert res.trace.iterations >= 1
    assert records[1].f < records[0].f
    assert records[1].ls_backtracks > 200
    assert res.classification == "root-of-g"


# ---------------------------------------------------------------------------
# evaluators against library oracles
# ---------------------------------------------------------------------------

def test_poly_mero_matches_numpy_polynomial():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    m = poly_mero(coeffs)
    d1 = np.polyder(coeffs)
    d2 = np.polyder(coeffs, 2)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        np.testing.assert_allclose(m.g(z), np.polyval(coeffs, z), rtol=1e-12)
        np.testing.assert_allclose(m.g1(z), np.polyval(d1, z), rtol=1e-12)
        np.testing.assert_allclose(m.g2(z), np.polyval(d2, z), rtol=1e-12)


def test_poly_from_roots_matches_expanded_form():
    roots = [(-1.0 + 0.5j, 1), (2.0 + 0j, 2), (0.5 - 1.0j, 3)]
    factored = poly_from_roots(roots)
    flat = []
    for r, k in roots:
        flat.extend([r] * k)
    expanded = poly_mero(np.poly(np.array(flat)))
    rng = np.random.default_rng(17)
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        np.testing.assert_allclose(factored.g(z), expanded.g(z),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(factored.g1(z), expanded.g1(z),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(factored.g2(z), expanded.g2(z),
                                   rtol=1e-9, atol=1e-9)


def test_zeta_partial_matches_direct_sums():
    m = zeta_partial(50)
    ns = np.arange(1, 51, dtype=float)
    for z in (2.0 + 0j, 0.5 + 14.1j, -1.0 + 3.0j):
        terms = ns ** (-z)
        np.testing.assert_allclose(m.g(z), np.sum(terms), rtol=1e-12)
        np.testing.assert_allclose(m.g1(z), np.sum(-np.log(ns) * terms),
                                   rtol=1e-12)
        np.testing.assert_allclose(m.g2(z), np.sum(np.log(ns) ** 2 * terms),
                                   rtol=1e-12)


def test_zeta_partial_needs_a_term():
    with pytest.raises(InvalidInputError):
        zeta_partial(0)


def test_poly_mero_rejects_empty():
    with pytest.raises(InvalidInputError):
        poly_mero([])


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5", "g6"])
def test_builtin_derivatives_are_consistent(name):
    # g1 against a central difference of g, and g2 against a central
    # difference of g1, at fixed safe points
    m = builtin(name)
    h = 1e-5
    for z in (0.4 + 0.3j, -0.2 + 1.1j, 1.3 - 0.7j):
        cd1 = (m.g(z + h) - m.g(z - h)) / (2 * h)
        cd2 = (m.g1(z + h) - m.g1(z - h)) / (2 * h)
        np.testing.assert_allclose(m.g1(z), cd1,
                                   rtol=1e-5, atol=1e-5 * abs(m.g(z)))
        np.testing.assert_allclose(m.g2(z), cd2,
                                   rtol=1e-5, atol=1e-5 * abs(m.g1(z)))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_builds(name):
    m = builtin(name)
    assert isinstance(m, MeroFunction)
    assert m.name == name


def test_unknown_builtin():
    with pytest.raises(InvalidInputError):
        builtin("g7")


# ---------------------------------------------------------------------------
# poles and bad input
# ---------------------------------------------------------------------------

def test_exp_rational_division_by_zero_at_exact_pole():
    # q(z) = 1 - exp(-z) vanishes at z = 0
    m = exp_rational_derivative((1.0, 1.0), (1.0, -1.0))
    with pytest.raises(ZeroDivisionError):
        m.g(0j)


def test_pole_guard_raises_domain_error():
    m = MeroFunction(g=lambda z: 1.0 / z, g1=lambda z: -1.0 / z**2,
                     g2=lambda z: 2.0 / z**3, pole_guard=10.0)
    obj = mero_objective(m)
    with pytest.raises(DomainError) as info:
        obj.value(np.array([0.01, 0.0]))
    np.testing.assert_allclose(info.value.point, [0.01, 0.0])


def test_nonfinite_value_raises_domain_error():
    m = MeroFunction(g=lambda z: complex("nan"), g1=lambda z: 0j,
                     g2=lambda z: 0j)
    with pytest.raises(DomainError):
        mero_objective(m).value(np.array([0.0, 0.0]))


def test_parse_poly_coeffs():
    assert parse_poly_coeffs("1,0,1") == [1.0, 0.0, 1.0]
    assert parse_poly_coeffs("2+3i") == [2.0 + 3.0j]
    assert parse_poly_coeffs("1, 2 - 4i") == [1.0, 2.0 - 4.0j]
    with pytest.raises(InvalidInputError):
        parse_poly_coeffs("abc")
    with pytest.raises(InvalidInputError):
        parse_poly_coeffs("1,,2")


def test_result_json_round_trip():
    res = find_root(builtin("g2"), ROOT_STARTS["g2"])
    doc = json.loads(res.to_json())
    assert doc["classification"] == "root-of-g"
    assert doc["termination"] == "converged"
    assert doc["iterations"] == res.trace.iterations
    np.testing.assert_allclose(doc["z"], [res.z.real, res.z.imag])
    assert doc["f"] == res.f_value


# ---------------------------------------------------------------------------
# one triple evaluation per point
# ---------------------------------------------------------------------------

def count_triple_calls(fn):
    """(fn(), number of calls of a builder's inner ``triple``)."""
    calls = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "triple" \
                and code.co_filename == rootfind.__file__:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
    return out, calls[0]


@pytest.mark.parametrize("method", ["nqn", "newton"])
@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5", "g6"])
def test_builtin_triple_runs_once_per_point(name, method):
    m = builtin(name)
    res, calls = count_triple_calls(
        lambda: find_root(m, ROOT_STARTS[name], method=method))
    assert res.trace.termination == "converged"
    points = {rec.x.tobytes() for rec in res.trace.records}
    # f, grad f and Hess f at each point share one evaluation of g, g' and
    # g''; the final classification makes one more
    assert len(points) == len(res.trace.records)
    assert calls == len(points) + 1
    label, calls = count_triple_calls(
        lambda: classify_critical_point(m, res.z))
    assert label == res.classification
    assert calls == 1


def counted_quadratic(counts):
    """z^2 + 1 by hand, with each call of g, g' and g'' counted."""
    def counted(key, fn):
        def call(z):
            counts[key] += 1
            return fn(z)
        return call

    return MeroFunction(g=counted("g", lambda z: z * z + 1),
                        g1=counted("g1", lambda z: 2 * z),
                        g2=counted("g2", lambda z: 2 + 0j))


def test_hand_built_mero_is_called_as_given():
    counts = {"g": 0, "g1": 0, "g2": 0}
    obj = mero_objective(counted_quadratic(counts))
    x = np.array([0.5, 0.25])
    obj.value(x)
    obj.gradient(x)
    obj.hessian(x)
    assert counts == {"g": 1, "g1": 1, "g2": 1}


@pytest.mark.parametrize("method", ["nqn", "nqn-backtracking"])
def test_hand_built_mero_runs_once_per_point(method):
    counts = {"g": 0, "g1": 0, "g2": 0}
    res = find_root(counted_quadratic(counts), 0.5 + 0.5j, method=method)
    assert res.classification == "root-of-g"
    records = res.trace.records
    assert len({rec.x.tobytes() for rec in records}) == len(records)
    # each iterate and each rejected line-search probe is one point; the
    # accepted probe is the next iterate, and the classification adds one
    probes = sum(rec.ls_backtracks for rec in records)
    assert (probes > 0) == (method == "nqn-backtracking")
    n = len(records) + probes + 1
    assert counts == {"g": n, "g1": n, "g2": n}


def bits(v):
    """An objective output's exact bits."""
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("name, a, b", [
    ("g4", 0j, complex(0.0, -0.0)),        # x = (0, 0) vs (0, -0)
    ("g4", 0j, complex(-0.0, -0.0)),       # x = (0, 0) vs (-0, -0)
])
def test_cache_keeps_apart_inputs_the_triple_tells_apart(name, a, b):
    def outputs(obj, z):
        x = np.array([z.real, z.imag])
        return [bits(obj.value(x)), bits(obj.gradient(x)),
                bits(obj.hessian(x))]

    def fresh(z):          # from its own, never-used objective
        return outputs(mero_objective(builtin(name)), z)

    assert fresh(a) != fresh(b)
    obj = mero_objective(builtin(name))
    for z in (a, b, a):
        assert outputs(obj, z) == fresh(z)


def test_raising_triple_caches_nothing():
    def objective():       # q = 1 - e^-z vanishes at z = 0
        return mero_objective(
            exp_rational_derivative((1.0, 1.0), (1.0, -1.0)))

    obj = objective()
    fine, root_of_q = np.array([0.0, 1.0]), np.zeros(2)
    obj.value(fine)
    for fn in (obj.value, obj.gradient, obj.hessian):
        with pytest.raises(ZeroDivisionError):
            fn(root_of_q)
    assert bits(obj.gradient(fine)) == bits(objective().gradient(fine))


def test_point_past_the_pole_guard_caches_nothing():
    calls = [0]

    def g(z):
        calls[0] += 1
        return 1 / z

    obj = mero_objective(MeroFunction(g=g, g1=lambda z: -1 / z ** 2,
                                      g2=lambda z: 2 / z ** 3,
                                      pole_guard=1e6))
    near_pole = np.array([1e-7, 0.0])
    for fn in (obj.value, obj.gradient, obj.hessian):
        with pytest.raises(DomainError):
            fn(near_pole)
    assert calls[0] == 3
