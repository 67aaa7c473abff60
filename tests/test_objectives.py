"""Benchmark catalog, finite differences, chain energy, stochastic batches."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qnewton.errors import DomainError, InvalidInputError
from qnewton.objectives import (Objective, catalog_entries, catalog_listing,
                                default_start, fd_gradient, fd_hessian,
                                make_benchmark, make_stochastic_griewank,
                                pair_coupling, parse_sequence, protein_energy,
                                protein_objective, sample_batch_objective)
from qnewton.objectives.base import as_integer
from qnewton.objectives.catalog import (_pairwise_exclusion_products,
                                        _rosenbrock_grad, _rosenbrock_hess,
                                        _rosenbrock_value)
from qnewton.optimizers import DeltaSchedule, run
from qnewton.rootfind import builtin, mero_objective
from qnewton.spectral import eigh


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_gradient_square():
    g = fd_gradient(lambda x: x[0] ** 2, np.array([3.0]))
    assert abs(g[0] - 6.0) <= 1e-8


def test_fd_gradient_quadratic_2d():
    f = lambda x: x[0] ** 2 + x[1] ** 2 + x[0] * x[1]
    g = fd_gradient(f, np.array([1.0, 2.0]))
    assert_allclose(g, [4.0, 5.0], atol=1e-6)


def test_fd_gradient_constant():
    g = fd_gradient(lambda x: 7.5, np.array([0.3, -0.8, 2.0]))
    assert_allclose(g, np.zeros(3), atol=0)


def test_fd_gradient_domain_error_carries_point():
    def f(x):
        return float("inf") if x[0] < 0 else x[0] ** 2

    with pytest.raises(DomainError) as err:
        fd_gradient(f, np.array([1e-6]))
    assert err.value.point is not None


def test_fd_hessian_quadratic():
    f = lambda x: x[0] ** 2 + x[1] ** 2 + 4.0 * x[0] * x[1]
    H = fd_hessian(f, np.array([0.7, -0.2]))
    assert_allclose(H, [[2.0, 4.0], [4.0, 2.0]], atol=1e-4)


def test_fd_hessian_linear():
    H = fd_hessian(lambda x: 3.0 * x[0] - x[1], np.array([1.0, 1.0]))
    assert_allclose(H, np.zeros((2, 2)), atol=1e-6)


def test_fd_hessian_rosenbrock_at_minimum():
    f = lambda x: (x[0] - 1) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    H = fd_hessian(f, np.array([1.0, 1.0]))
    assert_allclose(H, [[802.0, -400.0], [-400.0, 200.0]], atol=1e-3)


def test_objective_fd_fallback_and_flags():
    obj = Objective(2, lambda x: x[0] ** 2 + 3.0 * x[1] ** 2, name="toy")
    assert not obj.analytic_gradient and not obj.analytic_hessian
    assert_allclose(obj.gradient([1.0, 1.0]), [2.0, 6.0], atol=1e-6)
    assert_allclose(obj.hessian([1.0, 1.0]), [[2.0, 0.0], [0.0, 6.0]],
                    atol=1e-3)


def _hessian_objective(H):
    """f = 0 with gradient (1, ..., 1), so a run must take a step, and the
    constant Hessian H."""
    n = len(H)
    return Objective(n, lambda x: 0.0, gradient=lambda x: np.ones(n),
                     hessian=lambda x: H)


BIG = 1e308          # above DBL_MAX/2: H + H.T overflows here


@pytest.mark.parametrize("H", [
    np.array([[BIG]]),
    np.array([[1.0, BIG], [BIG, -BIG]]),
    np.array([[BIG, -BIG, 1.0], [-BIG, 2.0, BIG], [1.0, BIG, -BIG]]),
], ids=["n1", "n2", "n3"])
def test_exactly_symmetric_hessian_is_returned_as_it_is(H):
    out = _hessian_objective(H).hessian(np.zeros(len(H)))
    assert out.dtype == np.float64 and out.shape == H.shape
    assert out.tobytes() == H.tobytes()


def test_hessian_evaluates_and_checks_nothing():
    # validity is eigh's to check: an asymmetric or non-finite Hessian is
    # returned as the provider gave it
    H = np.array([[1.0, np.nan], [2.0, np.inf]])
    assert _hessian_objective(H).hessian(np.zeros(2)) is H


def _symmetrize_array(H):
    """The reference pair rule: a pair that differs becomes
    0.5*H[i, j] + 0.5*H[j, i], and an equal pair is kept as it is."""
    half = 0.5 * H
    S = half + half.T
    np.copyto(S, H, where=H == H.T)
    return S


def _griewank_product(x):
    """Griewank's vectorized Hessian before the pair rule: from n = 5 on
    some [a, b] and [b, a] differ in their last bits."""
    n = x.size
    idx = np.arange(1, n + 1, dtype=float)
    rs = np.sqrt(idx)
    u = x / rs
    C, S = np.cos(u), np.sin(u)
    T = S / rs
    H = -np.outer(T, T) * _pairwise_exclusion_products(C)
    np.fill_diagonal(H, 1.0 / 2000.0 + float(np.prod(C)) / idx)
    return H


# Each numpy-built provider of the dense-hessian workload gives the pair rule
# applied to its own product, bit for bit, so that its trajectories keep
# their last bits.  Rosenbrock builds its product symmetric; Griewank's
# needs the rule.
@pytest.mark.parametrize("name, dim, product", [
    ("rosenbrock", 30, _rosenbrock_hess),
    ("griewank", 3, _griewank_product),
    ("griewank", 15, _griewank_product),
    ("griewank", 30, _griewank_product),
], ids=["rosenbrock30", "griewank3", "griewank15", "griewank30"])
def test_numpy_path_matches_the_array_rule(name, dim, product):
    obj = make_benchmark(name, dim)
    rng = np.random.default_rng(dim)
    repaired = 0
    for _ in range(50):
        x = rng.uniform(-20, 20, dim)
        raw = product(x)
        assert obj.hessian(x).tobytes() == _symmetrize_array(raw).tobytes()
        repaired += not np.array_equal(raw, raw.T)
    # each product entry multiplies n - 2 cosines, which is exact in any
    # order for n <= 4, so the rule has work to do from n = 5 on
    assert (repaired > 0) == (name == "griewank" and dim >= 5)


def _exactly_symmetric_at(hessian, points):
    for x in points:
        H = hessian(x)
        assert H.shape == (x.size, x.size)
        assert np.isfinite(H).all() and (H == H.T).all(), x


def _box_points(box, dim, seed, count=50):
    lo, hi = box
    return np.random.default_rng(seed).uniform(lo, hi, (count, dim))


def _catalog_providers():
    for e in catalog_entries():
        if e.ident == "protein":
            continue
        dims = [e.default_dim] + ([] if e.fixed_dim else [15])
        for dim in dims:
            yield pytest.param(e.ident, dim, id=f"{e.ident}-{dim}")


# eigh rejects a Hessian that is not exactly symmetric, and no provider in
# the package relies on anything to repair it: each one gives an exactly
# symmetric, finite matrix at seeded points of its entry's probe box.
@pytest.mark.parametrize("name, dim", list(_catalog_providers()))
def test_catalog_hessians_are_exactly_symmetric(name, dim):
    entry = next(e for e in catalog_entries() if e.ident == name)
    obj = make_benchmark(name, dim)
    _exactly_symmetric_at(obj.hessian,
                          _box_points(entry.probe_box, dim, seed=dim))


def test_chain_and_batch_hessians_are_exactly_symmetric():
    chain = make_benchmark("protein:ABBBA")
    _exactly_symmetric_at(chain.hessian,
                          _box_points((-3.0, 3.0), chain.dim, seed=1))
    s = make_stochastic_griewank(dim=5, batch_size=8, sigma=0.5, seed=3)
    _exactly_symmetric_at(sample_batch_objective(s, 0).hessian,
                          _box_points((-3.0, 3.0), 5, seed=2))
    griewank = make_benchmark("griewank", 6)
    _exactly_symmetric_at(lambda x: fd_hessian(griewank.value, x),
                          _box_points((-3.0, 3.0), 6, seed=3))


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4", "g5", "g6"])
def test_mero_hessians_are_exactly_symmetric(name):
    obj = mero_objective(builtin(name))
    _exactly_symmetric_at(obj.hessian, _box_points((-3.0, 3.0), 2, seed=4))


NEWTON_TYPE = ["nqn", "nqn-backtracking", "newton", "random-damping-newton"]


def _ends_on_a_bad_hessian(obj, x0, message):
    """Every Newton-type method stops before its first update, reporting
    eigh's rejection of the Hessian at x0."""
    for method in NEWTON_TYPE:
        trace = run(method, obj, np.asarray(x0, dtype=float), seed=0,
                    sched=DeltaSchedule(deltas=(0.0, 1.0, -1.0, 2.0)))
        assert trace.termination == f"numerical-error: {message}"
        assert trace.error_class == "InvalidInputError"
        assert trace.iterations == 0


# A non-finite Hessian entry is outside the domain of eigh, the step's one
# check of its Hessian: the run ends numerical-error instead of raising.
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_2x2_non_finite_hessian_entry_is_a_domain_error(bad, where):
    H = np.array([[2.0, 1.0], [1.0, 3.0]])
    H[where] = bad
    _ends_on_a_bad_hessian(_hessian_objective(H), [0.5, -0.25],
                           "matrix has non-finite entries")


@pytest.mark.parametrize("n", [2, 3])
def test_asymmetric_hessian_ends_as_numerical_error(n):
    # a hand-built Hessian is not averaged: eigh reports the asymmetry
    H = np.eye(n)
    H[0, 1], H[1, 0] = BIG, 1.5e308
    _ends_on_a_bad_hessian(_hessian_objective(H), np.zeros(n),
                           "matrix is not exactly symmetric")


def test_rosenbrock_hessian_overflow_is_a_domain_error():
    # Objective.hessian returns the overflowed matrix, and eigh rejects it.
    # No run reaches it: Rosenbrock's Hessian overflows only for |x| above
    # 1e152, where a run has already ended diverged.
    H = make_benchmark("rosenbrock", 3).hessian([1.0, 1e200, 1.0])
    assert not np.isfinite(H).all()
    with pytest.raises(InvalidInputError, match="non-finite"):
        eigh(H)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_rosenbrock_minimum():
    obj = make_benchmark("rosenbrock", 2)
    assert obj.value([1.0, 1.0]) == 0.0
    assert_allclose(obj.gradient([1.0, 1.0]), [0.0, 0.0], atol=0)


# The numpy array forms of the Rosenbrock value, gradient and Hessian: the
# reference for the catalog's Python-float loops.

def _rosenbrock_value_array(x):
    return float(((x[:-1] - 1.0) ** 2
                  + 100.0 * (x[1:] - x[:-1] ** 2) ** 2).sum())


def _rosenbrock_grad_array(x):
    g = np.zeros_like(x)
    d = x[1:] - x[:-1] ** 2
    g[:-1] += 2.0 * (x[:-1] - 1.0) - 400.0 * x[:-1] * d
    g[1:] += 200.0 * d
    return g


def _rosenbrock_hess_array(x):
    n = x.size
    H = np.zeros((n, n))
    for i in range(n - 1):
        H[i, i] += 2.0 + 1200.0 * x[i] ** 2 - 400.0 * x[i + 1]
        H[i + 1, i + 1] += 200.0
        H[i, i + 1] -= 400.0 * x[i]
        H[i + 1, i] -= 400.0 * x[i]
    return H


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 30, 100])
def test_rosenbrock_matches_array_reference(n):
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    for scale in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3):
        for _ in range(20):
            x = scale * rng.standard_normal(n)
            f, ref = _rosenbrock_value(x), _rosenbrock_value_array(x)
            if n <= 8:
                # fewer than 8 terms: numpy sums them left to right too
                assert f == ref
            else:
                # numpy's pairwise sum; the bound is set from the dtype
                assert abs(f - ref) <= 2 * (n - 1) * eps * ref
            assert np.array_equal(_rosenbrock_grad(x),
                                  _rosenbrock_grad_array(x))
            H = _rosenbrock_hess(x)
            assert H.dtype == np.float64 and H.shape == (n, n)
            assert np.array_equal(H, H.T)
            assert np.array_equal(H, _rosenbrock_hess_array(x))


def test_griewank_at_origin():
    obj = make_benchmark("griewank", 15)
    assert obj.value(np.zeros(15)) == 0.0


def test_griewank_nonnegative():
    obj = make_benchmark("griewank", 6)
    rng = np.random.default_rng(4)
    for _ in range(200):
        assert obj.value(rng.uniform(-50, 50, 6)) >= 0.0


def _griewank_hessian_loop(x):
    """Griewank Hessian one pair at a time: the reference for the vectorized
    ``hess``, which multiplies the same factors in another order."""
    n = x.size
    idx = np.arange(1, n + 1, dtype=float)
    rs = np.sqrt(idx)
    u = x / rs
    C, S = np.cos(u), np.sin(u)
    P = float(np.prod(C))
    H = np.empty((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[a] = mask[b] = False
            pab = float(np.prod(C[mask]))
            H[a, b] = H[b, a] = -(S[a] * S[b]) / (rs[a] * rs[b]) * pab
    np.fill_diagonal(H, 1.0 / 2000.0 + P / idx)
    return H


@pytest.mark.parametrize("dim", [1, 2, 3, 15, 30])
def test_griewank_hessian_matches_loop_reference(dim):
    obj = make_benchmark("griewank", dim)
    rng = np.random.default_rng(dim)
    off = ~np.eye(dim, dtype=bool)
    for _ in range(50):
        x = rng.uniform(-20, 20, dim)
        H, ref = obj.hessian(x), _griewank_hessian_loop(x)
        # the diagonal's arithmetic is unchanged, so it matches bit for bit;
        # the off-diagonal tolerance comes from the dtype and is not tuned
        assert np.array_equal(np.diag(H), np.diag(ref))
        tol = 64 * np.finfo(float).eps * np.abs(ref).max()
        assert np.all(np.abs(H - ref)[off] <= tol)


@pytest.mark.parametrize("C", [
    [0.75],
    [0.5, -0.25],
    [0.5, -0.25, 0.75, 2.0],
    [0.5, 0.0, 0.75, -2.0],           # one exact zero
    [0.0, -0.25, 0.75, 0.0, 1.5],     # two exact zeros
])
def test_pairwise_exclusion_products_brute_force(C):
    # dyadic entries make every product exact, so any order must agree
    C = np.array(C)
    d = C.size
    E = _pairwise_exclusion_products(C)
    assert E.shape == (d, d)
    for a in range(d):
        assert E[a, a] == np.prod(np.delete(C, a))
        for b in range(d):
            if a != b:
                assert E[a, b] == np.prod(np.delete(C, [a, b]))


def test_styblinski_tang_known_band():
    obj = make_benchmark("styblinski-tang", 100)
    v = obj.value(np.full(100, -2.903534))
    assert -3916.617 < v < -3916.616


def test_unknown_name_rejected():
    with pytest.raises(InvalidInputError):
        make_benchmark("not-a-function")


def test_fixed_dim_mismatch_rejected():
    # ex07 and ex08 are fixed at dims 2 and 4, but their factory builds any
    for name, dim in [("beale", 3), ("ex07", 3), ("ex08", 2)]:
        with pytest.raises(InvalidInputError):
            make_benchmark(name, dim)


def test_non_integral_dim_rejected():
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        make_benchmark("rosenbrock", dim=3.7)
    assert make_benchmark("rosenbrock", dim=np.int64(3)).dim == 3


@pytest.mark.parametrize("bad", [True, False, 2.9, 2.0, "2"])
def test_integer_rule(bad):
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        as_integer(bad, "n")
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        Objective(bad, lambda x: 0.0)
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        make_benchmark("griewank", dim=bad)
    with pytest.raises(InvalidInputError, match="dim must be an integer"):
        make_stochastic_griewank(dim=bad, batch_size=4, sigma=0.1, seed=1)
    with pytest.raises(InvalidInputError, match="seed must be an integer"):
        make_stochastic_griewank(dim=2, batch_size=4, sigma=0.1, seed=bad)


@pytest.mark.parametrize("dim", [0, -1])
def test_objective_dim_below_one_is_invalid_input(dim):
    with pytest.raises(InvalidInputError, match="^dim must be >= 1$"):
        Objective(dim, lambda x: 0.0)


def test_parametric_dim_below_minimum_rejected():
    # the message names the objective as the caller wrote it, not ex18
    with pytest.raises(InvalidInputError,
                       match=r"^rosenbrock needs dim >= 2, got 1$"):
        make_benchmark("rosenbrock", 1)


# params are the entry's keyword arguments: a key it does not take, dim
# included (make_benchmark's own argument), names the objective and the key
@pytest.mark.parametrize("name, params, key", [
    ("rosenbrock", {"dim": 5}, "dim"),
    ("rosenbrock", {"dims": 5}, "dims"),
    ("ex13", {"sequence": "AB"}, "sequence"),
    ("protein:ABBBA", {"seq": "B"}, "seq"),
    ("protein", {"sequence": "ABBBA", "seq": "B"}, "seq"),
])
def test_unknown_param_rejected(name, params, key):
    with pytest.raises(InvalidInputError,
                       match=rf"^{re.escape(name)}: .*'{key}'$"):
        make_benchmark(name, params=params)


def test_protein_sequence_is_its_only_param():
    assert make_benchmark("protein", params={"sequence": "ABBBA"}).dim == 3
    assert make_benchmark("protein:AB", params={"sequence": "ABBBA"}).dim == 3
    with pytest.raises(InvalidInputError, match="needs a sequence"):
        make_benchmark("protein")


def test_catalog_listing_structure():
    text = catalog_listing()
    assert "rosenbrock" in text
    assert "griewank" in text
    # one line per entry plus a header
    assert len(text.strip().splitlines()) >= len(list(catalog_entries()))


def test_default_starts():
    assert_allclose(default_start("ex07"), (0.55134554, 0.75134554))
    assert default_start("beale") is not None


def test_analytic_derivatives_spot_check():
    rng = np.random.default_rng(9)
    for name, dim in (("griewank", 3), ("griewank", 15),
                      ("styblinski-tang", 4)):
        obj = make_benchmark(name, dim)
        assert obj.analytic_gradient and obj.analytic_hessian
        for _ in range(5):
            x = rng.uniform(-3, 3, dim)
            assert_allclose(obj.gradient(x), fd_gradient(obj.value, x),
                            atol=1e-6, rtol=1e-6)
            assert_allclose(obj.hessian(x), fd_hessian(obj.value, x),
                            atol=1e-4, rtol=1e-4)


def test_cosine_integral_entry_guard():
    obj = make_benchmark("ex11")
    assert np.isfinite(obj.value([1.0]))
    with pytest.raises(DomainError):
        obj.value([0.0])
    with pytest.raises(DomainError):
        obj.value([-1.0])   # Ci(2/t) is complex for t < 0


# ---------------------------------------------------------------------------
# chain energy
# ---------------------------------------------------------------------------

def test_pair_coupling_values():
    assert pair_coupling(1, 1) == 1.0
    assert pair_coupling(-1, -1) == 0.5
    assert pair_coupling(1, -1) == -0.5
    assert pair_coupling(-1, 1) == -0.5


def test_parse_sequence():
    assert_allclose(parse_sequence("ABBBA"), [1, -1, -1, -1, 1])
    assert_allclose(parse_sequence("aba"), [1, -1, 1])
    with pytest.raises(InvalidInputError):
        parse_sequence("AB")
    with pytest.raises(InvalidInputError):
        parse_sequence("AXA")


def test_three_bead_flat_energies():
    assert protein_energy(np.array([0.0]), parse_sequence("AAA")) == 0.0
    assert abs(protein_energy(np.array([0.0]), parse_sequence("BAB"))
               - 2.0) <= 1e-14


def test_three_bead_bent_closed_form():
    # at a straight-angle bend the energy is 1/2 + 4(1 - C(xi1, xi3))
    for seq in ("AAA", "ABA", "BAB", "BBB", "AAB"):
        xi = parse_sequence(seq)
        expect = 0.5 + 4.0 * (1.0 - pair_coupling(xi[0], xi[2]))
        got = protein_energy(np.array([np.pi]), xi)
        assert abs(got - expect) <= 1e-10


def test_overlapping_beads_rejected():
    # two opposite bends fold bead 4 back onto bead 2
    with pytest.raises(DomainError):
        protein_energy(np.array([0.3, np.pi]), parse_sequence("AAAA"))


def test_reflection_invariance_palindromes():
    rng = np.random.default_rng(6)
    for seq in ("AAA", "ABA", "BAB", "ABBA", "BAAB", "ABBBA", "AABAA"):
        xi = parse_sequence(seq)
        for _ in range(10):
            theta = rng.uniform(-np.pi, np.pi, len(seq) - 2)
            a = protein_energy(theta, xi)
            b = protein_energy(-theta, xi)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_protein_objective_wrapper():
    obj = protein_objective("BAB")
    assert obj.dim == 1
    assert abs(obj.value([0.0]) - 2.0) <= 1e-14
    via_catalog = make_benchmark("protein:BAB")
    assert via_catalog.dim == 1
    assert via_catalog.value([0.4]) == obj.value([0.4])


def test_protein_dim_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        make_benchmark("protein:ABBBA", dim=2)


# ---------------------------------------------------------------------------
# stochastic batches
# ---------------------------------------------------------------------------

def test_zero_sigma_matches_deterministic():
    s = make_stochastic_griewank(dim=5, batch_size=3, sigma=0.0, seed=1)
    det = make_benchmark("griewank", 5)
    rng = np.random.default_rng(7)
    batch = sample_batch_objective(s, 0)
    for _ in range(5):
        x = rng.uniform(-5, 5, 5)
        assert_allclose(batch.value(x), det.value(x), rtol=1e-12)


def test_batch_determinism():
    s = make_stochastic_griewank(dim=4, batch_size=8, sigma=0.5, seed=42)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    a = sample_batch_objective(s, 3)
    b = sample_batch_objective(s, 3)
    assert a.value(x) == b.value(x)
    assert np.array_equal(a.gradient(x), b.gradient(x))
    c = sample_batch_objective(s, 4)
    assert c.value(x) != a.value(x)


def test_batch_value_zero_at_origin():
    s = make_stochastic_griewank(dim=6, batch_size=11, sigma=1.0, seed=5)
    assert sample_batch_objective(s, 2).value(np.zeros(6)) == 0.0


def test_batch_analytic_derivatives_match_fd():
    s = make_stochastic_griewank(dim=4, batch_size=16, sigma=0.5, seed=9)
    batch = sample_batch_objective(s, 1)
    x = np.array([2.0, -1.0, 0.7, 1.4])
    from qnewton.objectives import fd_gradient, fd_hessian
    assert_allclose(batch.gradient(x), fd_gradient(batch.value, x),
                    atol=1e-7)
    assert_allclose(batch.hessian(x), fd_hessian(batch.value, x), atol=1e-5)


def test_sampler_shapes_and_seeding():
    s = make_stochastic_griewank(dim=3, batch_size=10, sigma=0.5, seed=2)
    xi1 = s.sample_xi(0)
    xi2 = s.sample_xi(0)
    assert xi1.shape == (10,)
    assert np.array_equal(xi1, xi2)
    assert not np.array_equal(xi1, s.sample_xi(1))


def test_sample_xi_mean_and_spread():
    s = make_stochastic_griewank(dim=2, batch_size=4000, sigma=0.25, seed=3)
    xi = s.sample_xi(0)
    assert abs(float(np.mean(xi)) - 1.0) < 0.05
    assert abs(float(np.std(xi)) - 0.25) < 0.05


def _philox_normal(seed, step_index, sample_index):
    # reference draw: a fresh Philox and Generator per sample
    bits = np.random.Philox(key=int(seed) & (2 ** 64 - 1),
                            counter=[0, 0, int(step_index), int(sample_index)])
    return float(np.random.Generator(bits).standard_normal())


@pytest.mark.parametrize("seed", [0, 1, 42, 1016164991, 2 ** 63 + 5])
def test_sample_xi_matches_a_fresh_philox_per_sample(seed):
    sigma = float(np.sqrt(0.1))
    for step in (0, 1, 7, 49, 1000):
        for count in (1, 10, 500):
            s = make_stochastic_griewank(dim=2, batch_size=count,
                                         sigma=sigma, seed=seed)
            want = np.array([1.0 + sigma * _philox_normal(seed, step, i)
                             for i in range(count)])
            assert s.sample_xi(step).tobytes() == want.tobytes()


def _pair_loop_hessian(xi, x):
    # reference batch Hessian: one masked product and 1-d mean per pair
    n = x.size
    idx = np.arange(1, n + 1, dtype=float)
    rs = np.sqrt(idx)
    U = np.outer(xi, x / rs)
    C, S = np.cos(U), np.sin(U)
    H = np.empty((n, n))
    xi2 = xi * xi
    for a in range(n):
        for b in range(a + 1, n):
            mask = np.ones(n, dtype=bool)
            mask[a] = mask[b] = False
            pab = np.prod(C[:, mask], axis=1)
            H[a, b] = H[b, a] = -float(
                np.mean(xi2 * S[:, a] * S[:, b] * pab)) / (rs[a] * rs[b])
    np.fill_diagonal(H, float(np.mean(xi * xi)) / 2000.0
                     + float(np.mean(xi2 * np.prod(C, axis=1))) / idx)
    return H


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 15, 30])
def test_batch_hessian_matches_the_pair_loop(dim):
    rng = np.random.default_rng(dim)
    # batch 2000 at dim 30 splits the 435 pairs into blocks of 18
    for batch in (2000,) if dim == 30 else (1, 7, 100, 500):
        s = make_stochastic_griewank(dim=dim, batch_size=batch, seed=1)
        blocks = 0 if dim == 1 else 25 if dim == 30 else 1
        assert len(s._pair_blocks) == blocks
        for _ in range(10):
            xi = 1.0 + rng.uniform(0.0, 2.0) * rng.standard_normal(batch)
            x = rng.uniform(-20.0, 20.0, dim)
            got = s.make_batch(xi).hessian(x)
            assert got.tobytes() == _pair_loop_hessian(xi, x).tobytes()
