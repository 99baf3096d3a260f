import functools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab.errors import DimensionMismatchError
from stoplab.objectives import (eval_objective, grad, huberized_abs,
                                least_squares, least_squares_random, quadratic)

from oracles import gram_times_by_columns, least_squares_residual_form, sample_ball


def _objectives():
    return [
        quadratic(np.array([1.0])),
        quadratic(np.array([0.5, 2.0, 1.0]), center=np.array([1.0, -1.0, 0.5])),
        least_squares_random(5, 12, seed=3),
        huberized_abs(3, delta=0.5, center=np.array([0.2, -0.3, 0.0])),
    ]


def test_quadratic_basics():
    obj = quadratic(np.array([1.0, 4.0]))
    assert obj.smoothness == 4.0
    assert eval_objective(obj, np.array([1.0, 1.0])) == pytest.approx(2.5)
    np.testing.assert_allclose(grad(obj, np.array([1.0, 1.0])), [1.0, 4.0])
    assert obj.min_value == 0.0


def test_quadratic_rejects_bad_diag():
    with pytest.raises(ValueError):
        quadratic(np.array([1.0, -1.0]))
    with pytest.raises(DimensionMismatchError):
        quadratic(np.array([1.0]), center=np.array([0.0, 0.0]))


def test_least_squares_minimizer_and_smoothness():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    b = rng.standard_normal(8)
    obj = least_squares(A, b)
    # normal-equations optimum: the residual form's gradient vanishes there
    assert np.linalg.norm(least_squares_residual_form(obj, obj.minimizer)[1]) < 1e-9
    # the centered Gram form vanishes exactly at the x* it is centered on
    assert not np.any(grad(obj, obj.minimizer))
    assert eval_objective(obj, obj.minimizer) == obj.min_value
    assert obj.min_value == pytest.approx(
        0.5 * np.sum((A @ obj.minimizer - b) ** 2), rel=1e-12)
    # L bounds the exact top eigenvalue of the floating-point G from above,
    # by no more than its stated 16 d u allowance (plus eigvalsh's own error,
    # at most as large, and the final ulp); m = d + 1 gives the worst-
    # conditioned instances
    for dim in (1, 2, 3, 5, 8, 16):
        for m in (dim + 1, 2 * dim + 3):
            for seed in range(20):
                obj = least_squares_random(dim, m, seed)
                with mpmath.workdps(50):
                    top = max(mpmath.eigsy(mpmath.matrix(obj.params["gram"].tolist()),
                                           eigvals_only=True))
                    over = (mpmath.mpf(obj.smoothness) - top) / top
                assert 0 <= over <= 2 * 16 * dim * 2.0**-53 + 2.0**-51, (dim, m, seed)


@pytest.mark.parametrize("dim,m,seed", [(5, 12, 3), (16, 40, 7), (64, 96, 101)])
def test_least_squares_gram_form_matches_residual_form(dim, m, seed):
    obj = least_squares_random(dim, m, seed)
    G = obj.params["gram"]
    assert np.array_equal(G, G.T)
    xs = sample_ball(obj, 200, np.random.default_rng(seed))
    f, g = least_squares_residual_form(obj, xs)
    gap = f - obj.min_value
    np.testing.assert_array_less(
        np.abs(eval_objective(obj, xs) - obj.min_value - gap), 1e-12 * gap)
    np.testing.assert_array_less(
        np.linalg.norm(grad(obj, xs) - g, axis=1), 1e-12 * np.linalg.norm(g, axis=1))


@pytest.mark.parametrize("dim", [1, 2, 5, 16, 64, 65, 257])
def test_least_squares_gram_product_follows_the_column_order(dim):
    # G u must be built in the oracle's order, one rounded multiply and add
    # per column of G.  This test fails on a numpy build that fuses the
    # multiply-add (an FMA baseline, aarch64 NEON) or reorders the
    # contraction; the stream's bits, and their independence of the worker
    # split, rest on that order.  Columns of A scaled over 10^+-2.5 spread
    # G's entries over 10^+-5, and u's entries spread as far, so that any
    # change of order shows in the rounding.
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim + 3, dim)) * 10.0 ** rng.uniform(-2.5, 2.5, dim)
    obj = least_squares(A, rng.standard_normal(dim + 3))
    G = obj.params["gram"]
    for R in (1, 2, 3, 128, 129, 1000):
        rows = obj.minimizer + (rng.standard_normal((R, dim))
                                * 10.0 ** rng.uniform(-5, 5, (R, dim)))
        points = [rows, np.asfortranarray(rows)] + ([rows[0]] if R == 1 else [])
        for x in points:
            ut = np.atleast_2d(x).T - obj.minimizer[:, None]
            gut = gram_times_by_columns(G, ut)
            f = obj.min_value + 0.5 * np.add.accumulate(gut * ut, axis=0)[-1]
            if x.ndim == 1:
                gut, f = gut[:, 0], f[0]
            g = grad(obj, x)
            assert np.array_equal(g, gut.T), (R, x.ndim, x.flags.f_contiguous)
            assert np.array_equal(eval_objective(obj, x), f), (R, x.ndim)
            assert np.array_equal(eval_objective(obj, x, g), f), (R, x.ndim)


def test_least_squares_grad_memory_is_one_batch():
    # the residual form broadcast an (R, m, dim) product: about 6 MB here
    import tracemalloc
    obj = least_squares_random(64, 96, 5)
    xs = sample_ball(obj, 128, np.random.default_rng(0))
    tracemalloc.start()
    try:
        grad(obj, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_least_squares_rejects_rank_deficient():
    A = np.ones((3, 2))
    with pytest.raises(ValueError):
        least_squares(A, np.zeros(3))


def test_huberized_abs_regimes():
    obj = huberized_abs(1, delta=1.0)
    # inside: quadratic with slope u/delta; outside: slope saturates at 1
    assert eval_objective(obj, np.array([0.5])) == pytest.approx(0.125)
    assert eval_objective(obj, np.array([3.0])) == pytest.approx(2.5)
    assert grad(obj, np.array([0.5]))[0] == pytest.approx(0.5)
    assert grad(obj, np.array([3.0]))[0] == pytest.approx(1.0)
    assert grad(obj, np.array([-3.0]))[0] == pytest.approx(-1.0)
    assert obj.smoothness == 1.0


@pytest.mark.parametrize("obj", _objectives())
def test_gradient_matches_finite_differences(obj):
    rng = np.random.default_rng(7)
    x = sample_ball(obj, 1, rng)[0]
    g = grad(obj, x)
    h = 1e-6
    for j in range(obj.dim):
        e = np.zeros(obj.dim)
        e[j] = h
        fd = (eval_objective(obj, x + e) - eval_objective(obj, x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("obj", _objectives())
def test_batched_matches_single_bitwise(obj):
    rng = np.random.default_rng(11)
    xs = sample_ball(obj, 32, rng)
    fb = eval_objective(obj, xs)
    gb = grad(obj, xs)
    for i in range(32):
        assert float(eval_objective(obj, xs[i])) == fb[i]
        assert np.array_equal(grad(obj, xs[i]), gb[i])


_GRAD_FED = [
    quadratic(np.array([0.5, 2.0, 1.0])),
    quadratic(np.array([0.5, 2.0, 1.0]), center=np.array([1.0, -1.0, 0.5])),
    least_squares_random(5, 12, seed=3),
    least_squares_random(16, 40, seed=7),
    least_squares_random(64, 96, seed=101),
    huberized_abs(3, delta=0.5, center=np.array([0.2, -0.3, 0.0])),
]


@pytest.mark.parametrize("obj", _GRAD_FED,
                         ids=["quad", "quad-center", "lsq-5", "lsq-16", "lsq-64", "huber"])
def test_gradient_fed_value_is_bitwise_the_plain_value(obj):
    # the stream hands eval_objective the gradient it already has; f must
    # come out with the bits of f computed alone
    xs = sample_ball(obj, 128, np.random.default_rng(obj.dim))
    for x in (xs[0], xs[:1], xs):
        assert np.array_equal(eval_objective(obj, x, grad(obj, x)), eval_objective(obj, x))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "least_squares", "huber"]),
    dim=st.integers(1, 24),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_gradient_fed_value_property(kind, dim, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        obj = quadratic(rng.uniform(0.1, 10.0, dim), center=rng.standard_normal(dim))
    elif kind == "least_squares":
        obj = least_squares_random(dim, dim + 1 + int(rng.integers(0, 2 * dim)), seed)
    else:
        obj = huberized_abs(dim, delta=float(rng.uniform(0.05, 5.0)),
                            center=rng.standard_normal(dim))
    xs = obj.minimizer + rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    assert np.array_equal(eval_objective(obj, xs, grad(obj, xs)), eval_objective(obj, xs))


@functools.cache
def _layout_objective(kind: str, dim: int):
    rng = np.random.default_rng(dim)
    if kind == "quadratic":
        return quadratic(rng.uniform(0.5, 2.0, dim), center=rng.standard_normal(dim))
    if kind == "least-squares":
        # a scaled identity plus one dense row: a dense G whose top eigenvalue
        # stands apart, so the instance is cheap to certify even at d = 1200
        A = np.vstack([np.diag(rng.uniform(1.0, 2.0, dim)), rng.standard_normal((1, dim))])
        return least_squares(A, rng.standard_normal(dim + 1))
    return huberized_abs(dim, delta=0.5, center=rng.standard_normal(dim))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 64, 1200])
@pytest.mark.parametrize("kind", ["quadratic", "least-squares", "huber"])
def test_layouts_give_the_same_bits(kind, dim):
    # a C-ordered (R, d) batch, the .T view of a C-ordered (d, R) array (the
    # stream's state) and each row alone are the same points: grad and f,
    # with and without the gradient fed in, must agree bitwise
    obj = _layout_objective(kind, dim)
    R = 5
    rows = obj.minimizer + np.random.default_rng(dim + 1).standard_normal((R, dim))
    minor = np.ascontiguousarray(rows.T).T
    assert rows.flags.c_contiguous and minor.base.flags.c_contiguous
    g, f = grad(obj, rows), eval_objective(obj, rows)
    assert g.shape == (R, dim) and f.shape == (R,)
    for x in (rows, minor):
        gx = grad(obj, x)
        assert np.array_equal(gx, g)
        assert np.array_equal(eval_objective(obj, x), f)
        assert np.array_equal(eval_objective(obj, x, gx), f)
    for i in range(R):
        gi = grad(obj, rows[i])
        assert gi.shape == (dim,) and np.array_equal(gi, g[i])
        assert eval_objective(obj, rows[i]) == f[i]
        assert eval_objective(obj, rows[i], gi) == f[i]


def test_dimension_mismatch_raises():
    obj = quadratic(np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        eval_objective(obj, np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        grad(obj, np.zeros(1))
    with pytest.raises(DimensionMismatchError):
        grad(obj, np.zeros((2, 3, 2)))


@settings(max_examples=50, deadline=None)
@given(
    diag=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_quadratic_convexity_property(diag, t, seed):
    obj = quadratic(np.array(diag))
    rng = np.random.default_rng(seed)
    x, y = sample_ball(obj, 2, rng)
    lhs = eval_objective(obj, t * x + (1 - t) * y)
    rhs = t * eval_objective(obj, x) + (1 - t) * eval_objective(obj, y)
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


@settings(max_examples=50, deadline=None)
@given(delta=st.floats(0.05, 5.0), seed=st.integers(0, 2**16))
def test_huber_smoothness_property(delta, seed):
    obj = huberized_abs(2, delta=delta)
    rng = np.random.default_rng(seed)
    x, y = sample_ball(obj, 2, rng)
    num = np.linalg.norm(grad(obj, x) - grad(obj, y))
    den = obj.smoothness * np.linalg.norm(x - y)
    assert num <= den + 1e-9


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["least_squares", "huber"]), dim=st.integers(1, 6),
       t=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_least_squares_and_huber_convexity_property(kind, dim, t, seed):
    # the quadratic has its own property test above; f at a convex
    # combination stays below the chord, and grad f vanishes at x*
    rng = np.random.default_rng(seed)
    if kind == "least_squares":
        obj = least_squares_random(dim, dim + 1 + int(rng.integers(0, 2 * dim)), seed)
    else:
        obj = huberized_abs(dim, delta=float(rng.uniform(0.05, 5.0)),
                            center=rng.standard_normal(dim))
    x, y = sample_ball(obj, 2, rng)
    lhs = eval_objective(obj, t * x + (1 - t) * y)
    rhs = t * eval_objective(obj, x) + (1 - t) * eval_objective(obj, y)
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))
    assert not np.any(grad(obj, obj.minimizer))
