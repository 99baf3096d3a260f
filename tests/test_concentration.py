import math

import mpmath
import numpy as np
import pytest

from stoplab import concentration
from stoplab import noise as noise_module
from stoplab.concentration import MgfCheckConfig, mgf_check, weighted_square_tail_check
from stoplab.mcstats import clopper_pearson
from stoplab.noise import NoiseKind, calibrate, philox, sample, spawn_seed
from stoplab.sgdm import ScheduleVariant, Variant, a_coeff, sq_norm

from oracles import binomial_tail_mp, clopper_pearson_beta_ppf, weighted_square_tail_oracle

GAUSS2 = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
SPHERE3 = calibrate(NoiseKind.BOUNDED_SPHERE, 3, 1.0)


def test_mgf_lambda_zero_trivial():
    cfg = MgfCheckConfig([0.0], 1000, GAUSS2, np.array([1.0, 0.0]), seed=1)
    (r,) = mgf_check(cfg)
    assert r["estimate"] == pytest.approx(1.0)
    assert r["bound"] == 1.0
    assert r["pass"]


def test_mgf_zero_direction_skipped():
    cfg = MgfCheckConfig([1.0], 1000, GAUSS2, np.zeros(2))
    (r,) = mgf_check(cfg)
    assert r["skipped"] and r["pass"]


def test_mgf_gaussian_matches_analytic_oracle():
    cfg = MgfCheckConfig([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], 200_000, GAUSS2,
                         np.array([1.0, 0.0]), seed=3)
    for r in mgf_check(cfg):
        lam = r["lambda"]
        # <theta, phi> is N(0, scale^2): MGF = exp(lam^2 scale^2 / (2 sigma^2))
        oracle = math.exp(lam * lam * GAUSS2.scale**2 / 2.0)
        assert r["estimate"] == pytest.approx(oracle, rel=0.02)
        assert r["pass"]
        # the bound itself dominates the oracle analytically
        assert oracle <= r["bound"]


def test_mgf_two_sided_in_lambda():
    cfg = MgfCheckConfig([-1.0, 1.0], 100_000, SPHERE3, np.array([0.0, 2.0, 1.0]),
                         seed=9)
    reports = mgf_check(cfg)
    assert all(r["pass"] for r in reports)


def test_mgf_config_validation():
    with pytest.raises(ValueError):
        MgfCheckConfig([1.0], 0, GAUSS2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MgfCheckConfig([1.0], 10, GAUSS2, np.array([1.0, 0.0, 0.0]))


def test_tail_check_frequencies_and_monotonicity():
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
    c = np.asarray(a_coeff(sched, np.arange(1, 101)))
    reports = weighted_square_tail_check(c, GAUSS2, [0.0, 1.0, 2.0, 3.0],
                                         30_000, seed=5)
    freqs = [r["frequency"] for r in reports]
    assert all(r["pass"] for r in reports)
    assert freqs == sorted(freqs, reverse=True)
    # Omega = 0: bound is 1, can never fail
    assert reports[0]["bound"] == 1.0


def test_tail_check_matches_exact_oracle():
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
    c = np.asarray(a_coeff(sched, np.arange(1, 101)))
    r = weighted_square_tail_check(c, GAUSS2, [1.0], 100_000, seed=6)[0]
    thr = 2.0 * float(np.sum(c))
    exact = weighted_square_tail_oracle(c, GAUSS2.scale, 2, thr)
    assert r["ci_lo"] <= exact <= r["ci_hi"]


def test_tail_oracle_reduces_to_chi_square():
    from scipy.stats import chi2
    assert weighted_square_tail_oracle([1.0], 1.0, 2, 5.0) == \
        pytest.approx(chi2.sf(5.0, 2), rel=1e-12)
    # distinct-weight inversion agrees with the closed form on a near-equal case
    almost = weighted_square_tail_oracle([1.0, 1.0 + 1e-9], 1.0, 2, 5.0)
    assert almost == pytest.approx(chi2.sf(5.0, 4), rel=1e-5)


def test_tail_check_zero_noise_and_validation():
    zero = calibrate(NoiseKind.NONE, 2, 1.0)
    r = weighted_square_tail_check([1.0, 2.0], zero, [1.0], 1000)[0]
    assert r["frequency"] == 0.0 and r["pass"]
    # degenerate zero threshold (sigma = 0): strict comparison keeps the
    # noiseless exceedance at 0
    degenerate = calibrate(NoiseKind.NONE, 2, 0.0)
    r = weighted_square_tail_check([1.0, 2.0], degenerate, [1.0], 1000)[0]
    assert r["frequency"] == 0.0 and r["pass"]
    with pytest.raises(ValueError):
        weighted_square_tail_check([], GAUSS2, [1.0], 1000)
    with pytest.raises(ValueError):
        weighted_square_tail_check([1.0, -1.0], GAUSS2, [1.0], 1000)


def test_clopper_pearson_basics():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and lo > 0.9
    lo, hi = clopper_pearson(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)


@pytest.mark.parametrize("confidence", [0.99, 0.95])
def test_clopper_pearson_brackets_the_beta_quantile(confidence):
    # every k for n <= 1001, then the edges and sampled k at large n
    ns = np.arange(1, 1002)
    n = np.repeat(ns, ns + 1)
    k = np.concatenate([np.arange(m + 1) for m in ns])
    rng = np.random.default_rng(7)
    for big in (10**4, 10**5, 10**6):
        ks = np.concatenate([[0, 1, 2, big // 2, big - 2, big - 1, big],
                             rng.integers(0, big + 1, size=200)])
        n = np.concatenate([n, np.full(ks.size, big)])
        k = np.concatenate([k, ks])
    lo, hi = clopper_pearson(k, n, confidence)
    assert np.all(lo[k == 0] == 0.0) and np.all(hi[k == n] == 1.0)
    # within 1e-12 (relative) of scipy's quantile, the width clopper_pearson
    # states; at n >= 1e4 scipy's own error reaches 1e-11
    ref_lo, ref_hi = clopper_pearson_beta_ppf(k, n, confidence)
    width = np.where(n <= 1001, 1e-12, 2e-11)
    assert np.all(np.abs(lo - ref_lo) <= width * ref_lo)
    assert np.all(np.abs(hi - ref_hi) <= width * ref_hi)
    # outward of the 50-digit quantile and within 1e-12 of it: the binomial
    # tail at each end is at most alpha/2, and beyond it 1e-12 further in
    half = mpmath.mpf((1.0 - confidence) / 2.0)
    sample = np.concatenate([rng.choice(np.flatnonzero(n <= 1001), 8, replace=False),
                             rng.choice(np.flatnonzero(n > 1001), 8, replace=False),
                             np.flatnonzero((n == 10**6) & np.isin(k, [1, 10**6 // 2, 10**6 - 1]))])
    for i in sample:
        kk, nn = int(k[i]), int(n[i])
        if kk > 0:
            assert binomial_tail_mp(kk, nn, lo[i], upper=True) <= half
            assert binomial_tail_mp(kk, nn, lo[i] * (1.0 + 1e-12), upper=True) > half
        if kk < nn:
            assert binomial_tail_mp(kk, nn, hi[i], upper=False) <= half
            assert binomial_tail_mp(kk, nn, hi[i] * (1.0 - 1e-12), upper=False) > half


def test_clopper_pearson_is_vectorized_and_scalar_gives_floats():
    lo, hi = clopper_pearson(np.array([[0, 3], [7, 10]]), 10)
    assert lo.shape == hi.shape == (2, 2)
    for kk, a, b in zip([0, 3, 7, 10], lo.ravel(), hi.ravel()):
        assert clopper_pearson(kk, 10) == (a, b)
        assert type(clopper_pearson(kk, 10)[0]) is float
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(1, 10, confidence=1.0)


@pytest.mark.parametrize("dim", [2, 16])
def test_tail_totals_sum_dim_columns_in_sequence(dim):
    # the tail check's totals against a last-axis np.sum: the same additions
    # in the same order below d = 8 (numpy sums short axes in sequence),
    # pairwise against sequential rounding above
    rng = np.random.default_rng(dim)
    theta = rng.standard_normal((300, 100, dim))
    c = np.asarray(a_coeff(ScheduleVariant(Variant.THEOREM_MAIN, L=1.0), np.arange(1, 101)))
    old = np.sum(c[None, :] * np.sum(theta * theta, axis=-1), axis=-1)
    new = np.sum(c[None, :] * sq_norm(np.moveaxis(theta, -1, 0)), axis=-1)
    if dim < 8:
        assert np.array_equal(new, old)
    else:
        np.testing.assert_allclose(new, old, rtol=1e-15, atol=0.0)


def _tail_inputs(dim, kind, n_c=100):
    c = np.asarray(a_coeff(ScheduleVariant(Variant.THEOREM_MAIN, L=1.0), np.arange(1, n_c + 1)))
    return c, calibrate(kind, dim, 1.0)


def test_tail_check_memory_does_not_grow_with_the_chunk():
    # one 2^15-draw chunk at d = 64 held 2^21 doubles at once: a 31.9 MiB peak
    import tracemalloc
    c, noise = _tail_inputs(64, NoiseKind.GAUSSIAN_ISOTROPIC)
    tracemalloc.start()
    try:
        weighted_square_tail_check(c, noise, [1.0], 327, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (1 << 20)


@pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_ISOTROPIC, NoiseKind.BOUNDED_SPHERE])
@pytest.mark.parametrize("dim", [2, 16, 64])
def test_tail_check_sub_blocks_change_no_bit(monkeypatch, kind, dim):
    c, noise = _tail_inputs(dim, kind, n_c=40)
    norms = []
    real = concentration.sq_norm

    def recording(theta, axis=0, out=None):
        got = real(theta, axis, out)
        norms.append(got.ravel().copy())
        return got

    monkeypatch.setattr(concentration, "sq_norm", recording)
    omegas = [0.0, 0.1, 0.5, 1.0, 2.0]
    default = weighted_square_tail_check(c, noise, omegas, 100, seed=9)
    default_norms, norms[:] = np.concatenate(norms), []
    monkeypatch.setattr(noise_module, "_DRAW_BLOCK", 200)
    tiny = weighted_square_tail_check(c, noise, omegas, 100, seed=9)
    assert len(norms) > 1
    assert tiny == default
    assert np.array_equal(np.concatenate(norms), default_norms)


@pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_ISOTROPIC, NoiseKind.BOUNDED_SPHERE])
@pytest.mark.parametrize("dim", [2, 16])
def test_tail_check_bits_across_chunks_match_whole_chunk_draws(monkeypatch, kind, dim):
    # 40 draws a run and 819 runs a chunk: 1645 runs span three chunks, at
    # d = 16 each drawn in sub-blocks; the oracle draws chunk ci with one
    # sample call from key (seed, 1, ci) and sums the squares over dim in order
    c, noise = _tail_inputs(dim, kind, n_c=40)
    n_runs, seed, omegas = 2 * 819 + 7, 4, [0.0, 0.05, 0.1, 0.2, 0.5]
    norms, real = [], concentration.sq_norm
    monkeypatch.setattr(concentration, "sq_norm", lambda theta, axis=0, out=None:
                        norms.append(real(theta, axis, out).copy()) or out)
    got = weighted_square_tail_check(c, noise, omegas, n_runs, seed=seed)

    want = []
    for ci, lo in enumerate(range(0, n_runs, 819)):
        m = min(819, n_runs - lo)
        draws = sample(noise, philox(spawn_seed(seed, 1, ci)), m * 40)
        sq = draws[:, 0] * draws[:, 0]
        for j in range(1, dim):
            sq += draws[:, j] * draws[:, j]
        want.append(sq)
    want = np.concatenate(want)
    assert np.array_equal(np.concatenate(norms), want)
    totals = np.sum(c * want.reshape(n_runs, 40), axis=-1)
    threshold = float(np.sum(c)) * noise.sigma_certificate ** 2
    hits = [int(np.sum(totals >= (1.0 + omega) * threshold)) for omega in omegas]
    assert [round(r["frequency"] * n_runs) for r in got] == hits
    if kind is NoiseKind.GAUSSIAN_ISOTROPIC:  # sphere draws have one norm: no hit beyond 0
        assert 0 < hits[-1] < hits[0] < n_runs


def test_mgf_check_memory_does_not_grow_with_the_chunk():
    # one 2^15-draw chunk at d = 64 held 2^21 doubles at once: a 32 MiB peak
    import tracemalloc
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 64, 1.0)
    cfg = MgfCheckConfig([1.0], 1 << 15, noise, np.ones(64), seed=3)
    tracemalloc.start()
    try:
        mgf_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (1 << 20)


@pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_ISOTROPIC, NoiseKind.BOUNDED_SPHERE])
@pytest.mark.parametrize("dim", [2, 16, 64])
def test_mgf_sub_blocks_change_no_bit(monkeypatch, kind, dim):
    # against whole-chunk draws; the run crosses a chunk boundary
    noise = calibrate(kind, dim, 1.0)
    phi = np.linspace(-1.0, 2.0, dim)
    cfg = MgfCheckConfig([-2.0, -0.5, 0.5, 1.0, 2.0], (1 << 15) + 777, noise, phi, seed=5)
    blocked = mgf_check(cfg)
    monkeypatch.setattr(noise_module, "_DRAW_BLOCK", 1 << 40)
    assert mgf_check(cfg) == blocked
