import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab import objectives, sgdm
from stoplab.errors import DivergenceError
from stoplab.noise import _DRAW_BLOCK as NOISE_DRAW_BLOCK
from stoplab.noise import NoiseKind, NoiseModel, calibrate
from stoplab.objectives import (eval_objective, huberized_abs, least_squares_random,
                                quadratic)
from stoplab.sgdm import (DIVERGENCE_RADIUS, ScheduleVariant, Variant, a_coeff,
                          derive_seeds, dim_sum, energy, energy_weight, eta, phi,
                          schedule_columns, sq_norm, stream_ensemble)

from oracles import run_paths, seeds_by_seed_sequence, step_views

SCHED1 = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
ZERO2 = NoiseModel(NoiseKind.NONE, dim=2, sigma_certificate=0.0, scale=0.0)


def test_schedule_frozen_values():
    # literals derived by hand from the closed-form schedules with natural log
    assert eta(SCHED1, 1) == pytest.approx(0.051783465605638936, rel=1e-12)
    assert eta(SCHED1, 0) == pytest.approx(0.13008556131285048, rel=1e-12)
    assert a_coeff(SCHED1, 1) == pytest.approx(0.828535449690223, rel=1e-12)
    se = ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.3, c0_prime=100.0)
    assert eta(se, 1) == pytest.approx(0.0005530727089682372, rel=1e-12)
    assert eta(se, 0) == pytest.approx(0.00100648409884751, rel=1e-12)


def test_a_coeff_is_16_eta_over_k():
    ks = np.arange(1, 200)
    np.testing.assert_allclose(a_coeff(SCHED1, ks), 16.0 * eta(SCHED1, ks) / ks,
                               rtol=1e-14)
    with pytest.raises(ValueError):
        a_coeff(SCHED1, 0)


@pytest.mark.parametrize("sched", [
    SCHED1,
    ScheduleVariant(Variant.THEOREM_MAIN, L=3.7),
    ScheduleVariant(Variant.PROPOSITION_EPS, L=2.0, epsilon=0.3),
    ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.01, c0_prime=250.0),
], ids=["main-L1", "main-L3.7", "eps-0.3", "eps-0.01-c250"])
def test_schedule_columns_are_bitwise_the_scalar_calls(sched):
    # the stream forms a slab's eta_k and a_k columns in one call, and w_k
    # in one energy_weight call on the eta_k column; every entry must have
    # the bits of the scalar calls, and w_k those of 4 sqrt((k+1) eta_k)
    # formed one k at a time.  numpy's array power gives other bits in about
    # 1e-3 of the entries at p = 2 (it squares by x * x) and 4% at p = 1 + eps
    ks = range(1, 100_001)
    etas = [eta(sched, k) for k in ks]
    a = np.array([a_coeff(sched, k) for k in ks])
    w = np.array([4.0 * math.sqrt((k + 1.0) * e) for k, e in zip(ks, etas)])
    kcol = np.arange(1.0, len(ks) + 1.0)[:, None]
    eta_col, a_col = schedule_columns(sched, kcol)
    assert eta_col.shape == a_col.shape == (len(ks), 1)
    assert eta_col.tobytes() == np.array(etas).tobytes()
    assert a_col.tobytes() == a.tobytes()
    assert energy_weight(kcol, eta_col).tobytes() == w.tobytes()
    assert energy_weight(7, etas[6]) == w[6]
    # the stream forms the table once a noise block (K = 2500 crosses the
    # 1024-step blocks); each slab's k, eta_k, a_k and w_k are slices of it
    K = 2500
    slabs = list(stream_ensemble(quadratic(np.ones(1)), NoiseModel(NoiseKind.NONE, 1, 0.0, 0.0),
                                 sched, K, [0], np.ones(1), ("E", "a_k"), 37))
    for field, want in (("k", np.arange(1, K + 1)), ("eta_k", etas[:K]), ("a_k", a[:K]),
                        ("w_k", w[:K])):
        got = np.concatenate([getattr(slab, field) for slab in slabs])
        assert got.shape == (K, 1)
        assert got.tobytes() == np.asarray(want).tobytes(), field


def test_stream_holds_each_generator_from_its_first_draw_to_its_last(monkeypatch):
    # in a run of several blocks each trajectory's Philox generator (about
    # 730 bytes) is made at its first draw and dropped after its last: with
    # blocks of 4 steps at K = 10 (slabs of up to 3) all R live through the
    # first two blocks and none past the last one's draw; a one-block run
    # makes one generator, re-keyed for every trajectory, and holds none
    # past the block's draw
    import weakref

    class Gen(np.random.Generator):  # a numpy Generator takes no weak reference
        pass

    refs = []

    def alive():
        return sum(ref() is not None for ref in refs)

    philox, made = sgdm.philox, []

    def made_or_rekeyed(key, reuse=None):
        if reuse is not None:
            return philox(key, reuse)
        made.append(alive())
        refs.append(weakref.ref(gen := Gen(philox(key).bit_generator)))
        return gen

    monkeypatch.setattr(sgdm, "philox", made_or_rekeyed)
    obj, noise, R = quadratic(np.ones(2)), calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0), 5
    monkeypatch.setattr(sgdm, "_NOISE_BYTES", 4 * 8 * 2 * R)
    for K, before, per_slab in ((10, list(range(R)), [R, R, R, R, 0]), (3, [0], [0])):
        refs.clear()
        made.clear()
        got = [alive() for _ in stream_ensemble(obj, noise, SCHED1, K, derive_seeds(5, R),
                                                 np.ones(2), (), 3)]
        assert made == before and got == per_slab, (K, made, got)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleVariant(Variant.THEOREM_MAIN, L=0.0)
    with pytest.raises(ValueError):
        ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.6)
    with pytest.raises(ValueError):
        ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.3, c0_prime=50.0)


def test_first_step_hand_value():
    # 1D quadratic x^2/2, x0 = x1 = 2, g = 2 at k = 1:
    # momentum vanishes, x2 = 2 - (2 sqrt(eta_1)/3) * 2 = 2 - 1/(3 ln 3)
    obj = quadratic(np.array([1.0]))
    zero = NoiseModel(NoiseKind.NONE, dim=1, sigma_certificate=0.0, scale=0.0)
    (rec,) = stream_ensemble(obj, zero, SCHED1, 1, [0], np.array([2.0]))
    assert rec.k[0, 0] == 1
    v = step_views(rec, obj)
    assert v.x_next[0, 0] == pytest.approx(1.696586924457721, rel=1e-14)
    assert np.array_equal(v.x_prev, v.x_curr)
    assert np.array_equal(v.g, [[2.0]])


def test_step_rejects_bad_inputs():
    obj = quadratic(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        next(stream_ensemble(obj, ZERO2, SCHED1, 5, [0], np.zeros(3)))
    with pytest.raises(ValueError):
        next(stream_ensemble(obj, ZERO2, SCHED1, 0, [0], np.zeros(2)))


def test_zero_noise_trajectory_decreases_gap():
    obj = quadratic(np.array([1.0, 2.0]))
    traj = run_paths(obj, ZERO2, SCHED1, 500, [0], np.array([2.0, -1.0]))
    assert traj.f_gaps[0, 0] == pytest.approx(3.0)
    assert traj.f_gaps[0, -1] < 1e-2 * traj.f_gaps[0, 0]
    # x_1 = x_0 by construction
    assert np.array_equal(traj.xs[0, 0], traj.xs[0, 1])
    # thetas identically zero, g = grad f
    assert not np.any(traj.thetas)


def test_trajectory_determinism():
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    a = run_paths(obj, noise, SCHED1, 100, [42], np.array([2.0, -1.0]))
    b = run_paths(obj, noise, SCHED1, 100, [42], np.array([2.0, -1.0]))
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.thetas, b.thetas)
    c = run_paths(obj, noise, SCHED1, 100, [43], np.array([2.0, -1.0]))
    assert not np.array_equal(a.thetas, c.thetas)


def test_ensemble_matches_singles_bitwise():
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    seeds = derive_seeds(7, 5)
    ens = run_paths(obj, noise, SCHED1, 1500, seeds, np.array([2.0, -1.0]))
    for i in (0, 2, 4):
        solo = run_paths(obj, noise, SCHED1, 1500, [int(seeds[i])],
                         np.array([2.0, -1.0]))
        assert np.array_equal(ens.xs[i], solo.xs[0])
        assert np.array_equal(ens.thetas[i], solo.thetas[0])
        assert np.array_equal(ens.f_gaps[i], solo.f_gaps[0])


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 64, 1200])
def test_dim_sum_adds_rows_in_sequence(dim):
    # the reference adds one row at a time; dim_sum must match it bitwise for
    # every block width and memory layout, and down axis 1 of a (B, dim, R)
    # stack of steps (numpy alone sums a single column, a block whose dim
    # axis is contiguous or a (B, dim, 1) stack pairwise); a sum of -0.0
    # terms is +0.0 on every path
    rng = np.random.default_rng(dim)
    for R in (1, 2, 3, 50):
        v = rng.standard_normal((dim, R))
        ref = v[0].copy()
        for row in v[1:]:
            ref = ref + row
        for block in (v, np.asfortranarray(v)):
            assert np.array_equal(dim_sum(block), ref)
        assert dim_sum(v[:, 0]) == ref[0]
        for B in (1, 4):
            stack = np.stack([v] * B)
            assert np.array_equal(dim_sum(stack, 1), np.stack([ref] * B))
            assert np.array_equal(dim_sum(stack.transpose(1, 0, 2)), np.stack([ref] * B))
        for block in (np.full((dim, R), -0.0), np.full((1, dim, R), -0.0)):
            assert dim_sum(block, block.ndim - 2).tobytes() == np.zeros(R).tobytes()


def test_derive_seeds_stable_and_distinct():
    s1 = derive_seeds(123, 8)
    s2 = derive_seeds(123, 8)
    assert np.array_equal(s1, s2)
    assert len(set(int(x) for x in s1)) == 8
    # prefix stability: growing the ensemble preserves earlier seeds
    assert np.array_equal(derive_seeds(123, 4), s1[:4])


@pytest.mark.parametrize("lo,hi", [(0, 3), (3, 8), (7, 8), (5, 5)])
def test_block_seeds_are_the_slice_of_the_run(lo, hi):
    # a worker block derives only its own trajectories' seeds
    assert np.array_equal(derive_seeds(123, hi - lo, start=lo), derive_seeds(123, 8)[lo:hi])


@pytest.mark.parametrize("base_seed", [0, 1, 2024, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1])
def test_derive_seeds_matches_seed_sequence_bitwise(base_seed):
    for start in (0, 17, 2**20):
        for n in (0, 1, 1000):
            seeds = derive_seeds(base_seed, n, start=start)
            assert seeds.dtype == np.uint64
            assert np.array_equal(seeds, seeds_by_seed_sequence(base_seed, n, start))
    # the last indices it accepts
    assert np.array_equal(derive_seeds(base_seed, 3, start=2**32 - 3),
                          seeds_by_seed_sequence(base_seed, 3, 2**32 - 3))
    # a block's seeds are the matching slice of the whole run's
    run = derive_seeds(base_seed, 1000)
    for lo, hi in ((0, 1), (17, 500), (999, 1000), (400, 400)):
        assert np.array_equal(derive_seeds(base_seed, hi - lo, start=lo), run[lo:hi])


def test_derive_seeds_rejects_out_of_range():
    # indices from 2^32 on would take a second spawn-key word
    for base_seed, n, start in ((-1, 1, 0), (2**64, 1, 0), (0, 1, -1), (0, 2, 2**32 - 1)):
        with pytest.raises(ValueError):
            derive_seeds(base_seed, n, start=start)


def test_trajectory_accessors():
    # consecutive steps chain: step k+1 starts where step k ended, the
    # last step carries x_{K+1}, f(x_K) - f* and E(K), and each step
    # carries its schedule scalars
    obj = quadratic(np.array([1.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 1, 1.0)
    recs = list(stream_ensemble(obj, noise, SCHED1, 10, [3], np.array([2.0])))
    assert [r.k[0, 0] for r in recs] == list(range(1, 11))
    for prev, rec in zip(recs, recs[1:]):
        assert np.array_equal(step_views(rec).x_prev, prev.x_curr)
        assert np.array_equal(rec.x_curr, step_views(prev).x_next)
        assert np.array_equal(rec.fgap_prev, prev.fgap_curr)
        assert rec.E_prev.tobytes() == prev.E.tobytes()
        assert rec.phi_sq.tobytes() == prev.phi_next_sq.tobytes()
    for rec in recs:
        k = int(rec.k[0, 0])
        assert rec.eta_k[0, 0] == eta(SCHED1, k)
        assert rec.a_k[0, 0] == a_coeff(SCHED1, k)
        assert rec.w_k[0, 0] == energy_weight(k, eta(SCHED1, k))
    last = recs[-1]
    np.testing.assert_allclose(last.fgap_curr[0], 0.5 * last.x_curr[:, 0] ** 2, rtol=1e-15)
    phi_next = phi(11, last.x_curr.T, step_views(last).x_next.T, obj.minimizer[:, None])
    assert np.array_equal(last.phi_next_sq[0], sq_norm(phi_next))
    assert np.array_equal(last.E[0], energy(sq_norm(phi_next), last.fgap_curr[0],
                                            energy_weight(10, eta(SCHED1, 10))))


@pytest.mark.parametrize("noise,R", [(calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0), 5),
                                     (ZERO2, 1)], ids=["gaussian-R5", "none-R1"])
def test_stream_yields_one_row_slabs(noise, R):
    # one StepSlab per step: (1, 1) columns with an integer k, (1, R) rows,
    # (3, dim, R) positions and (1, dim, R) noise, read through (R, dim)
    # views; the benchmark's trace counts a step's trajectories as x_curr's
    # rows of each item with a theta
    obj, dim = quadratic(np.array([1.0, 2.0])), 2
    rows = ("fgap_prev", "fgap_curr", "E_prev", "E", "theta_sq", "theta_phi", "g_sq",
            "grad_sq", "phi_sq", "phi_next_sq")
    K = 4
    steps = list(stream_ensemble(obj, noise, SCHED1, K, derive_seeds(2, R), np.ones(dim)))
    assert len(steps) == K
    for k, s in enumerate(steps, start=1):
        assert type(s) is sgdm.StepSlab
        for name in ("k", "eta_k", "a_k", "w_k"):
            assert getattr(s, name).shape == (1, 1), name
        assert np.issubdtype(s.k.dtype, np.integer) and s.k[0, 0] == k
        for name in rows:
            assert getattr(s, name).shape == (1, R), name
        assert s.xs.shape == (3, dim, R) and s.thetas.shape == (1, dim, R)
        for name in ("x_curr", "theta"):
            assert getattr(s, name).shape == (R, dim), name


_STEP_VALUES = ("k", "eta_k", "a_k", "w_k", "fgap_prev", "fgap_curr", "E_prev", "E", "theta_sq",
                "theta_phi", "g_sq", "grad_sq", "phi_sq", "phi_next_sq", "xs", "thetas",
                "x_curr", "theta")


def _steps(stream):
    """Every step of a stream of slabs, each value as (shape, dtype, bytes) of its one-row cut."""
    out = []
    for s in stream:
        for j in range(len(s.k)):
            row = sgdm.StepSlab(**{name: v[j:j + 3] if name == "xs" else v[j:j + 1]
                                   for name, v in vars(s).items()})
            out.append({f: (getattr(row, f).shape, getattr(row, f).dtype.str,
                            np.ascontiguousarray(getattr(row, f)).tobytes()) for f in _STEP_VALUES})
    return out


@pytest.mark.parametrize("kind", list(NoiseKind), ids=[k.value for k in NoiseKind])
@pytest.mark.parametrize("objective", ["quadratic", "least-squares", "huber"])
def test_slabs_are_bitwise_the_one_row_stream(monkeypatch, objective, kind):
    # B-row slabs hold the one-row stream's every field, stack and view as
    # float bits, at one trajectory (a (B, dim, 1) stack, whose numpy reduce would
    # be pairwise) and more, from d = 1 to d = 64.  Noise blocks of 12 steps
    # end slabs at k = 12 and 24 of K = 30, so slabs of 7, 23 and 40 steps
    # meet block edges; no slab spans one
    K, chunk = 30, 12
    for d in (1, 2, 8, 64):
        obj = {"quadratic": lambda: quadratic(np.linspace(0.5, 2.0, d),
                                              center=np.linspace(-1.0, 1.0, d)),
               "least-squares": lambda: least_squares_random(d, d + 5, 3),
               "huber": lambda: huberized_abs(d, 0.5, center=np.linspace(-0.3, 0.2, d))}[
            objective]()
        noise = (NoiseModel(kind, d, 0.0, 0.0) if kind is NoiseKind.NONE
                 else calibrate(kind, d, 1.0))
        sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
        for R in (1, 2, 5):
            seeds, x0 = derive_seeds(7, R), obj.minimizer + 1.0
            monkeypatch.setattr(sgdm, "_NOISE_BYTES", chunk * 8 * d * R)
            want = _steps(stream_ensemble(obj, noise, sched, K, seeds, x0))
            for B in (1, 2, 7, 23, 40):
                slabs = list(stream_ensemble(obj, noise, sched, K, seeds, x0, rows=B))
                assert all((s.k[0, 0] - 1) // chunk == (s.k[-1, 0] - 1) // chunk
                           for s in slabs), (d, R, B)
                assert _steps(slabs) == want, (d, R, B)


@pytest.mark.parametrize("reads,fields", [
    ({"fgap_curr"}, ["fgap_curr", "fgap_prev"]),
    (["theta_sq", "a_k"], ["a_k", "theta_sq"]),
    ((), []),
], ids=["coverage", "list", "none"])
def test_stream_forms_only_the_fields_asked_for(reads, fields):
    # every slab of the run holds the fields asked for alone, bitwise the
    # full stream's, besides k, eta_k and the stacks
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    seeds, x0 = derive_seeds(4, 3), np.array([2.0, -1.0])
    full = list(stream_ensemble(obj, noise, SCHED1, 12, seeds, x0, rows=5))
    lean = list(stream_ensemble(obj, noise, SCHED1, 12, seeds, x0, reads, 5))
    assert [sorted(vars(s)) for s in lean] == [sorted(["eta_k", "k", "thetas", "xs", *fields])] * 3
    for a, b in zip(full, lean, strict=True):
        for name in vars(b):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_noise_blocks_are_bounded_by_bytes(monkeypatch):
    # a block holds at most _NOISE_BYTES of noise, and at least one step; each
    # trajectory's stream is read in order, so no bit moves
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    seeds, x0 = derive_seeds(4, 5), np.array([2.0, -1.0])
    ref = list(stream_ensemble(obj, noise, sched, 10, seeds, x0))
    draws, real = [], sgdm.sample
    monkeypatch.setattr(sgdm, "sample", lambda model, rng, n=None, out=None:
                        draws.append(n) or real(model, rng, n, out))
    for budget, blocks in ((3 * 8 * 2 * 5, [3, 3, 3, 1]), (1, [1] * 10)):
        monkeypatch.setattr(sgdm, "_NOISE_BYTES", budget)
        draws.clear()
        got = list(stream_ensemble(obj, noise, sched, 10, seeds, x0))
        assert draws == [m for m in blocks for _ in seeds]
        for a, b in zip(ref, got, strict=True):
            assert np.array_equal(a.theta, b.theta) and np.array_equal(a.xs, b.xs)
            assert np.array_equal(a.E, b.E)


@pytest.mark.parametrize("kind", list(NoiseKind), ids=[k.value for k in NoiseKind])
@pytest.mark.parametrize("dim", [1, 2, 64, 1200])
def test_tiled_noise_blocks_are_the_one_draw_per_trajectory_blocks(monkeypatch, kind, dim):
    # every block's noise, drawn a tile of trajectories at a time, holds the
    # bits of one fresh m-step draw per trajectory put into its column.  Blocks
    # of m = 7 steps (3 at d = 1200) end at K = 2 m + 2, where each trajectory
    # keeps its generator between blocks, and at K = m, one block read through
    # one re-keyed generator.  Tiles of 4 trajectories at R = 11 (the last tile
    # short), of 1, of the real budget's T cut to R = 5, and at d >= 64 of
    # that T at R = T + 2
    m = 3 if dim == 1200 else 7
    T = NOISE_DRAW_BLOCK // (m * dim)
    obj = quadratic(np.linspace(1.0, 2.0, dim))
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    noise = NoiseModel(kind, dim, 0.0, 0.0) if kind is NoiseKind.NONE else calibrate(kind, dim, 1.0)
    shapes = [(11, 4 * m * dim + m * dim // 2), (5, 1), (5, NOISE_DRAW_BLOCK)]
    assert T > 5
    for (R, budget), (K, lens) in itertools.product(
            shapes + ([(T + 2, NOISE_DRAW_BLOCK)] if dim >= 64 else []),
            [(2 * m + 2, [m, m, 2]), (m, [m])]):
        monkeypatch.setattr(sgdm, "_DRAW_BLOCK", budget)
        monkeypatch.setattr(sgdm, "_NOISE_BYTES", m * 8 * dim * R)
        seeds = derive_seeds(11, R)
        slabs = list(stream_ensemble(obj, noise, sched, K, seeds, np.ones(dim), (), K))
        assert [len(s.k) for s in slabs] == lens
        want = np.empty((K, dim, R))
        for i, seed in enumerate(seeds):
            gen = sgdm.philox(int(seed))
            for lo in range(0, K, m):
                want[lo:lo + m, :, i] = sgdm.sample(noise, gen, min(m, K - lo))
        got = np.concatenate([s.thetas for s in slabs])
        assert got.tobytes() == want.tobytes(), (dim, K, R, budget)


@pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN_ISOTROPIC, NoiseKind.BOUNDED_SPHERE])
@pytest.mark.parametrize("dim, R, K", [(2, 1000, 500), (64, 128, 60), (1200, 8, 25)])
def test_noise_fill_holds_one_block_and_one_tile(kind, dim, R, K):
    # at the benchmark shapes, the first one-row slab's traced peak, from
    # before the stream builds its generators, is one noise block, one tile
    # of _DRAW_BLOCK doubles, the generators, (bounded sphere) one
    # trajectory's squares for its norms, the first slab's five (dim, R)
    # stack and step arrays, and 32 KiB for the rest
    import tracemalloc
    obj, noise = quadratic(np.ones(dim)), calibrate(kind, dim, 1.0)
    seeds = derive_seeds(3, R)
    tracemalloc.start()
    try:
        gens = [sgdm.philox(int(seed)) for seed in seeds]
        gens_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del gens
    tracemalloc.start()
    try:
        stream = stream_ensemble(obj, noise, SCHED1, K, seeds, np.ones(dim), ())
        next(stream)
        peak = tracemalloc.get_traced_memory()[1]
        stream.close()
    finally:
        tracemalloc.stop()
    sphere = K * dim * 8 if kind is NoiseKind.BOUNDED_SPHERE else 0
    slab = 5 * dim * R * 8
    assert peak <= K * dim * R * 8 + NOISE_DRAW_BLOCK * 8 + gens_bytes + sphere + slab + (32 << 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 3, 53])
def test_stream_raises_divergence_at_the_first_step_past_the_radius(rows):
    # schedule L = 1 against smoothness 1000: the iterates blow up, and the
    # stream raises at the first step whose x_{k+1} leaves the radius
    # (k = 11, pinned from the guard's np.max(np.abs(.)) form), whatever the
    # slab length; the slab's later steps overflow without a warning
    obj = quadratic(np.array([1e3, 1.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    recs = []
    with pytest.raises(DivergenceError) as err:
        for rec in stream_ensemble(obj, noise, SCHED1, 2000, [1, 2, 3], np.array([1.0, -1.0]),
                                   rows=rows):
            recs.append(rec)
    assert err.value.step == 11
    assert err.value.norm == 1636147887750.4604
    assert sum(len(rec.k) for rec in recs) == 10 // rows * rows
    for rec in recs:
        assert np.abs(rec.xs[2:]).max() <= DIVERGENCE_RADIUS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [3, 53])
def test_steps_past_the_radius_overflow_silently_and_raise_at_the_first(rows):
    # smoothness 1e12 against L = 1: x leaves the radius at k = 2 and
    # overflows at k = 33, inside a 53-step slab; the slab still raises at
    # k = 2 with the norm a one-step slab gives, and warns of nothing
    obj = quadratic(np.array([1e12, 1.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    errors = []
    for r in (1, rows):
        with pytest.raises(DivergenceError) as err:
            list(stream_ensemble(obj, noise, SCHED1, 60, [1, 2, 3], np.array([1.0, -1.0]),
                                 rows=r))
        errors.append((err.value.step, err.value.norm))
    assert errors[0] == errors[1] and errors[0][0] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 3, 53])
def test_stream_counts_nan_as_divergence(rows):
    obj = quadratic(np.array([1.0, 1.0]))
    with pytest.raises(DivergenceError) as err:
        next(stream_ensemble(obj, ZERO2, SCHED1, 5, [1, 2], np.array([math.nan, 0.0]),
                             rows=rows))
    assert err.value.step == 1 and math.isnan(err.value.norm)


def test_stream_forms_one_gram_product_per_step(monkeypatch):
    # f(x_k) comes from the step's gradient: one G(x - x*) per step, and
    # step 1's f is f(x_0), since x_1 = x_0
    obj = least_squares_random(16, 40, seed=7)
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 16, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    calls = []
    gram_times = objectives._gram_times
    monkeypatch.setattr(objectives, "_gram_times",
                        lambda o, x, *out: calls.append(x.shape) or gram_times(o, x, *out))
    K = 5
    recs = list(stream_ensemble(obj, noise, sched, K, derive_seeds(3, 4),
                                obj.minimizer + 1.0))
    assert len(recs) == K
    assert calls == [(4, 16)] * K


@pytest.mark.parametrize("obj", [
    quadratic(np.array([0.5, 2.0, 1.0]), center=np.array([1.0, -1.0, 0.5])),
    least_squares_random(16, 40, seed=7),
    huberized_abs(3, delta=0.5, center=np.array([0.2, -0.3, 0.0])),
], ids=["quadratic", "least-squares", "huber"])
def test_stream_fgap_is_bitwise_the_plain_value(obj):
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, obj.dim, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    for rec in stream_ensemble(obj, noise, sched, 20, derive_seeds(5, 4),
                               obj.minimizer + 1.0):
        plain = eval_objective(obj, rec.x_curr) - obj.min_value
        assert np.array_equal(rec.fgap_curr[0], plain)
        if rec.k[0, 0] == 1:
            # step 1's f is f(x_0), since x_1 = x_0, and E(0) is formed from it
            assert np.array_equal(rec.fgap_prev[0], plain)
            assert np.array_equal(rec.E_prev[0],
                                  energy(rec.phi_sq[0], plain, energy_weight(0, eta(sched, 0))))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10**6))
def test_eta_bound_property(k):
    # eta_k <= k / (16 L^2): the step-size bound used in the decomposition
    assert eta(SCHED1, k) <= k / 16.0


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 10**6), L=st.floats(0.1, 10.0))
def test_eta_monotone_decreasing(k, L):
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=L)
    assert eta(sched, k + 1) < eta(sched, k)
