import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab.errors import CalibrationError
from stoplab.noise import NoiseKind, NoiseModel, calibrate, philox, sample, spawn_seed

from oracles import mgf_certificate_check


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("key", [0, 1, 12345, 2**63, 2**64 - 1, spawn_seed(7, 1 << 20)])
def test_philox_is_the_keyed_philox(key):
    # the key-only seed sequence changes no state and no draw of Philox(key=...)
    ours, ref = philox(key), np.random.Generator(np.random.Philox(key=key))
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(ours.standard_normal(1000), ref.standard_normal(1000))
    assert np.array_equal(ours.integers(0, 1 << 62, 100), ref.integers(0, 1 << 62, 100))
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1, spawn_seed(7, 1 << 20)])
@pytest.mark.parametrize("left", ["half-word", "part-read-buffer"])
def test_philox_reuse_is_the_fresh_keyed_philox(key, left):
    # a generator left mid-stream, with a stored uint32 half-word or after an
    # odd number of normals, re-keyed, reads Philox(key=...)'s stream from its start
    gen = philox(99)
    if left == "half-word":
        gen.integers(0, 1 << 31, 3, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
    else:
        gen.standard_normal(5)
        assert gen.bit_generator.state["buffer_pos"] == 1
    ours, ref = philox(key, gen), np.random.Generator(np.random.Philox(key=key))
    assert ours is gen
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(ours.standard_normal(1000), ref.standard_normal(1000))
    assert np.array_equal(ours.integers(0, 1 << 62, 100), ref.integers(0, 1 << 62, 100))
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)


def test_gaussian_calibration_formula():
    for d in (1, 2, 5, 50):
        m = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, d, 1.5)
        expected = 1.5 * math.sqrt((1.0 - math.exp(-2.0 / d)) / 2.0)
        assert m.scale == pytest.approx(expected, rel=1e-15)
        # chi-square MGF identity: E[exp(||theta||^2 / sigma^2)] = e exactly
        mgf = (1.0 - 2.0 * m.scale**2 / 1.5**2) ** (-d / 2.0)
        assert mgf == pytest.approx(math.e, rel=1e-12)


def test_bounded_sphere_calibration():
    m = calibrate(NoiseKind.BOUNDED_SPHERE, 3, 2.0)
    assert m.scale == 2.0
    th = sample(m, _rng(1), 1000)
    np.testing.assert_allclose(np.linalg.norm(th, axis=1), 2.0, rtol=1e-12)


def test_none_kind_accepts_any_sigma():
    m = calibrate(NoiseKind.NONE, 4, 0.0)
    assert m.scale == 0.0
    assert np.array_equal(sample(m, _rng(0), 5), np.zeros((5, 4)))


def test_noisy_kinds_need_positive_sigma():
    with pytest.raises(CalibrationError):
        calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 0.0)
    with pytest.raises(ValueError):
        calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 0, 1.0)


def test_chunked_draws_match_single_draws():
    m = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 3, 1.0)
    batch = sample(m, _rng(9), 64)
    r = _rng(9)
    singles = np.stack([sample(m, r) for _ in range(64)])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("kind", list(NoiseKind), ids=[k.value for k in NoiseKind])
@pytest.mark.parametrize("dim", [1, 2, 64])
def test_draw_into_a_buffer_is_the_fresh_draw(kind, dim):
    # a draw written into a buffer that holds garbage is that buffer, with the
    # bits of a fresh draw from the same stream, one vector or a batch; kind
    # none writes zeros over it
    m = NoiseModel(kind, dim, 0.0, 0.0) if kind is NoiseKind.NONE else calibrate(kind, dim, 1.3)
    for n, shape in ((None, (dim,)), (1, (1, dim)), (37, (37, dim))):
        buf = np.full(shape, np.nan)
        buf[..., 0] = -np.inf
        got = sample(m, _rng(5), n, out=buf)
        assert got is buf
        want = sample(m, _rng(5), n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if kind is NoiseKind.NONE:
        assert not np.signbit(buf).any() and not buf.any()
    # the buffer's draws continue the stream as fresh ones do
    r, buf, s = _rng(8), np.empty((3, dim)), _rng(8)
    chunks = [sample(m, r, 3, out=buf).copy() for _ in range(4)]
    assert np.concatenate(chunks).tobytes() == sample(m, s, 12).tobytes()


@pytest.mark.parametrize("kind,dim", [
    (NoiseKind.GAUSSIAN_ISOTROPIC, 5),
    (NoiseKind.BOUNDED_SPHERE, 2),
])
def test_mgf_certificate(kind, dim):
    m = calibrate(kind, dim, 1.0)
    rep = mgf_certificate_check(m, 200_000, _rng(23))
    assert rep["pass"]


def test_bounded_sphere_mgf_exact():
    # ||theta|| = sigma surely, so the certificate MGF is exactly e
    m = calibrate(NoiseKind.BOUNDED_SPHERE, 3, 1.7)
    rep = mgf_certificate_check(m, 1000, _rng(2))
    assert rep["estimate"] == pytest.approx(math.e, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 20), sigma=st.floats(0.1, 5.0))
def test_gaussian_scale_below_certificate(d, sigma):
    m = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, d, sigma)
    # per-coordinate scale never exceeds sigma / sqrt(2)
    assert 0.0 < m.scale <= sigma / math.sqrt(2.0) + 1e-12
