"""Gradient-noise generators with certified sub-Gaussian parameters.

Each model carries a certificate sigma for which the conditional
squared-norm MGF satisfies E[exp(||theta||^2 / sigma^2)] <= e.  Calibration
solves the kind's exact MGF identity for the largest raw scale compatible
with the certificate, so the certificate is tight rather than merely valid.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import CalibrationError

# A batch of noise is drawn in sub-blocks of at most this many doubles.  A
# stream is read in order, so the sub-blocks' draws are the batch's bits.
_DRAW_BLOCK = 1 << 16


class NoiseKind(Enum):
    NONE = "none"
    GAUSSIAN_ISOTROPIC = "gaussian-isotropic"
    BOUNDED_SPHERE = "bounded-sphere"


@dataclass(frozen=True)
class NoiseModel:
    kind: NoiseKind
    dim: int
    sigma_certificate: float
    scale: float


def calibrate(kind: NoiseKind, dim: int, sigma_certificate: float) -> NoiseModel:
    """Build the model with the largest raw scale honoring the certificate.

    GaussianIsotropic uses the chi-square MGF identity
    E[exp(||theta||^2/s'^2)] = (1 - 2 scale^2 / s'^2)^(-d/2); setting it to e
    gives scale^2 = sigma^2 (1 - exp(-2/d)) / 2.  BoundedSphere noise has
    ||theta|| = scale surely, so scale = sigma suffices.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if kind is NoiseKind.NONE:
        return NoiseModel(kind, dim, float(sigma_certificate), 0.0)
    if sigma_certificate <= 0:
        raise CalibrationError("sigma_certificate must be positive for noisy kinds")
    if kind is NoiseKind.GAUSSIAN_ISOTROPIC:
        scale = sigma_certificate * math.sqrt((1.0 - math.exp(-2.0 / dim)) / 2.0)
        return NoiseModel(kind, dim, float(sigma_certificate), scale)
    return NoiseModel(kind, dim, float(sigma_certificate), float(sigma_certificate))


class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox its key as is: words [key, 0]."""

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array([self.key, 0], dtype=np.uint64)


def philox(key: int) -> np.random.Generator:
    """A generator on ``Philox(key=key)``'s stream, for a key in [0, 2^64).

    ``Philox(key=...)`` also seeds a throwaway ``SeedSequence`` from OS
    entropy, which costs more than the rest of the construction; a key-only
    seed sequence skips it.  The state and every draw are those of
    ``Philox(key=key)``.
    """
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def spawn_seed(seed: int, *spawn_key: int) -> int:
    """The Philox key of stream ``spawn_key`` under ``seed``; ``derive_seeds`` gives keys (i,)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def sample(model: NoiseModel, rng: np.random.Generator, n: int | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Draw noise vectors; shape (dim,) for n=None, else (n, dim).

    Draw order is sequential in the stream, so chunked batch draws reproduce
    the same values as repeated single draws.  Given ``out`` (C-ordered, that
    shape), the draw is made and scaled in place there, with the same bits.
    """
    shape = (model.dim,) if n is None else (n, model.dim)
    if model.kind is NoiseKind.NONE:
        return np.zeros(shape) if out is None else np.copyto(out, 0.0) or out
    z = rng.standard_normal(shape) if out is None else rng.standard_normal(out=out)
    if model.kind is NoiseKind.GAUSSIAN_ISOTROPIC:
        return np.multiply(model.scale, z, out=z)
    norms = np.sqrt(np.sum(z * z, axis=-1, keepdims=True))
    z *= model.scale
    return np.divide(z, norms, out=z)


def keyed_draws(model: NoiseModel, n: int, chunk: int, key: tuple, fn):
    """n draws in chunks of ``chunk``, chunk c from ``philox(spawn_seed(*key, c))``.

    Yields (lo, values) per chunk, lo its first draw's index: ``fn(draws,
    out)`` writes each (nb, dim) sub-block's nb values into ``out``, a slice
    of ``values``.  A sub-block, at most ``_DRAW_BLOCK`` doubles, is drawn
    into one reused buffer; a stream is read in order, so the sub-blocks are
    the chunk's draws bit for bit.  ``values`` is reused by the next chunk.
    """
    per_block = max(1, _DRAW_BLOCK // model.dim)
    buf = np.empty((min(per_block, chunk, n), model.dim))
    values = np.empty(min(chunk, n))
    for ci, lo in enumerate(range(0, n, chunk)):
        m = min(chunk, n - lo)
        rng = philox(spawn_seed(*key, ci))
        for a in range(0, m, per_block):
            nb = min(per_block, m - a)
            fn(sample(model, rng, nb, out=buf[:nb]), values[a:a + nb])
        yield lo, values[:m]
