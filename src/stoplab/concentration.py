"""Monte Carlo checkers for the two sub-Gaussian noise lemmas.

First, the scaled-MGF bound: for noise with certificate sigma and any fixed
direction phi, Gamma = <theta, phi> satisfies

    E[exp(lambda Gamma / (||phi|| sigma))] <= exp(3 lambda^2 / 4).

Second, the weighted square tail: for positive weights c_l and independent
draws,

    Pr( sum_l c_l ||theta_l||^2 >= (1 + Omega) sum_l c_l sigma^2 ) <= exp(-Omega).

Both are verified by direct simulation with explicit statistical slack:
relative-stderr inflation for the MGF (the estimand is an expectation of a
heavy-right-tailed positive variable) and Clopper-Pearson intervals for the
exceedance frequencies (normal approximations fail when exp(-Omega) is small).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mcstats import clopper_pearson
from .noise import NoiseModel, keyed_draws
from .sgdm import sq_norm

__all__ = ["MgfCheckConfig", "mgf_check", "weighted_square_tail_check"]

_SAMPLE_CHUNK = 1 << 15


@dataclass
class MgfCheckConfig:
    """Inputs for the scaled-MGF check along a fixed direction.

    ``phi_vector`` plays the conditionally deterministic direction; its norm
    is the scale c.
    """

    lambda_grid: Sequence[float]
    n_samples: int
    noise: NoiseModel
    phi_vector: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.phi_vector = np.asarray(self.phi_vector, dtype=float)
        if self.phi_vector.shape != (self.noise.dim,):
            raise ValueError("phi_vector must have the noise model's dimension")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def mgf_check(cfg: MgfCheckConfig) -> list[dict]:
    """Estimate E[exp(lambda <theta,phi> / (c sigma))] against exp(3 lambda^2/4).

    One report dict per lambda with the estimate, its relative standard error,
    the bound, and pass = estimate <= bound * (1 + 3 * relative stderr).  A
    zero-norm phi makes Gamma identically zero; those checks are reported as
    skipped (the bound holds trivially).
    """
    sigma = cfg.noise.sigma_certificate
    c = float(np.linalg.norm(cfg.phi_vector))
    lambdas = [float(l) for l in cfg.lambda_grid]
    if c == 0.0 or sigma == 0.0:
        return [
            {"lambda": lam, "estimate": 1.0, "rel_stderr": 0.0,
             "bound": math.exp(0.75 * lam * lam), "skipped": c == 0.0, "pass": True}
            for lam in lambdas
        ]
    # One pass over the noise stream serves every lambda: chunk c of the
    # draws comes from key (seed, 0, c), and the per-lambda sums run over it.
    sums = np.zeros(len(lambdas))
    sq_sums = np.zeros(len(lambdas))
    n = cfg.n_samples
    for _, z in keyed_draws(cfg.noise, n, _SAMPLE_CHUNK, (cfg.seed, 0), lambda theta, out:
                            np.divide(theta @ cfg.phi_vector, c * sigma, out=out)):
        for j, lam in enumerate(lambdas):
            w = np.exp(lam * z)
            sums[j] += float(np.sum(w))
            sq_sums[j] += float(np.sum(w * w))
    reports = []
    for j, lam in enumerate(lambdas):
        est = sums[j] / n
        var = max(sq_sums[j] / n - est * est, 0.0)
        rel = math.sqrt(var / n) / est if est > 0 else 0.0
        bound = math.exp(0.75 * lam * lam)
        reports.append({
            "lambda": lam, "estimate": est, "rel_stderr": rel, "bound": bound,
            "skipped": False, "pass": est <= bound * (1.0 + 3.0 * rel),
        })
    return reports


def weighted_square_tail_check(
    c_seq: Sequence[float],
    noise: NoiseModel,
    omega_grid: Sequence[float],
    n_runs: int,
    seed: int = 0,
) -> list[dict]:
    """Exceedance frequency of sum c_l ||theta_l||^2 over (1+Omega) sum c_l sigma^2.

    One report per Omega with the frequency, its Clopper-Pearson 99% interval,
    and pass = the interval's lower endpoint does not exceed exp(-Omega)
    (the one-sided form of "frequency <= bound + binomial slack").
    """
    c = np.asarray(c_seq, dtype=float)
    if c.size == 0:
        raise ValueError("c_seq must be nonempty")
    if np.any(c <= 0.0):
        raise ValueError("c_seq entries must be positive")
    sigma = noise.sigma_certificate
    threshold_base = float(np.sum(c)) * sigma * sigma
    L = c.size
    totals = np.empty(n_runs)
    # Each run needs L independent draws, so a chunk holds whole runs: chunk
    # c of them comes from key (seed, 1, c), a draw's squared norm per value.
    per_chunk = max(1, _SAMPLE_CHUNK // L)
    for lo, sq in keyed_draws(noise, n_runs * L, per_chunk * L, (seed, 1),
                              lambda theta, out: sq_norm(theta.T, out=out)):
        m = len(sq) // L
        totals[lo // L:lo // L + m] = np.sum(c[None, :] * sq.reshape(m, L), axis=-1)
    reports = []
    for omega in omega_grid:
        omega = float(omega)
        thr = (1.0 + omega) * threshold_base
        # strict comparison when the threshold degenerates to 0 (noiseless
        # certificate), so the zero-noise case reports exceedance 0; for
        # continuous noise the two comparisons agree almost surely
        hits = int(np.sum(totals > thr if thr == 0.0 else totals >= thr))
        freq = hits / n_runs
        ci_lo, ci_hi = clopper_pearson(hits, n_runs, 0.99)
        bound = math.exp(-omega)
        reports.append({
            "omega": omega, "frequency": freq, "ci_lo": ci_lo, "ci_hi": ci_hi,
            "bound": bound, "n_runs": n_runs, "pass": ci_lo <= bound,
        })
    return reports

