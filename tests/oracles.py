"""Independent full-path reference implementations used by the tests.

stoplab computes every pathwise quantity online, one streamed step at a time.
The functions here recompute the same quantities from whole stored paths with
vectorized series formulas, so a test can compare the two; they are
deliberately separate code and are not used by the package.
"""

from dataclasses import dataclass

import numpy as np

from stoplab.sgdm import a_coeff, eta, stream_ensemble


@dataclass
class Paths:
    """Stacked full paths of R trajectories (leading axis = trajectory)."""

    xs: np.ndarray       # (R, K+2, dim): x_0 .. x_{K+1}
    gs: np.ndarray       # (R, K, dim): g_1 .. g_K
    thetas: np.ndarray   # (R, K, dim): theta_1 .. theta_K
    f_gaps: np.ndarray   # (R, K+1): f(x_k) - f*, k = 0..K

    @property
    def K(self) -> int:
        return self.gs.shape[1]


def run_paths(obj, noise, sched, K, seeds, x0) -> Paths:
    """Store every streamed step of ``stream_ensemble``."""
    recs = list(stream_ensemble(obj, noise, sched, K, seeds, x0))
    xs = np.stack([recs[0].x_prev] + [r.x_curr for r in recs] + [recs[-1].x_next], axis=1)
    f_gaps = np.stack([recs[0].fgap_prev] + [r.fgap_curr for r in recs], axis=1)
    return Paths(xs=xs, gs=np.stack([r.g for r in recs], axis=1),
                 thetas=np.stack([r.theta for r in recs], axis=1), f_gaps=f_gaps)


def energy_series(xs, f_gaps, sched, x_star) -> np.ndarray:
    """E(k) for k = 0..K; ``xs`` has shape (..., K+2, dim), f_gaps (..., K+1)."""
    K = xs.shape[-2] - 2
    k = np.arange(0, K + 1, dtype=float)
    v = xs[..., 1:, :] + (k + 1.0)[:, None] * (xs[..., 1:, :] - xs[..., :-1, :]) - x_star
    weight = 4.0 * np.sqrt((k + 1.0) * eta(sched, k))
    return np.sum(v * v, axis=-1) + weight * f_gaps


def phi_series(xs: np.ndarray, x_star) -> np.ndarray:
    """phi_k = k (x_k - x_{k-1}) + (x_k - x*) for k = 1..K+1; shape (..., K+1, dim).

    Evaluated as x_k + k (x_k - x_{k-1}) - x*, the rounding of E(k-1)'s norm
    term in ``energy_series``.
    """
    K1 = xs.shape[-2] - 1
    k = np.arange(1, K1 + 1, dtype=float)
    return xs[..., 1:, :] + k[:, None] * (xs[..., 1:, :] - xs[..., :-1, :]) - x_star


def residual_series(p: Paths, sched, obj) -> dict:
    """RHS - LHS of the decay inequalities for k = 1..K, and E(0..K).

    descent:    4 eta_k/k ||g_k||^2 - (2/L) sqrt(eta_k/k) ||grad f(x_k)||^2
                - 2 sqrt(eta_k/k) (f(x_k) - f*) + 4 sqrt(eta_k/k) <theta_k, phi_k>
    decomp:     a_k ||theta_k||^2 + sqrt(a_k) <theta_k, phi_k>
    decomp_mid: 8 eta_k/k (||theta_k||^2 + ||grad f(x_k)||^2)
                - (2/L) sqrt(eta_k/k) ||grad f(x_k)||^2 + 4 sqrt(eta_k/k) <theta_k, phi_k>
    """
    K = p.K
    E = energy_series(p.xs, p.f_gaps, sched, obj.minimizer)
    dE = E[..., 1:] - E[..., :-1]
    phis = phi_series(p.xs, obj.minimizer)[..., :K, :]
    k = np.arange(1, K + 1, dtype=float)
    eta_k = np.asarray(eta(sched, k))
    sq = np.sqrt(eta_k / k)
    a_k = np.asarray(a_coeff(sched, np.arange(1, K + 1)))
    grad_f = p.gs + p.thetas
    grad_sq = np.sum(grad_f * grad_f, axis=-1)
    theta_sq = np.sum(p.thetas * p.thetas, axis=-1)
    inner = np.sum(p.thetas * phis, axis=-1)
    descent = (4.0 * eta_k / k * np.sum(p.gs * p.gs, axis=-1)
               - 2.0 / obj.smoothness * sq * grad_sq
               - 2.0 * sq * p.f_gaps[..., 1:] + 4.0 * sq * inner)
    mid = (8.0 * eta_k / k * (theta_sq + grad_sq)
           - 2.0 / obj.smoothness * sq * grad_sq + 4.0 * sq * inner)
    return {"descent": descent - dE, "decomp": a_k * theta_sq + np.sqrt(a_k) * inner - dE,
            "decomp_mid": mid - dE, "E": E}


def S_M(p: Paths, sched, obj):
    """S(k) = sum_{l<=k} a_l ||theta_l||^2 and M(k) = E(k) - S(k), k = 0..K."""
    a = np.asarray(a_coeff(sched, np.arange(1, p.K + 1)))
    theta_sq = np.sum(p.thetas * p.thetas, axis=-1)
    S = np.concatenate([np.zeros(theta_sq.shape[:-1] + (1,)),
                        np.cumsum(a * theta_sq, axis=-1)], axis=-1)
    return S, energy_series(p.xs, p.f_gaps, sched, obj.minimizer) - S


def log_N_series(S, M, sched, sigma, gamma2_value, t) -> np.ndarray:
    """log N^t(k) for k = 0..K from whole S, M series (cumulative products and sums)."""
    K = S.shape[-1] - 1
    s2 = sigma * sigma
    a = np.asarray(a_coeff(sched, np.arange(1, K + 1)))
    prefix = np.concatenate([[1.0], np.cumprod(1.0 + s2 * a)])
    weighted = np.concatenate(
        [np.zeros(S.shape[:-1] + (1,)), np.cumsum(a * S[..., :-1], axis=-1)], axis=-1)
    return gamma2_value / prefix * t * M - s2 * gamma2_value * t * weighted


def eta_margin_one_shot(sched) -> float:
    """min over k = 1..10^6 of k / (16 L^2) - eta_k, as one whole-range expression."""
    ks = np.arange(1, 10**6 + 1, dtype=float)
    return float(np.min(ks / (16.0 * sched.L**2) - np.asarray(eta(sched, ks))))
