"""Supermartingale machinery around the energy process.

With S(k) = sum_{l<=k} a_l ||theta_l||^2 and M(k) = E(k) - S(k), the process

    N^t(k) = exp( prod_{l>k} (1 + a_l s^2) * t * M(k)
                  - sum_{l<=k} a_l s^2 g2 t S(l-1) )

is a supermartingale for 0 < t <= B / g2 (B = 1 for the log^2 schedule), and
Ville's inequality turns its initial value exp(g2 t E(0)) into an anytime
exceedance bound.  Everything here stays in the log domain: the infinite tail
product is represented as g2 divided by the finite prefix product, with the
division's tail error covered by the certified gamma2 bracket.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mcstats import bootstrap_upper_quantile
from .noise import NoiseModel, keyed_draws
from .objectives import Objective, grad
from .sgdm import (STEP_FIELDS, ScheduleVariant, StepSlab, _slab_rows, _step_arrays, energy, phi,
                   sq_norm, stream_ensemble)

__all__ = [
    "log_N", "check_supermartingale", "ville_monitor",
    "ville_bound", "alpha_for_bound", "MartingaleTracker",
]

_BRANCH_CHUNK = 1 << 12


def log_N(E, S, W, prefix_prod, sigma: float, gamma2_value: float, t: float):
    """log N^t(k) from E(k), S(k), W(k) and the prefix product at k.

    W(k) = sum_{l<=k} a_l S(l-1) and prefix_prod = prod_{l<=k} (1 + s^2 a_l);
    the infinite tail product prod_{l>k} is gamma2 / prefix_prod.  Never
    exponentiates.  The result is formed in place on E - S, each entry's
    operations in the order the formula reads.
    """
    out = np.subtract(E, S)
    out *= gamma2_value / prefix_prod * t
    out -= np.multiply(sigma**2 * gamma2_value * t, W)
    return out


def _advance(S, W, prefix_prod, a, theta_sq, sigma: float):
    """(S, W, prefix product) over a slab of steps, from their values before it.

    ``a`` is the slab's (B, 1) column of a_k and ``theta_sq`` its (B, R)
    rows of ||theta_k||^2.  Row 0 of each (B+1, ...) result is the carried
    value and row j the value after the slab's j-th step:
    S(k) = S(k-1) + a_k ||theta_k||^2, W(k) = W(k-1) + a_k S(k-1) and
    prod(k) = prod(k-1) (1 + s^2 a_k), the last as a (B+1, 1) column.  The
    rows are added one after another, so each is bitwise the step-by-step
    value.  A row at a time, not ``np.add.accumulate`` down the columns:
    that makes one inner-loop call per column, twice as slow at R = 1000
    and 17 rows.
    """
    S_rows = np.empty((theta_sq.shape[0] + 1, theta_sq.shape[1]))
    S_rows[0] = S
    np.multiply(a, theta_sq, out=S_rows[1:])
    W_rows = np.empty_like(S_rows)
    W_rows[0] = W
    for j in range(1, len(S_rows)):
        np.add(S_rows[j - 1], S_rows[j], out=S_rows[j])
    np.multiply(a, S_rows[:-1], out=W_rows[1:])
    for j in range(1, len(W_rows)):
        np.add(W_rows[j - 1], W_rows[j], out=W_rows[j])
    prod_rows = np.concatenate([[[prefix_prod]], 1.0 + sigma**2 * a])
    np.multiply.accumulate(prod_rows, axis=0, out=prod_rows)
    return S_rows, W_rows, prod_rows


def _branch_logN(obj: Objective, noise: NoiseModel, s: StepSlab, j: int, state: tuple,
                 consts: tuple, prefix_seed: int, out: np.ndarray) -> float:
    """log N^t(k-1) of the prefix; log N^t(k) on each branch of its step k goes into ``out``.

    k is row ``j`` of the prefix's slab ``s``, ``state`` its (S, W, prefix
    product) at k-1 and ``consts`` (sigma, gamma2, t); the prefix's own
    theta_k is replaced by the branches' draws, ``_BRANCH_CHUNK`` branches a
    stream keyed (prefix_seed, k, chunk) (``noise.keyed_draws``).  Each
    sub-block of draws is stepped trajectory-minor, as (dim, p), and S, W
    and the prefix product advanced over it (``_advance``).  The step is
    elementwise or a ``dim_sum``, so ``out`` holds the bits of one (dim, n)
    step while the memory held besides it is one sub-block's.
    """
    logN_prev = float(log_N(s.E_prev[j], *state, *consts)[0])
    k, eta_k, a_k = int(s.k[j, 0]), float(s.eta_k[j, 0]), s.a_k[j:j + 1]
    fgap_k, w_k = s.fgap_curr[j, 0], s.w_k[j, 0]
    x_km1, x_k, x_star = s.xs[j], s.xs[j + 1], obj.minimizer[:, None]
    grad_k = grad(obj, x_k[:, 0])[:, None]

    def step(draws, logN):
        thetas = draws.T
        x_k1 = _step_arrays(k, eta_k, x_km1, x_k, np.subtract(grad_k, thetas, order="C"))
        E_k = energy(sq_norm(phi(k + 1, x_k, x_k1, x_star)), fgap_k, w_k)
        S, W, prod = _advance(*state, a_k, sq_norm(thetas)[None], consts[0])
        logN[:] = log_N(E_k, S[1], W[1], prod[1], *consts)

    for lo, logN in keyed_draws(noise, len(out), _BRANCH_CHUNK, (prefix_seed, k), step):
        out[lo:lo + len(logN)] = logN
    return logN_prev


def check_supermartingale(
    obj: Objective,
    noise: NoiseModel,
    sched: ScheduleVariant,
    x0,
    prefix_seed: int,
    ks,
    t: float,
    n_branches: int,
    gamma2_value: float,
    B: float = 1.0,
) -> list[dict]:
    """Branching Monte Carlo check of E[N^t(k) | F_{k-1}] <= N^t(k-1) at each k in ``ks``.

    Streams one trajectory prefix, once, to max(ks), advancing S, W and the
    prefix product over each whole slab (``_advance``).  At each k,
    n_branches independent noise continuations replace the prefix's theta_k,
    from the slab's row of that state at k-1; their log N^t(k) fill that k's
    row of the (len(set(ks)), n_branches) weights, exp-shifted there to stay
    overflow-free, and the step holds one sub-block of branches besides
    (``_branch_logN``).  Pass means estimate
    <= 3 * ci_halfwidth (with no noise every branch is the same and the
    half-width is rounding).  N has a heavy right tail, so a one-sided 99%
    bootstrap bound on each shifted mean is included: one bootstrap whose
    resample indices every k shares, keyed (prefix_seed, 0), a key no other
    stream reads.  It is skipped when no row varies: a constant row (no noise)
    has its estimate as the bound, which is the bootstrap's bit for bit.
    ``gamma2_value`` is the certified upper end of the gamma2 bracket
    (``EnvelopeParams.gamma2``).  Returns one record per entry of ``ks``, in
    its order; a bare int k is read as [k].
    """
    ks = [int(k) for k in ([ks] if np.ndim(ks) == 0 else ks)]
    if n_branches < 1000:
        raise ValueError("n_branches must be >= 1000")
    if not ks or min(ks) < 1:
        raise ValueError("ks must hold at least one step, each >= 1")
    if not 0.0 < t <= B / gamma2_value + 1e-15:
        raise ValueError("t must lie in (0, B / gamma2]")
    row = {k: j for j, k in enumerate(sorted(set(ks)))}
    w = np.empty((len(row), n_branches))
    shift, prev_w = np.empty(len(row)), np.empty(len(row))
    sigma, state = noise.sigma_certificate, (0.0, 0.0, 1.0)  # S, W and the product at k = 0
    rows = _slab_rows(1, obj.dim, len(STEP_FIELDS), 0)
    for s in stream_ensemble(obj, noise, sched, max(ks), [prefix_seed], x0,
                             ("E", "a_k", "theta_sq"), rows):
        S, W, prod = _advance(*state, s.a_k, s.theta_sq, sigma)  # row j: the state at k-1
        k0 = int(s.k[0, 0])
        for k in row.keys() & range(k0, k0 + len(s.k)):
            i, j = row[k], k - k0
            logN_prev = _branch_logN(obj, noise, s, j, (S[j], W[j], float(prod[j, 0])),
                                     (sigma, gamma2_value, t), prefix_seed, w[i])
            shift[i] = max(float(np.max(w[i])), logN_prev)
            np.subtract(w[i], shift[i], out=w[i])
            np.exp(w[i], out=w[i])
            prev_w[i] = math.exp(logN_prev - shift[i])
        state = S[-1], W[-1], float(prod[-1, 0])

    # a row at a time: each row's mean and deviation keep a one-k call's bits
    estimate = np.array([np.mean(wj) for wj in w]) - prev_w
    stderr = np.array([np.std(wj, ddof=1) for wj in w]) / math.sqrt(n_branches)
    boot_hi, varies = estimate, w.min(axis=1) < w.max(axis=1)
    if varies.any():
        boot_hi = np.where(varies, bootstrap_upper_quantile(w, key=(prefix_seed, 0)) - prev_w,
                           estimate)
    return [{
        "estimate": float(estimate[j]),
        "ci_halfwidth": float(stderr[j]),
        "bootstrap_hi": float(boot_hi[j]),
        "shift": float(shift[j]),
        "pass": bool(estimate[j] <= 3.0 * stderr[j] + 1e-12),
    } for j in map(row.get, ks)]


def ville_bound(alpha: float, t: float, gamma2_value: float, E0: float) -> float:
    """exp(-alpha t + gamma2 t E(0)), the anytime exceedance bound."""
    return math.exp(-alpha * t + gamma2_value * t * E0)


def alpha_for_bound(target: float, t: float, gamma2_value: float, E0: float) -> float:
    """Threshold alpha making the Ville bound equal ``target``."""
    return (gamma2_value * t * E0 - math.log(target)) / t


def ville_monitor(sup_logN: np.ndarray, t: float, alpha: float,
                  gamma2_value: float, E0: float) -> dict:
    """Empirical exceedance of sup_k N^t(k) >= exp(alpha t) against the bound.

    ``sup_logN`` holds per-trajectory suprema of log N^t(k); the pass rule
    allows a binomial slack of 1.3 / sqrt(R) on top of the bound.
    """
    sup_logN = np.asarray(sup_logN, dtype=float)
    R = sup_logN.shape[0]
    rate = float(np.mean(sup_logN >= alpha * t))
    bound = ville_bound(alpha, t, gamma2_value, E0)
    ci = 1.3 / math.sqrt(R)
    return {
        "empirical_rate": rate,
        "bound": bound,
        "ci_halfwidth": ci,
        "R": R,
        "pass": rate <= bound + ci,
    }


@dataclass
class MartingaleTracker:
    """Online per-trajectory martingale statistics over a streamed ensemble.

    Feed ``update`` with each slab of steps (``sgdm.StepSlab``) in order and
    ``finish`` with the last one; afterwards ``sup_logN``, ``sup_E`` and
    ``S_last`` hold arrays over the ensemble.
    Before the first update S, W and the prefix product hold their k = 0
    values 0, 0 and 1.  A slab's log N^t(k-1) rows come from ``_advance``'s
    rows, and the suprema take a max over the rows and then over slabs, so
    the statistics are bitwise those of a step-by-step update.
    """

    sigma: float
    gamma2_value: float
    t: float
    sup_logN: np.ndarray | None = None
    sup_E: np.ndarray | None = None
    S_last: np.ndarray | float = 0.0
    _W: np.ndarray | float = field(default=0.0, repr=False)
    _prefix_prod: float = field(default=1.0, repr=False)

    def _raise_sups(self, logN, E):
        if self.sup_logN is None:
            self.sup_logN, self.sup_E = logN, E
        else:
            np.maximum(self.sup_logN, logN, out=self.sup_logN)
            np.maximum(self.sup_E, E, out=self.sup_E)

    def update(self, s: StepSlab) -> np.ndarray:
        """Take in the slab's steps; returns S(k) at each of them, a (B, R) array."""
        S, W, prod = _advance(self.S_last, self._W, self._prefix_prod, s.a_k, s.theta_sq,
                              self.sigma)
        logN = log_N(s.E_prev, S[:-1], W[:-1], prod[:-1], self.sigma, self.gamma2_value, self.t)
        self._raise_sups(logN.max(axis=0), s.E_prev.max(axis=0))
        self.S_last, self._W, self._prefix_prod = S[-1].copy(), W[-1].copy(), float(prod[-1, 0])
        return S[1:]

    def finish(self, s: StepSlab):
        E = s.E[-1]
        self._raise_sups(log_N(E, self.S_last, self._W, self._prefix_prod,
                               self.sigma, self.gamma2_value, self.t), E)
