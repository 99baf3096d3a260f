"""Stopping rules, the worst-case stopping time, and envelope coverage.

The anytime guarantee states that for every stopping rule tau the stopped
value gap f(x_tau) - f* stays below the envelope U(beta, tau) with
probability at least 1 - 2 beta.  Its sharpness is witnessed by the
adversarial rule that stops at the first envelope violation: coverage under
that rule equals the probability that the whole prefix stays inside the
envelope, so no adapted rule can do worse.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .mcstats import clopper_pearson
from .objectives import dim_sum
from .sgdm import StepSlab

__all__ = ["RuleKind", "RuleTracker", "coverage_verdict", "baseline_envelope"]


class RuleKind(Enum):
    ITERATE_DELTA = "iterate-delta"
    VALUE_DELTA = "value-delta"
    FIXED_K = "fixed-k"
    FIRST_ENVELOPE_VIOLATION = "first-envelope-violation"


@dataclass
class RuleTracker:
    """A capped stopping rule evaluated online over a streamed ensemble.

    Feed ``update`` with each slab of steps (``sgdm.StepSlab``) in order.
    Each trajectory stops at the first k in 1..k_max whose predicate holds,
    else at k_max; ``tau`` and ``fgap`` then hold the stopping step and
    f(x_tau) - f* per trajectory.  The decision at k reads only x_0..x_k and
    the value gaps they induce, so tau is a stopping time of the iterate
    filtration.

    The delta rules trigger when the iterate displacement (from the slab's
    position stack), or the value-gap change, falls to ``epsilon`` or below;
    since the recurrence starts from a repeated point (x_1 = x_0), they
    trigger immediately at k = 1 and read the first slab alone.  The envelope
    rule stops at the first k with f(x_k) - f* > U[k], where ``U`` holds the
    envelope indexed by k.  With k_max = K it is the adversarial
    rule that makes the anytime guarantee tight: first violation at
    k <= K - 1, else K.  Within a slab a path's stop is the first row where
    the predicate holds, with the k_max row forced.
    ``update`` writes only when some trajectory stops: a slab where no entry
    fires and that does not hold the k_max row returns after the predicate,
    and once every trajectory has its tau it returns at once.
    """

    kind: RuleKind
    k_max: int
    epsilon: float | None = None
    U: np.ndarray | None = None
    tau: np.ndarray | None = field(default=None, init=False)
    fgap: np.ndarray | None = field(default=None, init=False)
    _all_stopped: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.kind in (RuleKind.ITERATE_DELTA, RuleKind.VALUE_DELTA) and not (
            self.epsilon is not None and self.epsilon > 0.0
        ):
            raise ValueError("delta rules need a positive epsilon")

    def _triggered(self, s) -> np.ndarray:
        if self.kind is RuleKind.ITERATE_DELTA:
            step = np.subtract(s.xs[1:-1], s.xs[:-2])
            step *= step
            return np.sqrt(dim_sum(step, 1)) <= self.epsilon
        if self.kind is RuleKind.VALUE_DELTA:
            return np.abs(s.fgap_curr - s.fgap_prev) <= self.epsilon
        if self.kind is RuleKind.FIXED_K:
            return np.zeros(s.fgap_curr.shape, dtype=bool)
        return s.fgap_curr > self.U[s.k]

    def update(self, s: StepSlab):
        if self.tau is None:
            self.tau = np.zeros(s.fgap_curr.shape[1], dtype=int)
            self.fgap = np.zeros(s.fgap_curr.shape[1])
        k = s.k[:, 0]
        if self._all_stopped:
            return
        stop = self._triggered(s)
        cap = self.k_max - k[0]  # the k_max row: a slab's steps are consecutive
        if cap < len(k):
            stop[cap] = True  # so no later row is a first stop
        elif not stop.any():
            return  # a quiet slab: nothing fires, and the cap lies beyond it
        stop &= self.tau == 0
        new = np.flatnonzero(stop.any(axis=0))
        if new.size == 0:
            return
        row = stop[:, new].argmax(axis=0)
        self.tau[new] = k[row]
        self.fgap[new] = s.fgap_curr[row, new]
        self._all_stopped = k[-1] >= self.k_max or bool(self.tau.all())

    def within(self, U: np.ndarray) -> np.ndarray:
        """Per trajectory: f(x_tau) - f* <= U[tau]."""
        return self.fgap <= U[self.tau]


def coverage_verdict(within: np.ndarray, beta) -> dict:
    """Frequency of ``within`` against the guaranteed level 1 - 2 beta.

    Pass means the Clopper-Pearson 99% lower endpoint clears the level, or
    every trajectory is covered.  ``within`` may stack n (R,) indicator rows
    as an (n, R) array, with ``beta`` one level or n of them; every entry is
    then a list with one value per row, all ends from one Clopper-Pearson
    call.
    """
    within = np.asarray(within)
    R = within.shape[-1]
    hits = np.atleast_1d(np.sum(within, axis=-1))
    ci_lo, ci_hi = clopper_pearson(hits, R, 0.99)
    level = np.broadcast_to(1.0 - 2.0 * np.asarray(beta, dtype=float), hits.shape)
    out = {
        "frequency": (hits / R).tolist(), "ci_lo": ci_lo.tolist(), "ci_hi": ci_hi.tolist(),
        "bound": level.tolist(), "pass": ((ci_lo >= level) | (hits == R)).tolist(),
    }
    return out if within.ndim > 1 else {key: v[0] for key, v in out.items()}


def baseline_envelope(eta_param: float, beta: float, k) -> np.ndarray | float:
    """Union-bound-style reference envelope with unit-normalized constants.

    (1/sqrt(k)) * (1/eta + eta * ln(pi^2 k^2 / (6 beta)) * ln k); its ratio to
    the anytime envelope grows like ln k, which is the comparison of interest.
    """
    if eta_param <= 0.0:
        raise ValueError("eta_param must be positive")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    k = np.asarray(k, dtype=float)
    val = (1.0 / np.sqrt(k)) * (
        1.0 / eta_param
        + eta_param * np.log(math.pi**2 * k * k / (6.0 * beta)) * np.log(k)
    )
    return float(val) if val.ndim == 0 else val
