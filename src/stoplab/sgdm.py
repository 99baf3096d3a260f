"""Momentum SGD recurrence, step schedules, the Lyapunov energy, and the runner.

The recurrence is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k,
    x_1 = x_0,

with two step schedules: the log^2 schedule eta_k = 1 / (16 L^2 ln^2(k+2))
and the heavier-damped variant eta_k = 1 / (16 L^2 C0' ln^(1+eps)(k+2)).
Natural logarithms throughout.

``stream_ensemble`` is the one trajectory runner: a generator over per-step
records, from which every check keeps only online statistics.  It vectorizes
across trajectories while giving every trajectory its own counter-based
random stream, so results are bitwise independent of how trajectories are
grouped into batches.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .noise import NoiseKind, NoiseModel, sample
from .objectives import Objective, eval_objective, grad

DIVERGENCE_RADIUS = 1e12
_NOISE_CHUNK = 1024


class Variant(Enum):
    THEOREM_MAIN = "theorem-main"
    PROPOSITION_EPS = "proposition-eps"


@dataclass(frozen=True)
class ScheduleVariant:
    variant: Variant
    L: float
    epsilon: float | None = None
    c0_prime: float = 100.0

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.variant is Variant.PROPOSITION_EPS:
            if self.epsilon is None or not (0.0 < self.epsilon < 0.5):
                raise ValueError("epsilon must lie in (0, 0.5)")
            if self.c0_prime < 100.0:
                raise ValueError("c0_prime must be >= 100")

    @property
    def log_power(self) -> float:
        """Exponent p in a_k = 1 / (coeff * k * ln^p(k+2))."""
        return 2.0 if self.variant is Variant.THEOREM_MAIN else 1.0 + self.epsilon

    @property
    def a_coefficient_scale(self) -> float:
        """Constant coeff in a_k = 1 / (coeff * k * ln^p(k+2))."""
        base = self.L**2
        if self.variant is Variant.PROPOSITION_EPS:
            base *= self.c0_prime
        return base


def eta(sched: ScheduleVariant, k) -> np.ndarray | float:
    """Learning rate at iteration k (defined for k >= 0); vectorized in k."""
    k = np.asarray(k, dtype=float)
    logs = np.log(k + 2.0)
    out = 1.0 / (16.0 * sched.a_coefficient_scale * logs**sched.log_power)
    return out if out.ndim else float(out)


def a_coeff(sched: ScheduleVariant, k) -> np.ndarray | float:
    """a_k = 16 eta_k / k, the noise-quadratic weight; requires k >= 1."""
    karr = np.asarray(k)
    if np.any(karr < 1):
        raise ValueError("a_coeff requires k >= 1")
    karr = karr.astype(float)
    out = 1.0 / (sched.a_coefficient_scale * karr * np.log(karr + 2.0) ** sched.log_power)
    return out if out.ndim else float(out)


def _step_arrays(k: int, x_prev, x_curr, g, sched: ScheduleVariant):
    momentum = k / (k + 2.0)
    lr = 2.0 * math.sqrt(eta(sched, k)) / ((k + 2.0) * math.sqrt(k))
    return x_curr + momentum * (x_curr - x_prev) - lr * g


def sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared euclidean norm over the last axis.

    numpy sums a contiguous axis pairwise, so the relative rounding error of
    this sum of nonnegative terms grows like log2(d) u: at most about
    (log2(d) + 12) u, u = 2^-53, where the constant covers numpy's 8-way
    unrolled leaf blocks of 128 terms and the rounding of the squares.  At
    d = 1200 that is 2.5e-15, six orders of magnitude below the 1e-9
    magnitude-relative tolerance the pathwise residuals are held to, so no
    compensated summation is needed at any dimension the lab runs.
    """
    return np.sum(v * v, axis=-1)


def energy_weight(sched: ScheduleVariant, k: int) -> float:
    """4 sqrt((k+1) eta_k), the weight of f(x_k) - f* in E(k)."""
    return 4.0 * math.sqrt((k + 1.0) * eta(sched, k))


def energy(k: int, x_k, x_k1, fgap_k, sched: ScheduleVariant, x_star):
    """E(k) = ||x_{k+1} + (k+1)(x_{k+1} - x_k) - x*||^2 + 4 sqrt((k+1) eta_k) fgap_k.

    The one implementation of the Lyapunov energy: the stream, the branching
    supermartingale check and the harness's E(0) all call it.  Arrays may
    carry leading trajectory axes.
    """
    v = x_k1 + (k + 1.0) * (x_k1 - x_k) - x_star
    return sq_norm(v) + energy_weight(sched, k) * fgap_k


def derive_seeds(base_seed: int, n: int) -> np.ndarray:
    """Per-trajectory 64-bit seeds from (base_seed, index), counter style."""
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(i,))
        out[i] = ss.generate_state(1, np.uint64)[0]
    return out


def _trajectory_generators(seeds: Sequence[int]):
    return [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]


@dataclass
class StepRecord:
    """Everything observable at step k of a vectorized ensemble run.

    Arrays carry a leading trajectory axis.  ``E_prev`` and ``E`` are the
    Lyapunov values E(k-1) and E(k); E(k) needs x_{k+1}, so it is known once
    the step is taken, and step k+1 carries the same array as its ``E_prev``.
    The last record (k = K) holds x_{K+1}, f(x_K) - f* and E(K).
    """

    k: int
    x_prev: np.ndarray
    x_curr: np.ndarray
    x_next: np.ndarray
    fgap_prev: np.ndarray
    fgap_curr: np.ndarray
    E_prev: np.ndarray
    E: np.ndarray
    g: np.ndarray
    theta: np.ndarray


def stream_ensemble(
    obj: Objective,
    noise: NoiseModel,
    sched: ScheduleVariant,
    K: int,
    seeds: Sequence[int],
    x0,
) -> Iterator[StepRecord]:
    """Yield a StepRecord for each k = 1..K; the only trajectory runner.

    Noise for each trajectory comes from its own Philox stream, drawn in step
    chunks; values and order match single-trajectory runs exactly.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    R = len(seeds)
    x_prev = np.broadcast_to(x0, (R, obj.dim)).copy()
    x_curr = x_prev.copy()
    gens = None if noise.kind is NoiseKind.NONE else _trajectory_generators(seeds)
    f_star = obj.min_value
    x_star = obj.minimizer
    fgap_prev = eval_objective(obj, x_curr) - f_star
    E_prev = energy(0, x_prev, x_curr, fgap_prev, sched, x_star)
    noise_block = None
    for k in range(1, K + 1):
        if gens is not None:
            off = (k - 1) % _NOISE_CHUNK
            if off == 0:
                m = min(_NOISE_CHUNK, K - (k - 1))
                noise_block = np.stack([sample(noise, g, m) for g in gens], axis=0)
            theta = noise_block[:, off, :]
        else:
            theta = np.zeros((R, obj.dim))
        fgap_curr = eval_objective(obj, x_curr) - f_star if k > 1 else fgap_prev
        g = grad(obj, x_curr) - theta
        x_next = _step_arrays(k, x_prev, x_curr, g, sched)
        worst = float(np.max(np.abs(x_next)))
        if not worst <= DIVERGENCE_RADIUS:
            raise DivergenceError(k, worst)
        E_k = energy(k, x_curr, x_next, fgap_curr, sched, x_star)
        yield StepRecord(
            k=k, x_prev=x_prev, x_curr=x_curr, x_next=x_next,
            fgap_prev=fgap_prev, fgap_curr=fgap_curr, E_prev=E_prev, E=E_k,
            g=g, theta=theta,
        )
        x_prev, x_curr = x_curr, x_next
        fgap_prev, E_prev = fgap_curr, E_k
