"""Momentum SGD recurrence, step schedules, the Lyapunov energy, and the runner.

The recurrence is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k,
    x_1 = x_0,

with two step schedules: the log^2 schedule eta_k = 1 / (16 L^2 ln^2(k+2))
and the heavier-damped variant eta_k = 1 / (16 L^2 C0' ln^(1+eps)(k+2)).
Natural logarithms throughout.

``stream_ensemble`` is the one trajectory runner: a generator over one-row
``StepSlab``s, one per step, from which every check keeps only online
statistics.  It vectorizes across trajectories, in a trajectory-minor
(dim, R) layout, while giving every trajectory its own counter-based random
stream and summing over dim in one fixed order (``objectives.dim_sum``), so
results are bitwise independent of how trajectories are grouped into
batches.
"""

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .noise import NoiseKind, NoiseModel, philox, sample
from .objectives import Objective, dim_sum, eval_objective, grad

DIVERGENCE_RADIUS = 1e12
# A noise block holds at most 1024 steps and, above a few thousand
# trajectories, at most 16 MiB: the largest benchmark workload's block,
# cov-wide's 500 steps at d = 2 and R = 1000, is 8.0e6 bytes.  A run holds
# one block at a time: the spent one is freed before the next is drawn.
_NOISE_CHUNK = 1024
_NOISE_BYTES = 1 << 24


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
        if not self.log_power > 1.0:
            raise ValueError("log power 1 + epsilon rounds to 1: the weight series diverges")
        # the gamma brackets (``series``) keep every a_k^m and C^-m, m <= 3, a
        # normal float for a coefficient C = a_coefficient_scale in [2^-256, 2^256]
        log2_c = 2.0 * math.log2(self.L)
        if self.variant is Variant.PROPOSITION_EPS:
            log2_c += math.log2(self.c0_prime)
        if not abs(log2_c) <= 256.0:
            what = (f"L^2 c0_prime (L = {self.L:g}, c0_prime = {self.c0_prime:g})"
                    if self.variant is Variant.PROPOSITION_EPS else f"L^2 (L = {self.L:g})")
            raise ValueError(f"a_k's coefficient {what} is 2^{log2_c:.6g}, outside [2^-256, 2^256]")

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


def eta_bound_margin(sched: ScheduleVariant) -> float:
    """min over k = 1..10^6 of k / (16 L^2) - eta_k, which is its k = 1 value.

    The decomposition's step condition eta_k <= k / (16 L^2) holds on that
    range iff this is >= 0.  k / (16 L^2) increases in k and eta_k decreases
    (ln(k+2) increases), so their difference is smallest at k = 1.
    """
    return 1.0 / (16.0 * sched.L**2) - eta(sched, 1)


def a_coeff(sched: ScheduleVariant, k) -> np.ndarray | float:
    """a_k = 16 eta_k / k, the noise-quadratic weight; requires k >= 1."""
    karr = np.asarray(k, dtype=float)
    if k < 1 if karr.ndim == 0 else np.any(karr < 1):
        raise ValueError("a_coeff requires k >= 1")
    out = 1.0 / (sched.a_coefficient_scale * karr * np.log(karr + 2.0) ** sched.log_power)
    return out if out.ndim else float(out)


def _step_arrays(k: int, eta_k: float, x_prev, x_curr, g):
    momentum = k / (k + 2.0)
    lr = 2.0 * math.sqrt(eta_k) / ((k + 2.0) * math.sqrt(k))
    return x_curr + momentum * (x_curr - x_prev) - lr * g


def sq_norm(v: np.ndarray) -> np.ndarray:
    """Squared euclidean norm over the leading (dim) axis, via ``dim_sum``.

    The terms are added in sequence, so the relative rounding error of this
    sum of nonnegative terms is at most about d u, u = 2^-53: (d - 1) u from
    the additions and u from rounding each square.  At d = 1200 that is
    1.3e-13, four orders of magnitude below the 1e-9 magnitude-relative
    tolerance the pathwise residuals are held to.  The squares are laid out
    C-ordered whatever ``v``'s layout, so a (dim, n) block, or the transpose
    of an (n, dim) draw block, takes ``dim_sum``'s row-add path: a few ufunc
    calls whatever the dim, where a last-axis ``np.sum`` of the draw block
    makes one inner-loop call per draw (ten times slower at d = 2).
    """
    return dim_sum(np.multiply(v, v, order="C"))


def phi(k, x_km1, x_k, x_star):
    """The momentum vector phi_k = k (x_k - x_{k-1}) + (x_k - x*).

    Evaluated as x_k + k (x_k - x_{k-1}) - x*; ||phi_{k+1}||^2 is E(k)'s
    norm term and ||phi_k||^2 the P1 bound's.  Trajectory-minor: ``x_star``
    must broadcast against the (dim, ...) positions.
    """
    return x_k + k * (x_k - x_km1) - x_star


def energy_weight(sched: ScheduleVariant, k: int) -> float:
    """4 sqrt((k+1) eta_k), the weight of f(x_k) - f* in E(k)."""
    return 4.0 * math.sqrt((k + 1.0) * eta(sched, k))


def energy(phi_next_sq, fgap_k, w_k: float):
    """E(k) = ||phi_{k+1}||^2 + w_k fgap_k, with w_k = ``energy_weight(sched, k)``.

    The one implementation of the Lyapunov energy: the stream, the branching
    supermartingale check and the harness's E(0) all call it, each with
    ||phi_{k+1}||^2 = ``sq_norm(phi(k + 1, x_k, x_{k+1}, x*))``.
    """
    return phi_next_sq + w_k * fgap_k


# numpy's SeedSequence constants: the entropy hash, the pool mix, the output hash
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _hashmix(v: np.ndarray, init: int, mult: int, i: int) -> np.ndarray:
    """SeedSequence's i-th hash of the uint32 words ``v``; its constant runs init * mult^i."""
    h = init * pow(mult, i, 1 << 32) % (1 << 32)
    v = (v ^ np.uint32(h)) * np.uint32(h * mult % (1 << 32))
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> np.uint32(16))


def derive_seeds(base_seed: int, n: int, start: int = 0) -> np.ndarray:
    """64-bit seeds of trajectories start..start+n-1 from (base_seed, index), counter style.

    Seed i is ``SeedSequence(entropy=base_seed, spawn_key=(i,))
    .generate_state(1, uint64)``, computed for all indices at once as uint32
    array arithmetic.  The base seed (at most two words) fills the pool,
    zero-padded to its four words, so the pool after the first 16 hashes is
    ``SeedSequence(entropy=base_seed).pool`` for every index.  The index, one
    spawn-key word below 2^32, is then mixed into pool words 0 and 1, the
    two that the 64-bit output reads.  A seed depends on its trajectory's
    index only, so a block's seeds are the matching slice of the whole run's.
    """
    if not (0 <= base_seed < 1 << 64 and 0 <= start and 0 <= n and start + n <= 1 << 32):
        raise ValueError("derive_seeds needs a 64-bit base seed and indices below 2^32")
    index = np.arange(start, start + n, dtype=np.uint32)
    pool = np.random.SeedSequence(entropy=int(base_seed)).pool
    out = np.zeros(n, dtype=np.uint64)
    for j in (0, 1):
        p = _mix(np.full(n, pool[j]), _hashmix(index, _INIT_A, _MULT_A, 16 + j))
        out |= _hashmix(p, _INIT_B, _MULT_B, j).astype(np.uint64) << np.uint64(32 * j)
    return out


def spawn_seed(seed: int, *spawn_key: int) -> int:
    """The Philox key of stream ``spawn_key`` under ``seed``; ``derive_seeds`` gives keys (i,)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def _trajectory_generators(seeds: Sequence[int]):
    return [philox(s) for s in seeds]


class StepSlab(SimpleNamespace):
    """B consecutive steps of an ensemble run, the unit the per-step consumers work on.

    ``k``, ``eta_k``, ``a_k`` and ``w_k`` are (B, 1) columns: the step
    numbers (integers) and the step's schedule scalars ``eta``, ``a_coeff``
    and ``energy_weight``, which consumers read instead of recomputing.
    The per-trajectory fields are (B, R) arrays whose row j belongs to step
    ``k[j]``.  ``E_prev`` and ``E`` are the Lyapunov values E(k-1) and E(k);
    E(k) needs x_{k+1}, so it is known once the step is taken.  The row sums
    over dim are ||theta_k||^2 (``theta_sq``), <theta_k, phi_k>
    (``theta_phi``), ||g_k||^2 (``g_sq``), ||grad f(x_k)||^2 (``grad_sq``,
    grad f taken as g_k + theta_k), ||phi_k||^2 (``phi_sq``) and
    ||phi_{k+1}||^2 (``phi_next_sq``, E(k)'s norm term); ``step_sq`` is
    ||x_k - x_{k-1}||^2 (``displacement_sq``).  ``E_prev``, ``fgap_prev``
    and ``phi_sq`` are row shifts of ``E``, ``fgap_curr`` and
    ``phi_next_sq``.

    The stream yields one-row slabs that also carry the step's positions,
    gradient and noise, ``x_prev``, ``x_curr``, ``x_next``, ``g`` and
    ``theta``: (R, dim) views of its trajectory-minor (dim, R) state, so
    their leading axis is the trajectory (``.T`` gives back the C-ordered
    state).  ``harness._slabs`` stacks those into B-row slabs that hold
    only the fields their consumers read.
    """


def displacement_sq(s: StepSlab) -> np.ndarray:
    """||x_k - x_{k-1}||^2 per trajectory of a streamed step, in the stream's (dim, R) layout."""
    return sq_norm(s.x_curr.T - s.x_prev.T)


def stream_ensemble(
    obj: Objective,
    noise: NoiseModel,
    sched: ScheduleVariant,
    K: int,
    seeds: Sequence[int],
    x0,
) -> Iterator[StepSlab]:
    """Yield a one-row StepSlab for each k = 1..K; the only trajectory runner.

    The state is held trajectory-minor, as (dim, R) arrays, and each sum
    over dim (``dim_sum``) is taken once per step.  f and grad f are
    evaluated on ``x_k.T``, the (R, dim) view of the C-ordered state, which
    the objectives read in place; f comes from that gradient (bitwise f
    computed alone; Huber recomputes it).  Step 1's f is f(x_0) as well,
    since x_1 = x_0, so E(0) needs no objective call of its own.  Noise for each
    trajectory comes from its own Philox stream, drawn in blocks of up to
    1024 steps and ``_NOISE_BYTES`` bytes; each stream is read in order, so
    values match single-trajectory runs and any block length exactly.  The
    carried rows are the same arrays: step k+1's ``E_prev``, ``fgap_prev``
    and ``phi_sq`` are step k's ``E``, ``fgap_curr`` and ``phi_next_sq``.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    R = len(seeds)
    x_curr = np.broadcast_to(np.asarray(x0, dtype=float)[:, None], (obj.dim, R)).copy()
    x_prev = x_curr  # x_1 = x_0; the state is never written in place
    x_star = obj.minimizer[:, None]
    f_star = obj.min_value
    gens = None if noise.kind is NoiseKind.NONE else _trajectory_generators(seeds)
    theta = np.zeros((obj.dim, R))
    phi_k = phi(1, x_prev, x_curr, x_star)
    phi_sq = sq_norm(phi_k)[None]
    noise_block = None
    chunk = min(max(_NOISE_BYTES // (8 * obj.dim * R), 1), _NOISE_CHUNK)
    for k in range(1, K + 1):
        if gens is not None:
            off = (k - 1) % chunk
            if off == 0:
                # the next m steps' noise, drawn straight into (m, dim, R)
                # once the spent block and its theta view are dropped (a
                # slab's theta views the block, so harness._slabs drops each slab)
                noise_block = theta = None
                m = min(chunk, K - (k - 1))
                noise_block = np.empty((m, obj.dim, R))
                for i, gen in enumerate(gens):
                    noise_block[:, :, i] = sample(noise, gen, m)
            theta = noise_block[off]
        gf = grad(obj, x_curr.T)
        fgap_curr = (eval_objective(obj, x_curr.T, gf) - f_star)[None]
        if k == 1:
            fgap_prev = fgap_curr  # x_1 = x_0
            E_prev = energy(phi_sq, fgap_prev, energy_weight(sched, 0))
        g = np.subtract(gf.T, theta, order="C")
        eta_k, a_k, w_k = eta(sched, k), a_coeff(sched, k), energy_weight(sched, k)
        x_next = _step_arrays(k, eta_k, x_prev, x_curr, g)
        worst = float(np.abs(x_next).max())  # NaN fails the test below
        if not worst <= DIVERGENCE_RADIUS:
            raise DivergenceError(k, worst)
        phi_next = phi(k + 1, x_curr, x_next, x_star)
        phi_next_sq = sq_norm(phi_next)[None]
        E_k = energy(phi_next_sq, fgap_curr, w_k)
        yield StepSlab(
            k=np.array(k, ndmin=2), eta_k=np.array(eta_k, ndmin=2),
            a_k=np.array(a_k, ndmin=2), w_k=np.array(w_k, ndmin=2),
            x_prev=x_prev.T, x_curr=x_curr.T, x_next=x_next.T, g=g.T, theta=theta.T,
            fgap_prev=fgap_prev, fgap_curr=fgap_curr, E_prev=E_prev, E=E_k,
            theta_sq=sq_norm(theta)[None], theta_phi=dim_sum(theta * phi_k)[None],
            g_sq=sq_norm(g)[None], grad_sq=sq_norm(g + theta)[None],
            phi_sq=phi_sq, phi_next_sq=phi_next_sq,
        )
        x_prev, x_curr, phi_k, phi_sq = x_curr, x_next, phi_next, phi_next_sq
        fgap_prev, E_prev = fgap_curr, E_k
