"""Momentum SGD recurrence, step schedules, the Lyapunov energy, and the runner.

The recurrence is

    x_{k+1} = x_k + k/(k+2) (x_k - x_{k-1}) - 2 sqrt(eta_k) / ((k+2) sqrt(k)) g_k,
    x_1 = x_0,

with two step schedules: the log^2 schedule eta_k = 1 / (16 L^2 ln^2(k+2))
and the heavier-damped variant eta_k = 1 / (16 L^2 C0' ln^(1+eps)(k+2)).
Natural logarithms throughout.

``stream_ensemble`` is the one trajectory runner: a generator over
``StepSlab``s of consecutive steps, from which every check keeps only online
statistics.  It vectorizes across trajectories, in a trajectory-minor
(dim, R) layout, while giving every trajectory its own counter-based random
stream and summing over dim in one fixed order (``objectives.dim_sum``), so
results are bitwise independent of how trajectories and steps are grouped.
"""

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .noise import _DRAW_BLOCK, NoiseModel, philox, sample
from .objectives import Objective, dim_sum, eval_objective, grad

DIVERGENCE_RADIUS = 1e12
# A noise block holds at most 1024 steps and, above a few thousand
# trajectories, at most 16 MiB: the largest benchmark workload's block,
# cov-wide's 500 steps at d = 2 and R = 1000, is 8.0e6 bytes.  A run holds
# one block at a time: the spent one is freed before the next is drawn.
_NOISE_CHUNK = 1024
_NOISE_BYTES = 1 << 24
# A slab's arrays, the stream's stacks and the consumers' temporaries alike
# hold at most this many bytes.  Counted with tracemalloc, a slab holds 3
# (B, dim, R) arrays besides the noise block (positions, gradients, one
# temporary; so dim arrays a step each).  A step holds at most 2 (dim, R)
# arrays more (g_k with least squares' x - x*, or the two kept positions:
# 2.0 for the quadratic and Huber, 2.2 for least squares); the budget counts
# 3, one spare.  A ufunc that broadcasts an operand across a stack (x* in
# phi, the quadratic's centre) may also fill numpy's iterator buffer,
# np.getbufsize() elements (64 KiB of doubles), while all three stacks are
# alive: the budget keeps room for it, and for the noise block's schedule
# table (its k, eta_k, a_k and w_k columns, at most 4 _NOISE_CHUNK doubles).
# B is 10 at cov-wide's R = 1000, 60 at checks-all's R = 200, 8 at lsq-d64
# and 7 at highdim-d1200.
_SLAB_BYTES = 1 << 21
# STEP_ARRAYS = 2 fails test_harness::test_slab_budget_counts_the_dim_stacks at 4 MiB
DIM_STACKS, STEP_ARRAYS = 3, 3


def _slab_rows(width: int, dim: int, arrays: int, fixed: int) -> int:
    """Steps per slab at R = ``width``, the stream's own stacks and step arrays at ``dim``
    counted, besides the consumers' ``arrays`` (R,) arrays a step and ``fixed`` in all."""
    room = _SLAB_BYTES - 8 * (np.getbufsize() + 4 * _NOISE_CHUNK)
    return max(1, (room // (8 * width) - fixed - STEP_ARRAYS * dim) // (arrays + DIM_STACKS * dim))


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


def _log_power(sched: ScheduleVariant, k: np.ndarray, entrywise: bool = False):
    """ln^p(k+2) for float k, p = ``sched.log_power``: the schedule's one formula for it.

    A 0-d k, or any k with ``entrywise``, takes libm's pow per entry (the
    logs of a column are those of its entries, one by one).  An array k
    takes numpy's array power, which squares by x * x at p = 2 and has its
    own vectorized pow otherwise: of k = 1..1e5, 93 entries round otherwise
    than pow at p = 2 and about 4800 at p = 1.3 or 1.01 (numpy 2.4, AVX-512).
    """
    logs = np.log(k + 2.0)
    if entrywise:
        p = sched.log_power
        return np.array([v ** p for v in logs.ravel().tolist()]).reshape(logs.shape)
    return logs ** sched.log_power


def _eta(sched: ScheduleVariant, log_pow):
    """eta_k from log_pow = ln^p(k+2)."""
    return 1.0 / (16.0 * sched.a_coefficient_scale * log_pow)


def _a(sched: ScheduleVariant, k, log_pow):
    """a_k from k and log_pow = ln^p(k+2)."""
    return 1.0 / (sched.a_coefficient_scale * k * log_pow)


def eta(sched: ScheduleVariant, k) -> np.ndarray | float:
    """Learning rate at iteration k (defined for k >= 0); vectorized in k.

    An array k uses numpy's array power, so some entries differ from the
    scalar call's bits: about 1e-3 of them at p = 2 and 4% at p = 1 + eps
    (``_log_power``).  ``schedule_columns`` gives a column the scalar bits.
    """
    k = np.asarray(k, dtype=float)
    out = _eta(sched, _log_power(sched, k))
    return out if out.ndim else float(out)


def eta_bound_margin(sched: ScheduleVariant) -> float:
    """min over k = 1..10^6 of k / (16 L^2) - eta_k, which is its k = 1 value.

    The decomposition's step condition eta_k <= k / (16 L^2) holds on that
    range iff this is >= 0.  k / (16 L^2) increases in k and eta_k decreases
    (ln(k+2) increases), so their difference is smallest at k = 1.
    """
    return 1.0 / (16.0 * sched.L**2) - eta(sched, 1)


def a_coeff(sched: ScheduleVariant, k) -> np.ndarray | float:
    """a_k = 16 eta_k / k, the noise-quadratic weight; requires k >= 1.

    As for ``eta``, an array k uses numpy's array power and differs from the
    scalar bits in about 1e-3 of the entries at p = 2 and 4% at p = 1 + eps.
    """
    karr = np.asarray(k, dtype=float)
    if k < 1 if karr.ndim == 0 else np.any(karr < 1):
        raise ValueError("a_coeff requires k >= 1")
    out = _a(sched, karr, _log_power(sched, karr))
    return out if out.ndim else float(out)


def schedule_columns(sched: ScheduleVariant, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eta_k, a_k) for float k >= 1, each entry bitwise the scalar ``eta`` and ``a_coeff``.

    One log over k, libm's pow per entry, then the scalar functions' own
    products and quotient, which are correctly rounded entry by entry.
    """
    log_pow = _log_power(sched, k, entrywise=True)
    return _eta(sched, log_pow), _a(sched, k, log_pow)


def _step_arrays(k: int, eta_k: float, x_prev, x_curr, g, out=None):
    """x_{k+1} = x_k + m (x_k - x_{k-1}) - lr g_k, into ``out`` (then g is scaled in place).

    Either way the same four roundings: a sum and a product commute.
    """
    momentum = k / (k + 2.0)
    lr = 2.0 * math.sqrt(eta_k) / ((k + 2.0) * math.sqrt(k))
    v = np.subtract(x_curr, x_prev, out=out)
    v *= momentum
    v += x_curr
    return np.subtract(v, lr * g if out is None else np.multiply(g, lr, out=g), out=out)


def sq_norm(v: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
    """Squared euclidean norm over the dim axis ``axis``, via ``dim_sum`` (into ``out``).

    The terms are added in sequence: relative error at most about d u,
    u = 2^-53 (1.3e-13 at d = 1200, far below the residuals' 1e-9
    tolerance).  The squares are laid out C-ordered whatever ``v``'s layout,
    so the transpose of an (n, dim) draw block also takes ``dim_sum``'s
    row-add path, ten times faster at d = 2 than a last-axis ``np.sum``.
    """
    return dim_sum(np.multiply(v, v, order="C"), axis, out)


def phi(k, x_km1, x_k, x_star):
    """The momentum vector phi_k = k (x_k - x_{k-1}) + (x_k - x*).

    Evaluated as x_k + k (x_k - x_{k-1}) - x*; ||phi_{k+1}||^2 is E(k)'s
    norm term and ||phi_k||^2 the P1 bound's.  Trajectory-minor: ``x_star``
    must broadcast against the (dim, ...) positions.  Formed in one array,
    with the same four roundings (a product and a sum commute).
    """
    v = np.subtract(x_k, x_km1)
    v *= k
    v += x_k
    v -= x_star
    return v


def energy_weight(k, eta_k):
    """4 sqrt((k+1) eta_k), the weight of f(x_k) - f* in E(k); k and eta_k scalars or columns.

    sqrt and the products are correctly rounded, so a column of scalar
    ``eta`` values gives each entry's bits as a scalar call would.
    """
    return 4.0 * np.sqrt((k + 1.0) * eta_k)


def energy(phi_next_sq, fgap_k, w_k: float):
    """E(k) = ||phi_{k+1}||^2 + w_k fgap_k, with w_k = ``energy_weight(k, eta_k)``.

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


def _points(stack: np.ndarray) -> np.ndarray:
    """(B, dim, R) as (B R, dim), row j R + r trajectory r at step j; a view if B or R is 1."""
    return stack.transpose(0, 2, 1).reshape(-1, stack.shape[1])


class StepSlab(SimpleNamespace):
    """B consecutive steps of an ensemble run, the unit the per-step consumers work on.

    ``k``, ``eta_k``, ``a_k`` and ``w_k`` are (B, 1) columns: the integer
    step numbers and ``eta``, ``a_coeff``, ``energy_weight``.  The (B, R)
    fields (row j for step ``k[j]``) are ``fgap_curr``, E(k) (``E``), and the
    sums over dim ||theta_k||^2 (``theta_sq``), <theta_k, phi_k>
    (``theta_phi``), ||g_k||^2 (``g_sq``), ||g_k + theta_k||^2 (``grad_sq``)
    and ||phi_{k+1}||^2 (``phi_next_sq``); ``fgap_prev``, ``E_prev`` and
    ``phi_sq`` are their values one step back.  The C-ordered stacks ``xs``
    (x_{k-1} .. x_{k+B}, (B+2, dim, R)) and ``thetas`` ((B, dim, R)) read as
    (B R, dim) arrays through ``x_curr`` and ``theta`` (``_points``).
    """

    x_curr = property(lambda s: _points(s.xs[1:-1]))
    theta = property(lambda s: _points(s.thetas))


# What a consumer can ask a slab for besides k, eta_k and the stacks; a field
# brings its value one step back, and "E" brings w_k and what E is made of.
STEP_FIELDS = ("a_k", "fgap_curr", "E", "phi_next_sq", "theta_sq", "theta_phi", "g_sq",
               "grad_sq")


def _shifted(first, rows):
    """``rows`` and its rows one step back, the first of them ``first``."""
    both = np.concatenate([first[None], rows])
    return both[:-1], both[1:]


def stream_ensemble(obj: Objective, noise: NoiseModel, sched: ScheduleVariant, K: int,
                    seeds: Sequence[int], x0, reads=None, rows: int = 1) -> Iterator[StepSlab]:
    """Yield steps k = 1..K as StepSlabs of up to ``rows`` steps; the only trajectory runner.

    Each noise block, once drawn, gets its k, eta_k, a_k and w_k columns
    from one ``schedule_columns`` and one ``energy_weight`` call (one table a
    run when K fits one block, at most 1024 rows whatever K is); a slab's
    columns are slices of them.  A step does only what the next needs:
    its noise row, grad f at x_k, written into its row of the gradient stack
    through the (R, dim) views ``x_k.T`` and ``out=``, g_k = grad f -
    theta_k, and the recurrence, written straight into the position stack.
    One divergence test follows for the slab: each step's max |x_{k+1}| as
    the larger of max x and -min x over the step's positions, so the first
    step past ``DIVERGENCE_RADIUS`` (or NaN) raises with its own norm, as a
    test after every step would; the slab's later steps may overflow
    meanwhile, silently.  The slab then forms the fields in ``reads``
    (``STEP_FIELDS``, all if ``reads`` is None; one set for the run): f in
    one ``eval_objective`` call on B R points (step 1's f at x_1 = x_0 gives
    E(0)), phi, E and each sum over dim down the stacks, each entry one
    step's expression and each sum sequential (``dim_sum``), so every bit is
    the step-by-step value.
    Each trajectory's noise comes from its own Philox stream, read in order,
    in (m, dim, R) blocks of up to 1024 steps and ``_NOISE_BYTES``, drawn a
    ``_DRAW_BLOCK``-double tile at a time (one call a trajectory, its m steps
    a row of the tile) and copied in.  A run of one block reads every
    stream through one generator, re-keyed to each trajectory's key in turn
    (``philox``'s ``reuse``); a run of several makes each trajectory's
    generator at its first draw and drops it after its last block.  A slab
    ends at K and at a block's end, its theta stack a view of the block,
    which is dropped before the next is drawn: a consumer that drops each
    slab before pulling the next holds one.
    """
    if K < 1 or rows < 1:
        raise ValueError("K and rows must be >= 1")
    R, dim, f_star, x_star = len(seeds), obj.dim, obj.min_value, obj.minimizer[:, None]
    gens = [None] * R
    chunk = min(max(_NOISE_BYTES // (8 * dim * R), 1), _NOISE_CHUNK)
    last = np.broadcast_to(np.asarray(x0, dtype=float)[:, None], (2, dim, R))  # x_0, x_1 = x_0
    want, k0 = set(STEP_FIELDS if reads is None else reads), 1
    while k0 <= K:
        off = (k0 - 1) % chunk
        if off == 0:  # a block: its noise, then its schedule columns
            m = min(chunk, K + 1 - k0)
            noise_block = theta = None  # the spent block goes first
            noise_block = np.empty((m, dim, R))
            tile = np.empty((min(max(_DRAW_BLOCK // (m * dim), 1), R), m, dim))
            more, spare = k0 + m <= K, None  # a later block reads the streams on
            for r0 in range(0, R, len(tile)):
                for i, r in enumerate(range(r0, min(r0 + len(tile), R))):
                    gen = gens[r]
                    if gen is None:  # the streams that end in this block share one, re-keyed
                        gen = philox(seeds[r]) if more else (spare := philox(seeds[r], spare))
                    sample(noise, gen, m, out=tile[i])
                    gens[r] = gen if more else None
                noise_block[:, :, r0:r0 + i + 1] = tile[:i + 1].transpose(1, 2, 0)
            tile = spare = gen = None  # held only while the block is filled
            ks = np.arange(k0, k0 + m)[:, None]
            etas, a_ks = schedule_columns(sched, ks.astype(float))
            ws = energy_weight(ks, etas)
        b = min(rows, m - off)
        theta = noise_block[off:off + b]
        x, gf, g = np.empty((b + 2, dim, R)), np.empty((b, dim, R)), np.empty((dim, R))
        x[:2], last = last, None
        eta_k = etas[off:off + b]
        # a step past the radius may overflow the slab's later steps; the test follows them
        with np.errstate(over="ignore", invalid="ignore"):
            for j, eta_j in enumerate(eta_k[:, 0].tolist()):
                grad(obj, x[j + 1].T, out=gf[j].T)
                np.subtract(gf[j], theta[j], out=g)
                _step_arrays(k0 + j, eta_j, x[j], x[j + 1], g, out=x[j + 2])
            # each step's max |x_{k+1}| as max(max x, -min x): exact, NaN propagates
            worst = np.maximum(x[2:].max(axis=(1, 2)), np.negative(x[2:].min(axis=(1, 2))))
        g = None
        beyond = ~(worst <= DIVERGENCE_RADIUS)
        if beyond.any():
            j = int(beyond.argmax())
            raise DivergenceError(k0 + j, float(worst[j]))
        s = StepSlab(k=ks[off:off + b], eta_k=eta_k, xs=x, thetas=theta)
        if "a_k" in want:
            s.a_k = a_ks[off:off + b]
        if want & {"fgap_curr", "E"}:
            fgap = eval_objective(obj, x[1:-1].transpose(0, 2, 1), gf.transpose(0, 2, 1)) - f_star
            s.fgap_prev, s.fgap_curr = _shifted(fgap[0] if k0 == 1 else tail["fgap_curr"], fgap)
        if "theta_sq" in want:
            s.theta_sq = sq_norm(theta, 1)
        if want & {"g_sq", "grad_sq"}:
            gs = np.subtract(gf, theta, out=gf)  # f is formed: g_k takes grad f's place
            if "g_sq" in want:
                s.g_sq = sq_norm(gs, 1)
            if "grad_sq" in want:
                gs += theta
                gs *= gs
                s.grad_sq = dim_sum(gs, 1)
        if want & {"phi_next_sq", "E", "theta_phi"}:
            # phi_k of every row and of the next step, the first as the last slab formed it
            phis = phi(np.arange(k0, k0 + b + 1.0)[:, None, None], x[:-1], x[1:], x_star)
            if "theta_phi" in want:  # into the spent gradient stack
                s.theta_phi = dim_sum(np.multiply(theta, phis[:-1], out=gf), 1)
            phis *= phis
            first = dim_sum(phis[0]) if k0 == 1 else tail["phi_next_sq"]
            s.phi_sq, s.phi_next_sq = _shifted(first, dim_sum(phis[1:], 1))
            phis = None
        if "E" in want:
            s.w_k = ws[off:off + b]
            first = (energy(s.phi_sq[0], s.fgap_prev[0], energy_weight(0, eta(sched, 0)))
                     if k0 == 1 else tail["E"])
            s.E_prev, s.E = _shifted(first, energy(s.phi_next_sq, s.fgap_curr, s.w_k))
        tail = {f: getattr(s, f)[-1] for f in ("fgap_curr", "phi_next_sq", "E") if f in vars(s)}
        last, x, gf, gs = x[-2:].copy(), None, None, None
        yield s
        s = theta = None
        k0 += b
