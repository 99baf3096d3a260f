"""Stopping rules, the worst-case stopping time, and envelope coverage.

The anytime guarantee states that for every stopping rule tau the stopped
value gap f(x_tau) - f* stays below the envelope U(beta, tau) with
probability at least 1 - 2 beta.  Its sharpness is witnessed by the
adversarial rule that stops at the first envelope violation: coverage under
that rule equals the probability that the whole prefix stays inside the
envelope, so no adapted rule can do worse.  A small exhaustively-enumerable
path tree makes that equivalence checkable exactly.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from types import SimpleNamespace

import numpy as np

from .mcstats import clopper_pearson
from .noise import philox
from .sgdm import as_slab

__all__ = [
    "RuleKind", "RuleTracker", "coverage_verdict", "baseline_envelope",
    "PathTree", "random_tree", "enumerate_stopping_times", "tree_min_coverage",
]


class RuleKind(Enum):
    ITERATE_DELTA = "iterate-delta"
    VALUE_DELTA = "value-delta"
    FIXED_K = "fixed-k"
    FIRST_ENVELOPE_VIOLATION = "first-envelope-violation"


@dataclass
class RuleTracker:
    """A capped stopping rule evaluated online over a streamed ensemble.

    Feed ``update`` with each slab of steps (``sgdm.StepSlab``, or a lone
    StepRecord) in order.  Each trajectory stops at the first k in 1..k_max
    whose predicate holds, else at k_max; ``tau`` and ``fgap`` then hold the
    stopping step and f(x_tau) - f* per trajectory.  The decision at k reads
    only x_0..x_k and the value gaps they induce, so tau is a stopping time
    of the iterate filtration.

    The delta rules trigger when the iterate displacement, or the value-gap
    change, falls to ``epsilon`` or below; since the recurrence starts from a
    repeated point (x_1 = x_0), they trigger immediately at k = 1.  The
    envelope rule stops at the first k with f(x_k) - f* > U[k], where ``U``
    holds the envelope indexed by k.  With k_max = K it is the adversarial
    rule that makes the anytime guarantee tight: first violation at
    k <= K - 1, else K.  Within a slab a path's stop is the first row where
    the predicate holds, with the k_max row forced.
    ``update`` writes only when some trajectory stops, and once every
    trajectory has its tau it returns at once.
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

    @property
    def reads(self) -> tuple:
        """The slab fields ``update`` still reads: none once every trajectory has stopped."""
        if self._all_stopped:
            return ()
        return ("fgap_curr", "step_sq") if self.kind is RuleKind.ITERATE_DELTA else ("fgap_curr",)

    def _triggered(self, s) -> np.ndarray:
        if self.kind is RuleKind.ITERATE_DELTA:
            return np.sqrt(s.step_sq) <= self.epsilon
        if self.kind is RuleKind.VALUE_DELTA:
            return np.abs(s.fgap_curr - s.fgap_prev) <= self.epsilon
        if self.kind is RuleKind.FIXED_K:
            return np.zeros(s.fgap_curr.shape, dtype=bool)
        return s.fgap_curr > self.U[s.k]

    def update(self, rec):
        s = as_slab(rec)
        if self.tau is None:
            self.tau = np.zeros(s.fgap_curr.shape[1], dtype=int)
            self.fgap = np.zeros(s.fgap_curr.shape[1])
        k = s.k[:, 0]
        if self._all_stopped or k[0] > self.k_max:
            return
        if self.kind is RuleKind.FIXED_K and k[-1] < self.k_max:
            return  # fixed-k stops only at its cap
        stop = self._triggered(s)
        cap = self.k_max - k[0]  # the k_max row: a slab's steps are consecutive
        if cap < len(k):
            stop[cap] = True  # so no later row is a first stop
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


@dataclass(frozen=True)
class PathTree:
    """A complete binary tree of equally likely value paths.

    ``values[p, k]`` is the observed value-gap on path p at step k (k = 0 is
    the common root).  Path index bits give the branch taken at each step,
    most significant bit first, so two paths share a history prefix of length
    k iff their indices agree in the top k bits.
    """

    values: np.ndarray

    def __post_init__(self):
        n, steps = self.values.shape
        d = steps - 1
        if n != 1 << d or d < 1 or d > 4 or n > 16:
            raise ValueError("tree must be complete binary with <= 4 steps and <= 16 paths")

    @property
    def depth(self) -> int:
        return self.values.shape[1] - 1


def random_tree(depth: int, seed: int, low: float = 0.0, high: float = 1.0) -> PathTree:
    """A random consistent tree: paths sharing a prefix share node values."""
    rng = philox(seed)
    n = 1 << depth
    values = np.empty((n, depth + 1))
    values[:, 0] = rng.uniform(low, high)
    for k in range(1, depth + 1):
        node_vals = rng.uniform(low, high, 1 << k)
        values[:, k] = node_vals[np.arange(n) >> (depth - k)]
    return PathTree(values)


def enumerate_stopping_times(depth: int):
    """Yield every adapted stopping time on the depth-d binary tree as a
    per-path tau array with values in 1..depth.

    A rule consists of one stop/continue decision per interior history node
    at steps 1..depth-1 (2^k nodes at step k), with a forced stop at depth.
    There are 2^(2 + 4 + ... + 2^(depth-1)) such rules: 64 for depth 3.
    """
    n_paths = 1 << depth
    nodes = [(k, h) for k in range(1, depth) for h in range(1 << k)]
    for bits in product((False, True), repeat=len(nodes)):
        stop = dict(zip(nodes, bits))
        taus = np.empty(n_paths, dtype=int)
        for p in range(n_paths):
            tau = depth
            for k in range(1, depth):
                if stop[(k, p >> (depth - k))]:
                    tau = k
                    break
            taus[p] = tau
        yield taus


def tree_min_coverage(tree: PathTree, U: np.ndarray) -> dict:
    """Exhaustive minimum of Pr(value at tau <= U(tau)) over all stopping times.

    Also reports the sup-statement probability Pr(forall k <= depth: value(k)
    <= U(k)) and the coverage of the first-violation rule; the three agree on
    any tree, which is the finite-space form of the tight-envelope
    equivalence.
    """
    n_paths, d = tree.values.shape[0], tree.depth
    best = 1.0
    best_taus = None
    for taus in enumerate_stopping_times(d):
        cov = float(np.mean(tree.values[np.arange(n_paths), taus] <= U[taus]))
        if cov < best:
            best, best_taus = cov, taus.copy()
    sup_prob = float(np.mean(np.all(tree.values[:, 1:] <= U[1: d + 1], axis=-1)))
    # a tree step carries only value gaps, all the first-violation rule reads
    adv = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, d, U=U)
    for k in range(1, d + 1):
        adv.update(SimpleNamespace(k=k, fgap_curr=tree.values[:, k]))
    adv_cov = float(np.mean(adv.within(U)))
    return {
        "min_coverage": best, "argmin_taus": best_taus,
        "sup_probability": sup_prob, "adversarial_coverage": adv_cov,
    }
