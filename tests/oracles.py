"""Independent reference implementations used by the tests.

stoplab computes every pathwise quantity online, on slabs of streamed steps.
The functions here recompute the same quantities from whole stored paths with
vectorized series formulas, or one step at a time as the harness did before
it took slabs (``block_by_step``), so a test can compare the two.  The residual
form of least squares checks the lab's centered Gram form, the column loop
pins the summation order of its G u product, the per-index
``SeedSequence`` loop checks the vectorized seed derivation, and
``scipy.stats.beta.ppf`` checks the Clopper-Pearson ends, and a row-by-row
loop checks the bootstrap's shared resamples, and
``supermartingale_whole_block`` steps each k's branches as one block, as
the branching check did before it took sub-blocks, and
``envelope_U_two_branch`` writes U with a branch per schedule.  ``deep_descent_links``
checks each link of the energy-decay derivation at one step, and the path
tree enumerates every stopping time of a small binary tree.  ``step_views``
forms the positions and g_k that the stream does not keep, and
``mgf_certificate_check`` estimates the noise's MGF certificate by Monte
Carlo.  The rest are exact references: the weight series and binomial tails
to 50 digits (mpmath), zeta(s), and the weighted chi-square tail (Imhof
inversion).  All are deliberately separate code and are not used by the
package.
"""

import math
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from stoplab.lyapunov import envelope_U
from stoplab.martingale import _BRANCH_CHUNK, MartingaleTracker, log_N
from stoplab.noise import NoiseModel, philox, sample, spawn_seed
from stoplab.objectives import dim_sum, grad
from stoplab.sgdm import (StepSlab, Variant, _points, _step_arrays, a_coeff, derive_seeds, energy,
                          eta, phi, sq_norm, stream_ensemble)
from stoplab.stopping import RuleKind, RuleTracker


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


_COLUMNS = ("k", "eta_k", "a_k", "w_k")
_STACKS = ("xs", "thetas")


def step_views(s, obj=None) -> SimpleNamespace:
    """A slab's stacks as (B R, dim) arrays: ``x_prev``, ``x_curr``, ``x_next`` and ``theta``.

    With ``obj`` also ``g``, g_k = grad f(x_k) - theta_k, which the stream
    forms in its (dim, R) layout and does not keep: a point's gradient bits
    depend on neither its batch nor its layout.
    """
    v = SimpleNamespace(x_prev=_points(s.xs[:-2]), x_curr=s.x_curr, x_next=_points(s.xs[2:]),
                        theta=s.theta)
    if obj is not None:
        v.g = grad(obj, v.x_curr) - v.theta
    return v


def one_step(s, obj) -> SimpleNamespace:
    """A one-row slab of ``stream_ensemble`` as one step's values, for the step-by-step oracles.

    Each (1, R) row becomes its (R,) vector and each (1, 1) column a Python
    scalar (k an int); the (R, dim) views of ``step_views`` take the place
    of the slab's stacks.
    """
    return SimpleNamespace(**{name: v[0, 0].item() if name in _COLUMNS else v[0]
                              for name, v in vars(s).items() if name not in _STACKS},
                           **vars(step_views(s, obj)))


def displacement_sq(s) -> np.ndarray:
    """||x_k - x_{k-1}||^2 per trajectory of a one-row slab, in the stream's (dim, R) layout."""
    return sq_norm(s.x_curr.T - s.x_prev.T)


def run_paths(obj, noise, sched, K, seeds, x0) -> Paths:
    """Store every streamed step of ``stream_ensemble``."""
    slabs = list(stream_ensemble(obj, noise, sched, K, seeds, x0))
    recs = [step_views(s, obj) for s in slabs]
    xs = np.stack([recs[0].x_prev] + [r.x_curr for r in recs] + [recs[-1].x_next], axis=1)
    f_gaps = np.stack([slabs[0].fgap_prev[0]] + [s.fgap_curr[0] for s in slabs], axis=1)
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


def deep_descent_links(slab, obj) -> dict:
    """Verify each link of the energy-decay derivation separately at one step.

    Works on one streamed step of ``stream_ensemble`` and returns per-trajectory
    residuals for: the recurrence identity
    (k+2)(x_{k+1}-x_k) - k(x_k - x_{k-1}) = -2 sqrt(eta_k/k) g_k (abs error),
    the raw differencing bound, and the post-substitution bound.  All must
    be >= -tol (identity: <= tol in absolute value).
    """
    rec = one_step(slab, obj)
    k = rec.k
    # back to the stream's trajectory-minor (dim, R) state
    x_km1, x_k, x_k1, g = rec.x_prev.T, rec.x_curr.T, rec.x_next.T, rec.g.T
    x_star = obj.minimizer[:, None]
    e_k = rec.eta_k
    sq = math.sqrt(e_k / k)
    dE = rec.E - rec.E_prev
    delta = 2.0 * (x_k1 - x_k) + k * (x_k1 - 2.0 * x_k + x_km1)
    identity_err = np.max(np.abs(delta + 2.0 * sq * g), axis=0)
    f_diff = rec.fgap_curr - rec.fgap_prev  # f(x_k) - f(x_{k-1})
    rhs_diff = (
        2.0 * dim_sum(delta * phi(k + 1, x_k, x_k1, x_star))
        - sq_norm(delta)
        + 4.0 * math.sqrt(k * e_k) * f_diff
        + 2.0 * sq * rec.fgap_curr
    )
    rhs_mid1 = (
        -4.0 * sq * dim_sum(g * (x_k + (k + 2.0) * (x_k1 - x_k) - x_star))
        - 4.0 * e_k / k * rec.g_sq
        + 4.0 * math.sqrt(k * e_k) * f_diff
        + 2.0 * sq * rec.fgap_curr
    )
    return {
        "recurrence_identity_abs_err": identity_err,
        "differencing_residual": rhs_diff - dE,
        "substituted_residual": rhs_mid1 - dE,
    }


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


def stops_by_step(kind, k_max: int, epsilon, U, f_gaps, step_sq=None):
    """(tau, f(x_tau) - f*) of a capped rule, one step at a time.

    ``f_gaps`` holds f(x_k) - f* for k = 0..K as (K+1, R) rows, ``step_sq``
    ||x_k - x_{k-1}||^2 for k = 1..K.  At each k <= k_max a path that has not
    stopped stops if the rule's predicate holds, and at k_max in any case.
    """
    R = f_gaps.shape[1]
    tau, fgap = np.zeros(R, dtype=int), np.zeros(R)
    for k in range(1, min(k_max, f_gaps.shape[0] - 1) + 1):
        if k == k_max:
            hit = np.ones(R, dtype=bool)
        elif kind is RuleKind.ITERATE_DELTA:
            hit = np.sqrt(step_sq[k - 1]) <= epsilon
        elif kind is RuleKind.VALUE_DELTA:
            hit = np.abs(f_gaps[k] - f_gaps[k - 1]) <= epsilon
        elif kind is RuleKind.FIXED_K:
            hit = np.zeros(R, dtype=bool)
        else:
            hit = f_gaps[k] > U[k]
        new = hit & (tau == 0)
        tau[new], fgap[new] = k, f_gaps[k][new]
    return tau, fgap


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
        adv.update(StepSlab(k=np.array([[k]]), fgap_curr=tree.values[None, :, k]))
    adv_cov = float(np.mean(adv.within(U)))
    return {
        "min_coverage": best, "argmin_taus": best_taus,
        "sup_probability": sup_prob, "adversarial_coverage": adv_cov,
    }


def block_by_step(cfg, env, lo: int, hi: int) -> dict:
    """``harness._run_block``'s results for trajectories lo..hi-1, one streamed step at a time.

    The step-by-step loop the harness ran before it took slabs of steps,
    with every consumer written out for one step: the decay residuals and
    their running minima, S, W and the prefix product advanced by one step
    and log N^t(k-1) raised into its running supremum, the envelope flags,
    the trajectory CSV rows, and each rule's stop (``stops_by_step`` on the
    stored value gaps).  Every consumer runs, whatever ``cfg.checks`` holds.
    """
    obj, K, n = cfg.objective, cfg.K, hi - lo
    ks = np.arange(1, K + 1)
    U = {b: np.concatenate([[np.inf], envelope_U(env, b, ks)])
         for b in {*cfg.betas, *(r[3] for r in cfg.rules if r[3] is not None)}}
    names = ("descent", "descent_margin", "decomp", "decomp_margin",
             "decomp_mid", "decomp_mid_margin", "p1_margin", "sandwich_margin")
    mins = {name: np.full(n, np.inf) for name in names}
    sigma, g2, t = env.sigma, env.gamma2, env.B / env.gamma2
    S, W, prod, sup_logN, sup_E = 0.0, 0.0, 1.0, None, None
    all_within = {b: np.ones(n, dtype=bool) for b in cfg.betas}
    rows = {i: [] for i in range(lo, hi) if i < cfg.options["csv_trajectories"]}
    f_gaps, step_sq = [], []
    for slab in stream_ensemble(obj, cfg.noise, cfg.sched, K,
                                derive_seeds(cfg.base_seed, n, start=lo), cfg.x0):
        rec = one_step(slab, obj)
        k = rec.k
        if k == 1:
            f_gaps.append(rec.fgap_prev)
        f_gaps.append(rec.fgap_curr)
        step_sq.append(displacement_sq(rec))
        sq = math.sqrt(rec.eta_k / k)
        dE = rec.E - rec.E_prev
        descent = (4.0 * rec.eta_k / k * rec.g_sq - 2.0 / obj.smoothness * sq * rec.grad_sq
                   - 2.0 * sq * rec.fgap_curr + 4.0 * sq * rec.theta_phi) - dE
        decomp = rec.a_k * rec.theta_sq + math.sqrt(rec.a_k) * rec.theta_phi - dE
        mid = (8.0 * rec.eta_k / k * (rec.theta_sq + rec.grad_sq)
               - 2.0 / obj.smoothness * sq * rec.grad_sq + 4.0 * sq * rec.theta_phi) - dE
        tol = np.maximum(1e-9 * (1.0 + np.abs(rec.E) + np.abs(rec.E_prev)), 1e-12)
        p1 = rec.E_prev - rec.phi_sq + tol
        if k == K:
            p1 = np.minimum(p1, rec.E - rec.phi_next_sq + tol)
        for name, v in zip(names, (descent, descent + tol, decomp, decomp + tol, mid, mid + tol,
                                   p1, rec.E - rec.w_k * rec.fgap_curr)):
            np.minimum(mins[name], v, out=mins[name])
        logN = g2 / prod * t * (rec.E_prev - S) - sigma**2 * g2 * t * W
        sup_logN = logN if sup_logN is None else np.maximum(sup_logN, logN)
        sup_E = rec.E_prev if sup_E is None else np.maximum(sup_E, rec.E_prev)
        S, W, prod = S + rec.a_k * rec.theta_sq, W + rec.a_k * S, prod * (1.0 + sigma**2 * rec.a_k)
        for b in cfg.betas:
            all_within[b] &= ~(rec.fgap_curr > U[b][k])
        for i, r in rows.items():
            if k == 1:
                r.append((0, float(rec.fgap_prev[i - lo]), float(rec.E_prev[i - lo]),
                          0.0, float(rec.E_prev[i - lo]), "", ""))
            r.append((k, float(rec.fgap_curr[i - lo]), float(rec.E[i - lo]), float(S[i - lo]),
                      float(rec.E[i - lo] - S[i - lo]), float(descent[i - lo]),
                      float(decomp[i - lo])))
    sup_logN = np.maximum(sup_logN, g2 / prod * t * (rec.E - S) - sigma**2 * g2 * t * W)
    sup_E = np.maximum(sup_E, rec.E)

    f_gaps, step_sq = np.array(f_gaps), np.array(step_sq)

    def within(kind, epsilon, k_max, U_rule, U_b):
        tau, fgap = stops_by_step(kind, k_max, epsilon, U_rule, f_gaps, step_sq)
        return fgap <= U_b[tau]
    # a configured rule without a beta stops on the first beta's envelope
    first = cfg.betas[0] if cfg.betas else None
    covered = {b: [all_within[b],
                   within(RuleKind.FIRST_ENVELOPE_VIOLATION, None, K, U[b], U[b])]
               + [within(kind, epsilon, k_max, U.get(first if rb is None else rb), U[b])
                  for kind, epsilon, k_max, rb in cfg.rules]
               for b in cfg.betas}
    return {"covered": covered, "rows": rows, "mins": mins, "sup_logN": sup_logN,
            "sup_E": sup_E, "S_last": S}


def sample_ball(obj, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the ball of radius 10 centered at the objective's minimizer."""
    z = rng.standard_normal((n, obj.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = 10.0 * rng.random(n) ** (1.0 / obj.dim)
    return obj.minimizer + r[:, None] * z


def least_squares_residual_form(obj, x):
    """(f(x), grad f(x)) = (1/2 ||Ax - b||^2, A^T (Ax - b)) from the objective's A and b."""
    A, b = obj.params["A"], obj.params["b"]
    r = np.asarray(x) @ A.T - b
    return 0.5 * np.sum(r * r, axis=-1), r @ A


def gram_times_by_columns(G: np.ndarray, ut: np.ndarray) -> np.ndarray:
    """G u for a (dim, n) block u, accumulated over the columns of G in sequence.

    Each entry is ((G[i,0] u[0] + G[i,1] u[1]) + G[i,2] u[2]) + ..., one
    rounded multiply and one rounded add per term: the order the lab's
    least-squares product must reproduce bit for bit.
    """
    gut = G[:, 0, None] * ut[0]
    for j in range(1, G.shape[1]):
        gut += G[:, j, None] * ut[j]
    return gut


def seeds_by_seed_sequence(base_seed: int, n: int, start: int = 0) -> np.ndarray:
    """Seeds of trajectories start..start+n-1, one numpy ``SeedSequence`` per index."""
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(start + i,))
        out[i] = ss.generate_state(1, np.uint64)[0]
    return out


def clopper_pearson_beta_ppf(successes, n, confidence: float):
    """Clopper-Pearson (lo, hi) arrays as ``scipy.stats.beta`` quantiles, vectorized."""
    from scipy.stats import beta

    k, n = np.asarray(successes), np.asarray(n)
    alpha = 1.0 - confidence
    lo = np.where(k == 0, 0.0, beta.ppf(alpha / 2.0, k, n - k + 1))
    hi = np.where(k == n, 1.0, beta.ppf(1.0 - alpha / 2.0, k + 1, n - k))
    return lo, hi


def bootstrap_row_oracle(row: np.ndarray, n_boot: int, q: float, seed: int) -> float:
    """The bootstrap's q-quantile of ``row``'s resampled means, on its own.

    One resample at a time, each a fresh ``rng.integers`` draw and the mean
    of its gather, from numpy's own ``Philox(key=seed)``: the bound
    ``mcstats.bootstrap_upper_quantile`` gives each row of a stack.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = row.shape[0]
    reps = [np.mean(row[rng.integers(0, n, size=n)]) for _ in range(n_boot)]
    return float(np.quantile(reps, q))


def supermartingale_whole_block(obj, noise, sched, x0, prefix_seed: int, ks, t: float,
                                n_branches: int, gamma2_value: float) -> list[dict]:
    """``martingale.check_supermartingale``'s records, each k's branches stepped as one block.

    Every branch's draw goes into one trajectory-minor (dim, n) array, chunk
    by chunk from the check's counter streams, and the step takes the whole
    array at once, holding several (dim, n) arrays.  Each k's weights are
    bootstrapped on their own (``bootstrap_row_oracle``), with no noise too,
    from key spawn_seed(prefix_seed, 0).
    """
    sigma = noise.sigma_certificate
    tracker = MartingaleTracker(sigma, gamma2_value, t)
    out = {}
    for slab in stream_ensemble(obj, noise, sched, max(ks), [prefix_seed], x0):
        rec = one_step(slab, obj)
        k = rec.k
        if k in ks:
            S, W, prod = tracker.S_last, tracker._W, tracker._prefix_prod
            logN_prev = float(log_N(rec.E_prev, S, W, prod, sigma, gamma2_value, t)[0])
            thetas = np.empty((noise.dim, n_branches))
            for ci, lo in enumerate(range(0, n_branches, _BRANCH_CHUNK)):
                hi = min(lo + _BRANCH_CHUNK, n_branches)
                thetas[:, lo:hi] = sample(noise, philox(spawn_seed(prefix_seed, k, ci)), hi - lo).T
            g = np.subtract(grad(obj, rec.x_curr[0])[:, None], thetas, order="C")
            x_k1 = _step_arrays(k, rec.eta_k, rec.x_prev.T, rec.x_curr.T, g)
            E_k = energy(sq_norm(phi(k + 1, rec.x_curr.T, x_k1, obj.minimizer[:, None])),
                         rec.fgap_curr[0], rec.w_k)
            logN = log_N(E_k, S + rec.a_k * sq_norm(thetas), W + rec.a_k * S,
                         prod * (1.0 + sigma**2 * rec.a_k), sigma, gamma2_value, t)
            shift = max(float(np.max(logN)), logN_prev)
            w = np.exp(logN - shift)
            prev_w = math.exp(logN_prev - shift)
            estimate = float(np.mean(w) - prev_w)
            stderr = float(np.std(w, ddof=1) / math.sqrt(n_branches))
            boot_hi = (bootstrap_row_oracle(w, 200, 0.99, spawn_seed(prefix_seed, 0)) - prev_w
                       if stderr > 0 else estimate)
            out[k] = {"estimate": estimate, "ci_halfwidth": stderr, "bootstrap_hi": boot_hi,
                      "shift": shift, "pass": estimate <= 3.0 * stderr + 1e-12}
        tracker.update(slab)
    return [out[k] for k in ks]


def envelope_U_two_branch(env, beta: float, k):
    """U(beta, k) with a branch per schedule, the eps-schedule's log power worked out from eps.

    theorem-main: (C1 + C2 ln(1/beta)) ln(k+2) / sqrt(k+1); proposition-eps:
    sqrt(C0') (C1 + C2 ln(1/beta)) ln^((1+eps)/2)(k+2) / sqrt(k+1).
    """
    k = np.asarray(k, dtype=float)
    level = env.C1 + env.C2 * math.log(1.0 / beta)
    if env.sched.variant is Variant.THEOREM_MAIN:
        out = level * np.log(k + 2.0) / np.sqrt(k + 1.0)
    else:
        power = (1.0 + env.sched.epsilon) / 2.0
        out = math.sqrt(env.sched.c0_prime) * level * np.log(k + 2.0) ** power / np.sqrt(k + 1.0)
    return out if out.ndim else float(out)


def binomial_tail_mp(k: int, n: int, x: float, upper: bool, dps: int = 50):
    """P(Bin(n, x) >= k) if ``upper`` else P(Bin(n, x) <= k), to dps digits (mpmath).

    Sums the pmf from k outward, by the ratio of neighbouring terms, until a
    term is below 10^-(dps+5) of the sum.  At a Clopper-Pearson end, k lies
    beyond the mean on the summed side, so the terms fall from the start.
    """
    import mpmath as mp

    with mp.workdps(dps + 10):
        x = mp.mpf(x)
        q = 1 - x
        term = mp.binomial(n, k) * x**k * q**(n - k)
        total, j, floor = mp.mpf(0), k, mp.mpf(10) ** (-dps - 5)
        while 0 <= j <= n:
            total += term
            if term < floor * total:
                break
            term *= (n - j) / mp.mpf(j + 1) * x / q if upper else j / mp.mpf(n - j + 1) * q / x
            j += 1 if upper else -1
        return +total


def eta_margin_one_shot(sched) -> float:
    """min over k = 1..10^6 of k / (16 L^2) - eta_k, as one whole-range expression."""
    ks = np.arange(1, 10**6 + 1, dtype=float)
    return float(np.min(ks / (16.0 * sched.L**2) - np.asarray(eta(sched, ks))))


def weight_series_mp(sched, sigma=None, dps: int = 50, M: int = 1000, n_corr: int = 8):
    """gamma1 = sum_k a_k (sigma None) or log gamma2 = sum_k ln(1 + sigma^2 a_k), to dps digits.

    Euler-Maclaurin at 50 digits with mpmath: the first M - 1 terms summed
    directly, then integral_M^inf f + f(M)/2 - sum_j B_2j / (2j)! f^(2j-1)(M)
    for j <= n_corr, with the derivatives from ``mpmath.taylor``.  The
    remainder is below 1e-54 relative at the defaults.  The tail integral of
    a is U^(1-p)/(p-1) plus a quadrature in u = ln(x+2) of the exponentially
    small rest, and that of ln(1 + s^2 a) - s^2 a is a quadrature in u; the
    library's series expansion in exponential integrals is not used.
    """
    import mpmath as mp

    with mp.workdps(dps + 10):
        C, p = mp.mpf(sched.a_coefficient_scale), mp.mpf(sched.log_power)
        s2 = None if sigma is None else mp.mpf(sigma) ** 2

        def a(x):
            return 1 / (C * x * mp.log(x + 2) ** p)

        f = a if s2 is None else (lambda x: mp.log1p(s2 * a(x)))
        head = mp.fsum(f(mp.mpf(k)) for k in range(1, M))
        U = mp.log(M + 2)
        integral = (U ** (1 - p) / (p - 1) + mp.quad(
            lambda u: 2 * mp.exp(-u) / ((1 - 2 * mp.exp(-u)) * u ** p), [U, mp.inf])) / C
        if s2 is not None:
            def rest(u):
                au = 1 / (C * (mp.exp(u) - 2) * u ** p)
                return (mp.log1p(s2 * au) - s2 * au) * mp.exp(u)
            integral = s2 * integral + mp.quad(rest, [U, U + 10, U + 40, mp.inf])
        d = mp.taylor(f, mp.mpf(M), 2 * n_corr)
        corr = mp.fsum(mp.bernoulli(2 * j) / (2 * j) * d[2 * j - 1]
                       for j in range(1, n_corr + 1))
        total = head + integral + f(mp.mpf(M)) / 2 - corr
    with mp.workdps(dps):
        return +total


def riemann_zeta(s: float, n_terms: int = 1 << 14) -> float:
    """zeta(s) for s > 1 by partial sum plus Euler-Maclaurin tail correction.

    Accurate to well under 1e-10 relative for s in (1, 60] at the default
    truncation.
    """
    if s <= 1.0:
        raise ValueError("riemann_zeta requires s > 1")
    N = float(n_terms)
    n = np.arange(1, n_terms, dtype=float)
    partial = float(np.sum(n ** (-s)))
    tail = (
        N ** (1.0 - s) / (s - 1.0)
        + 0.5 * N ** (-s)
        + s * N ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * N ** (-s - 3.0) / 720.0
    )
    return partial + tail


def weighted_square_tail_oracle(
    c_seq: Sequence[float], scale: float, dim: int, threshold: float
) -> float:
    """Exact Pr(sum_l c_l ||theta_l||^2 >= threshold) for isotropic Gaussians.

    The sum is a positively weighted chi-square with ``dim`` degrees per
    weight lambda_l = c_l scale^2; the exceedance probability comes from
    Imhof's characteristic-function inversion,

        Pr(Q > x) = 1/2 + (1/pi) * int_0^inf sin(h(u)) / (u r(u)) du,

    with h(u) = (dim/2) sum atan(lambda u) - x u / 2 and
    r(u) = prod (1 + lambda^2 u^2)^(dim/4).  Equal weights reduce to a plain
    chi-square and are answered in closed form; the general inversion is
    integrated segment by segment (a few dozen oscillations each) until the
    1/(u r(u)) envelope is negligible, giving roughly 1e-6 absolute accuracy.
    """
    from scipy.integrate import quad
    from scipy.stats import chi2

    lam = np.asarray(c_seq, dtype=float) * scale * scale
    if np.all(lam == lam[0]):
        return float(chi2.sf(threshold / lam[0], dim * lam.size))

    def integrand(u):
        h = 0.5 * dim * np.sum(np.arctan(lam * u)) - 0.5 * threshold * u
        r = math.exp(0.25 * dim * float(np.sum(np.log1p((lam * u) ** 2))))
        return math.sin(h) / (u * r)

    def envelope(u):
        return math.exp(-0.25 * dim * float(np.sum(np.log1p((lam * u) ** 2)))) / u

    slope = 0.5 * threshold + 0.5 * dim * float(np.sum(lam))
    seg = 64.0 * math.pi / slope
    total, lo = 0.0, 0.0
    while lo < 1e7:
        piece, _ = quad(integrand, lo, lo + seg, limit=400)
        total += piece
        lo += seg
        if envelope(lo) * seg < 1e-9:
            break
    return min(max(0.5 + total / math.pi, 0.0), 1.0)


def mgf_certificate_check(model: NoiseModel, n_samples: int, rng: np.random.Generator) -> dict:
    """Monte Carlo estimate of E[exp(||theta||^2 / sigma^2)] against e, the noise's certificate.

    One-sided pass rule: estimate <= e * (1 + 3 * relative MC stderr).  At
    d <= 2 the Gaussian estimand's variance is infinite, so the standard
    error means little there.
    """
    if model.sigma_certificate == 0.0:
        return {"estimate": 1.0, "ci_halfwidth": 0.0, "bound": math.e, "pass": True}
    vals = np.empty(n_samples)
    chunk = 1 << 16
    s2 = model.sigma_certificate**2
    for lo in range(0, n_samples, chunk):
        hi = min(lo + chunk, n_samples)
        th = sample(model, rng, hi - lo)
        vals[lo:hi] = np.exp(np.sum(th * th, axis=-1) / s2)
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return {
        "estimate": est,
        "ci_halfwidth": 3.0 * stderr,
        "bound": math.e,
        "pass": est <= math.e * (1.0 + 3.0 * stderr / max(est, 1e-300)) + 1e-12,
    }
