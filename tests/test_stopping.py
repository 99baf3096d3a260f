import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab.lyapunov import envelope_constants, envelope_U
from stoplab.noise import NoiseKind, NoiseModel, calibrate
from stoplab.objectives import quadratic
from stoplab.mcstats import clopper_pearson
from stoplab.sgdm import ScheduleVariant, StepSlab, Variant, derive_seeds, stream_ensemble
from stoplab.stopping import (RuleKind, RuleTracker, baseline_envelope,
                              coverage_verdict)

from oracles import (PathTree, enumerate_stopping_times, random_tree, run_paths,
                     stops_by_step, tree_min_coverage)

SCHED = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
ZERO1 = NoiseModel(NoiseKind.NONE, dim=1, sigma_certificate=0.0, scale=0.0)


def _gaps(k, f_gaps):
    """A one-step slab that carries only k and the value gaps, all the envelope rule reads."""
    return StepSlab(k=np.array([[k]]), fgap_curr=f_gaps[None])


def _stop(rule, obj, noise, K, seeds, x0):
    """Feed a rule every streamed step; return its per-trajectory tau."""
    for rec in stream_ensemble(obj, noise, SCHED, K, seeds, x0):
        rule.update(rec)
    return rule.tau


def test_rule_validation():
    with pytest.raises(ValueError):
        RuleTracker(RuleKind.ITERATE_DELTA, k_max=10)
    with pytest.raises(ValueError):
        RuleTracker(RuleKind.VALUE_DELTA, k_max=10, epsilon=-1.0)
    with pytest.raises(ValueError):
        RuleTracker(RuleKind.FIXED_K, k_max=0)


def test_delta_rules_trigger_immediately_at_repeated_start():
    # x_1 = x_0 by construction, so any positive epsilon fires at k = 1
    obj = quadratic(np.array([1.0]))
    x0 = np.array([2.0])
    for kind in (RuleKind.ITERATE_DELTA, RuleKind.VALUE_DELTA):
        tau = _stop(RuleTracker(kind, 10, epsilon=1e-9), obj, ZERO1, 10, [0], x0)
        assert list(tau) == [1]


def test_iterate_delta_matches_brute_force_scan():
    obj = quadratic(np.array([1.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 1, 1.0)
    eps = 1e-3
    seeds = derive_seeds(3, 4)
    paths = run_paths(obj, noise, SCHED, 500, seeds, np.array([2.0]))
    steps = np.linalg.norm(np.diff(paths.xs[:, :501], axis=1), axis=-1)
    tau = _stop(RuleTracker(RuleKind.ITERATE_DELTA, 500, epsilon=eps), obj, noise,
                500, seeds, np.array([2.0]))
    for i in range(4):
        brute = next((k for k in range(1, 501) if steps[i, k - 1] <= eps), 500)
        assert tau[i] == brute


def test_fixed_k_and_cap():
    obj = quadratic(np.array([1.0]))
    x0 = np.array([2.0])
    assert list(_stop(RuleTracker(RuleKind.FIXED_K, 7), obj, ZERO1, 50, [0], x0)) == [7]
    # a never-satisfied rule is capped at k_max; an envelope far above every
    # value-gap is never crossed, so the first-violation rule runs to the cap
    big = envelope_constants(SCHED, 1.0, 100.0)
    U = np.concatenate([[np.inf], envelope_U(big, 0.05, np.arange(1, 51))])
    never = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, 50, U=U)
    assert list(_stop(never, obj, ZERO1, 50, [0], x0)) == [50]
    assert never.within(U).all()
    # a rule capped below K ignores the steps after its cap
    short = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, 20, U=U)
    assert list(_stop(short, obj, ZERO1, 50, [0], x0)) == [20]


def test_stopped_at_minimizer():
    obj = quadratic(np.array([1.0]))
    rule = RuleTracker(RuleKind.ITERATE_DELTA, 10, epsilon=1e-12)
    assert list(_stop(rule, obj, ZERO1, 10, [0], np.array([0.0]))) == [1]
    assert rule.fgap[0] == 0.0


def test_stopped_rules_ignore_later_steps():
    # once every trajectory has its tau a rule reads no later step: steps
    # with NaN gaps and no positions leave tau and fgap untouched
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    U = np.zeros(21)  # every positive gap violates it at k = 1
    rules = [RuleTracker(RuleKind.ITERATE_DELTA, 20, epsilon=1e-3),
             RuleTracker(RuleKind.VALUE_DELTA, 20, epsilon=1e-4),
             RuleTracker(RuleKind.FIXED_K, 2),
             RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, 20, U=U)]
    for rec in stream_ensemble(obj, noise, SCHED, 2, derive_seeds(8, 6),
                               np.array([2.0, -1.0])):
        for rule in rules:
            rule.update(rec)
    assert [list(r.tau) for r in rules] == [[1] * 6, [1] * 6, [2] * 6, [1] * 6]
    for rule in rules:
        tau, fgap = rule.tau.copy(), rule.fgap.copy()
        for k in range(3, 21):
            rule.update(_gaps(k, np.full(6, np.nan)))
        assert np.array_equal(rule.tau, tau)
        assert np.array_equal(rule.fgap, fgap)


def test_adversarial_tau_construction():
    # the first-violation rule at k_max = K: first violation at k <= K - 1, else K
    U = np.array([np.inf, 1.0, 1.0, 1.0, 1.0, 1.0])
    f_gaps = np.array([
        [9.0, 0.5, 0.5, 0.5, 0.5, 0.5],   # never violates -> K
        [9.0, 0.5, 0.5, 2.0, 0.5, 0.5],   # violates only at k = 3
        [9.0, 2.0, 2.0, 0.5, 0.5, 0.5],   # first violation k = 1
        [9.0, 0.5, 0.5, 0.5, 0.5, 2.0],   # violates only at k = K
    ])
    rule = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, 5, U=U)
    for k in range(1, 6):
        rule.update(_gaps(k, f_gaps[:, k]))
    assert list(rule.tau) == [5, 3, 1, 5]
    assert list(rule.fgap) == [0.5, 2.0, 2.0, 2.0]
    assert list(rule.within(U)) == [True, False, False, False]


def test_envelope_rule_matches_per_step_oracle():
    # U is built so that trajectories stop at k = 3 (two of them), at k = 7
    # and never (so at k_max); gaps keep crossing U after the stop, and the
    # rule must keep the first crossing, step by step
    k_max = 12
    U = np.full(k_max + 1, 1.0)
    U[0] = np.inf
    rng = np.random.default_rng(4)
    f_gaps = rng.uniform(0.0, 0.9, (4, k_max + 1))
    f_gaps[0, [3, 5, 12]] = [1.5, 2.0, 3.0]
    f_gaps[1, [3, 4]] = [1.25, 4.0]
    f_gaps[2, [7, 11]] = [1.75, 5.0]
    rule = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, k_max, U=U)
    tau, fgap = np.zeros(4, dtype=int), np.zeros(4)
    for k in range(1, k_max + 3):
        rule.update(_gaps(k, f_gaps[:, min(k, k_max)]))
        for i in range(4):
            if tau[i] == 0 and k <= k_max and (k == k_max or f_gaps[i, k] > U[k]):
                tau[i], fgap[i] = k, f_gaps[i, k]
        assert np.array_equal(rule.tau, tau)
        assert np.array_equal(rule.fgap, fgap)
        assert rule._all_stopped == (k >= k_max or bool(tau.all()))
    assert list(tau) == [3, 3, 7, k_max]
    assert list(fgap) == [1.5, 1.25, 1.75, f_gaps[3, k_max]]


def _slab_rules(f_gaps, xs, rules, B):
    """Feed ``rules`` the path in slabs of B consecutive steps, as the harness does.

    ``xs`` holds the positions x_0 .. x_{K+1} as a (K+2, dim, R) stack.
    """
    K = len(f_gaps) - 1
    for lo in range(1, K + 1, B):
        hi = min(lo + B, K + 1)
        slab = StepSlab(k=np.arange(lo, hi)[:, None], fgap_curr=f_gaps[lo:hi],
                        fgap_prev=f_gaps[lo - 1:hi - 1], xs=xs[lo - 1:hi + 1])
        for rule in rules:
            rule.update(slab)


@pytest.mark.parametrize("B", [1, 2, 7, 12, 30])
def test_rules_on_slabs_match_the_step_by_step_oracle(B):
    # K = 12 in slabs of 7 rows is k = 1..7 and 8..12: paths stop on a first
    # row (k = 1, 8), a last row (k = 7, K) and inside (k = 4), cross again
    # after their stop, and carry NaN gaps (NaN triggers nothing)
    K = 12
    rng = np.random.default_rng(12)
    f_gaps = rng.uniform(0.0, 0.9, (K + 1, 8))
    U = np.full(K + 1, 1.0)
    U[0] = np.inf
    for path, ks in enumerate(([1, 5], [7, 8], [8, 11], [4], [K], [])):
        f_gaps[ks, path] = 2.0 + path
    f_gaps[[2, 3], 6] = np.nan  # a NaN gap, then its successor, never triggers
    f_gaps[5:, 7] = np.nan      # a path that is NaN from k = 5 on stops at the cap with NaN
    f_gaps[9, 2] = f_gaps[8, 2]  # an unchanged gap: value-delta fires at k = 9
    xs = rng.uniform(-1.0, 1.0, (K + 2, 2, 8))
    for k, path in ((1, 3), (7, 1), (8, 4)):  # iterate-delta fires at k = 1, 7 and 8
        xs[k, :, path] = xs[k - 1, :, path]
    step_sq = np.sum(np.diff(xs[:K + 1], axis=0) ** 2, axis=1)
    rules = [RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, k_max, U=U) for k_max in (K, 10, 7, 8)]
    rules += [RuleTracker(RuleKind.VALUE_DELTA, K, epsilon=1e-12),
              RuleTracker(RuleKind.ITERATE_DELTA, 10, epsilon=1e-9),
              RuleTracker(RuleKind.FIXED_K, 3), RuleTracker(RuleKind.FIXED_K, 8)]
    _slab_rules(f_gaps, xs, rules, B)
    for rule in rules:
        tau, fgap = stops_by_step(rule.kind, rule.k_max, rule.epsilon, U, f_gaps, step_sq)
        assert np.array_equal(rule.tau, tau), (rule.kind, rule.k_max)
        assert rule.fgap.tobytes() == fgap.tobytes(), (rule.kind, rule.k_max)
    assert list(rules[0].tau) == [1, 7, 8, 4, K, K, K, K]
    assert np.isnan(rules[0].fgap[7])
    assert list(rules[5].tau[[3, 1, 4]]) == [1, 7, 8]

    # quiet slabs: K = 30 and no path fires after k = 3.  In slabs of 7 rows
    # (1..7, 8..14, 15..21, ...) the caps fall on a quiet slab's first row
    # (15), inside it (18) and on its last row (21); a slab that returns
    # early because nothing fires must still stop every path at its cap
    K = 30
    f_gaps = rng.uniform(0.0, 0.9, (K + 1, 8))
    f_gaps[[1, 3], [2, 5]] = 1.5
    U = np.full(K + 1, 1.0)
    U[0] = np.inf
    xs = rng.uniform(-1.0, 1.0, (K + 2, 2, 8))
    step_sq = np.sum(np.diff(xs[:K + 1], axis=0) ** 2, axis=1)
    rules = [RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, k_max, U=U)
             for k_max in (15, 18, 21, K)]
    rules += [RuleTracker(RuleKind.VALUE_DELTA, 18, epsilon=1e-12),
              RuleTracker(RuleKind.ITERATE_DELTA, 21, epsilon=1e-9),
              RuleTracker(RuleKind.FIXED_K, 15)]
    _slab_rules(f_gaps, xs, rules, B)
    for rule in rules:
        tau, fgap = stops_by_step(rule.kind, rule.k_max, rule.epsilon, U, f_gaps, step_sq)
        assert np.array_equal(rule.tau, tau), (rule.kind, rule.k_max)
        assert rule.fgap.tobytes() == fgap.tobytes(), (rule.kind, rule.k_max)
        assert set(rule.tau) <= {1, 3, rule.k_max}
    assert [list(rule.tau) for rule in rules[:4]] == [[15, 15, 1, 15, 15, 3, 15, 15]] + [
        [k_max, k_max, 1, k_max, k_max, 3, k_max, k_max] for k_max in (18, 21, K)]


def test_adversarial_identity_with_sup_statement():
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    env = envelope_constants(sched, 1.0, 10.0)
    # deliberately shrunken envelope (for k >= 2; the k = 1 value is
    # deterministic across trajectories) so that some but not all paths violate
    ks = np.arange(1, 201)
    shape = envelope_U(env, 0.05, ks)
    U = np.concatenate([[np.inf], shape[:1], shape[1:] / 15.5])
    rule = RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, 200, U=U)
    sup_within = np.ones(150, dtype=bool)
    for rec in stream_ensemble(obj, noise, sched, 200, derive_seeds(5, 150),
                               np.array([2.0, -1.0])):
        rule.update(rec)
        sup_within &= rec.fgap_curr[0] <= U[rec.k[0, 0]]
    # per-trajectory indicator identity, and it is non-trivial here
    assert np.array_equal(rule.within(U), sup_within)
    assert 0 < int(np.sum(sup_within)) < 150


def test_coverage_report():
    rng = np.random.default_rng(2)
    within = rng.uniform(0.0, 1.0, 200) <= 2.0
    rep = coverage_verdict(within, beta=0.05)
    assert rep["frequency"] == 1.0 and rep["pass"]
    # 170 / 200 = 0.85 misses the 0.9 level outright; 197 / 200 clears it
    rep = coverage_verdict(np.arange(200) < 170, beta=0.05)
    assert rep["frequency"] == 0.85 and rep["bound"] == 0.9 and not rep["pass"]
    rep = coverage_verdict(np.arange(200) < 197, beta=0.05)
    assert rep["ci_lo"] >= 0.9 and rep["pass"]


@pytest.mark.parametrize("R", [8, 128, 200, 1000, 10_000])
def test_coverage_rows_in_one_call_are_the_rows_one_by_one(R):
    # one Clopper-Pearson call for every row gives each row's own verdict, bit
    # for bit: from no hits to all hits, and densely near R, where coverage lives
    hits = np.unique(np.r_[np.linspace(0, R, 25).astype(int), np.arange(max(R - 30, 0), R + 1)])
    within = np.arange(R)[None, :] < hits[:, None]
    betas = np.resize([0.05, 0.1, 0.25], len(hits))
    rows = coverage_verdict(within, betas)
    for j, (w, beta) in enumerate(zip(within, betas)):
        one = coverage_verdict(w, float(beta))
        assert {key: v[j] for key, v in rows.items()} == one
        assert type(one["ci_lo"]) is float and type(one["pass"]) is bool
    assert clopper_pearson(hits, R)[0].tolist() == rows["ci_lo"]


def test_baseline_envelope_values():
    # k = 1: the ln k factor kills the second term
    assert baseline_envelope(0.5, 0.1, 1) == pytest.approx(2.0, rel=1e-14)
    ks = np.array([1e3, 1e6, 1e9])
    vals = baseline_envelope(1.0, 0.1, ks)
    assert np.all(np.diff(vals) < 0)  # decreasing tail
    with pytest.raises(ValueError):
        baseline_envelope(-1.0, 0.1, 5)
    with pytest.raises(ValueError):
        baseline_envelope(1.0, 1.5, 5)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_stopping_times(2)) == 4
    assert sum(1 for _ in enumerate_stopping_times(3)) == 64
    taus = list(enumerate_stopping_times(3))
    for t in taus:
        assert np.all((t >= 1) & (t <= 3))
    # every enumerated rule is adapted: paths sharing the k-prefix get the
    # same decision, so equal prefixes imply equal taus when tau <= k
    for t in taus:
        for p in range(8):
            for q in range(8):
                for k in range(1, 3):
                    if p >> (3 - k) == q >> (3 - k) and t[p] == k:
                        assert t[q] >= k and (t[q] == k or t[q] > k)


def test_tree_validation():
    with pytest.raises(ValueError):
        PathTree(np.zeros((6, 4)))       # not a complete binary tree
    with pytest.raises(ValueError):
        PathTree(np.zeros((32, 6)))      # too deep


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_tree_equivalence_random(seed):
    tree = random_tree(3, seed)
    U = np.array([np.inf, 0.6, 0.5, 0.55])
    rep = tree_min_coverage(tree, U)
    assert rep["min_coverage"] == rep["sup_probability"]
    assert rep["adversarial_coverage"] == rep["sup_probability"]


def test_adversarial_dominance_over_all_rules():
    tree = random_tree(3, 7)
    U = np.array([np.inf, 0.7, 0.5, 0.6])
    vals = tree.values
    adv = tree_min_coverage(tree, U)["adversarial_coverage"]
    for taus in enumerate_stopping_times(3):
        cov = float(np.mean(vals[np.arange(8), taus] <= U[taus]))
        assert cov >= adv - 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.floats(0.2, 2.0))
def test_tree_equivalence_property(seed, scale):
    tree = random_tree(3, seed)
    U = np.array([np.inf, 0.5, 0.5, 0.5]) * scale
    rep = tree_min_coverage(tree, U)
    assert rep["min_coverage"] == rep["sup_probability"] == rep["adversarial_coverage"]
