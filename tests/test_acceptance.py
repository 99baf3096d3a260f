"""End-to-end verification suite.

One test per numbered criterion, each printing a single PASS/FAIL line.
The ensemble criteria run the harness itself, from ``parse_config``
documents: 01-03, 09, 10 and 12 read the per-trajectory minima and coverage
flags of ``harness._ensemble_stats``, and 06 reads ``run_experiment``'s ville
record.  Each document enables only the checks its criterion reads, so a
block computes the step residuals only for descent and decomposition, runs
the martingale tracker only for ville, and, with ``csv_trajectories: 0``,
writes no trajectory rows.  Heavy ensembles are shared through module-scoped
fixtures: the 3x3 noise-by-objective grid backs the pathwise criteria, and
one long coverage ensemble backs the envelope and stopping-time criteria.
"""

import math
import os

import numpy as np
import pytest

from stoplab import harness
from stoplab.concentration import (MgfCheckConfig, mgf_check,
                                   weighted_square_tail_check)
from stoplab.harness import parse_config, run_experiment
from stoplab.lyapunov import envelope_constants, envelope_U
from stoplab.martingale import check_supermartingale
from stoplab.mcstats import clopper_pearson
from stoplab.noise import NoiseKind, calibrate
from stoplab.objectives import least_squares_random
from stoplab.series import gamma1, gamma2
from stoplab.sgdm import ScheduleVariant, Variant, a_coeff, eta
from stoplab.stopping import baseline_envelope

from oracles import PathTree, riemann_zeta, tree_min_coverage

R_GRID, K_GRID = 100, 10_000
R_COV, K_COV = 1000, 100_000
BETAS = (0.05, 0.1)


def _announce(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{status}] criterion {num:02d} {name}{suffix}")


def _doc(objective, noise, x0, **over) -> dict:
    """A run document with no betas, rules or trajectory CSVs unless ``over`` sets them."""
    raw = {"objective": objective, "noise": noise, "schedule": {"variant": "theorem-main"},
           "x0": [float(v) for v in x0], "betas": [], "rules": [],
           "options": {"csv_trajectories": 0}}
    raw.update(over)
    return raw


def _grid_configs() -> dict:
    """The 3x3 objective-by-noise grid at R=100, K=10^4, base seed 101."""
    ls = least_squares_random(5, 8, 0)
    objectives = [
        ("quadratic-d1", {"kind": "quadratic", "diag": [1.0]}, [2.0]),
        ("least-squares-d5", {"kind": "least-squares", "dim": 5, "m": 8, "seed": 0},
         ls.minimizer + np.array([1.0, -0.5, 0.25, 0.75, -1.0])),
        ("huberized-d3", {"kind": "huberized-abs", "dim": 3, "delta": 0.5}, [1.5, -1.0, 0.5]),
    ]
    noises = [("zero", {"kind": "none", "sigma": 0.0}),
              ("gaussian", {"kind": "gaussian-isotropic", "sigma": 1.0}),
              ("sphere", {"kind": "bounded-sphere", "sigma": 1.0})]
    return {(oname, nname): parse_config(_doc(
                objective, noise, x0, K=K_GRID, R=R_GRID, base_seed=101,
                checks=["descent", "decomposition"]))
            for oname, objective, x0 in objectives for nname, noise in noises}


def _stats(cfg) -> dict:
    return harness._ensemble_stats(cfg, harness._envelope(cfg))


@pytest.fixture(scope="module")
def grid_mins():
    """The harness's per-trajectory worst margins over the 3x3 grid."""
    return {key: _stats(cfg)["mins"] for key, cfg in _grid_configs().items()}


def _worst(grid_mins, name: str) -> float:
    return min(float(np.min(m[name])) for m in grid_mins.values())


def test_criterion_01_pathwise_energy_decay(grid_mins):
    worst = _worst(grid_mins, "descent_margin")
    ok = worst >= 0.0
    _announce(1, "pathwise-energy-decay", ok, f"worst margin {worst:.3e}")
    assert ok, f"energy-decay residual below tolerance: {worst}"


def test_criterion_02_noise_only_decomposition(grid_mins):
    worst = _worst(grid_mins, "decomp_margin")
    worst_mid = _worst(grid_mins, "decomp_mid_margin")
    # the step size condition eta_k <= k / (16 L^2) for k = 1..10^6
    ks = np.arange(1, 1_000_001, dtype=float)
    step_ok = True
    for sched in {cfg.sched for cfg in _grid_configs().values()}:
        lhs = np.asarray(eta(sched, ks))
        step_ok &= bool(np.all(lhs <= ks / (16.0 * sched.L**2)))
    ok = worst >= 0.0 and worst_mid >= 0.0 and step_ok
    _announce(2, "noise-only-decomposition", ok,
              f"worst final {worst:.3e}, worst intermediate {worst_mid:.3e}")
    assert worst >= 0.0 and worst_mid >= 0.0, (worst, worst_mid)
    assert step_ok


def test_criterion_03_momentum_vector_sandwich(grid_mins):
    worst_p1 = _worst(grid_mins, "p1_margin")
    worst_sw = _worst(grid_mins, "sandwich_margin")
    ok = worst_p1 >= 0.0 and worst_sw >= 0.0
    _announce(3, "momentum-vector-sandwich", ok,
              f"worst ||phi||^2 margin {worst_p1:.3e}, "
              f"worst value margin {worst_sw:.3e}")
    assert ok, (worst_p1, worst_sw)


def _oracle_series_brackets(sched, sigma, n_terms):
    """Independent brute-force brackets for the weight sum and product.

    Direct summation over n_terms terms plus closed-form tail squeezes built
    from different comparison integrands than the library uses: the upper
    tail integrates 1/(C x ln^p x) (antiderivative in ln x, no +2 shift),
    the lower tail integrates 1/(C (x+2) ln^p(x+2)).
    """
    total = 0.0
    log_total = 0.0
    s2 = sigma * sigma
    chunk = 1 << 20
    C, p = sched.a_coefficient_scale, sched.log_power
    for lo in range(1, n_terms + 1, chunk):
        hi = min(lo + chunk - 1, n_terms)
        k = np.arange(lo, hi + 1, dtype=float)
        a = 1.0 / (C * k * np.log(k + 2.0) ** p)
        total += float(np.sum(a))
        log_total += float(np.sum(np.log1p(s2 * a)))
    tail_lo = 1.0 / (C * (p - 1.0) * math.log(n_terms + 2.0) ** (p - 1.0))
    a_next = 1.0 / (C * n_terms * math.log(n_terms + 2.0) ** p)
    tail_hi = a_next + 1.0 / (C * (p - 1.0) * math.log(n_terms) ** (p - 1.0))
    g1 = (total + tail_lo, total + tail_hi)
    log_tail_lo = max(s2 * tail_lo - 0.5 * s2 * s2 * a_next * tail_hi, 0.0)
    g2 = (math.exp(log_total + log_tail_lo),
          math.exp(log_total + s2 * tail_hi))
    return g1, g2


def test_criterion_04_weight_series_oracle():
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
    v1, w1 = gamma1(sched, 1e-6)
    v2, w2 = gamma2(sched, 1.0, 1e-6)
    (g1_lo, g1_hi), (g2_lo, g2_hi) = _oracle_series_brackets(sched, 1.0, 1 << 24)
    ok = (
        w1 <= 1e-6 * v1 and w2 <= 1e-6 * v2
        and v1 <= g1_hi and g1_lo <= v1 + w1
        and v2 <= g2_hi and g2_lo <= v2 + w2
        and g1_hi - g1_lo <= 2e-6 * v1
        and g2_hi - g2_lo <= 2e-6 * v2
    )
    _announce(4, "weight-series-oracle", ok,
              f"gamma1 in [{v1:.8f}, {v1 + w1:.8f}], "
              f"oracle [{g1_lo:.8f}, {g1_hi:.8f}]")
    assert ok, (v1, w1, g1_lo, g1_hi, v2, w2, g2_lo, g2_hi)


def test_criterion_05_conditional_drift():
    results = []
    deterministic_ok = True
    for (oname, nname), cfg in _grid_configs().items():
        sigma = cfg.noise.sigma_certificate
        if sigma == 0.0:
            g2u = 1.0
        else:
            v, w = gamma2(cfg.sched, sigma, 1e-6)
            g2u = v + w
        t = 1.0 / g2u
        ks = (1, 2, 5, 10, 50)
        records = check_supermartingale(cfg.objective, cfg.noise, cfg.sched, cfg.x0, 77, ks, t,
                                        100_000, gamma2_value=g2u)
        for k, r in zip(ks, records, strict=True):
            results.append(((oname, nname, k), r))
            if sigma == 0.0:
                deterministic_ok &= r["ci_halfwidth"] <= 1e-15
    ok = all(r["pass"] for _, r in results) and deterministic_ok
    worst = max(r["estimate"] - 3.0 * r["ci_halfwidth"] for _, r in results)
    _announce(5, "conditional-drift", ok,
              f"{len(results)} configs, worst normalized drift {worst:.3e}")
    bad = [key for key, r in results if not r["pass"]]
    assert ok, f"drift estimate above noise floor for {bad}"


def _quadratic_doc(schedule: dict, **over) -> dict:
    """The d = 2 quadratic with Gaussian noise, sigma = 1, from x0 = (2, -1)."""
    return _doc({"kind": "quadratic", "diag": [1.0, 2.0]},
                {"kind": "gaussian-isotropic", "sigma": 1.0}, [2.0, -1.0],
                schedule=schedule, **over)


def test_criterion_06_anytime_exceedance(tmp_path):
    # Ville's bound at 0.1, t = 1 / gamma2 and a slack of 1.3 / sqrt(R)
    cfg = parse_config(_quadratic_doc({"variant": "theorem-main"}, R=10_000, K=1000,
                                      base_seed=303, checks=["ville"],
                                      output_dir=str(tmp_path)))
    (ville,) = run_experiment(cfg).checks
    rate, limit = ville["estimate"], ville["bound"] + ville["ci"]
    ok = ville["pass"]
    _announce(6, "anytime-exceedance", ok,
              f"rate {rate:.4f} vs bound-with-slack {limit:.4f}")
    assert ok, (rate, limit)


def test_criterion_07_mgf_bound():
    lambdas = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
    phi = np.array([1.0, 0.0, 0.0])
    gauss = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 3, 1.0)
    sphere = calibrate(NoiseKind.BOUNDED_SPHERE, 3, 1.0)
    rg = mgf_check(MgfCheckConfig(lambdas, 1_000_000, gauss, phi, seed=17))
    rs = mgf_check(MgfCheckConfig(lambdas, 1_000_000, sphere, phi, seed=18))
    bound_ok = all(r["pass"] for r in rg + rs)
    oracle_ok = all(
        abs(r["estimate"] / math.exp(r["lambda"] ** 2 * gauss.scale**2 / 2.0) - 1.0)
        <= 0.01
        for r in rg
    )
    ok = bound_ok and oracle_ok
    _announce(7, "mgf-bound", ok,
              f"{len(rg) + len(rs)} lambda/noise cells, "
              f"gaussian oracle match {'ok' if oracle_ok else 'off'}")
    assert ok, (rg, rs)


def test_criterion_08_weighted_square_tail():
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
    c = np.asarray(a_coeff(sched, np.arange(1, 101)))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    reports = weighted_square_tail_check(c, noise, [1.0, 2.0, 3.0],
                                         100_000, seed=23)
    ok = all(r["pass"] for r in reports)
    freqs = ", ".join(f"{r['frequency']:.2e}<=e^-{r['omega']:g}"
                      for r in reports)
    _announce(8, "weighted-square-tail", ok, freqs)
    assert ok, reports


def _coverage_config(schedule: dict, rules=()):
    """The coverage run at R=1000, K=10^5, base seed 2024."""
    return parse_config(_quadratic_doc(schedule, R=R_COV, K=K_COV, base_seed=2024,
                                       betas=list(BETAS), rules=list(rules),
                                       checks=["coverage"]))


def _coverage_stats(cfg) -> tuple:
    """``_stats(cfg)["covered"]``, and each beta's all-k flags, reduced here.

    ``covered[beta]`` holds the flags of the ``sup`` row, of the adversarial
    rule, then of each rule; the harness forms the first two as one
    indicator (``stopping``'s docstring).  The all-k flags, f(x_k) - f* <= U_k
    at every k = 1..K, are reduced from each slab of the same stream as the
    harness pulls it, so they check that identity from a second computation.
    """
    env = harness._envelope(cfg)
    U = {b: envelope_U(env, b, np.arange(1, cfg.K + 1)) for b in cfg.betas}
    within = {b: np.ones(cfg.R, dtype=bool) for b in cfg.betas}
    stream = harness.stream_ensemble

    def watched(obj, noise, sched, K, seeds, x0, reads, rows):
        for slab in stream(obj, noise, sched, K, seeds, x0, {"fgap_curr", *reads}, rows):
            yield slab
            for b in cfg.betas:
                within[b] &= ~np.any(slab.fgap_curr > U[b][slab.k[:, :1] - 1], axis=0)
            del slab  # before the stream draws its next noise block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "stream_ensemble", watched)
        mp.setenv("STOPLAB_WORKERS", "1")  # the slabs pass through this process
        covered = _stats(cfg)["covered"]
    return covered, within


@pytest.fixture(scope="module")
def theorem_cov():
    return _coverage_stats(_coverage_config({"variant": "theorem-main"}, rules=[
        {"kind": "iterate-delta", "epsilon": 1e-3},
        {"kind": "value-delta", "epsilon": 1e-4}]))


@pytest.mark.slow
def test_criterion_09_envelope_coverage(theorem_cov):
    _, within = theorem_cov
    ok = True
    details = []
    for b in BETAS:
        hits = int(np.sum(within[b]))
        lo, _ = clopper_pearson(hits, R_COV)
        ok &= (hits == R_COV) or (lo >= 1.0 - 2.0 * b)
        details.append(f"beta={b}: {hits}/{R_COV}, 99% lower {lo:.4f}")
    _announce(9, "envelope-coverage", ok, "; ".join(details))
    assert ok, details


@pytest.mark.slow
def test_criterion_10_stopping_time_transfer(theorem_cov):
    covered, within = theorem_cov
    ok = True
    details = []
    for b in BETAS:
        sup, stopped_within, *rules = covered[b]
        identity = bool(np.array_equal(stopped_within, within[b])
                        and np.array_equal(sup, within[b]))
        adv_cov = float(np.mean(stopped_within))
        # both step-delta rules stop at k = 1 (the start is repeated), so
        # their stopped value gap is the deterministic first-step gap
        rule_cov = min(float(np.mean(r)) for r in rules)
        ok &= identity and rule_cov >= adv_cov
        details.append(f"beta={b}: identity {identity}, "
                       f"rules {rule_cov:.3f} >= adversarial {adv_cov:.3f}")
    _announce(10, "stopping-time-transfer", ok, "; ".join(details))
    assert ok, details


@pytest.mark.parametrize("m", [0, 1, 2, 4])
def test_criterion_11_toy_tree_equivalence(m):
    values = np.full((8, 4), 0.5)
    values[:m, 3] = 2.0  # m paths violating at the last step only
    tree = PathTree(values)
    U = np.array([np.inf, 1.0, 1.0, 1.0])
    rep = tree_min_coverage(tree, U)
    expected = (8 - m) / 8.0
    ok = (rep["min_coverage"] == rep["sup_probability"] ==
          rep["adversarial_coverage"] == expected)
    _announce(11, f"toy-tree-equivalence[m={m}]", ok,
              f"min over rules = {rep['min_coverage']:.3f}")
    assert ok, rep


@pytest.mark.slow
@pytest.mark.parametrize("eps", [0.1, 0.3, 0.49])
def test_criterion_12_eps_schedule_variant(eps):
    cfg = _coverage_config({"variant": "proposition-eps", "epsilon": eps})
    sched = cfg.sched
    zeta_ok = abs(riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-10
    v1, w1 = gamma1(sched, 1e-6)
    v2, w2 = gamma2(sched, 1.0, 1e-6)
    series_ok = (v1 + w1 <= riemann_zeta(1.0 + eps)
                 and v2 + w2 <= math.exp(riemann_zeta(1.0 + eps)))
    _, within = _coverage_stats(cfg)
    cov_ok = True
    details = []
    for b in BETAS:
        hits = int(np.sum(within[b]))
        lo, _ = clopper_pearson(hits, R_COV)
        cov_ok &= (hits == R_COV) or (lo >= 1.0 - 2.0 * b)
        details.append(f"beta={b}: {hits}/{R_COV}")
    ok = zeta_ok and series_ok and cov_ok
    _announce(12, f"eps-schedule-variant[eps={eps}]", ok,
              f"gamma1 {v1:.4f} <= zeta({1 + eps:g}) "
              f"{riemann_zeta(1.0 + eps):.4f}; " + "; ".join(details))
    assert ok, (zeta_ok, series_ok, details)


def test_criterion_13_baseline_ratio():
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
    env = envelope_constants(sched, 1.0, 1.0)
    ks = np.array([1e3, 1e6, 1e9])
    ours = np.asarray(envelope_U(env, 0.1, ks))
    base = np.asarray(baseline_envelope(1.0, 0.1, ks))
    ratios = base / ours
    ok = bool(np.all(np.diff(ratios) > 0.0))
    _announce(13, "baseline-ratio", ok,
              "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert ok, ratios


def test_criterion_14_reproducibility(tmp_path):
    raw = {
        "objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
        "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
        "schedule": {"variant": "theorem-main"},
        "K": 500,
        "R": 40,
        "base_seed": 5,
        "x0": [2.0, -1.0],
        "betas": [0.05],
        "rules": [],
        "checks": ["descent", "decomposition", "coverage", "constants"],
        "output_dir": "",
        "options": {"csv_trajectories": 2},
    }
    old = os.environ.get("STOPLAB_WORKERS")
    runs = [("w1a", "1"), ("w1b", "1"), ("w8", "8")]
    try:
        for tag, workers in runs:
            os.environ["STOPLAB_WORKERS"] = workers
            doc = dict(raw, output_dir=str(tmp_path / tag))
            run_experiment(parse_config(doc))
    finally:
        if old is None:
            os.environ.pop("STOPLAB_WORKERS", None)
        else:
            os.environ["STOPLAB_WORKERS"] = old
    names = sorted(p.name for p in (tmp_path / "w1a").glob("*.csv"))
    ok = len(names) > 0
    for name in names:
        ref = (tmp_path / "w1a" / name).read_bytes()
        ok &= (tmp_path / "w1b" / name).read_bytes() == ref
        ok &= (tmp_path / "w8" / name).read_bytes() == ref
    _announce(14, "reproducibility", ok,
              f"{len(names)} CSVs byte-identical across repeat and 1-vs-8 workers")
    assert ok, names
