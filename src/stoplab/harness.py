"""Experiment orchestration: config parsing, seeded ensembles, checks, reports.

A run is described by a single JSON config (grammar documented in the README);
unknown keys are hard errors listing every violation at once.  Trajectories
are streamed in contiguous index blocks — optionally across worker processes
(``STOPLAB_WORKERS``) — with all per-trajectory statistics computed online, so
results are bitwise identical for any worker count.  Outputs are
``report.json`` plus ``trajectory_<i>.csv`` / ``coverage.csv`` /
``constants.csv``; floats are serialized with shortest round-trip formatting.
"""

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .concentration import mgf_check, MgfCheckConfig, weighted_square_tail_check
from .errors import ConfigError, DivergenceError
from .lyapunov import (EnvelopeParams, envelope_constants, envelope_U,
                       step_residuals)
from .martingale import (MartingaleTracker, alpha_for_bound,
                         check_supermartingale, ville_monitor)
from .noise import NoiseKind, NoiseModel, calibrate
from .objectives import (Objective, eval_objective, huberized_abs,
                         least_squares_random, quadratic)
from .sgdm import (ScheduleVariant, Variant, a_coeff, derive_seeds, energy,
                   energy_weight, eta_bound_margin, phi, sq_norm, stream_ensemble)
from .stopping import RuleKind, RuleTracker, coverage_verdict

__all__ = ["RunConfig", "Report", "load_config", "parse_config", "run_experiment"]

SCHEMA_VERSION = "1"
CHECK_NAMES = (
    "descent", "decomposition", "supermartingale", "ville",
    "mgf", "tail", "coverage", "constants",
)

_TOP_KEYS = {
    "objective", "noise", "schedule", "K", "R", "base_seed", "x0",
    "betas", "rules", "checks", "output_dir", "options",
}

_DEFAULT_OPTIONS = {
    "gamma_tol": 1e-6,
    "supermartingale_ks": [1, 2, 5, 10, 50],
    "n_branches": 100_000,
    "mgf_lambdas": [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0],
    "mgf_n_samples": 1_000_000,
    "tail_omegas": [1.0, 2.0, 3.0],
    "tail_n_runs": 100_000,
    "tail_c_len": 100,
    "ville_bound": 0.1,
    "csv_trajectories": 2,
    "envelope_sigma": None,   # override for zero-noise runs that still want U
}

# What each check accepts of its option, beyond the default's type; a value
# outside is a config error, raised before any output is written.
_OPTION_RANGES = {
    "gamma_tol": (lambda v: 1e-12 < v < 1e-3, "must lie in (1e-12, 1e-3)"),
    "supermartingale_ks": (lambda v: all(k >= 1 for k in v), "entries must be >= 1"),
    "n_branches": (lambda v: v >= 1000, "must be >= 1000"),
    "mgf_n_samples": (lambda v: v >= 1, "must be >= 1"),
    "tail_c_len": (lambda v: v >= 1, "must be >= 1"),
    "ville_bound": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
}

_RULE_KINDS = {k.value: k for k in RuleKind}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _matches_default(value, default) -> bool:
    """Whether an option value has its default's type (lists element-wise).

    A None default (``envelope_sigma``) stands for an optional number.
    """
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(
            _matches_default(v, default[0]) for v in value)
    if default is None:
        return value is None or _is_number(value)
    return _is_int(value) if isinstance(default, int) else _is_number(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description; ``raw`` echoes the input document."""

    raw: dict
    objective: Objective
    noise: NoiseModel
    sched: ScheduleVariant
    K: int
    R: int
    base_seed: int
    x0: np.ndarray
    betas: tuple
    rules: tuple          # (kind, epsilon, k_max, beta) tuples
    checks: tuple
    output_dir: str
    options: dict


@dataclass
class Report:
    config: dict
    checks: list
    summary: dict
    passed: bool
    output_dir: str


# Each objective kind's keys, each with a value of the type it must have.
_OBJECTIVE_KEYS = {
    "quadratic": {"diag": [0.0], "center": [0.0]},
    "least-squares": {"dim": 0, "m": 0, "seed": 0},
    "huberized-abs": {"dim": 0, "delta": 0.0, "center": [0.0]},
}


def _build_objective(spec, problems) -> Objective | None:
    if not isinstance(spec, dict) or "kind" not in spec:
        problems.append("objective must be a mapping with a 'kind'")
        return None
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _OBJECTIVE_KEYS:
        problems.append(f"objective: unknown kind {kind!r}")
        return None
    types = _OBJECTIVE_KEYS[kind]
    bad = set(spec) - {"kind"} - set(types)
    if bad:
        problems.append(f"objective: unknown keys {sorted(bad)}")
    wrong = sorted(k for k in set(spec) & set(types) if not (
        _matches_default(spec[k], types[k]) or (k == "center" and spec[k] is None)))
    if wrong:
        problems.append(f"objective: {wrong} must be integers (dim, m, seed), "
                        "a number (delta) or lists of numbers (diag, center)")
        return None
    center = spec.get("center")
    center = None if center is None else np.asarray(center, dtype=float)
    try:
        if kind == "quadratic":
            return quadratic(np.asarray(spec.get("diag", [1.0]), dtype=float), center)
        if kind == "least-squares":
            return least_squares_random(spec.get("dim", 5), spec.get("m", 12),
                                        spec.get("seed", 0))
        return huberized_abs(spec.get("dim", 1), float(spec.get("delta", 1.0)), center)
    except (ValueError, TypeError) as exc:
        problems.append(f"objective: {exc}")
        return None


def _build_noise(spec, dim, problems) -> NoiseModel | None:
    if not isinstance(spec, dict) or "kind" not in spec:
        problems.append("noise must be a mapping with a 'kind'")
        return None
    bad = set(spec) - {"kind", "sigma"}
    if bad:
        problems.append(f"noise: unknown keys {sorted(bad)}")
    kinds = {"none": NoiseKind.NONE, "gaussian-isotropic": NoiseKind.GAUSSIAN_ISOTROPIC,
             "bounded-sphere": NoiseKind.BOUNDED_SPHERE}
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        problems.append(f"noise: unknown kind {kind!r}")
        return None
    sigma = spec.get("sigma", 0.0)
    if not _is_number(sigma):
        problems.append("noise: sigma must be a number")
        return None
    try:
        return calibrate(kinds[kind], dim, float(sigma))
    except ValueError as exc:
        problems.append(f"noise: {exc}")
        return None


def _build_schedule(spec, obj, problems) -> ScheduleVariant | None:
    if not isinstance(spec, dict) or "variant" not in spec:
        problems.append("schedule must be a mapping with a 'variant'")
        return None
    bad = set(spec) - {"variant", "L", "epsilon", "c0_prime"}
    if bad:
        problems.append(f"schedule: unknown keys {sorted(bad)}")
    variants = {v.value: v for v in Variant}
    name = spec.get("variant")
    if not isinstance(name, str) or name not in variants:
        problems.append(f"schedule: unknown variant {name!r}")
        return None
    bad = sorted(k for k in ("L", "epsilon", "c0_prime") if k in spec and not _is_number(spec[k]))
    if bad:
        problems.append(f"schedule: {bad} must be numbers")
        return None
    L = float(spec.get("L", obj.smoothness if obj else 1.0))
    try:
        if variants[name] is Variant.PROPOSITION_EPS:
            return ScheduleVariant(variants[name], L, epsilon=float(spec.get("epsilon", 0.3)),
                                   c0_prime=float(spec.get("c0_prime", 100.0)))
        return ScheduleVariant(variants[name], L)
    except ValueError as exc:
        problems.append(f"schedule: {exc}")
        return None


def parse_config(raw: dict) -> RunConfig:
    """Validate a config document, collecting every violation before raising."""
    problems = []
    if not isinstance(raw, dict):
        raise ConfigError(["config document must be a mapping"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")
    missing = {"objective", "noise", "schedule", "K", "R", "base_seed", "x0"} - set(raw)
    if missing:
        problems.append(f"missing required keys: {sorted(missing)}")
        raise ConfigError(problems)

    obj = _build_objective(raw["objective"], problems)
    noise = obj and _build_noise(raw["noise"], obj.dim, problems)
    sched = _build_schedule(raw["schedule"], obj, problems)

    K, R = raw.get("K"), raw.get("R")
    if not _is_int(K) or K < 2:
        problems.append("K must be an integer >= 2")
    if not _is_int(R) or R < 1:
        problems.append("R must be an integer >= 1")
    base_seed = raw.get("base_seed")
    if not _is_int(base_seed) or not 0 <= base_seed < 2**64:
        problems.append("base_seed must be a 64-bit nonnegative integer")

    x0 = None
    if not _matches_default(raw["x0"], [0.0]):
        problems.append("x0 must be a list of numbers")
    else:
        x0 = np.asarray(raw["x0"], dtype=float)
        if obj is not None and x0.shape != (obj.dim,):
            problems.append(f"x0 must have length {obj.dim}")

    betas = raw.get("betas", [0.05, 0.1])
    if not isinstance(betas, (list, tuple)) or not all(_is_number(b) and 0.0 < b < 0.5 for b in betas):
        problems.append("betas must be a list of numbers that all lie in (0, 0.5)")
        betas = []
    betas = tuple(float(b) for b in betas)

    rules = []
    rule_specs = raw.get("rules", [])
    if not isinstance(rule_specs, (list, tuple)):
        problems.append("rules must be a list")
        rule_specs = []
    for i, rs in enumerate(rule_specs):
        name = rs.get("kind") if isinstance(rs, dict) else None
        if not isinstance(name, str) or name not in _RULE_KINDS:
            problems.append(f"rules[{i}]: kind must be one of {sorted(_RULE_KINDS)}")
            continue
        bad = set(rs) - {"kind", "epsilon", "k_max", "beta"}
        if bad:
            problems.append(f"rules[{i}]: unknown keys {sorted(bad)}")
        kind = _RULE_KINDS[name]
        k_max = rs.get("k_max", K if _is_int(K) else 2)
        if not _is_int(k_max) or k_max < 1 or (_is_int(K) and k_max > K):
            problems.append(f"rules[{i}]: k_max must be an integer in [1, K]")
            continue
        epsilon, beta = rs.get("epsilon"), rs.get("beta")
        if not (epsilon is None or _is_number(epsilon)):
            problems.append(f"rules[{i}]: epsilon must be a number")
            continue
        if not (beta is None or (_is_number(beta) and 0.0 < beta < 0.5)):
            problems.append(f"rules[{i}]: beta must be a number in (0, 0.5)")
            continue
        if kind is RuleKind.FIRST_ENVELOPE_VIOLATION and beta is None and not betas:
            problems.append(f"rules[{i}]: {kind.value} needs a beta when betas is empty")
            continue
        try:
            RuleTracker(kind, k_max, epsilon)  # the rule's own parameter checks
        except ValueError as exc:
            problems.append(f"rules[{i}]: {exc}")
            continue
        rules.append((kind, None if epsilon is None else float(epsilon), k_max,
                      None if beta is None else float(beta)))

    checks = raw.get("checks", list(CHECK_NAMES))
    if not isinstance(checks, (list, tuple)) or not all(isinstance(c, str) for c in checks):
        problems.append("checks must be a list of check names")
        checks = []
    checks = tuple(checks)
    bad_checks = set(checks) - set(CHECK_NAMES)
    if bad_checks:
        problems.append(f"unknown checks: {sorted(bad_checks)}")

    options = dict(_DEFAULT_OPTIONS)
    extra = raw.get("options", {})
    if not isinstance(extra, dict):
        problems.append("options must be a mapping")
    else:
        bad = set(extra) - set(_DEFAULT_OPTIONS)
        if bad:
            problems.append(f"options: unknown keys {sorted(bad)}")
        for key in sorted(set(extra) & set(_DEFAULT_OPTIONS)):
            if not _matches_default(extra[key], _DEFAULT_OPTIONS[key]):
                problems.append(f"options: {key} must have the type of its default "
                                f"{_DEFAULT_OPTIONS[key]!r}")
            elif key in _OPTION_RANGES and not _OPTION_RANGES[key][0](extra[key]):
                problems.append(f"options: {key} {_OPTION_RANGES[key][1]}")
            else:
                options[key] = extra[key]

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        raw=raw, objective=obj, noise=noise, sched=sched, K=K, R=R,
        base_seed=base_seed, x0=x0, betas=betas, rules=tuple(rules),
        checks=checks, output_dir=str(raw.get("output_dir", "runs/out")),
        options=options,
    )


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {p}"])
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return parse_config(raw)


def _envelope(cfg: RunConfig) -> EnvelopeParams:
    sigma = cfg.options["envelope_sigma"]
    if sigma is None:
        sigma = cfg.noise.sigma_certificate
    obj = cfg.objective
    fgap0 = float(eval_objective(obj, cfg.x0) - obj.min_value)
    phi_1 = phi(1, cfg.x0, cfg.x0, obj.minimizer)  # x_1 = x_0
    E0 = float(energy(sq_norm(phi_1), fgap0, energy_weight(cfg.sched, 0)))
    return envelope_constants(cfg.sched, float(sigma), E0, float(cfg.options["gamma_tol"]))


def _run_block(cfg: RunConfig, env: EnvelopeParams, lo: int, hi: int) -> dict:
    """Stream trajectories lo..hi-1 and reduce all per-trajectory statistics.

    Top-level so process pools can pickle it; the run's config and envelope
    are plain values, computed once by ``run_experiment``.
    """
    obj, sched, K = cfg.objective, cfg.sched, cfg.K
    n = hi - lo
    seeds = derive_seeds(cfg.base_seed, hi - lo, start=lo)
    t = env.B / env.gamma2
    ks = np.arange(0, K + 1)
    rule_betas = {r[3] for r in cfg.rules if r[3] is not None}
    U = {b: np.concatenate([[np.inf], envelope_U(env, b, ks[1:])])
         for b in set(cfg.betas) | rule_betas}

    mins = {name: np.full(n, np.inf) for name in (
        "descent", "descent_margin", "decomp", "decomp_margin",
        "decomp_mid", "decomp_mid_margin", "p1_margin", "sandwich_margin",
    )}
    tracker = MartingaleTracker(env.sigma, env.gamma2, t)
    all_within = {b: np.ones(n, dtype=bool) for b in cfg.betas}
    adversarial = {b: RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, K, U=U[b])
                   for b in cfg.betas}
    # a rule without its own beta reads the first beta's envelope; parse_config
    # rejects an envelope rule with neither
    first_beta = cfg.betas[0] if cfg.betas else None
    rules = [RuleTracker(kind, k_max, epsilon, U.get(first_beta if rbeta is None else rbeta))
             for kind, epsilon, k_max, rbeta in cfg.rules]

    n_csv = int(cfg.options["csv_trajectories"])
    traced = [i for i in range(lo, hi) if i < n_csv]
    rows = {i: [] for i in traced}

    for rec in stream_ensemble(obj, cfg.noise, sched, K, seeds, cfg.x0):
        k = rec.k
        res = step_residuals(rec, obj)
        tol = res["tol"]
        np.minimum(mins["descent"], res["descent"], out=mins["descent"])
        np.minimum(mins["descent_margin"], res["descent"] + tol, out=mins["descent_margin"])
        np.minimum(mins["decomp"], res["decomp"], out=mins["decomp"])
        np.minimum(mins["decomp_margin"], res["decomp"] + tol, out=mins["decomp_margin"])
        np.minimum(mins["decomp_mid"], res["decomp_mid"], out=mins["decomp_mid"])
        np.minimum(mins["decomp_mid_margin"], res["decomp_mid"] + tol, out=mins["decomp_mid_margin"])
        p1 = rec.E_prev - res["phi_sq"] + tol
        if k == K:
            p1 = np.minimum(p1, rec.E - res["phi_next_sq"] + tol)
        np.minimum(mins["p1_margin"], p1, out=mins["p1_margin"])
        np.minimum(mins["sandwich_margin"], res["sandwich_margin"], out=mins["sandwich_margin"])
        tracker.update(rec)
        for b in cfg.betas:
            all_within[b] &= ~(rec.fgap_curr > U[b][k])
        for rule in [*adversarial.values(), *rules]:
            rule.update(rec)
        for i in traced:
            r = i - lo
            if k == 1:
                rows[i].append((0, float(rec.fgap_prev[r]), float(rec.E_prev[r]),
                                0.0, float(rec.E_prev[r]), "", ""))
            rows[i].append((
                k, float(rec.fgap_curr[r]), float(rec.E[r]),
                float(tracker.S_last[r]), float(rec.E[r] - tracker.S_last[r]),
                float(res["descent"][r]), float(res["decomp"][r]),
            ))
    tracker.finish(rec)

    # per beta: the all-k statement, the adversarial rule, then each configured rule
    covered = {b: [all_within[b], adversarial[b].within(U[b])]
               + [rule.within(U[b]) for rule in rules] for b in cfg.betas}
    return {
        "mins": mins,
        "sup_logN": tracker.sup_logN, "sup_E": tracker.sup_E,
        "E0": tracker.E0, "S_last": tracker.S_last,
        "covered": covered, "rows": rows,
    }


def _merge_blocks(blocks: list) -> dict:
    out = {}
    first = blocks[0]
    out["mins"] = {k: np.concatenate([b["mins"][k] for b in blocks]) for k in first["mins"]}
    for key in ("sup_logN", "sup_E", "E0", "S_last"):
        out[key] = np.concatenate([b[key] for b in blocks])
    out["covered"] = {
        beta: [np.concatenate([b["covered"][beta][j] for b in blocks])
               for j in range(len(entries))]
        for beta, entries in first["covered"].items()
    }
    out["rows"] = {}
    for b in blocks:
        out["rows"].update(b["rows"])
    return out


def _ensemble_stats(cfg: RunConfig, env: EnvelopeParams) -> dict:
    workers = int(os.environ.get("STOPLAB_WORKERS", "1"))
    R = cfg.R
    if workers <= 1 or R == 1:
        return _merge_blocks([_run_block(cfg, env, 0, R)])
    from concurrent.futures import ProcessPoolExecutor  # only a multi-worker run pays this import

    per = -(-R // workers)
    spans = [(lo, min(lo + per, R)) for lo in range(0, R, per)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_block, cfg, env, lo, hi) for lo, hi in spans]
        blocks = [f.result() for f in futures]
    return _merge_blocks(blocks)


def _write_csv(path: Path, header: list, rows: list):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _check_record(name, params, estimate, ci, bound, passed, **extra):
    rec = {"name": name, "params": params, "estimate": estimate,
           "ci": ci, "bound": bound, "pass": bool(passed)}
    rec.update(extra)
    return rec


def _supermartingale_seed(base_seed: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(1 << 20,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_experiment(cfg: RunConfig) -> Report:
    """Run the configured ensemble, execute enabled checks, write artifacts.

    The decomposition record's ``p1_margin_min`` and ``sandwich_margin_min``
    are reported, not gated: E(k) = ||phi_{k+1}||^2 + w_k (f(x_k) - f*), so
    they reduce to w_k (f(x_k) - f*) >= -tol and ||phi_{k+1}||^2 >= 0.
    """
    env = _envelope(cfg)  # may raise ConfigError; nothing is written before it
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    t = env.B / env.gamma2
    checks = []
    summary = {}

    try:
        stats = _ensemble_stats(cfg, env)
    except DivergenceError as exc:
        checks.append(_check_record("divergence", {"step": exc.step}, exc.norm,
                                    None, None, False))
        report = Report(config=cfg.raw, checks=checks, summary={}, passed=False,
                        output_dir=str(outdir))
        _write_report(report, outdir)
        return report

    E0 = float(stats["E0"][0])
    summary["E0"] = E0
    summary["sup_E_max"] = float(np.max(stats["sup_E"]))
    summary["S_final_max"] = float(np.max(stats["S_last"]))
    summary["t"] = t

    if "descent" in cfg.checks:
        m = stats["mins"]
        checks.append(_check_record(
            "descent", {"R": cfg.R, "K": cfg.K},
            float(np.min(m["descent"])), None, 0.0,
            np.min(m["descent_margin"]) >= 0.0,
        ))
    if "decomposition" in cfg.checks:
        m = stats["mins"]
        eta_margin = eta_bound_margin(cfg.sched)
        ok = (np.min(m["decomp_margin"]) >= 0.0
              and np.min(m["decomp_mid_margin"]) >= 0.0
              and eta_margin >= 0.0)
        checks.append(_check_record(
            "decomposition", {"R": cfg.R, "K": cfg.K},
            float(np.min(m["decomp"])), None, 0.0, ok,
            intermediate_min=float(np.min(m["decomp_mid"])),
            eta_bound_margin=eta_margin,
            p1_margin_min=float(np.min(m["p1_margin"])),
            sandwich_margin_min=float(np.min(m["sandwich_margin"])),
        ))
    if "supermartingale" in cfg.checks:
        seed = _supermartingale_seed(cfg.base_seed)
        for k in cfg.options["supermartingale_ks"]:
            r = check_supermartingale(
                cfg.objective, cfg.noise, cfg.sched, cfg.x0, seed, int(k), t,
                int(cfg.options["n_branches"]), gamma2_value=env.gamma2, B=env.B,
            )
            checks.append(_check_record(
                "supermartingale", {"k": int(k), "t": t,
                                    "n_branches": int(cfg.options["n_branches"])},
                r["estimate"], r["ci_halfwidth"], 0.0, r["pass"],
                bootstrap_hi=r["bootstrap_hi"],
            ))
    if "ville" in cfg.checks:
        target = float(cfg.options["ville_bound"])
        alpha = alpha_for_bound(target, t, env.gamma2, E0)
        vm = ville_monitor(stats["sup_logN"], t, alpha, env.gamma2, E0)
        checks.append(_check_record(
            "ville", {"alpha": alpha, "t": t, "R": cfg.R},
            vm["empirical_rate"], vm["ci_halfwidth"], vm["bound"], vm["pass"],
        ))
    if "mgf" in cfg.checks:
        phi = cfg.x0 - cfg.objective.minimizer
        if not np.any(phi):
            phi = np.zeros(cfg.objective.dim)
            phi[0] = 1.0
        mc = MgfCheckConfig(
            lambda_grid=cfg.options["mgf_lambdas"],
            n_samples=int(cfg.options["mgf_n_samples"]),
            noise=cfg.noise, phi_vector=phi, seed=cfg.base_seed,
        )
        for r in mgf_check(mc):
            checks.append(_check_record(
                "mgf", {"lambda": r["lambda"], "n": int(cfg.options["mgf_n_samples"])},
                r["estimate"], r["rel_stderr"], r["bound"], r["pass"],
            ))
    if "tail" in cfg.checks:
        c = np.asarray(a_coeff(cfg.sched, np.arange(1, int(cfg.options["tail_c_len"]) + 1)))
        for r in weighted_square_tail_check(
            c, cfg.noise, cfg.options["tail_omegas"],
            int(cfg.options["tail_n_runs"]), seed=cfg.base_seed,
        ):
            checks.append(_check_record(
                "tail", {"omega": r["omega"], "n": r["n_runs"]},
                r["frequency"], (r["ci_lo"], r["ci_hi"]), r["bound"], r["pass"],
            ))
    coverage_rows = []
    if "coverage" in cfg.checks:
        names = ["sup", "adversarial"] + [kind.value for kind, *_ in cfg.rules]
        for b in cfg.betas:
            for name, within in zip(names, stats["covered"][b]):
                v = coverage_verdict(within, b)
                coverage_rows.append([b, name, cfg.R, cfg.K, v["frequency"],
                                      v["ci_lo"], v["ci_hi"], v["bound"], v["pass"]])
                checks.append(_check_record(
                    "coverage", {"beta": b, "rule": name, "R": cfg.R, "K": cfg.K},
                    v["frequency"], (v["ci_lo"], v["ci_hi"]), v["bound"], v["pass"],
                ))
    if "constants" in cfg.checks:
        brackets_ok = (env.gamma1_tail <= cfg.options["gamma_tol"] * env.gamma1
                       and env.gamma2_tail <= cfg.options["gamma_tol"] * env.gamma2)
        checks.append(_check_record(
            "constants", {"tol": cfg.options["gamma_tol"]},
            {"gamma1": env.gamma1, "gamma2": env.gamma2, "C1": env.C1, "C2": env.C2},
            (env.gamma1_tail, env.gamma2_tail), None, brackets_ok,
        ))
        _write_csv(outdir / "constants.csv",
                   ["schedule", "L", "sigma", "tol", "gamma1_lo", "gamma1_hi",
                    "gamma2_lo", "gamma2_hi", "C1", "C2"],
                   [[cfg.sched.variant.value, cfg.sched.L, env.sigma,
                     cfg.options["gamma_tol"],
                     env.gamma1 - env.gamma1_tail, env.gamma1,
                     env.gamma2 - env.gamma2_tail, env.gamma2, env.C1, env.C2]])

    if coverage_rows:
        _write_csv(outdir / "coverage.csv",
                   ["beta", "rule", "R", "K", "frequency", "ci_lo", "ci_hi",
                    "bound", "pass"], coverage_rows)
    for i, rows in stats["rows"].items():
        _write_csv(outdir / f"trajectory_{i}.csv",
                   ["k", "fgap", "E", "S", "M", "residual_lemma", "residual_decomp"],
                   rows)

    passed = all(c["pass"] for c in checks)
    report = Report(config=cfg.raw, checks=checks, summary=summary,
                    passed=passed, output_dir=str(outdir))
    _write_report(report, outdir)
    return report


def _write_report(report: Report, outdir: Path):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": report.config,
        "checks": report.checks,
        "summary": report.summary,
        "pass": report.passed,
    }
    (outdir / "report.json").write_text(json.dumps(doc, indent=2, default=float) + "\n")
