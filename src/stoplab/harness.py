"""Experiment orchestration: config parsing, seeded ensembles, checks, reports.

A run is described by a single JSON config.  Its grammar is declared once, in
``GRAMMAR``: each key's default and the values it accepts (numbers are always
finite).  ``parse_config`` walks every section against it and lists every
problem (unknown keys, missing required keys, refused values, and what the
objective, noise, schedule and rule builders refuse) before raising
``ConfigError``.  Trajectories are streamed in contiguous index blocks —
optionally across worker processes (``STOPLAB_WORKERS``) — with all
per-trajectory statistics computed online, so results are bitwise identical
for any worker count.  The checks are declared once, in ``CHECKS``: each
names the stream consumers it reads and makes its own records.  Outputs are
``report.json`` plus ``trajectory_<i>.csv`` / ``coverage.csv`` /
``constants.csv``; floats are serialized with shortest round-trip formatting.
"""

import csv
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concentration import mgf_check, MgfCheckConfig, weighted_square_tail_check
from .errors import ConfigError, DivergenceError
from .lyapunov import (EnvelopeParams, envelope_constants, envelope_U,
                       step_residuals)
from .martingale import (MartingaleTracker, alpha_for_bound,
                         check_supermartingale, ville_monitor)
from .noise import NoiseKind, NoiseModel, calibrate, spawn_seed
from .objectives import (Objective, eval_objective, huberized_abs,
                         least_squares_random, quadratic)
from .series import gamma2_range_problem
from .sgdm import (ScheduleVariant, StepSlab, Variant, _slab_rows, a_coeff, derive_seeds,
                   energy, energy_weight, eta, eta_bound_margin, phi, sq_norm, stream_ensemble)
from .stopping import RuleKind, RuleTracker, coverage_verdict

__all__ = ["CHECKS", "GRAMMAR", "OBJECTIVES", "RunConfig", "Report", "build_schedule",
           "load_config", "parse_config", "run_experiment"]

SCHEMA_VERSION = "1"

REQUIRED = object()  # the default of a key that every document must give

# The singular and plural noun of each value type, as error texts use them.
_NOUNS = {"integer": ("an integer", "integers"), "number": ("a number", "numbers"),
          "string": ("a string", "strings"), "mapping": ("a mapping", "mappings"),
          "name": ("one of", "names from")}


@dataclass(frozen=True)
class Key:
    """One config key: its default and the values it accepts.

    ``type`` is one of ``_NOUNS``.  Integers and numbers are finite (booleans
    are neither) and lie in [lo, hi], or in (lo, hi) when ``open``; a name is
    one of ``names``.  With ``many`` the key takes a list of such values, at
    least one if ``nonempty``; ``optional`` also takes null.
    """

    type: str
    default: object = REQUIRED
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False
    names: tuple = ()
    many: bool = False
    nonempty: bool = False
    optional: bool = False

    def _takes(self, v) -> bool:
        if self.type == "name":
            return isinstance(v, str) and v in self.names
        if self.type in ("string", "mapping"):
            return isinstance(v, str if self.type == "string" else dict)
        if isinstance(v, bool) or not isinstance(v, int if self.type == "integer" else (int, float)):
            return False
        if not abs(v) <= sys.float_info.max:  # also false for nan
            return False
        return self.lo < v < self.hi if self.open else self.lo <= v <= self.hi

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        if not self.many:
            return self._takes(value)
        return (isinstance(value, (list, tuple)) and (len(value) > 0 or not self.nonempty)
                and all(map(self._takes, value)))

    @property
    def must(self) -> str:
        """What the values must be, as in "K must be an integer >= 2"."""
        what = _NOUNS[self.type][self.many]
        if self.names:
            what += f" {list(self.names)}"
        elif self.hi < math.inf:
            ends = "()" if self.open else "[]"
            what += f" in {ends[0]}{self.lo!r}, {self.hi!r}{ends[1]}"
        elif self.lo > -math.inf:
            what += f" {'>' if self.open else '>='} {self.lo!r}"
        if self.many:
            what = f"a {'nonempty ' if self.nonempty else ''}list of {what}"
        return "be " + what + (" or null" if self.optional else "")

    def problem(self, name: str, value) -> str:
        return f"{name} must {self.must}, not {reprlib.repr(value)}"


_CENTER = Key("number", None, many=True, optional=True)  # None: the origin
_SEED = dict(lo=0, hi=2**64 - 1)

# Each objective kind's keys, beside its "kind".
OBJECTIVES = {
    "quadratic": {"diag": Key("number", [1.0], lo=0, open=True, many=True, nonempty=True),
                  "center": _CENTER},
    "least-squares": {"dim": Key("integer", 5, lo=1), "m": Key("integer", 12, lo=1),
                      "seed": Key("integer", 0, **_SEED)},
    "huberized-abs": {"dim": Key("integer", 1, lo=1),
                      "delta": Key("number", 1.0, lo=0, open=True), "center": _CENTER},
}


def _write_csv(path: Path, header: list, rows: list):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)  # the csv writer writes a float with repr


def _record(params, estimate, ci, bound, passed, **extra) -> dict:
    """A report record; ``run_experiment`` puts the check's name first."""
    return {"params": params, "estimate": estimate, "ci": ci, "bound": bound,
            "pass": bool(passed), **extra}


def _descent(cfg, env, stats, outdir):
    m = stats["mins"]
    return [_record({"R": cfg.R, "K": cfg.K}, float(np.min(m["descent"])), None, 0.0,
                    np.min(m["descent_margin"]) >= 0.0)]


def _decomposition(cfg, env, stats, outdir):
    """``p1_margin_min`` and ``sandwich_margin_min`` are reported, not gated.

    E(k) = ||phi_{k+1}||^2 + w_k (f(x_k) - f*), so they reduce to
    w_k (f(x_k) - f*) >= -tol and ||phi_{k+1}||^2 >= 0.
    """
    m = stats["mins"]
    eta_margin = eta_bound_margin(cfg.sched)
    ok = (np.min(m["decomp_margin"]) >= 0.0 and np.min(m["decomp_mid_margin"]) >= 0.0
          and eta_margin >= 0.0)
    return [_record({"R": cfg.R, "K": cfg.K}, float(np.min(m["decomp"])), None, 0.0, ok,
                    intermediate_min=float(np.min(m["decomp_mid"])),
                    eta_bound_margin=eta_margin, p1_margin_min=float(np.min(m["p1_margin"])),
                    sandwich_margin_min=float(np.min(m["sandwich_margin"])))]


def _supermartingale(cfg, env, stats, outdir):
    ks = [int(k) for k in cfg.options["supermartingale_ks"]]
    n_branches, t = int(cfg.options["n_branches"]), env.B / env.gamma2
    records = check_supermartingale(
        cfg.objective, cfg.noise, cfg.sched, cfg.x0, spawn_seed(cfg.base_seed, 1 << 20),
        ks, t, n_branches, gamma2_value=env.gamma2, B=env.B)
    return [_record({"k": k, "t": t, "n_branches": n_branches}, r["estimate"],
                    r["ci_halfwidth"], 0.0, r["pass"], bootstrap_hi=r["bootstrap_hi"])
            for k, r in zip(ks, records)]


def _ville(cfg, env, stats, outdir):
    t = env.B / env.gamma2
    alpha = alpha_for_bound(float(cfg.options["ville_bound"]), t, env.gamma2, env.E0)
    vm = ville_monitor(stats["sup_logN"], t, alpha, env.gamma2, env.E0)
    return [_record({"alpha": alpha, "t": t, "R": cfg.R}, vm["empirical_rate"],
                    vm["ci_halfwidth"], vm["bound"], vm["pass"])]


def _mgf_direction(obj: Objective, x0: np.ndarray) -> np.ndarray:
    """The MGF check's direction: x0 - x*, or the first axis where that is 0."""
    direction = x0 - obj.minimizer
    return direction if np.any(direction) else (np.arange(obj.dim) == 0) * 1.0


def _mgf(cfg, env, stats, outdir):
    n = int(cfg.options["mgf_n_samples"])
    mc = MgfCheckConfig(lambda_grid=cfg.options["mgf_lambdas"], n_samples=n, noise=cfg.noise,
                        phi_vector=_mgf_direction(cfg.objective, cfg.x0), seed=cfg.base_seed)
    return [_record({"lambda": r["lambda"], "n": n}, r["estimate"], r["rel_stderr"],
                    r["bound"], r["pass"]) for r in mgf_check(mc)]


def _tail(cfg, env, stats, outdir):
    c = np.asarray(a_coeff(cfg.sched, np.arange(1, int(cfg.options["tail_c_len"]) + 1)))
    return [_record({"omega": r["omega"], "n": r["n_runs"]}, r["frequency"],
                    (r["ci_lo"], r["ci_hi"]), r["bound"], r["pass"])
            for r in weighted_square_tail_check(c, cfg.noise, cfg.options["tail_omegas"],
                                                int(cfg.options["tail_n_runs"]),
                                                seed=cfg.base_seed)]


def _coverage(cfg, env, stats, outdir):
    names = ["sup", "adversarial"] + [kind.value for kind, *_ in cfg.rules]
    cells = [(b, name) for b in cfg.betas for name in names]
    if not cells:
        return []
    v = coverage_verdict([w for b in cfg.betas for w in stats["covered"][b]],
                         [b for b, _ in cells])
    rows = [[b, name, cfg.R, cfg.K, *(v[key][j] for key in ("frequency", "ci_lo", "ci_hi",
                                                             "bound", "pass"))]
            for j, (b, name) in enumerate(cells)]
    _write_csv(outdir / "coverage.csv", ["beta", "rule", "R", "K", "frequency", "ci_lo",
                                         "ci_hi", "bound", "pass"], rows)
    return [_record({"beta": b, "rule": name, "R": R, "K": K}, freq, (lo, hi), bound, ok)
            for b, name, R, K, freq, lo, hi, bound, ok in rows]


def _constants(cfg, env, stats, outdir):
    tol = cfg.options["gamma_tol"]
    _write_csv(outdir / "constants.csv",
               ["schedule", "L", "sigma", "tol", "gamma1_lo", "gamma1_hi",
                "gamma2_lo", "gamma2_hi", "C1", "C2"],
               [[cfg.sched.variant.value, cfg.sched.L, env.sigma, tol,
                 env.gamma1 - env.gamma1_tail, env.gamma1,
                 env.gamma2 - env.gamma2_tail, env.gamma2, env.C1, env.C2]])
    return [_record({"tol": tol},
                    {"gamma1": env.gamma1, "gamma2": env.gamma2, "C1": env.C1, "C2": env.C2},
                    (env.gamma1_tail, env.gamma2_tail), None,
                    env.gamma1_tail <= tol * env.gamma1 and env.gamma2_tail <= tol * env.gamma2)]


# Every check, in report order: the stream consumers of ``_run_block`` (its
# ``_CONSUMERS``) whose statistics it reads, and the function that makes its
# records from (cfg, env, stats, outdir) and writes its CSV.  The functions
# look the check layers up in this module's namespace when they run, so a
# tracer that swaps a layer here sees every call.
CHECKS = {
    "descent": (("residuals",), _descent),
    "decomposition": (("residuals",), _decomposition),
    "supermartingale": ((), _supermartingale),
    "ville": (("martingale",), _ville),
    "mgf": ((), _mgf),
    "tail": ((), _tail),
    "coverage": (("rules",), _coverage),
    "constants": ((), _constants),
}

# Every key of every section; "" is the top level and "rules" each entry of
# the rules list.
GRAMMAR = {
    "": {
        "objective": Key("mapping"), "noise": Key("mapping"), "schedule": Key("mapping"),
        # trajectory i streams from key spawn_seed(base_seed, i); the supermartingale prefix, 2^20
        "K": Key("integer", lo=2), "R": Key("integer", lo=1, hi=1 << 20),
        "base_seed": Key("integer", **_SEED), "x0": Key("number", many=True),
        "betas": Key("number", [0.05, 0.1], lo=0, hi=0.5, open=True, many=True),
        "rules": Key("mapping", [], many=True),
        "checks": Key("name", list(CHECKS), names=tuple(CHECKS), many=True),
        "output_dir": Key("string", "runs/out"),
        "options": Key("mapping", {}),
    },
    "objective": {"kind": Key("name", names=tuple(OBJECTIVES))},
    "noise": {"kind": Key("name", names=tuple(k.value for k in NoiseKind)),
              "sigma": Key("number", 0.0, lo=0)},
    "schedule": {
        "variant": Key("name", names=tuple(v.value for v in Variant)),
        "L": Key("number", None, lo=0, open=True),  # None: the objective's smoothness
        "epsilon": Key("number", 0.3, lo=0, hi=0.5, open=True),
        "c0_prime": Key("number", 100.0, lo=100),
    },
    "rules": {
        "kind": Key("name", names=tuple(k.value for k in RuleKind)),
        "epsilon": Key("number", None, lo=0, open=True, optional=True),
        "k_max": Key("integer", None, lo=1),  # None: K
        "beta": Key("number", None, lo=0, hi=0.5, open=True, optional=True),
    },
    "options": {
        "gamma_tol": Key("number", 1e-6, lo=1e-12, hi=1e-3, open=True),
        "supermartingale_ks": Key("integer", [1, 2, 5, 10, 50], lo=1, many=True,
                                  nonempty=True),
        "n_branches": Key("integer", 100_000, lo=1000),
        # beyond |lambda| = 30 the bound exp(3 lambda^2 / 4) leaves the float range
        "mgf_lambdas": Key("number", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], lo=-30, hi=30,
                           many=True, nonempty=True),
        "mgf_n_samples": Key("integer", 1_000_000, lo=1000),
        "tail_omegas": Key("number", [1.0, 2.0, 3.0], lo=0, open=True, many=True,
                           nonempty=True),
        "tail_n_runs": Key("integer", 100_000, lo=100),
        "tail_c_len": Key("integer", 100, lo=1),
        "ville_bound": Key("number", 0.1, lo=0, hi=1, open=True),
        "csv_trajectories": Key("integer", 2, lo=0),
    },
}


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


def _walk(keys: dict, doc: dict, where: str, problems: list) -> dict:
    """``doc``'s accepted values, with the defaults of the keys it leaves out.

    A refused value is left out.  Each refused value, the missing required
    keys and the unknown keys add a problem.
    """
    prefix = f"{where}: " if where else ""
    values, missing = {}, []
    for name, key in keys.items():
        if name not in doc:
            if key.default is REQUIRED:
                missing.append(name)
            else:
                values[name] = key.default
        elif key.accepts(doc[name]):
            values[name] = doc[name]
        else:
            problems.append(key.problem(prefix + name, doc[name]))
    if missing:
        problems.append(f"{prefix}missing required keys {missing}")
    unknown = sorted(set(doc) - set(keys), key=str)
    if unknown:
        problems.append(f"{prefix}unknown keys {unknown}")
    return values


def _section(where: str, doc: dict, keys: dict, build, problems: list):
    """``build`` of ``doc``'s values once every key checks out, else None.

    A ValueError that ``build`` raises is a problem too.
    """
    values = _walk(keys, doc, where, problems)
    if len(values) < len(keys):
        return None
    try:
        return build(values)
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return None


def _build_objective(v) -> Objective:
    if v["kind"] == "quadratic":
        return quadratic(v["diag"], v["center"])
    if v["kind"] == "least-squares":
        return least_squares_random(v["dim"], v["m"], v["seed"])
    return huberized_abs(v["dim"], float(v["delta"]), v["center"])


def build_schedule(doc: dict, smoothness: float, problems: list) -> ScheduleVariant | None:
    """The schedule a ``GRAMMAR["schedule"]`` document describes, or None.

    ``smoothness`` is L when the document leaves it out.
    """
    def build(v):
        L = float(smoothness if v["L"] is None else v["L"])
        if v["variant"] == Variant.PROPOSITION_EPS.value:
            return ScheduleVariant(Variant.PROPOSITION_EPS, L, epsilon=float(v["epsilon"]),
                                   c0_prime=float(v["c0_prime"]))
        return ScheduleVariant(Variant(v["variant"]), L)
    return _section("schedule", doc, GRAMMAR["schedule"], build, problems)


def parse_config(raw: dict) -> RunConfig:
    """Validate a config document against ``GRAMMAR``, listing every problem before raising."""
    if not isinstance(raw, dict):
        raise ConfigError(["config document must be a mapping"])
    problems = []
    top = _walk(GRAMMAR[""], raw, "", problems)
    obj = noise = sched = None
    if "objective" in top:
        kind = top["objective"].get("kind")
        keys = dict(GRAMMAR["objective"],
                    **OBJECTIVES.get(kind if isinstance(kind, str) else None, {}))
        obj = _section("objective", top["objective"], keys, _build_objective, problems)
    if "noise" in top:
        noise = _section("noise", top["noise"], GRAMMAR["noise"], lambda v: obj and calibrate(
            NoiseKind(v["kind"]), obj.dim, float(v["sigma"])), problems)
    if "schedule" in top:
        sched = build_schedule(top["schedule"], obj.smoothness if obj else 1.0, problems)
    if obj and "x0" in top and len(top["x0"]) != obj.dim:
        problems.append(f"x0 must have length {obj.dim}, not {len(top['x0'])}")
    elif noise and "x0" in top and "mgf" in top.get("checks", ()):
        # mgf_check divides by c sigma, c the norm of its direction
        c = float(np.linalg.norm(_mgf_direction(obj, np.asarray(top["x0"], dtype=float))))
        if noise.sigma_certificate > 0 and c * noise.sigma_certificate == 0.0:
            problems.append(f"noise.sigma: the mgf check's scale c sigma rounds to 0 (c = {c!r})")
    betas = tuple(float(b) for b in top.get("betas", ()))

    def build_rule(v):
        kind = RuleKind(v["kind"])
        k_max = top.get("K", 2) if v["k_max"] is None else v["k_max"]
        if k_max > top.get("K", k_max):
            raise ValueError(f"k_max must be <= K = {top['K']}, not {k_max}")
        if kind is RuleKind.FIRST_ENVELOPE_VIOLATION and v["beta"] is None and not betas:
            raise ValueError(f"{kind.value} needs a beta when betas is empty")
        RuleTracker(kind, k_max, v["epsilon"])  # the rule's own parameter checks
        return (kind, None if v["epsilon"] is None else float(v["epsilon"]), k_max,
                None if v["beta"] is None else float(v["beta"]))
    rules = tuple(_section(f"rules[{i}]", spec, GRAMMAR["rules"], build_rule, problems)
                  for i, spec in enumerate(top.get("rules", ())))
    options = _walk(GRAMMAR["options"], top.get("options", {}), "options", problems)
    problem = sched and noise and gamma2_range_problem(sched, noise.sigma_certificate)
    if problem:
        problems.append(f"noise.sigma: {problem}")

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        raw=raw, objective=obj, noise=noise, sched=sched, K=top["K"], R=top["R"],
        base_seed=top["base_seed"], x0=np.asarray(top["x0"], dtype=float), betas=betas,
        rules=rules, checks=tuple(name for name in CHECKS if name in top["checks"]),
        output_dir=top["output_dir"], options=options,
    )


def load_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError([f"config file not found: {p}"])
    try:
        raw = json.loads(p.read_bytes())
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise ConfigError([f"config is not valid JSON: {exc}"])
    return parse_config(raw)


def _envelope(cfg: RunConfig) -> EnvelopeParams:
    obj = cfg.objective
    fgap0 = float(eval_objective(obj, cfg.x0) - obj.min_value)
    phi_1 = phi(1, cfg.x0, cfg.x0, obj.minimizer)  # x_1 = x_0
    E0 = float(energy(sq_norm(phi_1), fgap0, energy_weight(0, eta(cfg.sched, 0))))
    return envelope_constants(cfg.sched, cfg.noise.sigma_certificate, E0,
                              float(cfg.options["gamma_tol"]))


def _lower_minima(mins: dict, slab: StepSlab, obj, K: int, cols: list) -> list:
    """Lower each running minimum by the slab's least row; the descent and decomp columns ``cols``.

    Each residual takes its tolerance in place once its own minimum is
    taken, and the P1 margin is formed in the spent descent rows; the
    residual rows are gone on return, before the tracker forms its own.
    """
    res = step_residuals(slab, obj)
    tol = res["tol"]
    columns = [(res["descent"][:, r].tolist(), res["decomp"][:, r].tolist()) for r in cols]
    for name in ("descent", "decomp", "decomp_mid"):
        np.minimum(mins[name], res[name].min(axis=0), out=mins[name])
        res[name] += tol
        np.minimum(mins[name + "_margin"], res[name].min(axis=0), out=mins[name + "_margin"])
    p1 = np.subtract(slab.E_prev, res["phi_sq"], out=res["descent"])
    p1 += tol
    if slab.k[-1, 0] == K:
        p1[-1] = np.minimum(p1[-1], slab.E[-1] - res["phi_next_sq"][-1] + tol[-1])
    np.minimum(mins["p1_margin"], p1.min(axis=0), out=mins["p1_margin"])
    np.minimum(mins["sandwich_margin"], res["sandwich_margin"].min(axis=0),
               out=mins["sandwich_margin"])
    return columns


# The stream consumers that CHECKS names: the slab fields each reads, and the
# most (B, R) arrays that it holds at once besides them: the tracemalloc
# peak, rounded up (residuals 6.03-6.28, martingale 4.05-4.38 from R = 128
# to 1000; the fractions are (R,) results and array headers), numpy's
# iterator buffer aside, which ``sgdm._slab_rows`` keeps room for.  The
# iterate-delta rule's first-slab (B, dim, R) temporary is the one the
# stream's stacks leave room for.
_CONSUMERS = {"residuals": ({"E", "a_k", "theta_sq", "theta_phi", "g_sq", "grad_sq"}, 7),
              "martingale": ({"E", "a_k", "theta_sq"}, 5),
              "rules": ({"fgap_curr"}, 2)}


def _run_block(cfg: RunConfig, env: EnvelopeParams, lo: int, hi: int) -> dict:
    """Stream trajectories lo..hi-1 and reduce the per-trajectory statistics.

    Top-level so process pools can pickle it; the run's config and envelope
    are plain values, computed once by ``run_experiment``.  The consumers
    read the stream's slabs, each with only the fields they read and as many
    steps as fit ``sgdm._SLAB_BYTES``.  The step residuals with their minima
    ("mins"), the martingale tracker and the rule trackers run when an enabled
    check names them in ``CHECKS``, the first two also when trajectory CSVs
    are written and the last only when a beta is set.  Every consumer works row
    by row or reduces with an exact min or max, so the results are bitwise a
    step-by-step loop's for any slab length.
    """
    obj, sched, K = cfg.objective, cfg.sched, cfg.K
    n = hi - lo
    seeds = derive_seeds(cfg.base_seed, hi - lo, start=lo)
    n_csv = int(cfg.options["csv_trajectories"])
    # with no beta there is no coverage record, and no rule tracker runs
    consumers = {c for name in cfg.checks for c in CHECKS[name][0] if c != "rules" or cfg.betas}
    consumers |= {"residuals", "martingale"} if n_csv > 0 else set()
    residuals, martingale, ruled = (c in consumers for c in ("residuals", "martingale", "rules"))
    betas, rule_list = (cfg.betas, cfg.rules) if ruled else ((), ())

    U = {b: np.concatenate([[np.inf], envelope_U(env, b, np.arange(1, K + 1))])
         for b in {*betas, *(r[3] for r in rule_list if r[3] is not None)}}
    mins = {name: np.full(n, np.inf) for name in (
        "descent", "descent_margin", "decomp", "decomp_margin",
        "decomp_mid", "decomp_mid_margin", "p1_margin", "sandwich_margin",
    )} if residuals else None
    tracker = MartingaleTracker(env.sigma, env.gamma2, env.B / env.gamma2) if martingale else None
    adversarial = {b: RuleTracker(RuleKind.FIRST_ENVELOPE_VIOLATION, K, U=U[b]) for b in betas}
    # a rule without its own beta reads the first beta's envelope
    rules = [RuleTracker(kind, k_max, epsilon, U[betas[0] if rbeta is None else rbeta])
             for kind, epsilon, k_max, rbeta in rule_list]
    trackers = [*adversarial.values(), *rules]

    traced = [i for i in range(lo, hi) if i < n_csv]
    rows = {i: [] for i in traced}

    reads = set().union({"fgap_curr"} if traced else (), *(_CONSUMERS[c][0] for c in consumers))
    scratch = max((_CONSUMERS[c][1] for c in consumers), default=0)
    # 32 (R,) arrays of per-trajectory state: running minima and trackers
    B = _slab_rows(n, obj.dim, len(reads) + scratch, 32)
    cols = [i - lo for i in traced]
    res_cols = S_cols = []
    for slab in stream_ensemble(obj, cfg.noise, sched, K, seeds, cfg.x0, reads, B):
        k = slab.k
        if residuals:
            res_cols = _lower_minima(mins, slab, obj, K, cols)
        if martingale:
            S = tracker.update(slab)
            S_cols = [(S[:, r].tolist(), (slab.E[:, r] - S[:, r]).tolist()) for r in cols]
            if k[-1, 0] == K:
                tracker.finish(slab)
        for rule in trackers:
            rule.update(slab)
        for i, r, res_col, S_col in zip(traced, cols, res_cols, S_cols):
            if k[0, 0] == 1:
                rows[i].append((0, float(slab.fgap_prev[0, r]), float(slab.E_prev[0, r]),
                                0.0, float(slab.E_prev[0, r]), "", ""))
            rows[i].extend(zip(k[:, 0].tolist(), slab.fgap_curr[:, r].tolist(),
                               slab.E[:, r].tolist(), *S_col, *res_col))
        del slab  # its theta views the noise block, freed before the next is drawn

    # per beta: the all-k statement, the adversarial rule, then each configured
    # rule; the first two are one indicator (``stopping``'s docstring)
    out = {"covered": {b: [adversarial[b].within(U[b])] * 2
                       + [rule.within(U[b]) for rule in rules] for b in betas},
           "rows": rows}
    if residuals:
        out["mins"] = mins
    if martingale:
        out.update(sup_logN=tracker.sup_logN, sup_E=tracker.sup_E, S_last=tracker.S_last)
    return out


def _concat(parts: list):
    """The blocks' arrays joined in block order, through nested dicts and lists."""
    if isinstance(parts[0], dict):
        return {key: _concat([p[key] for p in parts]) for key in parts[0]}
    if isinstance(parts[0], list):
        return [_concat(list(column)) for column in zip(*parts)]
    return np.concatenate(parts)


def _merge_blocks(blocks: list) -> dict:
    """One block result for the whole run; each block's trajectory rows are kept as they are."""
    out = _concat([{key: v for key, v in b.items() if key != "rows"} for b in blocks])
    out["rows"] = {i: rows for b in blocks for i, rows in b["rows"].items()}
    return out


def _ensemble_stats(cfg: RunConfig, env: EnvelopeParams) -> dict:
    text = os.environ.get("STOPLAB_WORKERS", "1")
    workers = int(text) if text.isdecimal() else 0
    if workers < 1:
        raise ConfigError([Key("integer", lo=1).problem("STOPLAB_WORKERS", text)])
    R = cfg.R
    if workers == 1 or R == 1:
        return _merge_blocks([_run_block(cfg, env, 0, R)])
    from concurrent.futures import ProcessPoolExecutor  # only a multi-worker run pays this import

    per = -(-R // workers)
    spans = [(lo, min(lo + per, R)) for lo in range(0, R, per)]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futures = [pool.submit(_run_block, cfg, env, lo, hi) for lo, hi in spans]
    errors = [e for f in futures if (e := f.exception()) is not None]
    for e in errors:  # a lost worker or a MemoryError: no record from part of the blocks
        if not isinstance(e, DivergenceError):
            raise e
    if errors:  # as a one-block run: the earliest step, with that step's largest |x|
        step = min(e.step for e in errors)
        raise DivergenceError(step, float(np.max([e.norm for e in errors if e.step == step])))
    return _merge_blocks([f.result() for f in futures])


def run_experiment(cfg: RunConfig) -> Report:
    """Run the configured ensemble, make each enabled check's records, write artifacts."""
    env = _envelope(cfg)  # may raise ConfigError, as may the ensemble; neither writes
    outdir = Path(cfg.output_dir)
    # a divergence, in the ensemble or the supermartingale prefix, is the one record
    try:
        stats = _ensemble_stats(cfg, env)
        outdir.mkdir(parents=True, exist_ok=True)
        summary = {"E0": env.E0}
        if "sup_E" in stats:
            summary["sup_E_max"] = float(np.max(stats["sup_E"]))
            summary["S_final_max"] = float(np.max(stats["S_last"]))
        summary["t"] = env.B / env.gamma2
        checks = [{"name": name, **rec} for name in cfg.checks
                  for rec in CHECKS[name][1](cfg, env, stats, outdir)]
        for i, rows in stats["rows"].items():
            _write_csv(outdir / f"trajectory_{i}.csv",
                       ["k", "fgap", "E", "S", "M", "residual_lemma", "residual_decomp"], rows)
    except DivergenceError as exc:
        summary, checks = {}, [{"name": "divergence", **_record({"step": exc.step}, exc.norm,
                                                                None, None, False)}]
        outdir.mkdir(parents=True, exist_ok=True)
    report = Report(config=cfg.raw, checks=checks, summary=summary,
                    passed=all(c["pass"] for c in checks), output_dir=str(outdir))
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
