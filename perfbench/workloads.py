"""Workload configs for the stoplab benchmark, generated from a seed.

Each workload is a plain stoplab config document (the JSON grammar that
``stoplab.harness.parse_config`` accepts).  The seed sets ``base_seed`` and,
for the least-squares workload, the instance seed; nothing else varies, so the
same seed always yields byte-identical configs.  ``tiny=True`` shrinks every
size for the smoke test while keeping each workload's dimension and checks.
"""

import hashlib
import json
from collections import Counter

import numpy as np

# The reason for each workload is recorded in BENCHMARK.json.
NAMES = ("cov-wide", "lsq-d64", "highdim-d1200", "checks-all")

_CHECKS_STREAM = ["descent", "decomposition", "ville", "coverage"]
_CHECKS_ALL = ["descent", "decomposition", "supermartingale", "ville",
               "mgf", "tail", "coverage", "constants"]


def _all_rule_kinds(K: int) -> list:
    return [
        {"kind": "iterate-delta", "epsilon": 1e-3, "k_max": K},
        {"kind": "value-delta", "epsilon": 1e-4, "k_max": K},
        {"kind": "fixed-k", "k_max": K},
        {"kind": "first-envelope-violation", "beta": 0.05, "k_max": K},
    ]


def _lsq_minimizer(dim: int, m: int, seed: int) -> np.ndarray:
    """x* of stoplab's ``least_squares_random(dim, m, seed)`` instance.

    Rebuilds A and b from the same Philox stream; the start point only needs
    to sit at a known offset from x*, so a least-squares solve suffices.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((m, dim))
    b = rng.standard_normal(m)
    return np.linalg.lstsq(A, b, rcond=None)[0]


def generate(name: str, seed: int, tiny: bool = False) -> dict:
    """The config document for workload ``name`` at ``seed``."""
    base_seed = int(seed) % (1 << 64)
    common = {"schedule": {"variant": "theorem-main"}, "base_seed": base_seed,
              "betas": [0.05, 0.1]}
    if name == "cov-wide":
        R, K = (20, 60) if tiny else (1000, 500)
        cfg = {"objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
               "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
               "x0": [2.0, -1.0], "checks": _CHECKS_STREAM}
    elif name == "lsq-d64":
        R, K = (8, 40) if tiny else (128, 60)
        dim, m = 64, 96
        x0 = _lsq_minimizer(dim, m, base_seed) + 1.0
        cfg = {"objective": {"kind": "least-squares", "dim": dim, "m": m,
                             "seed": base_seed},
               "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
               "x0": [float(v) for v in x0], "checks": _CHECKS_STREAM}
    elif name == "highdim-d1200":
        R, K = (2, 12) if tiny else (8, 25)
        dim = 1200
        cfg = {"objective": {"kind": "quadratic",
                             "diag": [float(v) for v in np.linspace(1.0, 2.0, dim)]},
               "noise": {"kind": "bounded-sphere", "sigma": 1.0},
               "x0": [1.0] * dim, "checks": _CHECKS_STREAM}
    elif name == "checks-all":
        R, K = (10, 60) if tiny else (200, 2000)
        options = ({"n_branches": 1000, "mgf_n_samples": 4000, "tail_n_runs": 1000,
                    "supermartingale_ks": [1, 2, 5]} if tiny else
                   {"supermartingale_ks": [1, 10, 100, 1000]})
        options["gamma_tol"] = 1e-6 if tiny else 1e-8
        cfg = {"objective": {"kind": "quadratic", "diag": [1.0, 2.0]},
               "noise": {"kind": "gaussian-isotropic", "sigma": 1.0},
               "x0": [2.0, -1.0], "checks": _CHECKS_ALL,
               "rules": [{"kind": "iterate-delta", "epsilon": 1e-3, "k_max": K},
                         {"kind": "value-delta", "epsilon": 1e-4, "k_max": K},
                         {"kind": "fixed-k", "k_max": K}],
               "options": options}
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {list(NAMES)}")
    cfg.setdefault("rules", _all_rule_kinds(K))
    cfg.update(common, R=R, K=K)
    return cfg


# Monte Carlo grid sizes the harness uses when a config leaves them out; the
# expected check count depends on them, so the bench fixes them here rather
# than reading them from the program it checks.
_DEFAULT_GRIDS = {"supermartingale_ks": 5, "mgf_lambdas": 6, "tail_omegas": 3}


def expected_checks(cfg: dict) -> Counter:
    """How many report records of each check name a correct run produces."""
    opts = cfg.get("options", {})

    def grid(key):
        return len(opts[key]) if key in opts else _DEFAULT_GRIDS[key]

    per_check = {
        "descent": 1, "decomposition": 1, "ville": 1, "constants": 1,
        "supermartingale": grid("supermartingale_ks"),
        "mgf": grid("mgf_lambdas"),
        "tail": grid("tail_omegas"),
        "coverage": len(cfg.get("betas", [0.05, 0.1])) * (2 + len(cfg.get("rules", []))),
    }
    return Counter({c: per_check[c] for c in cfg["checks"]})


def canonical(cfg: dict) -> bytes:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()


def config_sha256(cfg: dict) -> str:
    return hashlib.sha256(canonical(cfg)).hexdigest()
