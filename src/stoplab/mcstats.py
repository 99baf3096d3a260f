"""Small Monte Carlo statistics helpers shared by the verification suites."""

import numpy as np
from scipy import special


def clopper_pearson(successes: int, n: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for a frequency.

    Each end is a beta quantile, taken as the inverse regularized incomplete
    beta ``betaincinv(a, b, p)``.  On scipy 1.17.1 it is bitwise equal to
    ``scipy.stats.beta.ppf(p, a, b)`` (tested against that form in
    ``tests/oracles.py``); older scipy versions were not checked.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    alpha = 1.0 - confidence
    lo = 0.0 if successes == 0 else float(special.betaincinv(successes, n - successes + 1, alpha / 2.0))
    hi = 1.0 if successes == n else float(special.betaincinv(successes + 1, n - successes, 1.0 - alpha / 2.0))
    return lo, hi


def bootstrap_upper_quantile(values: np.ndarray, stat=np.mean, n_boot: int = 200,
                             q: float = 0.99, seed: int = 0) -> float:
    """One-sided bootstrap upper confidence bound for a statistic of the sample."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = values.shape[0]
    reps = np.empty(n_boot)
    for b in range(n_boot):
        reps[b] = stat(values[rng.integers(0, n, size=n)])
    return float(np.quantile(reps, q))
