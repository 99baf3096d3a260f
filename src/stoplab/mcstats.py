"""Small Monte Carlo statistics helpers shared by the verification suites."""

import math

import numpy as np

from .noise import philox, spawn_seed

_U = 2.0**-53
_CF_TOL = 2.0**-50  # a continued fraction stops once a step moves it by at most this
_STEPS = 5000  # continued-fraction or root-finding steps before giving up
# stirlerr(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi) for n = 1..15, to double
# precision (from 40-digit values); above 15 its asymptotic series is used.
_STIRLERR = np.array([
    np.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr at integers n >= 1: a table to 15, then five terms of the series.

    The series' next term, 691 / 360360 / n^11, is below 2e-16 at n = 16.
    """
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(k: np.ndarray, m: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k ln(k/m) + m - k, given diff = k - m, and the size its rounding error is a few u of.

    Where |v| < 1/2, v = diff / (k + m), it is summed as
    diff v + 2k (v^3/3 + v^5/5 + ...), whose terms are all of one sign, so
    its error is relative; elsewhere the closed form loses at most a factor
    6 to cancellation, and its error is relative to k |ln(k/m)| + m + k.
    """
    with np.errstate(divide="ignore"):
        log_ratio = np.log(k / m)
    closed = k * log_ratio - diff
    size = np.abs(k * log_ratio) + m + k
    v = diff / (k + m)
    near = np.abs(v) < 0.5
    if not near.any():
        return closed, size
    vv = v * v
    # terms shrink by v^2 <= 1/4 each: enough of them for 2^-54 relative
    worst = float(np.max(np.where(near, vv, 0.0)))
    steps = 1 if worst == 0.0 else math.ceil(-54.0 * math.log(2.0) / math.log(worst))
    total = diff * v
    term = 2.0 * k * v
    for j in range(1, steps + 1):
        term = term * vv
        total = total + term / (2 * j + 1)
    return np.where(near, total, closed), np.where(near, total, size)


def _front(a: np.ndarray, b: np.ndarray, x: np.ndarray):
    """x^a (1-x)^b / (a B(a, b)) for integers a, b >= 1, its relative error bound, and a - (a+b) x.

    Loader's form: sqrt(b / (2 pi a s)) exp(d - bd0(a, s x) - bd0(b, s (1-x))),
    s = a + b and d = stirlerr(s) - stirlerr(a) - stirlerr(b), in which no
    large logarithms cancel.  s x is taken exactly as a sum p + e (Dekker's
    product), so a - s x, which cancels near the mean and which both bd0
    and the continued fraction need, is rounded once.  The bound is 8 u for
    each bd0's size and 20 u for the rest.
    """
    s = a + b
    p = s * x
    sh, xh = _split(s), _split(x)
    e = ((sh * xh - p) + sh * (x - xh) + (s - sh) * xh) + (s - sh) * (x - xh)
    diff = (a - p) - e  # a - s x
    da, wa = _bd0(a, p, diff)
    db, wb = _bd0(b, (s - p) - e, -diff)
    value = np.sqrt(b / (2.0 * math.pi * a * s)) * np.exp(
        _stirlerr(s) - _stirlerr(a) - _stirlerr(b) - da - db)
    return value, _U * (20.0 + 8.0 * (wa + wb)), diff


def _split(v: np.ndarray) -> np.ndarray:
    """The high half of v's significand (Veltkamp), so v - split(v) is exact."""
    t = 134217729.0 * v  # 2^27 + 1
    return t - (t - v)


def _beta_cf(a, b, x, lam):
    """The even part of DLMF 8.17.22's continued fraction, and its relative error bound.

    I_x(a, b) = x^a (1-x)^b / B(a, b) / (b0 + a1 / (b1 + a2 / (b2 + ...))), the
    contraction of 8.17.22 that pairs its steps (DiDonato and Morris 1992):
    b_m = m + m (b-m) x / (a+2m-1) + (a+m) (lam + 1 + m (2-x)) / (a+2m+1) and
    a_m = (a+m-1)(a+b+m-1) m (b-m) x^2 / (a+2m-1)^2, lam = a (1-x) - b x.
    lam is the one term that cancels near x = a / (a+b), so the caller forms
    it from its own exact x.  Modified Lentz, for x below (a+1) / (a+b+2),
    where it converges; the bound is 16 u per step taken, plus 4 _CF_TOL
    for the steps left out.  Against 50-digit binomial sums (2500 random
    points, n up to 1e6, both tails) the tail's error stayed below 0.27 of
    its bound.
    """
    value, steps = np.empty_like(x), np.empty_like(x)
    live, pending = np.arange(x.size), np.ones(x.size, dtype=bool)
    f = a * (lam + 1.0) / (a + 1.0)
    c, d = f, np.zeros_like(x)
    for m in range(1, _STEPS + 1):
        am = (a + (m - 1)) * (a + b + (m - 1)) * m * (b - m) * x * x / (a + (2 * m - 1)) ** 2
        bm = m + m * (b - m) * x / (a + (2 * m - 1)) + (a + m) * (lam + 1.0 + m * (2.0 - x)) / (
            a + (2 * m + 1))
        d = 1.0 / (bm + am * d)
        c = bm + am / c
        delta = c * d
        f = f * delta
        done = pending & (np.abs(delta - 1.0) <= _CF_TOL)
        if done.any():
            value[live[done]], steps[live[done]] = f[done], m
            pending &= ~done
            # finished entries ride along until a quarter of them can be dropped
            if 4 * np.count_nonzero(pending) <= 3 * pending.size:
                live, a, b, x, lam, c, d, f, pending = (
                    v[pending] for v in (live, a, b, x, lam, c, d, f, pending))
                if live.size == 0:
                    return value, 16.0 * _U * (steps + 1.0) + 4.0 * _CF_TOL
    raise ArithmeticError(f"the incomplete beta fraction did not converge in {_STEPS} steps")


def _tail(a, b, x):
    """One tail of Beta(a, b) at x, the density there, and the tail's relative error bound.

    The tail is I_x(a, b) where x <= (a+1) / (a+b+2) (``lower`` true) and
    1 - I_x(a, b) = I_{1-x}(b, a) elsewhere, so the fraction is always used
    where it converges and the tail is never formed by cancellation.  Both
    are x^a (1-x)^b / B(a, b) over a fraction: the prefactor and the
    fraction's cancelling term are formed from x itself, not from a rounded
    1 - x.
    """
    s = a + b
    lower = x * (s + 2.0) <= a + 1.0
    front, front_rel, lam = _front(a, b, x)  # lam = a (1-x) - b x
    cf, cf_rel = _beta_cf(np.where(lower, a, b), np.where(lower, b, a),
                          np.where(lower, x, 1.0 - x), np.where(lower, lam, -lam))
    return lower, front * a / cf, front * a / (x * (1.0 - x)), front_rel + cf_rel


def _quantile(a: np.ndarray, b: np.ndarray, side: np.ndarray, prob: float) -> np.ndarray:
    """Each root of I_x(a, b) = prob (side -1) or 1 - prob (side +1), rounded to that side.

    So a side -1 result is at or below the exact root and a side +1 result at
    or above it.  The roots x = prob^(1/a) (b = 1, side -1) and
    x = 1 - prob^(1/b) (a = 1, side +1) are closed forms, moved out by their
    rounding bound (4 + 3 |ln(prob) / n|) u.  Elsewhere Halley's method on
    the tail, from the Abramowitz-Stegun 26.5.22 start and kept inside a
    bracket (bisected when a step leaves it), runs until its step is below
    what the tail's rounding allows.  The root lies within
    (|r| + e T + u) / f of the last x, with r the computed I_x(a, b) minus
    its target, T the computed tail, e its error bound (``_tail``) and f the
    density.  x moves out by twice that and one ulp, and is kept once the
    tail there is beyond the target by more than its error bound; else the
    move doubles.
    """
    out = np.empty_like(a)
    y = math.log(prob) / np.where(side < 0, a, b)
    closed = np.where(side < 0, b, a) == 1.0
    out[closed] = np.where(side < 0, np.exp(y), -np.expm1(y))[closed] * (
        1.0 + side * _U * (4.0 - 3.0 * y))[closed]
    live = np.flatnonzero(~closed)
    if live.size == 0:
        return out
    a_all, b_all, side_all = a, b, side = a[live], b[live], side[live]
    upper = math.nextafter(1.0 - prob, 2.0)  # at or above the exact 1 - prob
    # the targets of I_x(a, b) and of 1 - I_x(a, b)
    target_lo, target_hi = np.where(side < 0, prob, upper), np.where(side < 0, upper, prob)
    t = math.sqrt(-2.0 * math.log(prob))
    z = -side * (t - (2.30753 + 0.27061 * t) / (1.0 + (0.99229 + 0.04481 * t) * t))
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * np.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        al + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = np.clip(a / (a + b * np.exp(2.0 * w)), 1e-300, 1.0 - _U)
    lo, hi = np.zeros_like(x), np.ones_like(x)
    found, move = np.empty_like(x), np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(_STEPS):
        lower, T, f, rel = _tail(a, b, x)
        r = np.where(lower, T - target_lo, target_hi - T)  # I_x(a, b) minus its target
        lo, hi = np.where(r < 0.0, x, lo), np.where(r < 0.0, hi, x)
        # a density that underflows gives no step: the bracket takes over
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = r / f
            step = step / (1.0 - 0.5 * np.minimum(1.0, step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))))
            # done once the step is as small as r's rounding allows (or r = 0)
            done = np.abs(step) <= 4.0 * _U * x + rel * T / f
        found[idx[done]] = x[done]
        move[idx[done]] = (2.0 * (np.abs(r) + rel * T + _U) / f)[done]
        nxt = x - step
        x = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        keep = ~done
        idx, a, b, x, lo, hi, target_lo, target_hi = (
            v[keep] for v in (idx, a, b, x, lo, hi, target_lo, target_hi))
        if idx.size == 0:
            break
    else:
        raise ArithmeticError(f"the beta quantile did not converge in {_STEPS} steps")

    a, b, side, x = a_all, b_all, side_all, found
    cand = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(64):
        c = np.clip(np.nextafter(x + side * move, side), 0.0, 1.0)
        # 0 and 1 are outside every root and need no check; the clip only
        # keeps their evaluation finite
        lower, T, _, rel = _tail(a, b, np.clip(c, 5e-324, 1.0 - _U))
        # kept where the tail beyond c, on the rounding side, is certainly below prob
        slack = rel + 8.0 * _U
        ok = np.where(lower == (side < 0), T * (1.0 + slack) < prob, T * (1.0 - slack) > upper)
        ok |= (c == 0.0) | (c == 1.0)
        cand[idx[ok]] = c[ok]
        keep = ~ok
        idx, a, b, side, x, move = (v[keep] for v in (idx, a, b, side, x, 2.0 * move))
        if idx.size == 0:
            out[live] = cand
            return out
    raise ArithmeticError("the beta quantile's outward rounding did not settle")


def clopper_pearson(successes, n, confidence: float = 0.99):
    """Exact two-sided binomial confidence interval for a frequency, rounded outward.

    The ends are the beta quantiles lo = B^-1(alpha/2; k, n-k+1) and
    hi = B^-1(1 - alpha/2; k+1, n-k), alpha = 1 - confidence: roots of the
    regularized incomplete beta I_x(a, b), which is DLMF 8.17.22's continued
    fraction times a prefactor in Loader's (2000) form (``_tail``), found by
    Halley's method with a bisection fallback (``_quantile``).  Each root is
    moved outward by its error bound, built from the computed residual, the
    tail's rounding bound and the density, and kept only once the tail there
    clears alpha/2 by its error bound: lo is never above the exact quantile
    and hi never below it.  Each end lies within 1e-12 (relative) of it.
    k = 0 gives lo = 0 and hi = 1 - (alpha/2)^(1/n), k = n gives hi = 1 and
    lo = (alpha/2)^(1/n), both rounded outward too.

    ``successes`` and ``n`` may be arrays (broadcast together); scalar
    inputs give Python floats.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    k, n = np.broadcast_arrays(np.asarray(successes, dtype=np.int64), np.asarray(n, dtype=np.int64))
    if np.any(n <= 0):
        raise ValueError("n must be positive")
    if np.any((k < 0) | (k > n)):
        raise ValueError("successes must lie in [0, n]")
    kf, nf = k.ravel().astype(float), n.ravel().astype(float)
    lo, hi = np.zeros(kf.shape), np.ones(kf.shape)
    has_lo, has_hi = kf > 0, kf < nf
    m = np.count_nonzero(has_lo)
    ends = _quantile(np.concatenate([kf[has_lo], kf[has_hi] + 1.0]),
                     np.concatenate([nf[has_lo] - kf[has_lo] + 1.0, nf[has_hi] - kf[has_hi]]),
                     np.repeat([-1.0, 1.0], [m, np.count_nonzero(has_hi)]),
                     (1.0 - confidence) / 2.0)
    lo[has_lo], hi[has_hi] = ends[:m], ends[m:]
    if k.ndim == 0:
        return float(lo[0]), float(hi[0])
    return lo.reshape(k.shape), hi.reshape(k.shape)


def bootstrap_upper_quantile(values: np.ndarray, n_boot: int = 200, q: float = 0.99,
                             key: tuple = (0,)) -> np.ndarray:
    """One-sided bootstrap upper confidence bounds for the mean of each row of ``values``.

    ``values`` is (m, n); returns the m rows' q-quantiles of their resampled
    means, their indices drawn from the stream keyed ``noise.spawn_seed(*key)``.
    Each resample draws its n indices once, and every row is gathered
    by them into one reused (n,) buffer, whose ``np.mean`` is the pairwise sum
    of a row resampled on its own: each row's bound is bitwise the one it has
    alone.  The gather clips, which moves no index in [0, n); ``np.take``'s
    default mode would gather into a buffer of its own and copy that.  A
    resample's indices are dropped before the next ones are drawn, so one
    index array is alive at a time.  The bound is ``np.quantile``'s linear rule
    without its import of ``numpy.ma``: between the sorted means a, b at index
    (n_boot - 1) q = i + t, a + (b - a) t for t < 0.5, else b - (b - a) (1 - t).
    """
    rng = philox(spawn_seed(*key))
    m, n = values.shape
    reps = np.empty((m, n_boot))
    buf = np.empty(n)
    for b in range(n_boot):
        idx = rng.integers(0, n, size=n)
        for j in range(m):
            reps[j, b] = np.mean(np.take(values[j], idx, out=buf, mode="clip"))
        del idx
    reps.sort(axis=1)
    i, t = math.floor((n_boot - 1) * q), (n_boot - 1) * q % 1.0
    a, b = reps[:, i], reps[:, min(i + 1, n_boot - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
