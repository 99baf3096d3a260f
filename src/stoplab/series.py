"""Certified brackets on the slowly-convergent series behind the envelope.

gamma1 = sum_k a_k and log gamma2 = sum_k ln(1 + s^2 a_k), s = sigma, with
a_k = a(k) = 1 / (C k ln^p(k+2)), 1 < p <= 2: a partial sum over k <= N plus
a bracket on the tail.

Tail sums.  a = 1/(C g), g = x l^p, l = ln(x+2), is convex where
2 g'^2 >= g g''.  Here g' = l^p + p x l^(p-1)/(x+2) and
g g'' = p x l^(2p-1) (x+4)/(x+2)^2 + p(p-1) x^2 l^(2p-2)/(x+2)^2; as
x+4 <= 2(x+2) and p(p-1) <= 2 <= 2 l^2, each term is at most one of 2 g'^2.
So a, and every a^m, is convex and decreasing on x >= 0, and Hermite-Hadamard
on unit intervals gives

    integral_{N+1}^inf a^m + a_{N+1}^m / 2 <= sum_{k>N} a_k^m <= integral_{N+1/2}^inf a^m.

Tail integrals.  In u = ln(x+2), U = ln(X+2), expanding (1 - 2e^-u)^-m,
integral_X^inf a^m = C^-m sum_j binom(j+m-1, m-1) 2^j U^(1-mp) E_mp((j+m-1)U)
with E_q the generalized exponential integral (the j+m-1 = 0 term is
U^(1-p)/(p-1)).  E_q(z) is the continued fraction of DLMF 8.19.17, evaluated
by modified Lentz for real q >= 1 and z >= 8; the brackets only need
z >= ln(4098.5) > 8.3, where it takes at most 21 steps.  _J terms are summed;
as E_q(z) <= e^-z/z and r = 2/(X+2) <= 1/(2m), the rest is at most
2 binom(_J+m-1, m-1) r^_J U^-mp e^(-(m-1)U) C^-m.  gamma2's tail lies
between s^2 A1 - s^4/2 A2 and that plus s^6/3 A3, A_m = sum_{k>N} a_k^m, by
x - x^2/2 <= ln(1+x) <= x - x^2/2 + x^3/3 (x >= 0).

Rounding.  Each float entering a bracket end carries a relative error
bound: _TERM_REL = 128 u (u = 2^-53) for values built from elementary
functions, which numpy and libm give within 4 ULP = 8 u (the longest chain,
a_k, stays below 40 u), and _SF_REL = 2^-40 = 8192 u for each E_q(z).  The
fraction stops once a step changes its value by at most 2^-50; on the
domain each step's change is below 0.27 times the last one's, so what the
remaining steps add is below 2^-51.  Rounding in the steps measured at most
19 u against 40-digit mpmath (3000 random points, q in [1, 6], z in
[8, 100]), against 8 u per step, 512 u over the 64 steps allowed, as a crude
bound.  _SF_REL also covers z's own rounding, which moves E_q by at most
2 u (z + q) <= 206 u at z <= 97.  An end is the fsum of its terms, each
moved outward by its bound, then one ulp further out (math.nextafter) for
the fsum's rounding.  So the brackets contain the exact series for the
float C and p.

Float range.  A schedule keeps a_k's coefficient C within [2^-256, 2^256]
(``sgdm.ScheduleVariant``), so every a_k^m and C^-m term stays a normal
float.  gamma2 refuses a sigma for which 2^12 ln(1 + s^2 a_{2^12}), a lower
bound on log gamma2, reaches _LOG_FLOAT_MAX (``gamma2_range_problem``);
below that, s^2 < 6e4 C, so s^6 and every tail term are finite.

N doubles from 2^12 while the width exceeds tol * value, up to 2^20; each
doubling evaluates only its new terms.  N = 2^12 meets tol = 1e-9 on both
schedules at sigma <= 2.
"""

import math

import numpy as np

from .errors import ConfigError
from .sgdm import ScheduleVariant, a_coeff

_U = 2.0**-53
_TERM_REL = 128 * _U
_SUM_REL = _TERM_REL + 3 * _U  # a partial sum: its terms' error, and two fsums
_SF_REL = 2.0**-40
_EXPINT_Z_MIN = 8.0
_CF_STEPS = 64
_J = 6
# gamma2 above half the largest float is a config error: the upper end, moved
# outward by its rounding allowance, must stay finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max / 2.0)


def _bound(side: int, *terms) -> float:
    """Lower (side -1) or upper (side +1) bound on the exact sum of (value, rel_err) terms."""
    parts = [v for v, _ in terms] + [side * abs(v) * rel for v, rel in terms]
    return math.nextafter(math.fsum(parts), side * math.inf)


def _expint(q: float, z: float) -> float:
    """E_q(z) for real q >= 1 and z >= 8, within _SF_REL relative (DLMF 8.19.17).

    E_q(z) = e^-z / (z + q - 1 q / (z + q + 2 - 2 (q + 1) / (z + q + 4 - ...))),
    by modified Lentz.  Raises ValueError outside that domain and
    ArithmeticError if _CF_STEPS steps do not converge.
    """
    if not (q >= 1.0 and _EXPINT_Z_MIN <= z < math.inf):
        raise ValueError(f"E_q(z) needs q >= 1 and {_EXPINT_Z_MIN} <= z < inf, not q = {q!r}, z = {z!r}")
    b = z + q
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, _CF_STEPS + 1):
        a = -i * (q - 1.0 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0**-50:
            return h * math.exp(-z)
    raise ArithmeticError(f"E_q(z) did not converge in {_CF_STEPS} steps at q = {q!r}, z = {z!r}")


def _tail_integral(sched: ScheduleVariant, X: float, m: int) -> tuple[float, float]:
    """Certified (lo, hi) on integral_X^inf a(x)^m dx, for X > 4096 and m <= 3."""
    C, p = sched.a_coefficient_scale, sched.log_power
    U = math.log(X + 2.0)
    scale = C**-m
    terms = []
    for j in range(_J):
        if j + m == 1:
            terms.append((U ** (1.0 - p) / (p - 1.0) * scale, _TERM_REL))
            continue
        E = _expint(m * p, (j + m - 1) * U)
        weight = math.comb(j + m - 1, m - 1) * 2.0**j
        terms.append((weight * U ** (1.0 - m * p) * E * scale, _SF_REL + _TERM_REL))
    rest = (2.0 * math.comb(_J + m - 1, m - 1) * (2.0 / (X + 2.0)) ** _J
            * U ** (-m * p) * math.exp(-(m - 1) * U) * scale)
    return _bound(-1, *terms), _bound(1, *terms, (rest, _TERM_REL))


def _tail_sum(sched: ScheduleVariant, N: int, a_next: float, m: int) -> tuple[float, float]:
    """Certified (lo, hi) on sum_{k>N} a_k^m (Hermite-Hadamard); a_next = a_{N+1}."""
    lo = _bound(-1, (_tail_integral(sched, N + 1.0, m)[0], 0.0), (0.5 * a_next**m, _TERM_REL))
    return lo, _tail_integral(sched, N + 0.5, m)[1]


def _partial_sums(sched: ScheduleVariant, transform):
    """Yield (N, sum_{k<=N} transform(a_k), a_{N+1}) for N = 2^12, 2^13, ..., 2^20.

    Each doubling evaluates only the terms N/2+1..N and fsums them; the
    running value is the fsum of those block sums.
    """
    block_sums, first = [], 1
    for e in range(12, 21):
        N = 1 << e
        block = transform(a_coeff(sched, np.arange(first, N + 1, dtype=float)))
        block_sums.append(math.fsum(block.tolist()))
        yield N, math.fsum(block_sums), a_coeff(sched, N + 1)
        first = N + 1


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")


def gamma1(sched: ScheduleVariant, tol: float) -> tuple[float, float]:
    """Certified bracket for gamma1 = sum_k a_k.

    Returns (value, tail_bound) with value <= gamma1 <= value + tail_bound
    and tail_bound <= tol * value.
    """
    _check_tol(tol)
    for N, partial, a_next in _partial_sums(sched, lambda a: a):
        t_lo, t_hi = _tail_sum(sched, N, a_next, 1)
        lo = _bound(-1, (partial, _SUM_REL), (t_lo, 0.0))
        hi = _bound(1, (partial, _SUM_REL), (t_hi, 0.0))
        if hi - lo <= tol * lo:
            return lo, hi - lo
    raise ConfigError([f"gamma1 bracket did not reach tolerance {tol} within {N} terms"])


def _exceeds(sched: ScheduleVariant, sigma: float, log_lo: float) -> str:
    return (f"gamma2 exceeds the float range for schedule {sched.variant.value} "
            f"(L = {sched.L:g}) at sigma = {sigma:g}: log gamma2 >= {log_lo:.6g}")


def gamma2_range_problem(sched: ScheduleVariant, sigma: float) -> str | None:
    """Why gamma2 at ``sigma`` is refused before any bracket is computed, or None.

    Its terms ln(1 + s^2 a_k) fall with k, so log gamma2 >= N ln(1 + s^2 a_N)
    at N = 2^12, taken in log space (ln(1 + e^(2 ln s + ln a_N))) so that
    s^2 a_N cannot overflow; gamma2 is refused when that reaches
    _LOG_FLOAT_MAX.
    """
    if sigma == 0.0:
        return None
    N = 1 << 12
    floor = N * float(np.logaddexp(0.0, 2.0 * math.log(sigma) + math.log(a_coeff(sched, N))))
    return _exceeds(sched, sigma, floor) if floor >= _LOG_FLOAT_MAX else None


def gamma2(sched: ScheduleVariant, sigma: float, tol: float) -> tuple[float, float]:
    """Certified bracket for gamma2 = prod_k (1 + sigma^2 a_k).

    Returns (value, tail_bound) as ``gamma1`` does: exp of the bracket on
    the log-sum, whose tail is squeezed by the cubic log1p sandwich.
    Raises ConfigError when gamma2 is above half the largest float.
    """
    _check_tol(tol)
    if sigma == 0.0:
        return 1.0, 0.0
    problem = gamma2_range_problem(sched, sigma)
    if problem:
        raise ConfigError([problem])
    s2 = sigma * sigma
    for N, log_partial, a_next in _partial_sums(sched, lambda a: np.log1p(s2 * a)):
        (a1_lo, a1_hi), (a2_lo, a2_hi), (_, a3_hi) = (
            _tail_sum(sched, N, a_next, m) for m in (1, 2, 3))
        log_lo = _bound(-1, (log_partial, _SUM_REL), (s2 * a1_lo, _TERM_REL),
                        (-0.5 * s2 * s2 * a2_hi, _TERM_REL))
        log_hi = _bound(1, (log_partial, _SUM_REL), (s2 * a1_hi, _TERM_REL),
                        (-0.5 * s2 * s2 * a2_lo, _TERM_REL), (s2**3 / 3.0 * a3_hi, _TERM_REL))
        if log_hi >= _LOG_FLOAT_MAX:
            raise ConfigError([_exceeds(sched, sigma, log_lo)])
        lo = _bound(-1, (math.exp(log_lo), _TERM_REL))
        hi = _bound(1, (math.exp(log_hi), _TERM_REL))
        if hi - lo <= tol * lo:
            return lo, hi - lo
    raise ConfigError([f"gamma2 bracket did not reach tolerance {tol} within {N} terms"])
