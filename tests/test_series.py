import math

import numpy as np
import pytest

from stoplab import series
from stoplab.errors import ConfigError
from stoplab.series import gamma1, gamma2, riemann_zeta
from stoplab.sgdm import ScheduleVariant, Variant

SCHED = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)
SCHED_EPS = ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.3)


def _oracle_gamma1(sched, n_terms):
    """Independent bracket: long direct sum plus closed-form tail squeezes.

    Tail bounds use different comparison integrands than the library:
    a(x) <= 1/(C x ln^p x) (antiderivative in ln x, no +2 shift) above and
    a(x) >= 1/(C (x+2) ln^p(x+2)) below.
    """
    total = 0.0
    chunk = 1 << 20
    C, p = sched.a_coefficient_scale, sched.log_power
    for lo in range(1, n_terms + 1, chunk):
        hi = min(lo + chunk - 1, n_terms)
        k = np.arange(lo, hi + 1, dtype=float)
        total += float(np.sum(1.0 / (C * k * np.log(k + 2.0) ** p)))
    tail_lo = 1.0 / (C * (p - 1.0) * math.log(n_terms + 2.0) ** (p - 1.0))
    a_next = 1.0 / (C * n_terms * math.log(n_terms + 2.0) ** p)
    tail_hi = a_next + 1.0 / (C * (p - 1.0) * math.log(n_terms) ** (p - 1.0))
    return total + tail_lo, total + tail_hi


def test_gamma1_bracket_contains_oracle():
    value, width = gamma1(SCHED, 1e-6)
    assert width <= 1e-6 * value
    lo, hi = _oracle_gamma1(SCHED, 1 << 24)
    # the certified bracket and the oracle bracket must overlap
    assert value <= hi and lo <= value + width
    # and both brackets are tight enough to pin gamma1 to ~1e-6 relative
    assert hi - lo <= 2e-6 * value


def test_gamma1_eps_schedule():
    value, width = gamma1(SCHED_EPS, 1e-6)
    assert width <= 1e-6 * value
    # dominated by zeta(1.3) / C0': sum 1/(100 k ln^1.3(k+2)) < zeta(1.3)
    assert value + width < riemann_zeta(1.3)


def test_gamma2_bracket_and_log_relation():
    g1, g1w = gamma1(SCHED, 1e-8)
    g2, g2w = gamma2(SCHED, 1.0, 1e-6)
    assert g2w <= 1e-6 * g2
    # log gamma2 <= sigma^2 gamma1 (from log(1+x) <= x), and gamma2 >= 1
    assert 1.0 < g2 <= math.exp(g1 + g1w) * (1.0 + 1e-9)


def test_gamma2_sigma_zero():
    assert gamma2(SCHED, 0.0, 1e-6) == (1.0, 0.0)


def test_gamma2_oracle_small_sigma():
    # for tiny sigma, gamma2 ~= 1 + sigma^2 gamma1 to second order
    g1, g1w = gamma1(SCHED, 1e-8)
    sigma = 1e-4
    g2, g2w = gamma2(SCHED, sigma, 1e-8)
    approx = 1.0 + sigma**2 * g1
    assert g2 == pytest.approx(approx, abs=1e-12)


# Brackets as computed before the prefix sum was carried across doublings;
# carrying it must not move a bit.
@pytest.mark.parametrize("sched,sigma,tol,expected", [
    (SCHED, None, 1e-6, (1.8880017546212493, 1.3498618287449693e-06)),
    (SCHED, None, 1e-8, (1.8880018758591324, 1.5424044028100603e-08)),
    (SCHED, 1.0, 1e-6, (5.052743576623819, 3.2184896836540133e-06)),
    (SCHED, 1.0, 1e-8, (5.0527438559305065, 3.732864772842959e-08)),
    (SCHED_EPS, None, 1e-6, (0.0437873643172992, 2.920287881999495e-08)),
])
def test_brackets_are_bitwise_pinned(sched, sigma, tol, expected):
    got = gamma1(sched, tol) if sigma is None else gamma2(sched, sigma, tol)
    assert got == expected


def test_each_term_is_summed_once(monkeypatch):
    seen = {"terms": 0, "largest": 0}
    real = series.a_coeff

    def counting(sched, k):
        seen["terms"] += np.size(k)
        seen["largest"] = max(seen["largest"], int(np.max(k)))
        return real(sched, k)

    monkeypatch.setattr(series, "a_coeff", counting)
    gamma1(SCHED, 1e-8)
    # the prefix 1..K once, plus one tail term a_{K+1} per doubling
    assert seen["terms"] <= seen["largest"] + 16


def test_tolerance_validation():
    with pytest.raises(ValueError):
        gamma1(SCHED, 0.0)
    with pytest.raises(ValueError):
        gamma2(SCHED, 1.0, 1.5)


def test_divergent_series_rejected():
    class _Fake:
        log_power = 1.0
        a_coefficient_scale = 1.0
    with pytest.raises(ConfigError):
        gamma1(_Fake(), 1e-3)


def test_zeta_known_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)
    # cross-check against scipy's implementation on non-integer s
    from scipy.special import zeta as scipy_zeta
    for s in (1.1, 1.3, 1.49, 3.7):
        assert riemann_zeta(s) == pytest.approx(float(scipy_zeta(s, 1)), rel=1e-10)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
