import functools
import math

import mpmath
import numpy as np
import pytest

from stoplab import series
from stoplab.errors import ConfigError
from stoplab.series import gamma1, gamma2
from stoplab.sgdm import ScheduleVariant, Variant

from oracles import riemann_zeta, weight_series_mp

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


# The bracket grid: widths of the brackets the partial-sum-plus-O(a_N) tail
# code computed, per (schedule, sigma) at tol 1e-6, 1e-8, 1e-9; None where
# that code raised ConfigError within 2^26 terms.  sigma None is gamma1.
GRID_TOLS = (1e-6, 1e-8, 1e-9)
PRIOR_WIDTHS = {
    ("main", 1.0, None, None): (1.3498618287449693e-06, 1.5424044028100603e-08, 1.699559208645507e-09),
    ("main", 1.0, None, 0.5): (5.295667457883013e-07, 1.2667475512984083e-08, 1.3880336879878996e-09),
    ("main", 1.0, None, 1.0): (3.2184896836540133e-06, 3.732864772842959e-08, None),
    ("main", 1.0, None, 2.0): (0.00010165857730726202, 1.209599389540017e-06, None),
    ("main", 2.0, None, None): (3.374654571862423e-07, 3.856011007025151e-09, 4.2488980216137673e-10),
    ("main", 2.0, None, 0.5): (9.480209461898426e-08, 1.0011010465049708e-08, 1.0831930907784226e-09),
    ("main", 2.0, None, 1.0): (5.295667457883013e-07, 1.2667475512984083e-08, 1.3880336879878996e-09),
    ("main", 2.0, None, 2.0): (3.2184896836540133e-06, 3.732864772842959e-08, None),
    ("eps", 1.0, 0.1, None): (7.32123993096856e-08, None, None),
    ("eps", 1.0, 0.1, 0.5): (3.0777866699693845e-07, 9.364244268894595e-09, 5.752769371980548e-10),
    ("eps", 1.0, 0.1, 1.0): (6.650831771981558e-07, 1.0086764090644351e-08, None),
    ("eps", 1.0, 0.1, 2.0): (9.175288513407764e-07, 1.3951644506349226e-08, None),
    ("eps", 3.0, 0.1, None): (8.134711034987752e-09, None, None),
    ("eps", 3.0, 0.1, 0.5): (3.336314069457558e-08, 8.244903648702007e-09, 5.052227525226272e-10),
    ("eps", 3.0, 0.1, 1.0): (1.3469472226468326e-07, 8.235792714472723e-09, 5.055622587235575e-10),
    ("eps", 3.0, 0.1, 2.0): (5.591162803852967e-07, 8.466610079693737e-09, 1.045046271741512e-09),
    ("eps", 1.0, 0.3, None): (2.920287881999495e-08, 4.2071595512949145e-10, None),
    ("eps", 1.0, 0.3, 0.5): (6.211695802171846e-08, 7.381206090784076e-09, 8.835276954499705e-10),
    ("eps", 1.0, 0.3, 1.0): (2.5677090453868345e-07, 7.405466240228975e-09, 8.898044523419912e-10),
    ("eps", 1.0, 0.3, 2.0): (1.1707934401972153e-06, 8.216513025516292e-09, None),
    ("eps", 3.0, 0.3, None): (3.244764313140025e-09, 4.6746217140236634e-11, None),
    ("eps", 3.0, 0.3, 0.5): (6.834919297205033e-09, 6.834919297205033e-09, 8.121801009508545e-10),
    ("eps", 3.0, 0.3, 1.0): (2.7439833516496037e-08, 6.626086790362251e-09, 7.914053856694636e-10),
    ("eps", 3.0, 0.3, 2.0): (1.1137583522113914e-07, 6.517748118994859e-09, 7.817244629393372e-10),
    ("eps", 1.0, 0.49, None): (2.2422000506283624e-08, 1.4947787105312749e-10, None),
    ("eps", 1.0, 0.49, 0.5): (2.3909849877767897e-08, 5.6482931665158276e-09, 6.554599085717427e-10),
    ("eps", 1.0, 0.49, 1.0): (9.784391941103365e-08, 5.4923028347531044e-09, 6.417200104635867e-10),
    ("eps", 1.0, 0.49, 2.0): (4.2851556680822966e-07, 5.742633257810326e-09, 6.747769010218008e-10),
    ("eps", 3.0, 0.49, None): (2.4913333895870693e-09, 1.660865238742315e-11, None),
    ("eps", 3.0, 0.49, 0.5): (2.6387465545951727e-09, 2.6387465545951727e-09, 6.233600302607556e-10),
    ("eps", 3.0, 0.49, 1.0): (1.0581790332864216e-08, 5.138963254935902e-09, 5.939995162407286e-10),
    ("eps", 3.0, 0.49, 2.0): (4.2758485641058996e-08, 1.0100942526847234e-08, 5.730615981747178e-10),
}


def _grid_sched(kind, L, eps):
    if kind == "main":
        return ScheduleVariant(Variant.THEOREM_MAIN, L=L)
    return ScheduleVariant(Variant.PROPOSITION_EPS, L=L, epsilon=eps)


@functools.lru_cache(maxsize=None)
def _mp_value(kind, L, eps, sigma):
    value = weight_series_mp(_grid_sched(kind, L, eps), sigma)
    return value if sigma is None else mpmath.exp(value)


def _grid_id(key):
    kind, L, eps, sigma = key
    name = "main" if kind == "main" else f"eps{eps}"
    return f"{name}-L{L:g}-" + ("gamma1" if sigma is None else f"sigma{sigma}")


@pytest.mark.parametrize("key", list(PRIOR_WIDTHS), ids=_grid_id)
def test_brackets_contain_50_digit_value_on_the_grid(key):
    kind, L, eps, sigma = key
    sched = _grid_sched(kind, L, eps)
    exact = _mp_value(*key)
    for tol, prior in zip(GRID_TOLS, PRIOR_WIDTHS[key]):
        value, width = gamma1(sched, tol) if sigma is None else gamma2(sched, sigma, tol)
        assert width <= tol * value, (tol, value, width)
        with mpmath.workdps(50):
            assert mpmath.mpf(value) <= exact <= mpmath.mpf(value) + mpmath.mpf(width), \
                (tol, value, width, exact)
        # reached wherever the O(a_N) tail bracket was, and never wider
        if prior is not None:
            assert width <= prior, (tol, width, prior)


# Brackets of the 2^12-term fsum partial sum plus the Hermite-Hadamard tail;
# N = 2^12 already meets tol 1e-8, so each pair of tols shares one bracket.
# A change to the summation or the tail integrals must not move a bit.
@pytest.mark.parametrize("sched,sigma,tol,expected", [
    (SCHED, None, 1e-6, (1.888001876842888, 1.3354828354295023e-10)),
    (SCHED, None, 1e-8, (1.888001876842888, 1.3354828354295023e-10)),
    (SCHED, 1.0, 1e-6, (5.052743858009035, 6.750244807562922e-10)),
    (SCHED, 1.0, 1e-8, (5.052743858009035, 6.750244807562922e-10)),
    (SCHED_EPS, None, 1e-6, (0.04378736504445069, 5.483946630135961e-12)),
])
def test_brackets_are_bitwise_pinned(sched, sigma, tol, expected):
    got = gamma1(sched, tol) if sigma is None else gamma2(sched, sigma, tol)
    assert got == expected


def test_brackets_reach_tighter_tolerances():
    # each raised ConfigError within 2^26 terms with the O(a_N)-wide tail bracket
    assert gamma1(SCHED, 1e-10)[1] <= 1e-10 * gamma1(SCHED, 1e-10)[0]
    eps01 = ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.1)
    assert gamma1(eps01, 1e-9)[1] <= 1e-9 * gamma1(eps01, 1e-9)[0]
    v, w = gamma2(SCHED, 2.0, 1e-9)
    assert w <= 1e-9 * v


def test_bracket_ends_move_outward_by_each_terms_error_bound():
    # each end moves out by rel * |value| per term, then one more ulp
    rel = 2.0**-40
    assert series._bound(-1, (1.0, rel), (-0.5, rel)) < 0.5 - 1.5 * rel
    assert series._bound(1, (1.0, rel), (-0.5, rel)) > 0.5 + 1.5 * rel
    assert series._bound(-1, (1.0, 0.0)) == math.nextafter(1.0, 0.0)
    assert series._bound(1, (1.0, 0.0)) == math.nextafter(1.0, 2.0)


def test_unreachable_tolerance_raises():
    # below the rounding floor of the bracket (about 3e-14 relative)
    with pytest.raises(ConfigError):
        gamma1(SCHED, 1e-15)


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


def test_divergent_series_rejected(monkeypatch):
    # 1 + epsilon == 1 gives log power 1, a divergent weight series: the
    # schedule refuses it when it is built, before any bracket is computed
    def _no_bracket(*args):
        raise AssertionError("a bracket was computed")
    monkeypatch.setattr(series, "_partial_sums", _no_bracket)
    for epsilon in (1e-17, 5e-324):
        assert 1.0 + epsilon == 1.0
        with pytest.raises(ValueError, match="rounds to 1"):
            gamma1(ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=epsilon), 1e-3)


# E_q(z) by the continued fraction, against 40-digit mpmath, over the q and z
# the brackets use: q = m p in (1, 6] and z = (j+m-1) ln(X+2) in [8.3, 97]
@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.1, 1.3, 2.6, 3.9, 4.47, 5.5])
def test_expint_is_within_its_allowance(q):
    zs = [8.0, 8.3, 9.7, 13.9, 27.7, 55.4, 97.0, 100.0]
    zs += np.random.default_rng(int(q * 100)).uniform(8.0, 100.0, size=40).tolist()
    worst = 0.0
    with mpmath.workdps(40):
        for z in zs:
            worst = max(worst, float(abs(mpmath.mpf(series._expint(q, z)) / mpmath.expint(q, z) - 1)))
    assert worst <= series._SF_REL
    # and far inside it: the docstring's measured worst is 19 u
    assert worst <= 64 * 2.0**-53


@pytest.mark.parametrize("q,z", [(2.0, 7.9), (0.5, 10.0), (2.0, math.inf), (2.0, math.nan),
                                 (math.nan, 10.0)])
def test_expint_refuses_arguments_outside_its_domain(q, z):
    with pytest.raises(ValueError):
        series._expint(q, z)


def test_expint_raises_when_the_fraction_does_not_converge(monkeypatch):
    monkeypatch.setattr(series, "_CF_STEPS", 3)
    with pytest.raises(ArithmeticError):
        series._expint(2.0, 8.3)


def test_zeta_known_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-12)
    # cross-check against scipy's implementation on non-integer s
    from scipy.special import zeta as scipy_zeta
    for s in (1.1, 1.3, 1.49, 3.7):
        assert riemann_zeta(s) == pytest.approx(float(scipy_zeta(s, 1)), rel=1e-10)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
