import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab.lyapunov import (envelope_constants, envelope_U,
                              residual_tolerance, step_residuals)
from stoplab.noise import NoiseKind, NoiseModel, calibrate
from stoplab.objectives import least_squares_random, quadratic
from stoplab.sgdm import (ScheduleVariant, Variant, derive_seeds, energy,
                          energy_weight, eta, phi, sq_norm, stream_ensemble)

from oracles import (deep_descent_links, envelope_U_two_branch, phi_series, residual_series,
                     run_paths, step_views)

SCHED1 = ScheduleVariant(Variant.THEOREM_MAIN, L=1.0)


@pytest.fixture(scope="module")
def noisy_run():
    """Every streamed step of one noisy trajectory, with the per-step residuals."""
    obj = quadratic(np.array([1.0, 2.0]))
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    recs = list(stream_ensemble(obj, noise, sched, 400, [11], np.array([2.0, -1.0])))
    return recs, [step_residuals(r, obj) for r in recs], sched, obj


def test_initial_energy_hand_value():
    # x0 = x1 = 2 on x^2/2: E(0) = 4 + 2 / ln 2
    obj = quadratic(np.array([1.0]))
    zero = NoiseModel(NoiseKind.NONE, dim=1, sigma_certificate=0.0, scale=0.0)
    rec = next(stream_ensemble(obj, zero, SCHED1, 2, [0], np.array([2.0])))
    assert rec.E_prev[0, 0] == pytest.approx(6.885390081777927, rel=1e-13)
    x0 = np.array([2.0])
    assert energy(sq_norm(phi(1, x0, x0, obj.minimizer)), 2.0,
                  energy_weight(0, eta(SCHED1, 0))) == rec.E_prev[0, 0]


def test_zero_noise_energy_monotone():
    obj = quadratic(np.array([1.0, 0.5]))
    zero = NoiseModel(NoiseKind.NONE, dim=2, sigma_certificate=0.0, scale=0.0)
    recs = list(stream_ensemble(obj, zero, SCHED1, 300, [0], np.array([2.0, 1.0])))
    E = np.array([recs[0].E_prev[0, 0]] + [r.E[0, 0] for r in recs])
    assert np.all(np.diff(E) <= 1e-12 * (1.0 + np.abs(E[:-1])))


def test_pathwise_inequalities_on_noisy_run(noisy_run):
    recs, res, _, _ = noisy_run
    for r in res:
        assert np.all(r["descent"] >= -r["tol"])
        assert np.all(r["decomp"] >= -r["tol"])
        assert np.all(r["decomp_mid"] >= -r["tol"])


def test_p1_and_sandwich_on_noisy_run(noisy_run):
    # P1 is ||phi_{k+1}||^2 <= E(k); the sandwich 4 sqrt((k+1) eta_k) fgap_k <= E(k)
    recs, res, _, _ = noisy_run
    for rec, r in zip(recs, res):
        tol = 1e-9 * (1.0 + np.abs(rec.E))
        assert np.all(r["phi_next_sq"] <= rec.E + tol)
        assert np.all(r["phi_sq"] <= rec.E_prev + 1e-9 * (1.0 + np.abs(rec.E_prev)))
        assert np.all(r["sandwich_margin"] >= -tol)


def test_pointwise_checks_match_series(noisy_run):
    # per-step residuals, the intermediate form included, against the
    # full-path oracle, and the oracle's own tolerance-level check
    recs, res, sched, obj = noisy_run
    paths = run_paths(obj, calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 2, 1.0), sched,
                      400, [11], np.array([2.0, -1.0]))
    series = residual_series(paths, sched, obj)
    for k in (1, 7, 100, 400):
        for key in ("descent", "decomp", "decomp_mid"):
            assert res[k - 1][key][0, 0] == series[key][0, k - 1]
    tol = residual_tolerance(series["E"][:, 1:], series["E"][:, :-1])
    assert np.all(series["descent"] >= -tol)
    # scalars too, and into a given array
    assert residual_tolerance(2.0, -3.0) == 1e-9 * (1.0 + 2.0 + 3.0)
    assert residual_tolerance(0.0, 0.0) == 1e-9
    out = np.empty(2)
    assert residual_tolerance(np.array([2.0, 1e-9]), np.array([-3.0, 0.0]), out=out) is out
    assert out.tolist() == [1e-9 * 6.0, max(1e-9 * (1.0 + 1e-9), 1e-12)]


def test_deep_descent_links(noisy_run):
    recs, _, sched, obj = noisy_run
    for k in (1, 5, 50, 399):
        rec = recs[k - 1]
        links = deep_descent_links(rec, obj)
        scale = 1e-9 * (1.0 + np.abs(rec.E[0]))
        assert np.all(links["recurrence_identity_abs_err"] <= 1e-12 * (1 + k))
        assert np.all(links["differencing_residual"] >= -scale)
        assert np.all(links["substituted_residual"] >= -scale)


def test_step_residuals_match_full_path():
    obj = least_squares_random(5, 12, seed=3)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    noise = calibrate(NoiseKind.GAUSSIAN_ISOTROPIC, 5, 1.0)
    seeds = derive_seeds(9, 3)
    x0 = np.full(5, 2.0)
    stream = {"descent": [], "decomp": [], "E": []}
    for rec in stream_ensemble(obj, noise, sched, 120, seeds, x0):
        r = step_residuals(rec, obj)
        stream["descent"].append(r["descent"][0])
        stream["decomp"].append(r["decomp"][0])
        stream["E"].append(rec.E[0])
    series = residual_series(run_paths(obj, noise, sched, 120, seeds, x0), sched, obj)
    for i in range(3):
        assert np.array_equal(np.array(stream["descent"])[:, i], series["descent"][i])
        assert np.array_equal(np.array(stream["decomp"])[:, i], series["decomp"][i])
        assert np.array_equal(np.array(stream["E"])[:, i], series["E"][i, 1:])


def test_phi_accessor(noisy_run):
    # ||phi_k||^2 from the step residuals against phi_k built from the path
    recs, res, _, obj = noisy_run
    xs = np.stack([recs[0].xs[0, :, 0]] + [r.x_curr[0] for r in recs] + [recs[-1].xs[-1, :, 0]])
    phis = phi_series(xs, obj.minimizer)  # position k-1 holds phi_k
    k = 5
    expected = k * (xs[k] - xs[k - 1]) + (xs[k] - obj.minimizer)
    assert np.array_equal(phis[k - 1], expected)
    assert res[k - 1]["phi_sq"][0, 0] == np.sum(expected * expected)
    assert res[k - 1]["phi_next_sq"][0, 0] == res[k]["phi_sq"][0, 0]


def test_envelope_constants_structure():
    env = envelope_constants(SCHED1, 1.0, 5.0, 1e-6)
    g1, g2 = env.gamma1, env.gamma2
    cross = 1.0 * 1.0 * (1.0 + g1 * g2) * g1
    assert env.C1 == pytest.approx(g2 * 5.0 + cross, rel=1e-14)
    assert env.C2 == pytest.approx(g2 + cross, rel=1e-14)
    assert env.gamma1_tail <= 1e-6 * g1
    assert env.gamma2_tail <= 1e-6 * g2
    with pytest.raises(ValueError):
        envelope_constants(SCHED1, 1.0, 5.0, tol=1e-2)


def test_envelope_U_shape_and_validation():
    env = envelope_constants(SCHED1, 1.0, 5.0)
    ks = np.array([1, 10, 100])
    U = envelope_U(env, 0.05, ks)
    expected = (env.C1 + env.C2 * math.log(20.0)) * np.log(ks + 2.0) / np.sqrt(ks + 1.0)
    np.testing.assert_allclose(U, expected, rtol=1e-14)
    # smaller beta -> larger envelope
    assert envelope_U(env, 0.01, 10) > envelope_U(env, 0.1, 10)
    with pytest.raises(ValueError):
        envelope_U(env, 0.5, 10)


def test_envelope_U_eps_variant_carries_sqrt_c0():
    sched = ScheduleVariant(Variant.PROPOSITION_EPS, L=1.0, epsilon=0.3,
                            c0_prime=100.0)
    env = envelope_constants(sched, 1.0, 5.0)
    k = 50
    level = env.C1 + env.C2 * math.log(1.0 / 0.05)
    expected = 10.0 * level * math.log(k + 2.0) ** 0.65 / math.sqrt(k + 1.0)
    assert envelope_U(env, 0.05, k) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("variant, epsilon, c0_prime", [(Variant.THEOREM_MAIN, None, 100.0)] + [
    (Variant.PROPOSITION_EPS, e, c) for e in (0.01, 0.3, 0.49) for c in (100.0, 1e4)])
def test_envelope_U_is_the_two_branch_formula_bit_for_bit(variant, epsilon, c0_prime):
    # one expression with the schedule's log power p: at theorem-main its
    # scale 1 and power p / 2 = 1 are exact, at proposition-eps p / 2 is the
    # (1 + eps) / 2 that the branch works out
    env = envelope_constants(ScheduleVariant(variant, 1.0, epsilon, c0_prime), 1.0, 5.0)
    ks = np.arange(1, 10**4 + 1)
    for beta in (0.05, 0.3):
        assert envelope_U(env, beta, ks).tobytes() == envelope_U_two_branch(env, beta, ks).tobytes()
        for k in (1, 77, 10**4):
            assert envelope_U(env, beta, k).hex() == envelope_U_two_branch(env, beta, k).hex()


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(0.01, 0.49), k=st.integers(1, 10**6))
def test_envelope_positive_and_decreasing_in_beta(beta, k):
    env = envelope_constants(SCHED1, 1.0, 2.0)
    u = envelope_U(env, beta, k)
    assert u > 0.0
    assert u >= envelope_U(env, min(0.49, beta * 1.5), k)


def test_energy_chain_and_checks_at_dim_1200(tmp_path):
    # above d = 1000 every squared norm is numpy's pairwise sum; E(k) is
    # computed once, so step k's E(k-1) is bitwise step k-1's E(k)
    from stoplab.harness import parse_config, run_experiment

    dim = 1200
    diag = np.linspace(1.0, 2.0, dim)
    obj = quadratic(diag)
    sched = ScheduleVariant(Variant.THEOREM_MAIN, L=obj.smoothness)
    noise = calibrate(NoiseKind.BOUNDED_SPHERE, dim, 1.0)
    x0 = np.ones(dim)
    recs = list(stream_ensemble(obj, noise, sched, 12, derive_seeds(4, 3), x0))
    for prev, rec in zip(recs, recs[1:]):
        assert np.array_equal(rec.E_prev, prev.E)
        k = int(rec.k[0, 0])
        phi_next = phi(k + 1, rec.x_curr.T, step_views(rec).x_next.T, obj.minimizer[:, None])
        assert np.array_equal(rec.E[0], energy(sq_norm(phi_next), rec.fgap_curr[0],
                                               energy_weight(k, eta(sched, k))))
    raw = {
        "objective": {"kind": "quadratic", "diag": [float(v) for v in diag]},
        "noise": {"kind": "bounded-sphere", "sigma": 1.0},
        "schedule": {"variant": "theorem-main"},
        "K": 12, "R": 3, "base_seed": 4, "x0": [1.0] * dim, "betas": [0.05],
        "checks": ["descent", "decomposition"], "output_dir": str(tmp_path),
    }
    rep = run_experiment(parse_config(raw))
    assert [c["name"] for c in rep.checks] == ["descent", "decomposition"]
    assert rep.passed
