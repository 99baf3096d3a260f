"""Pathwise decay inequalities of the Lyapunov energy, and envelope constants.

The energy at step k (``sgdm.energy``) is

    E(k) = ||x_{k+1} + (k+1)(x_{k+1} - x_k) - x*||^2
           + 4 sqrt((k+1) eta_k) (f(x_k) - f*),

whose one-step increment is bounded pathwise (for every realized noise draw,
not on average) first by a gradient-form right-hand side and then by the
noise-only decomposition a_k ||theta_k||^2 + sqrt(a_k) <theta_k, phi_k> with
phi_k = k (x_k - x_{k-1}) + (x_k - x*).  The residual functions here return
RHS - LHS, which must stay above a small magnitude-relative negative tolerance
on every step of every run.  ``step_residuals`` reads a slab of streamed
steps (``sgdm.StepSlab``) and returns a row per step and an entry per
trajectory.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .objectives import Objective
from .sgdm import ScheduleVariant, StepSlab, Variant
from .series import gamma1 as _gamma1_bracket
from .series import gamma2 as _gamma2_bracket

__all__ = [
    "EnvelopeParams", "residual_tolerance", "step_residuals",
    "envelope_constants", "envelope_U",
]


def residual_tolerance(E_k, E_km1, out=None) -> np.ndarray:
    """Magnitude-relative tolerance 1e-9 (1 + |E(k)| + |E(k-1)|), floored at 1e-12.

    Formed in the order the formula reads, in ``out`` if given (an array of
    the result's shape).
    """
    tol = np.abs(E_k, out=out)
    tol += 1.0
    tol += np.abs(E_km1)
    tol *= 1e-9
    return np.maximum(tol, 1e-12, out=out)


def step_residuals(s: StepSlab, obj: Objective) -> dict:
    """All per-step inequality residuals of a slab of streamed steps.

    Arithmetic on the slab's (B, R) rows and its (B, 1) columns of k,
    eta_k, a_k and w_k only: the row sums over dim and the schedule scalars
    come with the stream.  Each entry is computed as it is for one step, so
    every row is bitwise that step's value (``np.sqrt`` and ``math.sqrt``
    both round correctly); the terms are formed in place on four reused
    (B, R) buffers besides the three residuals, each entry's operations in
    the formula's order.  Returns a dict of (B, R) arrays: the three decay
    residuals, the squared norms entering the momentum-vector bound
    ||phi_{k+1}||^2 <= E(k), the margin of the value sandwich
    4 sqrt((k+1) eta_k) (f(x_k) - f*) <= E(k), and the per-step tolerance.

    E(k) = ||phi_{k+1}||^2 + w_k (f(x_k) - f*) by construction (``sgdm.energy``),
    so these two bounds test no dynamics.  The P1 margin
    E(k-1) - ||phi_k||^2 + tol is w_{k-1} (f(x_{k-1}) - f*) + tol, which is
    >= 0 whenever f >= f*; the sandwich margin is ||phi_{k+1}||^2 itself.
    They can fail only through rounding or a value below f*.
    """
    k, e_k, a_k = s.k, s.eta_k, s.a_k
    sq = np.sqrt(e_k / k)
    inner, th_sq, gf_sq = s.theta_phi, s.theta_sq, s.grad_sq
    dE = np.subtract(s.E, s.E_prev)
    decomp = np.multiply(a_k, th_sq)
    tmp = np.multiply(np.sqrt(a_k), inner)
    decomp += tmp
    decomp -= dE
    grad_term = np.multiply(2.0 / obj.smoothness * sq, gf_sq)
    noise_term = np.multiply(4.0 * sq, inner)
    descent = np.multiply(4.0 * e_k / k, s.g_sq)
    descent -= grad_term
    descent -= np.multiply(2.0 * sq, s.fgap_curr, out=tmp)
    descent += noise_term
    descent -= dE
    decomp_mid = np.add(th_sq, gf_sq, out=tmp)
    decomp_mid *= 8.0 * e_k / k
    decomp_mid -= grad_term
    decomp_mid += noise_term
    decomp_mid -= dE
    sandwich = np.multiply(s.w_k, s.fgap_curr, out=dE)
    np.subtract(s.E, sandwich, out=sandwich)
    del noise_term  # its room goes to the tolerance's |E(k-1)|
    tol = residual_tolerance(s.E, s.E_prev, out=grad_term)
    return {
        "descent": descent,
        "decomp": decomp,
        "decomp_mid": decomp_mid,
        "phi_sq": s.phi_sq,
        "phi_next_sq": s.phi_next_sq,
        "sandwich_margin": sandwich,
        "tol": tol,
    }


@dataclass(frozen=True)
class EnvelopeParams:
    """Constants of the high-probability envelope U(beta, k).

    ``gamma1``/``gamma2`` are certified upper ends of their brackets (the safe
    direction for envelope validity); ``*_tail`` are the bracket widths.
    """

    sched: ScheduleVariant
    sigma: float
    E0: float
    gamma1: float
    gamma2: float
    gamma1_tail: float
    gamma2_tail: float
    C1: float
    C2: float
    B: float = 1.0


def envelope_constants(
    sched: ScheduleVariant, sigma: float, E0: float, tol: float = 1e-6
) -> EnvelopeParams:
    """Assemble C1 = L g2 E0 + L s^2 (1 + s^2 g1 g2) g1 and its slope twin C2.

    Raises ConfigError when gamma2, C1 or C2 exceeds the float range.
    """
    if not (1e-12 < tol < 1e-3):
        raise ValueError("tol must lie in (1e-12, 1e-3)")
    g1_lo, g1_w = _gamma1_bracket(sched, tol)
    g2_lo, g2_w = _gamma2_bracket(sched, sigma, tol)
    g1 = g1_lo + g1_w
    g2 = g2_lo + g2_w
    L = sched.L
    s2 = sigma * sigma
    cross = L * s2 * (1.0 + s2 * g1 * g2) * g1
    C1, C2 = L * g2 * E0 + cross, L * g2 + cross
    if not (math.isfinite(C1) and math.isfinite(C2)):
        raise ConfigError([f"C1, C2 exceed the float range for schedule {sched.variant.value} "
                           f"(L = {L:g}) at sigma = {sigma:g}, E0 = {E0:g}"])
    return EnvelopeParams(
        sched=sched, sigma=sigma, E0=E0,
        gamma1=g1, gamma2=g2, gamma1_tail=g1_w, gamma2_tail=g2_w, C1=C1, C2=C2,
    )


def envelope_U(params: EnvelopeParams, beta: float, k) -> np.ndarray | float:
    """High-probability envelope value at (beta, k); vectorized in k.

    U = s (C1 + C2 ln(1/beta)) ln^(p/2)(k+2) / sqrt(k+1), p = ``sched.log_power``:
    for the log^2 schedule s = 1 and p / 2 = 1, both exact.  For the
    eps-schedule the exact sandwich constant carries s = sqrt(C0') from
    4 sqrt((k+1) eta_k) = sqrt(k+1) / (L sqrt(C0') ln^((1+eps)/2)(k+2)).
    """
    if not (0.0 < beta < 0.5):
        raise ValueError("beta must lie in (0, 0.5)")
    k = np.asarray(k, dtype=float)
    sched = params.sched
    level = params.C1 + params.C2 * math.log(1.0 / beta)
    scale = 1.0 if sched.variant is Variant.THEOREM_MAIN else math.sqrt(sched.c0_prime)
    out = scale * level * np.log(k + 2.0) ** (sched.log_power / 2.0) / np.sqrt(k + 1.0)
    return out if out.ndim else float(out)
