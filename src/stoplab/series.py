"""Certified evaluation of the slowly-convergent series behind the envelope.

The weight series sum_k a_k with a_k = 1 / (C k ln^p(k+2)) converges too
slowly for naive truncation, so brackets are built from partial sums plus
integral tail bounds.  For decreasing a,

    integral_{K+1}^inf a(x) dx  <=  sum_{k>K} a_k  <=  a_{K+1} + integral_{K+1}^inf a(x) dx,

and the integral itself is bracketed through the exact antiderivative of
1 / (C (x+2) ln^p(x+2)), which is -1 / (C (p-1) ln^(p-1)(x+2)):

    1/((x+2) ln^p(x+2))  <=  1/(x ln^p(x+2))  <=  (A+2)/A * 1/((x+2) ln^p(x+2))

for x >= A.  Truncation adapts upward until the bracket width meets the
requested relative tolerance.

The partial sums run over up to 2^26 terms, in chunks of 2^17 to 2^20.  Each
chunk is evaluated in blocks of ``sgdm.SWEEP_BLOCK`` = 2^13 terms
(``sgdm.sweep_blocks``), so each temporary is 64 KiB and stays in cache and
no chunk-long array is built.  numpy's pairwise ``np.sum`` halves a
power-of-two length exactly, so its sum over a chunk is the binary tree of
the chunk's block sums; combining the block sums in that tree gives the
chunk's ``np.sum`` bit for bit (``_chunk_sum``).
"""

import math

import numpy as np

from .errors import ConfigError
from .sgdm import SWEEP_BLOCK, ScheduleVariant, a_coeff, sweep_blocks

_CHUNK = 1 << 20
_MAX_TERMS = 1 << 26


def _tail_integral_bracket(sched: ScheduleVariant, K: int) -> tuple[float, float]:
    """Bracket for sum_{k >= K+1} a_k."""
    p = sched.log_power
    C = sched.a_coefficient_scale
    if p <= 1.0:
        raise ConfigError(["weight series diverges (log power <= 1)"])
    base = 1.0 / (C * (p - 1.0) * math.log(K + 3.0) ** (p - 1.0))
    lo = base
    hi = float(a_coeff(sched, K + 1)) + (K + 3.0) / (K + 1.0) * base
    return lo, hi


def _chunk_sum(sched: ScheduleVariant, first: int, last: int, transform) -> float:
    """np.sum of transform(a_k) over k = first..last, computed block by block.

    The chunk's length is a power of two, at least SWEEP_BLOCK.  numpy's
    pairwise sum splits such a length exactly in half down to blocks far
    below SWEEP_BLOCK terms, so its result over the chunk is the binary tree
    of the SWEEP_BLOCK-term block sums, left plus right at each node; this
    evaluates that tree without holding the chunk.
    """
    n = last - first + 1
    assert n >= SWEEP_BLOCK and n & (n - 1) == 0, "chunk length must be a power of two"
    sums = []
    for ks in sweep_blocks(first, last):
        ak = a_coeff(sched, ks)
        sums.append(float(np.sum(transform(ak) if transform else ak)))
    while len(sums) > 1:
        sums = [left + right for left, right in zip(sums[::2], sums[1::2])]
    return sums[0]


def _prefix_sums(sched: ScheduleVariant, transform=None):
    """Yield (K, sum_{k<=K} transform(a_k)) for K = 2^17, 2^18, ..., _MAX_TERMS.

    Each doubling adds only the new terms K/2+1..K, in chunks of at most
    _CHUNK terms, to the running sum.  numpy's pairwise sum splits a
    power-of-two length exactly in half, so every yielded value is bitwise
    the one-pass sum of terms 1..K in the same chunks.  Every chunk has a
    power-of-two length (2^17 to 2^20) and is summed by ``_chunk_sum`` from
    its SWEEP_BLOCK-term blocks, bitwise as ``np.sum`` over the chunk.
    """
    total, lo, K = 0.0, 1, 1 << 17
    while K <= _MAX_TERMS:
        for start in range(lo, K + 1, _CHUNK):
            total += _chunk_sum(sched, start, min(start + _CHUNK - 1, K), transform)
        yield K, total
        lo, K = K + 1, 2 * K


def gamma1(sched: ScheduleVariant, tol: float) -> tuple[float, float]:
    """Certified bracket for gamma1 = sum_k a_k.

    Returns (value, tail_bound) with value <= gamma1 <= value + tail_bound
    and tail_bound <= tol * value.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    for K, partial in _prefix_sums(sched):
        t_lo, t_hi = _tail_integral_bracket(sched, K)
        value = partial + t_lo
        tail_bound = t_hi - t_lo
        if tail_bound <= tol * value:
            return value, tail_bound
    raise ConfigError([f"gamma1 bracket did not reach tolerance {tol} within {K} terms"])


def gamma2(sched: ScheduleVariant, sigma: float, tol: float) -> tuple[float, float]:
    """Certified bracket for gamma2 = prod_k (1 + sigma^2 a_k).

    Computed as exp(sum ln(1 + sigma^2 a_k)) over a finite prefix; the tail of
    the log-sum is squeezed between sigma^2 T - sigma^4/2 * a_{K+1} T_hi and
    sigma^2 T_hi using x - x^2/2 <= ln(1+x) <= x.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    if sigma == 0.0:
        return 1.0, 0.0
    s2 = sigma * sigma
    for K, log_prefix in _prefix_sums(sched, transform=lambda a: np.log1p(s2 * a)):
        t_lo, t_hi = _tail_integral_bracket(sched, K)
        correction = 0.5 * s2 * s2 * float(a_coeff(sched, K + 1)) * t_hi
        log_tail_lo = max(s2 * t_lo - correction, 0.0)
        log_tail_hi = s2 * t_hi
        value = math.exp(log_prefix + log_tail_lo)
        upper = math.exp(log_prefix + log_tail_hi)
        if upper - value <= tol * value:
            return value, upper - value
    raise ConfigError([f"gamma2 bracket did not reach tolerance {tol} within {K} terms"])


def riemann_zeta(s: float, n_terms: int = 1 << 14) -> float:
    """zeta(s) for s > 1 by partial sum plus Euler-Maclaurin tail correction.

    Accurate to well under 1e-10 relative for s in (1, 60] at the default
    truncation.
    """
    if s <= 1.0:
        raise ValueError("riemann_zeta requires s > 1")
    N = float(n_terms)
    n = np.arange(1, n_terms, dtype=float)
    partial = float(np.sum(n ** (-s)))
    tail = (
        N ** (1.0 - s) / (s - 1.0)
        + 0.5 * N ** (-s)
        + s * N ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * N ** (-s - 3.0) / 720.0
    )
    return partial + tail
