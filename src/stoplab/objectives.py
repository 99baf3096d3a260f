"""Convex L-smooth test objectives with exact gradients and known minimizers.

Every objective here ships with an analytically certified smoothness constant,
minimizer and minimum value, so downstream envelope checks never depend on a
numerically estimated optimum.  All evaluations accept batched inputs: ``x``
may have shape ``(dim,)`` or ``(..., dim)``.

Batched reductions deliberately avoid BLAS matrix products: ``np.sum`` over a
fixed-length axis uses the same pairwise order regardless of batch size, and
least squares sums G u over the columns of G = A^T A in sequence (G itself is
formed once, with BLAS, at construction).  So a point's bits do not depend on
its batch, which keeps ensemble runs bitwise reproducible under any worker split.
The stream passes each step's gradient to ``eval_objective``, which forms the
quadratic's and least squares' f from it with unchanged bits: one D u or G u
per step, not two.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError


class ObjectiveKind(Enum):
    QUADRATIC = "quadratic"
    LEAST_SQUARES = "least_squares"
    HUBERIZED_ABS = "huberized_abs"


@dataclass(frozen=True)
class Objective:
    """A convex smooth objective with exact oracle data.

    ``params`` is kind-specific:
      quadratic      -- {"diag": (dim,), "center": (dim,)}
      least_squares  -- {"A": (m, dim), "b": (m,), "gram": (dim, dim) A^T A}
      huberized_abs  -- {"delta": float, "center": (dim,)}
    """

    dim: int
    kind: ObjectiveKind
    params: dict = field(repr=False)
    smoothness: float
    minimizer: np.ndarray
    min_value: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.smoothness <= 0:
            raise ValueError("smoothness must be positive")


def _check_dim(obj: Objective, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != obj.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {obj.dim}, got {x.shape[-1]}"
        )
    return x


def quadratic(diag, center=None) -> Objective:
    """f(x) = 1/2 <x-c, D(x-c)> with diagonal D > 0; L = max(D), f* = 0."""
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or np.any(diag <= 0):
        raise ValueError("diag must be a 1-d array of positive entries")
    dim = diag.shape[0]
    if center is None:
        center = np.zeros(dim)
    center = np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise DimensionMismatchError("center length must match diag length")
    return Objective(
        dim=dim,
        kind=ObjectiveKind.QUADRATIC,
        params={"diag": diag, "center": center},
        smoothness=float(np.max(diag)),
        minimizer=center.copy(),
        min_value=0.0,
    )


def _power_iteration_largest_eig(M: np.ndarray, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration."""
    n = M.shape[0]
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(100_000):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ (M @ v_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    return lam


def least_squares(A, b) -> Objective:
    """f(x) = 1/2 ||Ax - b||^2 with full-column-rank A.

    L is the top eigenvalue of G = A^T A (power iteration, 1e-10 relative),
    x* solves G x* = A^T b and f* = 1/2 ||A x* - b||^2.  f and grad f are
    evaluated as f* + 1/2 <G u, u> and G u, u = x - x*: an identity once
    G x* = A^T b, with grad f(x*) = 0 exactly.  G (numpy's syrk) is symmetric.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("A must be (m, dim) and b must be (m,)")
    dim = A.shape[1]
    gram = A.T @ A
    if np.linalg.matrix_rank(A) < dim:
        raise ValueError("A must have full column rank")
    L = _power_iteration_largest_eig(gram)
    x_star = np.linalg.solve(gram, A.T @ b)
    r = A @ x_star - b
    return Objective(
        dim=dim,
        kind=ObjectiveKind.LEAST_SQUARES,
        params={"A": A, "b": b, "gram": gram},
        smoothness=L,
        minimizer=x_star,
        min_value=0.5 * float(r @ r),
    )


def least_squares_random(dim: int, m: int, seed: int) -> Objective:
    """A deterministic anisotropic least-squares instance for experiments."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.standard_normal((m, dim))
    b = rng.standard_normal(m)
    return least_squares(A, b)


def huberized_abs(dim: int, delta: float = 1.0, center=None) -> Objective:
    """Coordinate-wise Huber smoothing of |x - c| with threshold delta.

    Per coordinate: h(u) = u^2 / (2 delta) for |u| <= delta, |u| - delta/2
    otherwise.  The gradient slope saturates at 1 and L = 1/delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if center is None:
        center = np.zeros(dim)
    center = np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise DimensionMismatchError("center length must match dim")
    return Objective(
        dim=dim,
        kind=ObjectiveKind.HUBERIZED_ABS,
        params={"delta": float(delta), "center": center},
        smoothness=1.0 / delta,
        minimizer=center.copy(),
        min_value=0.0,
    )


def _gram_times(obj: Objective, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G u, u) for u = x - x*; G u summed over the columns of G in sequence."""
    G = obj.params["gram"]
    u = x - obj.minimizer
    gu = u[..., 0, None] * G[0]
    for j in range(1, obj.dim):
        gu += u[..., j, None] * G[j]
    return gu, u


def eval_objective(obj: Objective, x, g=None) -> np.ndarray:
    """f(x); batched over leading axes of x.

    ``g``, if given, must be ``grad(obj, x)`` for this same x.  The quadratic
    and least squares then form f from it, as 1/2 <g, u> (plus f*), and skip
    their own D u or G u: bitwise the value computed without it, since
    d * u * u is evaluated as (d * u) * u = g * u and G u is the same column
    loop.  Huber cannot recover h(u) from its clipped gradient and ignores g.
    """
    x = _check_dim(obj, x)
    if obj.kind is ObjectiveKind.QUADRATIC:
        u = x - obj.params["center"]
        gu = obj.params["diag"] * u if g is None else g
        return 0.5 * np.sum(gu * u, axis=-1)
    if obj.kind is ObjectiveKind.LEAST_SQUARES:
        gu, u = _gram_times(obj, x) if g is None else (g, x - obj.minimizer)
        return obj.min_value + 0.5 * np.sum(gu * u, axis=-1)
    delta = obj.params["delta"]
    u = x - obj.params["center"]
    au = np.abs(u)
    h = np.where(au <= delta, u * u / (2.0 * delta), au - delta / 2.0)
    return np.sum(h, axis=-1)


def grad(obj: Objective, x) -> np.ndarray:
    """Exact gradient of f at x; batched over leading axes of x."""
    x = _check_dim(obj, x)
    if obj.kind is ObjectiveKind.QUADRATIC:
        return obj.params["diag"] * (x - obj.params["center"])
    if obj.kind is ObjectiveKind.LEAST_SQUARES:
        return _gram_times(obj, x)[0]
    delta = obj.params["delta"]
    u = x - obj.params["center"]
    return np.clip(u / delta, -1.0, 1.0)


def sample_ball(obj: Objective, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the ball of radius 10 centered at the minimizer."""
    z = rng.standard_normal((n, obj.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = 10.0 * rng.random(n) ** (1.0 / obj.dim)
    return obj.minimizer + r[:, None] * z


def verify_regularity(obj: Objective, n_pairs: int, rng_seed: int) -> dict:
    """Sampled smoothness and convexity check around the minimizer.

    Returns a report with the worst smoothness ratio
    ||grad(x)-grad(y)|| / (L ||x-y||) and the worst convexity-gap residual
    f(y) - f(x) - <grad(x), y-x>, plus pass flags at the contract tolerances.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    xs = sample_ball(obj, n_pairs, rng)
    ys = sample_ball(obj, n_pairs, rng)
    gx = grad(obj, xs)
    gy = grad(obj, ys)
    num = np.linalg.norm(gx - gy, axis=1)
    den = obj.smoothness * np.linalg.norm(xs - ys, axis=1)
    ok = den > 0
    max_ratio = float(np.max(num[ok] / den[ok])) if np.any(ok) else 0.0
    fx = eval_objective(obj, xs)
    fy = eval_objective(obj, ys)
    lin = np.sum(gx * (ys - xs), axis=-1)
    conv_residual = fy - fx - lin
    min_conv = float(np.min(conv_residual))
    grad_at_min = float(np.linalg.norm(grad(obj, obj.minimizer)))
    return {
        "max_smoothness_ratio": max_ratio,
        "min_convexity_residual": min_conv,
        "grad_norm_at_minimizer": grad_at_min,
        "smoothness_pass": max_ratio <= 1.0 + 1e-9,
        "convexity_pass": min_conv >= -1e-9 * (1.0 + float(np.max(np.abs(fx)))),
        "minimizer_pass": grad_at_min <= 1e-10 * (1.0 + obj.smoothness),
    }
