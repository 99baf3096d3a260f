"""Convex L-smooth test objectives with exact gradients and known minimizers.

Every objective here ships with an analytically certified smoothness constant,
minimizer and minimum value, so downstream envelope checks never depend on a
numerically estimated optimum.  Evaluations accept a point of shape
``(dim,)`` or a batch of shape ``(n, dim)``.

They compute in the ensemble stream's trajectory-minor frame: a batch is
read as its (dim, ...) transpose, a view, so the stream's C-ordered (dim, R)
states are worked on in place, and every sum over dim is taken by
``dim_sum``, which adds the dim rows in sequence.  Batched reductions avoid
BLAS matrix products: least squares sums G u over the columns of G = A^T A
in sequence (G itself is formed once, with BLAS, at construction).  So a
point's bits depend neither on its batch nor on the batch's memory layout,
which keeps ensemble runs bitwise reproducible under any worker split.  The
stream hands ``eval_objective`` each slab's gradients, from which the
quadratic and least squares form f with unchanged bits: one D u or G u per
step, not two.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError
from .noise import philox


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
        if not (0 < self.smoothness < math.inf and 2.0 / self.smoothness < math.inf):
            raise ValueError("smoothness must be positive and finite, with 2 / smoothness "
                             "finite (the descent residual divides by it)")


def _check_dim(obj: Objective, x: np.ndarray, max_ndim: int = 2) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not 1 <= x.ndim <= max_ndim or x.shape[-1] != obj.dim:
        raise DimensionMismatchError(
            f"expected a point of length {obj.dim} or a batch of up to {max_ndim - 1} leading"
            f" axes with last axis {obj.dim}, got shape {x.shape}"
        )
    return x


def _cols(a: np.ndarray) -> np.ndarray:
    """The trajectory-minor (dim, ...) view of a (dim,) point or an (..., dim) batch."""
    return a[:, None] if a.ndim == 1 else a.transpose(-1, *range(a.ndim - 1))


def _col(v: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """A (dim,) parameter shaped to broadcast along a (dim, ...) frame's leading axis."""
    return v.reshape((-1,) + (1,) * (frame.ndim - 1))


def dim_sum(v: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
    """Sum over the dim axis (0, or 1 of a (B, dim, R) stack) in sequence, into ``out`` if given.

    Every reduction over dim goes through here, so a trajectory's sums
    depend neither on how many trajectories or steps share its block nor on
    its layout: numpy adds the dim rows of a C-ordered (..., dim, R) block,
    R >= 2, one after another, but a column (dim contiguous, as in a (B, dim,
    1) stack) pairwise, other bits from d = 8 on.  ``np.add.accumulate``
    covers the rest; + 0.0 gives the reduce's +0.0 where all terms are -0.0.
    """
    if v.ndim >= 2:
        rest = [i for i in range(v.ndim) if i != axis]
        u = v.transpose(*rest[:-1], axis, rest[-1])
        if u.shape[-1] > 1 and u.flags.c_contiguous:
            return np.add.reduce(u, axis=-2, out=out)
    return np.add(np.take(np.add.accumulate(v, axis=axis), -1, axis=axis), 0.0, out=out)


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


def least_squares(A, b) -> Objective:
    """f(x) = 1/2 ||Ax - b||^2 with full-column-rank A.

    L bounds the top eigenvalue of G = A^T A from above: ``eigvalsh``'s value
    raised by 16 d u relative (u = 2^-53), then one ulp.  Against 50-digit
    eigenvalues of the floating-point G, d <= 64, eigvalsh was off by at most
    4 d u (15 u).  x* solves G x* = A^T b and f* = 1/2 ||A x* - b||^2.  f and
    grad f are evaluated as f* + 1/2 <G u, u> and G u, u = x - x*: an
    identity once G x* = A^T b, with grad f(x*) = 0 exactly.  G (numpy's
    syrk) is exactly symmetric; G u is the BLAS-free fixed-order einsum of
    ``_gram_times``, so a point's bits do not depend on its batch.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("A must be (m, dim) and b must be (m,)")
    dim = A.shape[1]
    gram = A.T @ A
    if np.linalg.matrix_rank(A) < dim:
        raise ValueError("A must have full column rank")
    top = np.linalg.eigvalsh(gram)[-1]
    L = float(np.nextafter(top * (1.0 + 16 * dim * 2.0**-53), math.inf))
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
    rng = philox(seed)
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
    """(G u, u) for u = x - x*, both in the (dim, n) frame.

    One unbuffered einsum, ``"ji,jr->ir"`` (G is exactly symmetric): j is
    its outer loop, so every width and layout builds ((G[i,0] u[0] +
    G[i,1] u[1]) + G[i,2] u[2]) + ..., a rounded multiply and add per term.
    BLAS (``G @ u``, ``optimize=True``) blocks the columns and ``"ij,..."``
    reorders the sum for some widths and layouts, each giving other bits.
    ``tests/test_objectives.py`` pins the order against a column loop.
    """
    ut = _cols(x) - _col(obj.minimizer, _cols(x))
    gut = np.einsum("ji,jr->ir", obj.params["gram"], ut.reshape(obj.dim, -1), optimize=False)
    return gut.reshape(ut.shape), ut


def eval_objective(obj: Objective, x, g=None) -> np.ndarray:
    """f(x) for a (dim,) point (a scalar) or an (n, dim) or (B, n, dim) batch.

    Computed in the (dim, ...) frame, with the sum over dim taken by
    ``dim_sum``: any layout of the batch gives the same bits, and the
    stream's (B, dim, R) stacks are read in place.  ``g``, if
    given, must be ``grad(obj, x)`` for this same x.  The quadratic and
    least squares then form f from it, as 1/2 <g, u> (plus f*), and skip
    their own D u or G u: bitwise the value computed without it, since
    d * u * u is evaluated as (d * u) * u = g * u and G u is the same
    product.  Huber cannot recover h(u) from its clipped gradient and ignores g.
    """
    x = _check_dim(obj, x, 3)
    xt = _cols(x)
    if obj.kind is ObjectiveKind.QUADRATIC:
        ut = xt - _col(obj.params["center"], xt)
        ut *= _col(obj.params["diag"], xt) * ut if g is None else _cols(g)
        f = 0.5 * dim_sum(ut)
    elif obj.kind is ObjectiveKind.LEAST_SQUARES:
        if g is None:
            gut, ut = _gram_times(obj, x)
        else:
            gut, ut = _cols(g), xt - _col(obj.minimizer, xt)
        ut *= gut
        f = obj.min_value + 0.5 * dim_sum(ut)
    else:
        delta = obj.params["delta"]
        ut = xt - _col(obj.params["center"], xt)
        aut = np.abs(ut)
        f = dim_sum(np.where(aut <= delta, ut * ut / (2.0 * delta), aut - delta / 2.0))
    return f[0] if x.ndim == 1 else f


def grad(obj: Objective, x) -> np.ndarray:
    """Exact gradient of f, in the form of x: (dim,) or (n, dim).

    Computed in the (dim, n) frame like ``eval_objective``; for a batch the
    result is the transpose of a (dim, n) array, so the stream gets back
    the C-ordered (dim, R) layout of its own state.
    """
    x = _check_dim(obj, x)
    if obj.kind is ObjectiveKind.QUADRATIC:
        gt = obj.params["diag"][:, None] * (_cols(x) - obj.params["center"][:, None])
    elif obj.kind is ObjectiveKind.LEAST_SQUARES:
        gt = _gram_times(obj, x)[0]
    else:
        ut = _cols(x) - obj.params["center"][:, None]
        gt = np.clip(ut / obj.params["delta"], -1.0, 1.0)
    return gt[:, 0] if x.ndim == 1 else gt.T
