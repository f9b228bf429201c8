"""Ridge regression on a CSR batch of sparse feature rows.

The intercept is the target mean and the weights solve the L2-penalized
least squares problem on the centered targets,

    (X^T X + alpha I) w = X^T (y - mean(y)),

by conjugate gradient.  Only y is centered; X is left as-is to preserve
sparsity, so the solution differs from implementations that also center
the design matrix (see fit_ridge).  Matrix products are formed as
X^T (X p) on the fly; X^T X is never materialized.

Every sum, from a row's score to CG's inner products, is a fixed-order
`features.row_sums`: a row predicts to the same bits alone or in any
batch, and no result depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .features import CsrBatch, row_sums

__all__ = ["CgReport", "RidgeModel", "fit_ridge", "predict", "ridge_objective"]


class CgReport(NamedTuple):
    """How the conjugate-gradient solve of `fit_ridge` ended.

    rel_residual is CG's updated residual norm over ||X^T (y - mean(y))||
    (0 when that is 0); converged says it reached tol within max_iter.
    """

    iterations: int
    rel_residual: float
    converged: bool


class RidgeModel:
    """Ridge weights; `solver` is set by fit_ridge, a loaded model has none."""

    __slots__ = ("weights", "intercept", "alpha", "solver")

    def __init__(self, weights: np.ndarray, intercept: float, alpha: float,
                 solver: CgReport | None = None) -> None:
        self.weights, self.intercept, self.alpha, self.solver = weights, intercept, alpha, solver
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha!r}")


def fit_ridge(
    X: CsrBatch,
    y: Sequence[float],
    alpha: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> RidgeModel:
    """Fit weights by conjugate gradient on the normal equations.

    Iterations stop once the normal-equation residual norm drops to
    tol * ||X^T (y - mean(y))|| or max_iter is reached, or when the
    curvature p^T (X^T X + alpha I) p of a search direction is not a finite
    positive number (overflow); the model's `solver` report says which.
    A right-hand side X^T (y - mean(y)) that is not finite raises
    ValueError.  Note the centering convention: with
    X = [[1], [2], [3]], y = [1, 2, 3] and alpha = 1 the single weight is
    sum(x*(y - 2)) / (sum(x^2) + 1) = 2/15, because X itself is not
    centered.
    """
    n, dim = X.shape
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.shape != (n,):
        raise ValueError(f"got {n} rows but targets of shape {y_arr.shape}")
    if n == 0:
        raise ValueError("need at least one training example")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")

    intercept = float(y_arr.mean())
    yc = y_arr - intercept
    # COO view of X: (row, col, value) per stored entry
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(X.indptr))
    col = X.indices.astype(np.int64)
    val = X.data

    def matvec(p: np.ndarray) -> np.ndarray:
        # (X^T X + alpha I) p without forming X^T X
        xp = np.bincount(row, weights=val * p[col], minlength=n)
        return np.bincount(col, weights=val * xp[row], minlength=dim) + alpha * p

    # overflow and nan are caught below, by value; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.bincount(col, weights=val * yc[row], minlength=dim)
        b_norm = math.sqrt(_dot(b, b))
        if not math.isfinite(b_norm):
            raise ValueError(f"X^T (y - mean(y)) has norm {b_norm}; "
                             "features or targets are too large or not finite")
        w = np.zeros(dim)
        if b_norm == 0.0:
            return RidgeModel(weights=w, intercept=intercept, alpha=alpha,
                              solver=CgReport(iterations=0, rel_residual=0.0,
                                              converged=True))

        r = b.copy()
        p = r.copy()
        rs = _dot(r, r)
        threshold = tol * b_norm
        iterations = 0
        broke_down = False
        while iterations < max_iter and not np.sqrt(rs) <= threshold:
            ap = matvec(p)
            curvature = _dot(p, ap)
            # X^T X + alpha I is positive definite; anything else is overflow
            if not (math.isfinite(curvature) and curvature > 0.0):
                broke_down = True
                break
            step = rs / curvature
            w += step * p
            r -= step * ap
            rs_next = _dot(r, r)
            p = r + (rs_next / rs) * p
            rs = rs_next
            iterations += 1
    report = CgReport(iterations=iterations, rel_residual=float(np.sqrt(rs) / b_norm),
                      converged=not broke_down and bool(np.sqrt(rs) <= threshold))
    return RidgeModel(weights=w, intercept=intercept, alpha=alpha, solver=report)


def predict(model: RidgeModel, X: CsrBatch) -> np.ndarray:
    """Raw severity prediction per row; deliberately not clamped to [0, 1]."""
    if X.shape[1] != len(model.weights):
        raise ValueError(
            f"batch dim {X.shape[1]} does not match model dim {len(model.weights)}"
        )
    products = model.weights[X.indices]
    products *= X.data
    return row_sums(products, np.diff(X.indptr)) + model.intercept


def ridge_objective(model: RidgeModel, X: CsrBatch, y: Sequence[float]) -> float:
    """||X w - (y - mean(y))||^2 + alpha ||w||^2 at the model's weights."""
    y_arr = np.asarray(y, dtype=np.float64)
    yc = y_arr - model.intercept
    resid = predict(model, X) - model.intercept - yc
    return _dot(resid, resid) + model.alpha * _dot(model.weights, model.weights)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by `row_sums` as one row."""
    return float(row_sums(a * b, [a.size])[0])
