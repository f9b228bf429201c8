"""Ridge regression on a CSR batch of sparse feature rows.

The intercept is the target mean and the weights solve the L2-penalized
least squares problem on the centered targets,

    (X^T X + alpha I) w = X^T (y - mean(y)),

by conjugate gradient.  Only y is centered; X is left as-is to preserve
sparsity, so the solution differs from implementations that also center
the design matrix (see fit_ridge).  Matrix products are formed as
X^T (X p) on the fly, straight from X's CSR arrays; X^T X is never
materialized.  A product walks X in blocks of whole rows holding at most
`features.BLOCK_ENTRIES` stored entries (a longer row is a block alone):
per block, X p is one `features.row_sums` of the block's entries times
p, and X^T (X p) one `np.bincount` of them, added into one vector of the
model's dimension.  X's columns are intp (`features.CsrBatch`), the type
that gathers and `np.bincount` index with, so a block is views of X's
arrays and a product allocates per block only its gather (X p) or its
weights (X^T u), and casts no index.  So the fit holds X, a few vectors
of its dimension or row count, and temporaries of one block, never a
copy the size of X.

Every sum, from a row's score to CG's inner products, is in a fixed
order: row sums and inner products are `features.row_sums`, and the
column sums are per block, added block by block.  A row predicts to the
same bits alone or in any batch, and no result depends on the BLAS
thread count.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import features
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
    blocks = _row_blocks(X)

    def matvec(p: np.ndarray) -> np.ndarray:
        # (X^T X + alpha I) p without forming X^T X
        out = _transposed_product(blocks, _product(blocks, p, n), dim)
        out += alpha * p
        return out

    # overflow and nan are caught below, by value; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        b = _transposed_product(blocks, yc, dim)
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
    scores = _product(_row_blocks(X), model.weights, X.shape[0])
    scores += model.intercept
    return scores


def ridge_objective(model: RidgeModel, X: CsrBatch, y: Sequence[float]) -> float:
    """||X w - (y - mean(y))||^2 + alpha ||w||^2 at the model's weights."""
    y_arr = np.asarray(y, dtype=np.float64)
    yc = y_arr - model.intercept
    resid = predict(model, X) - model.intercept - yc
    return _dot(resid, resid) + model.alpha * _dot(model.weights, model.weights)


def _row_blocks(X: CsrBatch) -> list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, entries per row, columns, values) of consecutive blocks of
    X's rows, each holding at most features.BLOCK_ENTRIES entries or one
    longer row; the arrays are views of X's, the columns intp."""
    indptr, limit, n = X.indptr, features.BLOCK_ENTRIES, X.shape[0]
    nnz = np.diff(indptr)
    blocks, first = [], 0
    while first < n:
        # the last row boundary within limit entries, at least one row on
        last = int(np.searchsorted(indptr, indptr[first] + limit, side="right")) - 1
        last = min(max(last, first + 1), n)
        entries = slice(indptr[first], indptr[last])
        blocks.append((slice(first, last), nnz[first:last], X.indices[entries],
                       X.data[entries]))
        first = last
    return blocks


def _product(blocks: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]],
             v: np.ndarray, n: int) -> np.ndarray:
    """X v, for the `_row_blocks` of X's n rows: one `row_sums` per block."""
    out = np.empty(n)
    for rows, nnz, cols, vals in blocks:
        products = v[cols]
        products *= vals
        out[rows] = row_sums(products, nnz)
    return out


def _transposed_product(blocks: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]],
                        u: np.ndarray, dim: int) -> np.ndarray:
    """X^T u, for the `_row_blocks` of X and one value of u per row: one
    weighted `np.bincount` per block, added in block order."""
    out = np.zeros(dim)
    for rows, nnz, cols, vals in blocks:
        weights = np.repeat(u[rows], nnz)
        weights *= vals
        out += np.bincount(cols, weights=weights, minlength=dim)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by `row_sums` as one row."""
    return float(row_sums(a * b, [a.size])[0])
