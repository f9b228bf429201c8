"""Ridge regression on a CSR batch of sparse feature rows.

The intercept is the target mean and the weights solve the L2-penalized
least squares problem on the centered targets,

    (X^T X + alpha I) w = X^T (y - mean(y)),

by conjugate gradient.  Only y is centered; X is left as-is to preserve
sparsity, so the solution differs from implementations that also center
the design matrix (see fit_ridge).  Matrix products are formed as
X^T (X p) on the fly; X^T X is never materialized.

`predict` scores a whole `CsrBatch` at once.  Each row's score is the
same dot product, in the same summation order, as scoring that row on
its own, so batch size never changes a prediction's bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import CsrBatch

__all__ = ["RidgeModel", "fit_ridge", "predict",
           "save_ridge", "load_ridge", "ridge_objective"]

_MAGIC = b"ridge-v1\n"


@dataclass(eq=False)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")


def fit_ridge(
    X: CsrBatch,
    y: Sequence[float],
    alpha: float = 1.0,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> RidgeModel:
    """Fit weights by conjugate gradient on the normal equations.

    Iterations stop once the normal-equation residual norm drops to
    tol * ||X^T (y - mean(y))|| or max_iter is reached.  Note the
    centering convention: with X = [[1], [2], [3]], y = [1, 2, 3] and
    alpha = 1 the single weight is sum(x*(y - 2)) / (sum(x^2) + 1) = 2/15,
    because X itself is not centered.
    """
    n, dim = X.shape
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.shape != (n,):
        raise ValueError(f"got {n} rows but targets of shape {y_arr.shape}")
    if n == 0:
        raise ValueError("need at least one training example")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")

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

    b = np.bincount(col, weights=val * yc[row], minlength=dim)
    b_norm = np.linalg.norm(b)
    w = np.zeros(dim)
    if b_norm == 0.0:
        return RidgeModel(weights=w, intercept=intercept, alpha=alpha)

    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    threshold = tol * b_norm
    for _ in range(max_iter):
        if np.sqrt(rs) <= threshold:
            break
        ap = matvec(p)
        step = rs / float(p @ ap)
        w += step * p
        r -= step * ap
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next
    return RidgeModel(weights=w, intercept=intercept, alpha=alpha)


def predict(model: RidgeModel, X: CsrBatch) -> np.ndarray:
    """Raw severity prediction per row; deliberately not clamped to [0, 1]."""
    if X.shape[1] != len(model.weights):
        raise ValueError(
            f"batch dim {X.shape[1]} does not match model dim {len(model.weights)}"
        )
    picked = model.weights[X.indices]
    bounds = X.indptr.tolist()
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        lo, hi = bounds[i], bounds[i + 1]
        out[i] = picked[lo:hi] @ X.data[lo:hi]
    out += model.intercept
    return out


def ridge_objective(model: RidgeModel, X: CsrBatch, y: Sequence[float]) -> float:
    """||X w - (y - mean(y))||^2 + alpha ||w||^2 at the model's weights."""
    y_arr = np.asarray(y, dtype=np.float64)
    yc = y_arr - model.intercept
    resid = predict(model, X) - model.intercept - yc
    return float(resid @ resid) + model.alpha * float(model.weights @ model.weights)


def save_ridge(model: RidgeModel, path: str | Path) -> None:
    """Binary ridge-v1 format: magic line, then alpha, intercept and the
    dense weights as little-endian float64 (bit-exact round trip)."""
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<d", model.alpha))
        fh.write(struct.pack("<d", model.intercept))
        fh.write(model.weights.astype("<f8").tobytes())


def load_ridge(path: str | Path) -> RidgeModel:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise ValueError(f"{path}: not a ridge-v1 model file")
    body = raw[len(_MAGIC):]
    if len(body) < 16 or len(body) % 8 != 0:
        raise ValueError(f"{path}: truncated ridge-v1 payload")
    alpha = struct.unpack("<d", body[:8])[0]
    intercept = struct.unpack("<d", body[8:16])[0]
    weights = np.frombuffer(body[16:], dtype="<f8").copy()
    return RidgeModel(weights=weights, intercept=intercept, alpha=alpha)
