"""Blend severity scores from several models into one ranking.

A ScoreMatrix holds per-comment scores from k named sources (own models
or externally produced columns).  Because pairwise ranking accuracy is a
step function, weights are fitted by minimizing a smooth stand-in: the
mean logistic loss ln(1 + exp(-margin/tau)) over annotated pairs, where
the margin is the weighted score difference between the more- and
less-toxic side.  The pairs are given by their side ids, which are
matrix row ids, as a `corpus.Pairs`' `ids` holds them (side 2i less
toxic, side 2i + 1 more toxic).  Columns are normalized first since raw
model outputs live on incomparable scales; the normalized values and the
blend are plain float64 arrays, row i belonging to the matrix's
comment_ids[i].  Reported quality always uses the exact accuracy metric,
never the surrogate.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import csv_columns, number, read_csv, unique_ids
from .evaluate import NORMALIZATION_MODES
from .optim import OptimResult, lbfgs_minimize

__all__ = [
    "ScoreMatrix",
    "EnsembleWeights",
    "normalize_scores",
    "pair_rows",
    "fit_weights",
    "blend",
    "load_score_matrix",
    "save_weights",
]


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be a finite number > 0, got {temperature!r}")


class ScoreMatrix:
    """Comments x named score sources; all cells finite, ids/names unique."""

    __slots__ = ("comment_ids", "model_names", "values")

    def __init__(self, comment_ids: list[str], model_names: list[str],
                 values: np.ndarray) -> None:
        self.comment_ids, self.model_names = comment_ids, model_names
        self.values = np.asarray(values, dtype=np.float64)  # ids x models
        if self.values.shape != (len(self.comment_ids), len(self.model_names)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.comment_ids)} ids x {len(self.model_names)} models"
            )
        if len(set(self.comment_ids)) != len(self.comment_ids):
            raise ValueError("duplicate comment ids in score matrix")
        if len(set(self.model_names)) != len(self.model_names):
            raise ValueError("duplicate model names in score matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("score matrix contains non-finite cells")


class EnsembleWeights:
    """Fitted per-model blend weights (unconstrained reals); `solver` is set
    by fit_weights, and weights built by hand have none."""

    __slots__ = ("model_names", "weights", "mode", "temperature", "solver")

    def __init__(self, model_names: list[str], weights: np.ndarray, mode: str = "minmax",
                 temperature: float = 0.1, solver: OptimResult | None = None) -> None:
        self.model_names, self.mode, self.temperature, self.solver = (
            model_names, mode, temperature, solver)
        _check_temperature(self.temperature)
        self.weights = np.asarray(weights, dtype=np.float64)
        if len(self.weights) != len(self.model_names):
            raise ValueError("one weight per model required")
        if self.mode not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.mode!r}")


def _average_ranks(column: np.ndarray) -> np.ndarray:
    """Zero-based ranks with ties sharing their average rank."""
    order = np.argsort(column, kind="stable")
    sorted_vals = column[order]
    # equal values at sorted positions i..j share the rank (i + j) / 2
    starts = np.flatnonzero(
        np.r_[len(column) > 0, np.not_equal(sorted_vals[1:], sorted_vals[:-1])])
    sizes = np.diff(np.r_[starts, len(column)])
    ends = starts + sizes - 1
    ranks = np.empty(len(column))
    ranks[order] = np.repeat((starts + ends) / 2.0, sizes)
    return ranks


def normalize_scores(matrix: ScoreMatrix, mode: str) -> np.ndarray:
    """The matrix values rescaled per column, as a new array of their shape.

    Degenerate columns have fixed fallbacks: minmax maps a constant column
    to all 0.5, zscore maps zero spread to all zeros, and rank divides
    tie-averaged zero-based ranks by N - 1 (0.5 for a single row).  A
    column whose spread (max - min, or standard deviation) overflows
    float64 raises ValueError naming it.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if mode == "none":
        return matrix.values.copy()
    values = np.empty_like(matrix.values)
    n = len(matrix.comment_ids)
    for k, name in enumerate(matrix.model_names):
        col = matrix.values[:, k]
        if mode == "rank":
            values[:, k] = 0.5 if n == 1 else _average_ranks(col) / (n - 1)
            continue
        # an overflowing spread is refused by value; numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            if mode == "minmax":
                center, fallback = col.min(), 0.5
                spread = col.max() - center
            else:  # zscore
                center, spread, fallback = col.mean(), col.std(), 0.0
        if not math.isfinite(spread):
            raise ValueError(f"score column {name!r} is too widely spread "
                             f"for {mode} normalization")
        values[:, k] = fallback if spread == 0.0 else (col - center) / spread
    return values


def pair_rows(matrix: ScoreMatrix, side_ids: Sequence[str]) -> np.ndarray:
    """The matrix row of every pair side, in side order, as int64; the
    first side id (in side order) with no row is named."""
    row_of = {cid: i for i, cid in enumerate(matrix.comment_ids)}
    try:
        return np.fromiter(map(row_of.__getitem__, side_ids), dtype=np.int64,
                           count=len(side_ids))
    except KeyError as exc:
        raise ValueError(f"id {exc.args[0]!r} not present in the score matrix") from None


def _pair_diffs(matrix: ScoreMatrix, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """values[more] - values[less] for every pair, one row per pair.

    Row j of `values` belongs to matrix.comment_ids[j] and column k to
    matrix.model_names[k]; `rows` are the sides' rows, as `pair_rows`
    gives them.  The first column where a difference overflows is named.
    """
    # an overflowing difference is refused by value; numpy need not warn
    with np.errstate(over="ignore"):
        diffs = values[rows[1::2]] - values[rows[0::2]]
    overflow = np.flatnonzero(~np.isfinite(diffs).all(axis=0))
    if overflow.size:
        raise ValueError(f"score column {matrix.model_names[overflow[0]]!r} is too widely "
                         f"spread for pair differences")
    return diffs


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss_from_diffs(
    weights: np.ndarray, diffs: np.ndarray, temperature: float
) -> tuple[float, np.ndarray]:
    # z may overflow to -inf, where loss and gradient terms are their exact
    # limit 0, or to +inf, which the solver's non-finite check refuses
    with np.errstate(over="ignore"):
        z = -(diffs @ weights) / temperature
        # ln(1 + e^z) evaluated stably for large |z|
        loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))))
        grad = -(diffs.T @ _sigmoid(z)) / (temperature * len(diffs))
    return loss, grad


def fit_weights(
    matrix: ScoreMatrix,
    side_ids: Sequence[str],
    mode: str = "minmax",
    temperature: float = 0.1,
    max_iter: int = 200,
    *,
    normalized: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> EnsembleWeights:
    """Fit blend weights on the annotated pairs whose sides are `side_ids`.

    Normalizes the matrix per mode, starts from uniform weights
    1/n_models, and minimizes the surrogate loss in at most max_iter L-BFGS
    steps; the fitted loss never exceeds the loss at initialization.
    A caller that also needs `normalize_scores(matrix, mode)` or
    `pair_rows(matrix, side_ids)` passes them as `normalized` and `rows`, so
    that each is computed once.
    """
    _check_temperature(temperature)
    if len(matrix.model_names) < 1:
        raise ValueError("need at least one model column")
    if len(side_ids) < 2 or len(side_ids) % 2:
        raise ValueError("side_ids must be the side ids of one or more whole pairs "
                         f"(a corpus.Pairs' ids), not {len(side_ids)} items")
    if normalized is None:
        normalized = normalize_scores(matrix, mode)
    if rows is None:
        rows = pair_rows(matrix, side_ids)
    diffs = _pair_diffs(matrix, normalized, rows)
    x0 = np.full(len(matrix.model_names), 1.0 / len(matrix.model_names))
    result = lbfgs_minimize(
        lambda w: _loss_from_diffs(w, diffs, temperature), x0, max_iter
    )
    return EnsembleWeights(
        model_names=list(matrix.model_names),
        weights=result.x,
        mode=mode,
        temperature=temperature,
        solver=result,
    )


def blend(matrix: ScoreMatrix, weights: EnsembleWeights, *,
          normalized: np.ndarray | None = None) -> np.ndarray:
    """Weighted blend per comment: a float64 array, entry i for
    matrix.comment_ids[i].

    The matrix is normalized with the mode stored in the weights before
    the weighted sum is taken; a caller that has already computed
    `normalize_scores(matrix, weights.mode)` passes it as `normalized`.
    """
    if len(weights.weights) != len(matrix.model_names):
        raise ValueError(
            f"weight count {len(weights.weights)} does not match "
            f"{len(matrix.model_names)} model columns"
        )
    if normalized is None:
        normalized = normalize_scores(matrix, weights.mode)
    return normalized @ weights.weights


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_score_matrix(path: str | Path) -> ScoreMatrix:
    """Read a score matrix CSV: header comment_id,<model_1>,...,<model_k>.

    Every cell must be a finite number and every id unique; a bad cell or
    a repeated id is named with its row.  The values are parsed a column
    at a time, with `float`, into a C-contiguous array: the blend's BLAS
    product, and so its last bits, depend on the memory order.
    """
    columns, rows = read_csv(path, ("comment_id",))
    header = list(columns)
    if header[0] != "comment_id":
        raise ValueError(f"{path}: first column must be comment_id")
    model_names = header[1:]
    if not model_names:
        raise ValueError(f"{path}: no model columns")
    if not rows:
        raise ValueError(f"{path}: no score rows")
    ids = list(map(operator.itemgetter(0), rows))
    unique_ids(path, ids)
    values = np.empty((len(rows), len(model_names)))
    try:
        for k in range(len(model_names)):
            values[:, k] = list(map(float, map(operator.itemgetter(k + 1), rows)))
        bad = not np.all(np.isfinite(values))
    except ValueError:
        bad = True
    if bad:  # walk the rows again to name the first bad cell
        for record, fields in enumerate(rows, start=2):
            for name, text in zip(model_names, fields[1:]):
                number(path, record, name, text)
    return ScoreMatrix(comment_ids=ids, model_names=model_names, values=values)


def save_weights(weights: EnsembleWeights, path: str | Path) -> None:
    """CSV model,weight with a leading #mode=...,temperature=... line."""
    Path(path).write_text(
        f"#mode={weights.mode},temperature={weights.temperature!r}\n"
        + csv_columns(("model", "weight"),
                      (weights.model_names, list(map(repr, weights.weights.tolist())))),
        encoding="utf-8",
    )
