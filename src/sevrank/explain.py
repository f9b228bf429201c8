"""Local explanations of a scorer's prediction on one comment.

The comment is perturbed by dropping random subsets of its words, every
perturbed variant is scored in one batched call, and a locally weighted
ridge fit on the keep/drop indicators attributes the prediction to
individual words.  Samples closer to the intact comment (cosine
similarity of the keep-mask to the all-ones mask) get larger fit weight
through an RBF kernel.  Everything is driven by one seeded generator, so
a given (scorer, text, config) always yields the same explanation.

There are two entry points, one per kind of scorer:

- `lime_explain_masks(score_masks, text, config)` is the method.  Its
  scorer takes the text's tokens and the (samples x tokens) 0/1 keep
  masks and returns one score per mask.  A saved model scores masks
  itself without building a variant text, to within rounding of scoring
  the variants (`pipeline.Pipeline.score_masks`), so `explain
  --model-prefix` calls this one.
- `lime_explain(scorer, text, config)` takes a black-box text scorer
  (`list[str] -> ndarray`, the `classifier_fn` contract of Ribeiro, Singh
  and Guestrin's reference LIME, arXiv:1602.04938).  It builds each
  mask's variant, the kept words joined by single spaces, and calls
  `scorer` once with all of them; `explain --scores-lookup` uses it.

Given the same scores, both give the same explanation.  The fit makes no
BLAS call: its products are einsums and its normal equations are solved
by a Cholesky factorization written in numpy, so no bit of an
explanation depends on the BLAS thread count.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["ExplainConfig", "Explanation", "KernelWidthError", "MAX_SAMPLES",
           "SampleCountError", "lime_explain", "lime_explain_masks", "explanation_json",
           "explanation_html"]

# The most perturbed samples one explanation draws: 100 times the CLI's
# default.  Its masks and fit hold a few float64 copies of the
# (samples x words) mask matrix, so a larger count would ask for more
# memory than a host is likely to have.
MAX_SAMPLES = 100_000


class KernelWidthError(ValueError):
    """A kernel width that is not > 0, or at which the kernel weights are
    not usable: its square overflows or underflows to 0, or every
    perturbed sample gets weight 0."""


class SampleCountError(ValueError):
    """A num_samples above MAX_SAMPLES."""


class ExplainConfig(NamedTuple):
    """num_samples perturbations (>= 10, <= MAX_SAMPLES), top num_features
    words reported (>= 1).

    kernel_width=None resolves to 0.75 * sqrt(word count) with a floor of
    1.0 at explain time; a set width must be > 0.  `lime_explain_masks`
    checks all three, and the width again once the samples are drawn.
    """

    num_samples: int = 1000
    num_features: int = 10
    kernel_width: float | None = None
    seed: int = 0


class Explanation(NamedTuple):
    text: str
    tokens: list[str]
    importances: list[tuple[int, float]]  # (token index, weight), |weight| descending
    intercept: float
    local_r2: float


def lime_explain(
    scorer: Callable[[Sequence[str]], np.ndarray],
    text: str,
    config: ExplainConfig = ExplainConfig(),
) -> Explanation:
    """Explain the score of `text` given by a text scorer.

    `lime_explain_masks`, with each mask scored by calling `scorer` once
    with the list of all reconstructed variants (the kept words joined by
    single spaces), in sample order.
    """
    def score_masks(tokens: list[str], masks: np.ndarray) -> np.ndarray:
        return scorer([" ".join(tok for tok, keep in zip(tokens, mask) if keep)
                       for mask in masks.tolist()])

    return lime_explain_masks(score_masks, text, config)


def lime_explain_masks(
    score_masks: Callable[[list[str], np.ndarray], np.ndarray],
    text: str,
    config: ExplainConfig = ExplainConfig(),
) -> Explanation:
    """Explain the score of `text` via word-drop perturbations.

    Tokens are the whitespace-separated words of `text`, punctuation
    kept.  Draws num_samples binary keep-masks (each word kept with
    probability 0.5; sample 0 is always the intact text) as an int8
    (num_samples x words) array and calls `score_masks(tokens, masks)`
    once; it must return one finite score per mask.  Then weights
    samples by exp(-d^2 / kernel_width^2) with d the cosine distance
    between the mask and the all-ones mask, and fits a weighted ridge
    (alpha=1) of the scores on the mask indicators.  The
    num_features words with the largest absolute coefficients are
    reported, most important first.  A constant scorer yields all-zero
    importances with local_r2 = 1.0.  A num_samples above MAX_SAMPLES
    raises SampleCountError, and a kernel width whose square is not
    a finite number > 0, or at which every sample unlike the intact text
    gets weight 0, raises KernelWidthError before anything is scored.
    """
    if config.num_samples < 10:
        raise ValueError("num_samples must be >= 10")
    if config.num_samples > MAX_SAMPLES:
        raise SampleCountError(f"{config.num_samples} samples is above the limit of "
                               f"{MAX_SAMPLES}")
    if config.num_features < 1:
        raise ValueError("num_features must be >= 1")
    if config.kernel_width is not None and not config.kernel_width > 0:
        raise KernelWidthError("kernel_width must be positive")
    tokens = text.split()
    n_words = len(tokens)
    if n_words == 0:
        raise ValueError("text must contain at least one word")
    kernel_width = config.kernel_width
    if kernel_width is None:
        kernel_width = max(0.75 * math.sqrt(n_words), 1.0)
    try:
        width_squared = kernel_width ** 2
    except OverflowError:
        width_squared = math.inf
    if not 0.0 < width_squared < math.inf:
        raise KernelWidthError(f"kernel width {kernel_width!r} squares to "
                               f"{width_squared!r}, not a finite number > 0")

    rng = np.random.default_rng(config.seed)
    masks = np.ones((config.num_samples, n_words), dtype=np.int8)
    masks[1:] = rng.integers(0, 2, size=(config.num_samples - 1, n_words), dtype=np.int8)

    kept = masks.sum(axis=1)
    # cosine similarity of a binary mask to the all-ones mask
    similarity = np.where(kept > 0, np.sqrt(kept / n_words), 0.0)
    distance = 1.0 - similarity
    # d^2 / width^2 overflows only where every weight below is 0, refused
    with np.errstate(over="ignore"):
        sample_weight = np.exp(-(distance ** 2) / width_squared)
    perturbed = distance > 0.0
    if perturbed.any() and not sample_weight[perturbed].any():
        raise KernelWidthError(f"kernel width {kernel_width!r} gives every perturbed "
                               "sample weight 0; the fit would see the intact text alone")

    y = np.asarray(score_masks(tokens, masks), dtype=np.float64)
    if y.shape != (config.num_samples,):
        raise ValueError(
            f"scorer returned {y.shape} scores for {config.num_samples} variants"
        )
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"scorer returned a non-finite value at sample {bad[0]}")

    coef, intercept, local_r2 = _weighted_ridge(
        masks.astype(np.float64), y, sample_weight, alpha=1.0
    )

    order = sorted(range(n_words), key=lambda i: (-abs(coef[i]), i))
    importances = [(i, float(coef[i])) for i in order[: config.num_features]]
    return Explanation(
        text=text,
        tokens=tokens,
        importances=importances,
        intercept=intercept,
        local_r2=local_r2,
    )


def _weighted_ridge(
    Z: np.ndarray, y: np.ndarray, sw: np.ndarray, alpha: float
) -> tuple[np.ndarray, float, float]:
    """Weighted ridge with unpenalized intercept; returns (coef, intercept, R^2).

    A constant y is fitted exactly by the intercept alone: all-zero
    coefficients and R^2 = 1.0.  (Its weighted mean need not round to the
    constant, which would leave tiny coefficients and R^2 = 0.)  Every
    product is an einsum, not a threaded BLAS call, and the normal
    equations are solved by `_solve_spd`, so the fit has the same bits on
    any BLAS thread count.
    """
    if np.all(y == y[0]):
        return np.zeros(Z.shape[1]), float(y[0]), 1.0
    total = sw.sum()
    z_mean = np.einsum("i,ij->j", sw, Z) / total
    y_mean = float(np.einsum("i,i->", sw, y)) / total
    Zc = Z - z_mean
    yc = y - y_mean
    weighted = Zc * sw[:, None]
    gram = np.einsum("ij,ik->jk", weighted, Zc) + alpha * np.eye(Z.shape[1])
    coef = _solve_spd(gram, np.einsum("ij,i->j", weighted, yc))
    intercept = y_mean - float(np.einsum("j,j->", z_mean, coef))
    fitted = np.einsum("ij,j->i", Z, coef) + intercept
    rss = float(np.einsum("i,i->", sw, (y - fitted) ** 2))
    tss = float(np.einsum("i,i->", sw, yc ** 2))
    if tss == 0.0:
        return coef, intercept, 1.0
    return coef, intercept, min(max(1.0 - rss / tss, 0.0), 1.0)


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, for a symmetric positive definite: the Cholesky
    factor a = L L^T, then the solves L z = b and L^T x = z, one einsum
    per row or column, each summed in a fixed order."""
    n = len(b)
    low = np.zeros_like(a)
    for j in range(n):
        row = low[j, :j]
        low[j, j] = math.sqrt(a[j, j] - np.einsum("k,k->", row, row))
        below = a[j + 1 :, j] - np.einsum("ik,k->i", low[j + 1 :, :j], row)
        low[j + 1 :, j] = below / low[j, j]
    z = np.zeros(n)
    for i in range(n):
        z[i] = (b[i] - np.einsum("k,k->", low[i, :i], z[:i])) / low[i, i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (z[i] - np.einsum("k,k->", low[i + 1 :, i], x[i + 1 :])) / low[i, i]
    return x


def explanation_json(explanation: Explanation) -> str:
    return json.dumps(
        {
            "text": explanation.text,
            "tokens": explanation.tokens,
            "importances": [
                {"word": explanation.tokens[i], "weight": weight}
                for i, weight in explanation.importances
            ],
            "intercept": explanation.intercept,
            "local_r2": explanation.local_r2,
        }
    )


def explanation_html(explanation: Explanation) -> str:
    """Snippet with per-word background intensity proportional to |weight|;
    each importance colours the token at its index."""
    import html  # only --html-out needs it; kept off every other explain call

    weight_of = dict(explanation.importances)
    peak = max((abs(w) for w in weight_of.values()), default=0.0)
    spans = []
    for i, tok in enumerate(explanation.tokens):
        weight = weight_of.get(i, 0.0)
        intensity = abs(weight) / peak if peak > 0 else 0.0
        spans.append(
            f'<span style="background-color: rgba(255,0,0,{intensity:.3f})">'
            f"{html.escape(tok)}</span>"
        )
    return '<div class="sevrank-explanation">' + " ".join(spans) + "</div>"
