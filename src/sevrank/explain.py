"""Local explanations of a scorer's prediction on one comment.

The comment is perturbed by dropping random subsets of its words, the
(black-box) scorer rates all perturbed variants in one batched call
(`list[str] -> ndarray`, the `classifier_fn` contract of Ribeiro, Singh
and Guestrin's reference LIME, arXiv:1602.04938), and a locally weighted
ridge fit on the keep/drop indicators attributes the prediction to
individual words.  Samples closer to the intact comment (cosine
similarity of the keep-mask to the all-ones mask) get larger fit weight
through an RBF kernel.  Everything is driven by one seeded generator, so
a given (scorer, text, config) always yields the same explanation.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExplainConfig", "Explanation", "lime_explain",
           "explanation_json", "explanation_html"]


@dataclass(frozen=True)
class ExplainConfig:
    """num_samples perturbations, top num_features words reported.

    kernel_width=None resolves to 0.75 * sqrt(word count) with a floor of
    1.0 at explain time.
    """

    num_samples: int = 1000
    num_features: int = 10
    kernel_width: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 10:
            raise ValueError("num_samples must be >= 10")
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.kernel_width is not None and self.kernel_width <= 0:
            raise ValueError("kernel_width must be positive")


@dataclass(eq=False)
class Explanation:
    text: str
    tokens: list[str]
    importances: list[tuple[str, float]]  # (word, weight), |weight| descending
    intercept: float
    local_r2: float


def lime_explain(
    scorer: Callable[[Sequence[str]], np.ndarray],
    text: str,
    config: ExplainConfig = ExplainConfig(),
) -> Explanation:
    """Explain the score of `text` via word-drop perturbations.

    Tokens are the whitespace-separated words of `text`, punctuation
    kept.  Draws num_samples binary keep-masks (each word kept with
    probability 0.5; sample 0 is always the intact text) and calls
    `scorer` once with the list of all reconstructed variants, in sample
    order; it must return one finite score per variant.  Then weights
    samples by exp(-d^2 / kernel_width^2) with d the cosine distance
    between the mask and the all-ones mask, and fits a weighted ridge
    (alpha=1) of the scores on the mask indicators.  The
    num_features words with the largest absolute coefficients are
    reported, most important first.  A constant scorer yields all-zero
    importances with local_r2 = 1.0.
    """
    tokens = text.split()
    n_words = len(tokens)
    if n_words == 0:
        raise ValueError("text must contain at least one word")
    kernel_width = config.kernel_width
    if kernel_width is None:
        kernel_width = max(0.75 * math.sqrt(n_words), 1.0)

    rng = np.random.default_rng(config.seed)
    masks = np.ones((config.num_samples, n_words), dtype=np.int8)
    masks[1:] = rng.integers(0, 2, size=(config.num_samples - 1, n_words), dtype=np.int8)

    variants = [
        " ".join(tok for tok, keep in zip(tokens, mask) if keep)
        for mask in masks.tolist()
    ]
    y = np.asarray(scorer(variants), dtype=np.float64)
    if y.shape != (config.num_samples,):
        raise ValueError(
            f"scorer returned {y.shape} scores for {config.num_samples} variants"
        )
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"scorer returned a non-finite value at sample {bad[0]}")

    kept = masks.sum(axis=1)
    # cosine similarity of a binary mask to the all-ones mask
    similarity = np.where(kept > 0, np.sqrt(kept / n_words), 0.0)
    distance = 1.0 - similarity
    sample_weight = np.exp(-(distance ** 2) / kernel_width ** 2)

    coef, intercept, local_r2 = _weighted_ridge(
        masks.astype(np.float64), y, sample_weight, alpha=1.0
    )

    order = sorted(range(n_words), key=lambda i: (-abs(coef[i]), i))
    importances = [
        (tokens[i], float(coef[i])) for i in order[: config.num_features]
    ]
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
    constant, which would leave tiny coefficients and R^2 = 0.)
    """
    if np.all(y == y[0]):
        return np.zeros(Z.shape[1]), float(y[0]), 1.0
    total = sw.sum()
    z_mean = sw @ Z / total
    y_mean = float(sw @ y) / total
    Zc = Z - z_mean
    yc = y - y_mean
    gram = (Zc * sw[:, None]).T @ Zc + alpha * np.eye(Z.shape[1])
    coef = np.linalg.solve(gram, (Zc * sw[:, None]).T @ yc)
    intercept = y_mean - float(z_mean @ coef)
    fitted = Z @ coef + intercept
    rss = float(sw @ (y - fitted) ** 2)
    tss = float(sw @ yc ** 2)
    if tss == 0.0:
        return coef, intercept, 1.0
    return coef, intercept, min(max(1.0 - rss / tss, 0.0), 1.0)


def explanation_json(explanation: Explanation) -> str:
    return json.dumps(
        {
            "text": explanation.text,
            "tokens": explanation.tokens,
            "importances": [
                {"word": word, "weight": weight}
                for word, weight in explanation.importances
            ],
            "intercept": explanation.intercept,
            "local_r2": explanation.local_r2,
        }
    )


def explanation_html(explanation: Explanation) -> str:
    """Snippet with per-word background intensity proportional to |weight|."""
    weight_of: dict[int, float] = {}
    assigned: set[int] = set()
    for word, weight in explanation.importances:
        for i, tok in enumerate(explanation.tokens):
            if tok == word and i not in assigned:
                weight_of[i] = weight
                assigned.add(i)
                break
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
