"""sevrank: toxicity severity scoring and ranking toolkit.

Converts heterogeneous toxicity labels to scalar severity scores in
[0, 1], trains char n-gram ridge regressors, evaluates scorers against
pairwise "which comment is more toxic" judgments, blends multiple models
with L-BFGS-fitted weights, and explains single predictions with
perturbation-based local linear models.

Quick start::

    from sevrank import corpus, features, regress, evaluate
    from sevrank.textproc import preprocess

    examples = corpus.load_labeled("labeled.csv")
    texts = [preprocess(ex.comment.text) for ex in examples]
    tfidf = features.fit_tfidf(texts)
    model = regress.fit_ridge(
        features.transform(tfidf, texts),
        [ex.score for ex in examples],
    )
    scores = regress.predict(model, features.transform(tfidf, texts))

The `sevrank` console script exposes the same pipelines as subcommands
(transform, train, score, evaluate, ensemble, search, explain).
"""

from .corpus import (
    Comment,
    DavidsonCounts,
    JtcLabels,
    LabeledExample,
    PairJudgment,
    load_comments,
    load_pairs,
    transform_davidson,
    transform_founta,
    transform_jtc,
    transform_ruddit,
    transform_unintended,
)
from .ensemble import EnsembleWeights, ScoreMatrix, blend, fit_weights
from .evaluate import EvalReport, RankedError, pairwise_accuracy, rank_errors
from .explain import ExplainConfig, Explanation, lime_explain
from .features import CsrBatch, TfidfConfig, TfidfModel, fit_tfidf, transform
from .optim import LbfgsConfig, OptimResult, check_gradient, lbfgs_minimize
from .regress import RidgeModel, fit_ridge, predict
from .textproc import PreprocessConfig, char_wb_ngrams, porter_stem, preprocess

__version__ = "0.1.0"

__all__ = [
    "Comment",
    "CsrBatch",
    "DavidsonCounts",
    "EnsembleWeights",
    "EvalReport",
    "ExplainConfig",
    "Explanation",
    "JtcLabels",
    "LabeledExample",
    "LbfgsConfig",
    "OptimResult",
    "PairJudgment",
    "PreprocessConfig",
    "RankedError",
    "RidgeModel",
    "ScoreMatrix",
    "TfidfConfig",
    "TfidfModel",
    "blend",
    "char_wb_ngrams",
    "check_gradient",
    "fit_ridge",
    "fit_tfidf",
    "fit_weights",
    "lbfgs_minimize",
    "lime_explain",
    "load_comments",
    "load_pairs",
    "pairwise_accuracy",
    "porter_stem",
    "predict",
    "preprocess",
    "rank_errors",
    "transform",
    "transform_davidson",
    "transform_founta",
    "transform_jtc",
    "transform_ruddit",
    "transform_unintended",
]
