"""sevrank: toxicity severity scoring and ranking toolkit.

Converts heterogeneous toxicity labels to scalar severity scores in
[0, 1], trains char n-gram ridge regressors, evaluates scorers against
pairwise "which comment is more toxic" judgments, blends multiple models
with L-BFGS-fitted weights, and explains single predictions with
perturbation-based local linear models.

Quick start::

    from sevrank import corpus, load_pipeline, pipeline, save_pipeline

    labeled = corpus.load_labeled("labeled.csv")
    model, objective = pipeline.fit(labeled.texts, labeled.scores)
    scores = model.score(["you idiot", "thanks for the help"])

A model scores raw texts, with its own preprocessing, through
`Pipeline.score`, and scores the same bits once saved and loaded.
`sevrank train` is `pipeline.fit`, then `save_pipeline`::

    save_pipeline(model, "model.pipeline")
    scores = load_pipeline("model.pipeline").score(["you idiot"])

The `sevrank` console script exposes the same pipelines as subcommands
(transform, train, score, evaluate, ensemble, search, explain).

Importing the package loads none of its submodules.  The names in
`__all__` are re-exported lazily (PEP 562): `sevrank.lime_explain`
imports `sevrank.explain` on first access, so `import sevrank` and the
numpy-free modules (`corpus`, `evaluate`, `textproc`) start without
numpy.
"""

from importlib import import_module

# The public names, by the submodule that defines them.
_EXPORTS = {
    "corpus": ("Labeled", "Pairs", "load_comments", "load_pairs",
               "transform_davidson", "transform_founta", "transform_jtc",
               "transform_ruddit", "transform_unintended"),
    "ensemble": ("EnsembleWeights", "ScoreMatrix", "blend", "fit_weights"),
    "evaluate": ("EvalReport", "pairwise_accuracy", "rank_errors"),
    "explain": ("ExplainConfig", "Explanation", "lime_explain"),
    "features": ("CsrBatch", "TfidfConfig", "TfidfModel"),
    "fitting": ("GramTable",),
    "optim": ("OptimResult", "lbfgs_minimize"),
    "pipeline": ("Pipeline", "load_pipeline", "save_pipeline"),
    "regress": ("CgReport", "RidgeModel", "fit_ridge", "predict"),
    "textproc": ("PreprocessConfig", "porter_stem", "preprocess"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Resolve a public name from its submodule, importing that on use."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
