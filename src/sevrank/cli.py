"""Command-line pipelines: sevrank <transform|train|score|evaluate|ensemble|search|explain>.

Every command is deterministic given its flags (and --seed, for search
and explain); rerunning with identical inputs produces byte-identical
outputs.  Every command that scores text goes through `score_texts`.
Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import corpus, ensemble, evaluate, explain, features, regress
from .optim import LbfgsConfig
from .textproc import PreprocessConfig, preprocess

_KIND_LOADERS = {
    "ruddit": corpus.load_ruddit,
    "jtc": corpus.load_jtc,
    "unintended": corpus.load_unintended,
    "davidson": corpus.load_davidson,
    "founta": corpus.load_founta,
}

_SEARCH_NGRAM_RANGES = ((2, 4), (3, 5), (3, 6))
_SEARCH_MAX_FEATURES = (10000, 30000, 50000)


def write_scores_csv(path: str | Path, scores: Iterable[tuple[str, float]]) -> None:
    """Scores CSV (comment_id,score) in the given order; repr floats."""
    lines = ["comment_id,score"]
    for cid, score in scores:
        lines.append(f"{_csv_quote(cid)},{score!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def read_scores_csv(path: str | Path) -> dict[str, float]:
    """comment_id -> score; every score must be a finite number."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["comment_id", "score"]:
            raise ValueError(f"{path}: expected header comment_id,score")
        out: dict[str, float] = {}
        for record, fields in enumerate(reader, start=2):
            if len(fields) != 2:
                raise ValueError(f"{path}: malformed CSV row {record}")
            if fields[0] in out:
                raise ValueError(
                    f"{path}: duplicate comment id {fields[0]!r} at row {record}"
                )
            score = _parse_score(path, record, fields[1])
            if not math.isfinite(score):
                raise ValueError(
                    f"{path}: non-finite score {fields[1]!r} at row {record}"
                )
            out[fields[0]] = score
    return out


def _parse_score(path: Path, record: int, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{path}: non-numeric score {value!r} at row {record}") from None


def read_lookup_csv(path: str | Path) -> dict[str, float]:
    """text -> score table for `explain --scores-lookup`."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["text", "score"]:
            raise ValueError(f"{path}: expected header text,score")
        lookup: dict[str, float] = {}
        for record, fields in enumerate(reader, start=2):
            if len(fields) != 2:
                raise ValueError(f"{path}: malformed CSV row {record}")
            lookup[fields[0]] = _parse_score(path, record, fields[1])
    return lookup


def _preprocess_config(args: argparse.Namespace) -> PreprocessConfig:
    return PreprocessConfig(
        lowercase=not args.no_lowercase,
        strip_urls=not args.no_strip_urls,
        expand_contractions=not args.no_contractions,
        stem=args.stem,
    )


def _add_preprocess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stem", action="store_true",
                        help="apply Porter stemming during preprocessing")
    parser.add_argument("--no-lowercase", action="store_true")
    parser.add_argument("--no-strip-urls", action="store_true")
    parser.add_argument("--no-contractions", action="store_true")


def _load_models(prefix: str) -> tuple[features.TfidfModel, regress.RidgeModel]:
    tfidf = features.load_tfidf(f"{prefix}.tfidf")
    ridge = regress.load_ridge(f"{prefix}.ridge")
    if tfidf.dim != len(ridge.weights):
        raise ValueError(
            f"vectorizer dim {tfidf.dim} does not match "
            f"regressor dim {len(ridge.weights)}"
        )
    return tfidf, ridge


def score_texts(
    tfidf: features.TfidfModel,
    ridge: regress.RidgeModel,
    pp: PreprocessConfig | None,
    texts: Sequence[str],
) -> np.ndarray:
    """Scores of `texts`, in input order.

    Each distinct text is preprocessed with `pp` (texts already
    preprocessed pass pp=None) and scored once, features.CHUNK_ROWS texts
    at a time, so no matrix of the whole input is ever held.
    """
    slot = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    distinct = list(slot)
    if pp is not None:
        distinct = [preprocess(text, pp) for text in distinct]
    scores = np.empty(len(distinct))
    for start in range(0, len(distinct), features.CHUNK_ROWS):
        X = features.transform(tfidf, distinct[start : start + features.CHUNK_ROWS])
        scores[start : start + X.shape[0]] = regress.predict(ridge, X)
    return scores[np.fromiter(map(slot.__getitem__, texts), dtype=np.int64,
                              count=len(texts))]


def _score_sides(
    tfidf: features.TfidfModel,
    ridge: regress.RidgeModel,
    pp: PreprocessConfig | None,
    sides: Sequence[corpus.Comment],
) -> dict[str, float]:
    """comment id -> score for every pair side; a repeated id keeps the
    score of its last side."""
    scores = score_texts(tfidf, ridge, pp, [side.text for side in sides])
    return dict(zip((side.id for side in sides), scores.tolist()))


def _train_on(
    texts: Sequence[str],
    y: Sequence[float],
    tfidf_config: features.TfidfConfig,
    alpha: float,
    tol: float,
    max_iter: int,
) -> tuple[features.TfidfModel, regress.RidgeModel, features.CsrBatch]:
    """Fit the vectorizer and the regressor on preprocessed texts."""
    tfidf = features.fit_tfidf(texts, tfidf_config)
    X = features.transform(tfidf, texts)
    ridge = regress.fit_ridge(X, y, alpha=alpha, tol=tol, max_iter=max_iter)
    return tfidf, ridge, X


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_transform(args: argparse.Namespace) -> int:
    examples = _KIND_LOADERS[args.kind](args.in_path)
    corpus.save_labeled(args.out, examples)
    scores = [ex.score for ex in examples]
    print(f"rows: {len(examples)}")
    print("score histogram:")
    counts, edges = np.histogram(scores, bins=10, range=(0.0, 1.0))
    for i, count in enumerate(counts):
        closer = "]" if i == 9 else ")"
        print(f"  [{edges[i]:.1f}, {edges[i + 1]:.1f}{closer}: {count}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    examples = corpus.load_labeled(args.labeled)
    if not examples:
        raise ValueError(f"{args.labeled}: no training examples")
    pp = _preprocess_config(args)
    config = features.TfidfConfig(
        n_min=args.n_min, n_max=args.n_max,
        max_features=args.max_features, min_df=args.min_df,
    )
    texts = [preprocess(ex.comment.text, pp) for ex in examples]
    y = [ex.score for ex in examples]
    tfidf, ridge, X = _train_on(texts, y, config, args.alpha, args.tol, args.max_iter)
    Path(args.out_prefix).parent.mkdir(parents=True, exist_ok=True)
    features.save_tfidf(tfidf, f"{args.out_prefix}.tfidf")
    regress.save_ridge(ridge, f"{args.out_prefix}.ridge")
    objective = regress.ridge_objective(ridge, X, y)
    print(f"training objective: {objective!r}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    pp = _preprocess_config(args)
    tfidf, ridge = _load_models(args.model_prefix)
    if args.comments:
        comments = corpus.load_comments(args.comments)
    else:
        comments = corpus.pairs_to_comments(corpus.load_pairs(args.pairs))
    scores = score_texts(tfidf, ridge, pp, [comment.text for comment in comments])
    write_scores_csv(args.out, zip((c.id for c in comments), scores.tolist()))
    print(f"scored {len(comments)} comments")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pairs = corpus.load_pairs(args.pairs)
    if args.model_prefix:
        tfidf, ridge = _load_models(args.model_prefix)
        scores = _score_sides(tfidf, ridge, _preprocess_config(args),
                              corpus.pairs_to_comments(pairs))
    else:
        scores = read_scores_csv(args.scores)
        if args.comments:
            pairs = corpus.resolve_pairs_to_ids(
                pairs, corpus.load_comments(args.comments)
            )
    report = evaluate.pairwise_accuracy(scores, pairs, tie_credit=args.tie_credit)
    print(evaluate.report_json(report))
    if args.top_errors:
        errors = evaluate.rank_errors(scores, pairs, args.top_errors)
        evaluate.write_errors_csv(args.errors_out, errors)
        print(f"wrote {len(errors)} ranked errors to {args.errors_out}",
              file=sys.stderr)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    matrix = ensemble.load_score_matrix(args.matrix)
    pairs = corpus.load_pairs(args.pairs)
    weights = ensemble.fit_weights(
        matrix, pairs, mode=args.mode, temperature=args.temperature,
        lbfgs=LbfgsConfig(max_iter=args.max_iter),
    )
    blended = ensemble.blend(matrix, weights)
    ensemble.save_weights(weights, args.out_weights)
    write_scores_csv(args.out_blend, blended)
    report = evaluate.pairwise_accuracy(dict(blended), pairs)
    print(evaluate.report_json(report))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    examples = corpus.load_labeled(args.labeled)
    if not examples:
        raise ValueError(f"{args.labeled}: no training examples")
    pairs = corpus.load_pairs(args.pairs)
    pp = _preprocess_config(args)
    # preprocess every distinct text once, ahead of the trials
    texts = [preprocess(ex.comment.text, pp) for ex in examples]
    y = [ex.score for ex in examples]
    sides = corpus.pairs_to_comments(pairs)
    clean = {t: preprocess(t, pp) for t in dict.fromkeys(s.text for s in sides)}
    sides = [corpus.Comment(id=s.id, text=clean[s.text]) for s in sides]
    rng = np.random.default_rng(args.seed)
    best = None
    for trial in range(args.trials):
        n_min, n_max = _SEARCH_NGRAM_RANGES[rng.integers(len(_SEARCH_NGRAM_RANGES))]
        max_features = _SEARCH_MAX_FEATURES[rng.integers(len(_SEARCH_MAX_FEATURES))]
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        config = features.TfidfConfig(n_min=n_min, n_max=n_max,
                                      max_features=max_features)
        tfidf, ridge, _ = _train_on(texts, y, config, alpha, 1e-8, 1000)
        scores = _score_sides(tfidf, ridge, None, sides)
        accuracy = evaluate.pairwise_accuracy(scores, pairs).accuracy
        record = {
            "trial": trial, "n_min": n_min, "n_max": n_max,
            "max_features": max_features, "alpha": alpha, "accuracy": accuracy,
        }
        print(json.dumps(record))
        if best is None or accuracy > best["accuracy"]:
            best = record
    print(json.dumps({"best": best}))
    return 0


def cmd_explain(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not args.text.strip():
        parser.error("--text must be non-empty")
    if args.model_prefix:
        tfidf, ridge = _load_models(args.model_prefix)
        pp = _preprocess_config(args)

        def scorer(variants: list[str]) -> np.ndarray:
            return score_texts(tfidf, ridge, pp, variants)
    else:
        lookup = read_lookup_csv(args.scores_lookup)

        def scorer(variants: list[str]) -> np.ndarray:
            for text in variants:
                if text not in lookup:
                    raise ValueError(f"no lookup score for variant {text!r}")
            return np.array([lookup[text] for text in variants])

    config = explain.ExplainConfig(
        num_samples=args.num_samples,
        num_features=args.num_features,
        kernel_width=args.kernel_width,
        seed=args.seed,
    )
    result = explain.lime_explain(scorer, args.text, config)
    payload = explain.explanation_json(result)
    print(payload)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
    if args.html_out:
        Path(args.html_out).write_text(
            explain.explanation_html(result) + "\n", encoding="utf-8"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevrank",
        description="Toxicity severity pipelines: transform labels, train and "
                    "evaluate severity regressors, blend model ensembles, and "
                    "explain predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for any randomized stage (default 0)")

    p = sub.add_parser("transform", help="convert a labeled dataset to severity scores")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_LOADERS))
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("train", help="fit the tf-idf + ridge severity pipeline")
    p.add_argument("--labeled", required=True)
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.tfidf and <prefix>.ridge")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--max-features", type=int, default=30000)
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=1000)
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score comments with a trained pipeline")
    p.add_argument("--model-prefix", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--comments", help="comments CSV (comment_id,text)")
    src.add_argument("--pairs", help="pairs CSV; scores both sides of each pair")
    p.add_argument("--out", required=True)
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="pairwise agreement of scores on judgment pairs")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scores", help="scores CSV (comment_id,score)")
    src.add_argument("--model-prefix", help="score pair texts with a trained pipeline")
    p.add_argument("--pairs", required=True)
    p.add_argument("--comments",
                   help="resolve pair texts against these comments' ids")
    p.add_argument("--tie-credit", type=float, default=0.0, choices=[0.0, 0.5])
    p.add_argument("--top-errors", type=int, default=0,
                   help="write the k worst-ranked pairs to --errors-out")
    p.add_argument("--errors-out", default="errors.csv")
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="fit blend weights on pairs and blend")
    p.add_argument("--matrix", required=True,
                   help="score matrix CSV (comment_id,<model>,...)")
    p.add_argument("--pairs", required=True)
    p.add_argument("--mode", default="minmax", choices=list(ensemble.NORMALIZATION_MODES))
    p.add_argument("--temperature", type=float, default=0.1)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-blend", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("search", help="random hyperparameter search for the pipeline")
    p.add_argument("--labeled", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_preprocess_flags(p)
    seed_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("explain", help="word-level explanation of one prediction")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model-prefix")
    src.add_argument("--scores-lookup",
                     help="CSV text,score mapping every masked variant to a score")
    p.add_argument("--text", required=True)
    p.add_argument("--num-samples", type=int, default=1000)
    p.add_argument("--num-features", type=int, default=10)
    p.add_argument("--kernel-width", type=float, default=None)
    p.add_argument("--json-out")
    p.add_argument("--html-out")
    _add_preprocess_flags(p)
    seed_flag(p)
    p.set_defaults(func=cmd_explain, needs_parser=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_parser", False):
            return args.func(args, parser)
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, KeyError) as exc:
        print(f"sevrank: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
