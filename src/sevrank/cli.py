"""Command-line pipelines: sevrank <transform|train|score|evaluate|ensemble|search|explain>.

Every command is deterministic given its flags (and --seed, for search
and explain); rerunning with identical inputs produces byte-identical
outputs, whatever the BLAS thread count.  Every command that scores text
with a saved model goes through `pipeline.Pipeline.score`, except
`explain`, whose word-drop variants the model scores as keep masks
(`pipeline.Pipeline.score_masks`).  Exit codes: 0 on success, 1 on
runtime failure, 2 on usage errors.  A ridge fit whose conjugate
gradient, or a blend fit whose L-BFGS, stops before its tolerance prints
one `warning:` line on stderr.

`train` is `pipeline.fit` of the labeled file, with its flags as
`fit`'s arguments, then `pipeline.save_pipeline`: it saves the
preprocessing switches with the model in one `<prefix>.pipeline` file,
which `score`, `evaluate` and `explain` use.  `search` prints the record
of each trial `fitting.search` draws and fits, all from one split of the
texts, then the best of them.

Commands import on use.  This module loads only the standard library and
the numpy-free modules (`corpus`, `evaluate`, `textproc`); a command or
helper that needs numpy imports it, with `features`, `regress`,
`pipeline`, `fitting`, `ensemble`, `explain` or `optim`, where it runs.
So `transform` and `evaluate --scores` never import numpy, only `train`
and `search` load the fit code (`fitting`), and each process pays only
for the modules its command runs.

`entry`, which the `sevrank` script and `python -m sevrank.cli` run, turns
the cyclic garbage collector off and freezes every object before the
process exits.  A command lives for one call and makes few reference
cycles, so the collections that would run while numpy imports and the
command works find next to nothing to free.  The collections CPython runs
while it shuts the interpreter down would walk every object numpy and
`sevrank` made; frozen objects sit in the permanent generation, which
those skip.  `main` leaves the collector as it finds it, so a caller in
its own process (the tests, a traced benchmark) keeps its collector.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import corpus, evaluate
# `preprocess` is bound here, unused, so that a tracer patching it in this
# module (bench/spans.py) finds it
from .textproc import PreprocessConfig, preprocess  # noqa: F401

if TYPE_CHECKING:
    from . import optim, regress

_KIND_LOADERS = {
    "ruddit": corpus.load_ruddit,
    "jtc": corpus.load_jtc,
    "unintended": corpus.load_unintended,
    "davidson": corpus.load_davidson,
    "founta": corpus.load_founta,
}


def write_scores_csv(path: str | Path, ids: Sequence[str], scores: Sequence[float]) -> None:
    """Scores CSV (comment_id,score): row i holds ids[i] and repr(scores[i])."""
    corpus.write_columns(path, ("comment_id", "score"), (ids, list(map(repr, scores))))


def read_scores_csv(path: str | Path, key: str = "comment_id") -> dict[str, float]:
    """`key` column -> score: comment ids, or the texts of `explain
    --scores-lookup`.  Keys must be unique and scores finite numbers."""
    columns, rows = corpus.read_csv(path, (key, "score"))
    key_col, score_col = columns[key], columns["score"]
    keys = [fields[key_col] for fields in rows]
    corpus.unique_ids(path, keys, key.replace("_", " "))
    return {
        k: corpus.number(path, record, "score", fields[score_col])
        for record, (k, fields) in enumerate(zip(keys, rows), start=2)
    }


def _preprocess_config(args: argparse.Namespace) -> PreprocessConfig:
    return PreprocessConfig(
        lowercase=not args.no_lowercase,
        strip_urls=not args.no_strip_urls,
        expand_contractions=not args.no_contractions,
        stem=args.stem,
    )


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _non_blank(text: str) -> str:
    """argparse type: a string holding a non-whitespace character."""
    if not text.strip():
        raise argparse.ArgumentTypeError("must be non-empty")
    return text


def _add_preprocess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stem", action="store_true",
                        help="apply Porter stemming during preprocessing")
    parser.add_argument("--no-lowercase", action="store_true")
    parser.add_argument("--no-strip-urls", action="store_true")
    parser.add_argument("--no-contractions", action="store_true")


def _warn_unconverged(solver: regress.CgReport | optim.OptimResult, what: str) -> None:
    """One stderr line when a ridge fit's CG or a blend fit's L-BFGS
    stopped before its tolerance."""
    if solver.converged:
        return
    if hasattr(solver, "rel_residual"):  # a CgReport; an OptimResult has grad_norm
        method, health = "conjugate gradient", f"relative residual {solver.rel_residual:.3g}"
    else:
        method, health = "L-BFGS", f"gradient max-norm {solver.grad_norm:.3g}"
    print(f"sevrank: warning: {what}: {method} stopped after {solver.iterations} "
          f"iterations without converging ({health})", file=sys.stderr)


def score_histogram(scores: Iterable[float]) -> tuple[list[int], list[float]]:
    """Counts in ten equal bins over [0, 1], and the eleven bin edges.

    Equal to np.histogram(scores, bins=10, range=(0.0, 1.0)): values
    outside [0, 1] (and NaN) are left out, a value goes to the bin of the
    last edge at or below it, and the last bin is closed.
    """
    edges = [i * 0.1 for i in range(10)] + [1.0]
    counts = [0] * 10
    for v in scores:
        if 0.0 <= v <= 1.0:
            counts[min(bisect.bisect_right(edges, v), 10) - 1] += 1
    return counts, edges


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_transform(args: argparse.Namespace) -> int:
    labeled = _KIND_LOADERS[args.kind](args.in_path)
    corpus.save_labeled(args.out, labeled)
    print(f"rows: {len(labeled)}")
    print("score histogram:")
    counts, edges = score_histogram(labeled.scores)
    for i, count in enumerate(counts):
        closer = "]" if i == 9 else ")"
        print(f"  [{edges[i]:.1f}, {edges[i + 1]:.1f}{closer}: {count}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    # `fitting`, which `pipeline.fit` imports, is loaded before the texts
    # are read: loaded after them, its objects raised the peak RSS of a
    # 1000-document train by 0.2 MB
    from . import features, fitting, pipeline  # noqa: F401

    labeled = corpus.load_labeled(args.labeled)
    if not labeled:
        raise ValueError(f"{args.labeled}: no training examples")
    model, objective = pipeline.fit(
        labeled.texts, labeled.scores, preprocess=_preprocess_config(args),
        tfidf=features.TfidfConfig(n_min=args.n_min, n_max=args.n_max,
                                   max_features=args.max_features, min_df=args.min_df),
        alpha=args.alpha, tol=args.tol, max_iter=args.max_iter)
    _warn_unconverged(model.ridge.solver, "train")
    Path(args.out_prefix).parent.mkdir(parents=True, exist_ok=True)
    pipeline.save_pipeline(model, f"{args.out_prefix}.pipeline")
    print(f"training objective: {objective!r}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from . import pipeline

    model = pipeline.load_pipeline(f"{args.model_prefix}.pipeline")
    if args.comments:
        ids, texts = corpus.load_comments(args.comments)
    else:
        pairs = corpus.load_pairs(args.pairs)
        ids, texts = pairs.ids, pairs.texts
    write_scores_csv(args.out, ids, model.score(texts).tolist())
    print(f"scored {len(ids)} comments")
    return 0


def _judgment_pairs(path: str) -> corpus.Pairs:
    """The pairs of a `--pairs` file that a command evaluates on; a file
    with no pairs is refused by name."""
    pairs = corpus.load_pairs(path)
    if not pairs:
        raise ValueError(f"{path}: no pairs")
    return pairs


def cmd_evaluate(args: argparse.Namespace) -> int:
    pairs = _judgment_pairs(args.pairs)
    if args.model_prefix:
        from . import pipeline
        model = pipeline.load_pipeline(f"{args.model_prefix}.pipeline")
        scores = model.score(pairs.texts).tolist()
    else:
        score_of = read_scores_csv(args.scores)
        if args.comments:
            pairs = corpus.resolve_pairs_to_ids(pairs, *corpus.load_comments(args.comments))
        scores = evaluate.scores_for(pairs.ids, score_of)
    report = evaluate.pairwise_accuracy(pairs.ids, scores, tie_credit=args.tie_credit)
    print(evaluate.report_json(report))
    if args.top_errors:
        errors = evaluate.rank_errors(pairs.ids, scores, args.top_errors)
        evaluate.write_errors_csv(args.errors_out, errors, pairs, scores)
        print(f"wrote {len(errors)} ranked errors to {args.errors_out}",
              file=sys.stderr)
    return 0


def cmd_ensemble(args: argparse.Namespace) -> int:
    """Fit blend weights on the pairs, blend every matrix row, and print the
    blend's accuracy on the same pairs.  That accuracy is in-sample: it is
    measured on the pairs the weights were fitted on."""
    from . import ensemble

    matrix = ensemble.load_score_matrix(args.matrix)
    # only the side ids are kept; the texts are freed here
    side_ids = _judgment_pairs(args.pairs).ids
    normalized = ensemble.normalize_scores(matrix, args.mode)
    rows = ensemble.pair_rows(matrix, side_ids)
    weights = ensemble.fit_weights(
        matrix, side_ids, mode=args.mode, temperature=args.temperature,
        max_iter=args.max_iter, normalized=normalized, rows=rows,
    )
    _warn_unconverged(weights.solver, "ensemble")
    blended = ensemble.blend(matrix, weights, normalized=normalized)
    ensemble.save_weights(weights, args.out_weights)
    write_scores_csv(args.out_blend, matrix.comment_ids, blended.tolist())
    report = evaluate.pairwise_accuracy(side_ids, blended[rows].tolist())
    print(evaluate.report_json(report))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from . import fitting

    labeled = corpus.load_labeled(args.labeled)
    if not labeled:
        raise ValueError(f"{args.labeled}: no training examples")
    pairs = _judgment_pairs(args.pairs)
    best = None
    for record, solver in fitting.search(labeled.texts, labeled.scores, pairs,
                                         _preprocess_config(args), args.trials, args.seed):
        _warn_unconverged(solver, f"search trial {record['trial']}")
        print(json.dumps(record))
        if best is None or record["accuracy"] > best["accuracy"]:
            best = record
    print(json.dumps({"best": best}))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    import numpy as np

    from . import explain

    config = explain.ExplainConfig(
        num_samples=args.num_samples,
        num_features=args.num_features,
        kernel_width=args.kernel_width,
        seed=args.seed,
    )
    try:
        if args.model_prefix:
            from . import pipeline
            model = pipeline.load_pipeline(f"{args.model_prefix}.pipeline")
            result = explain.lime_explain_masks(model.score_masks, args.text, config)
        else:
            lookup = read_scores_csv(args.scores_lookup, "text")

            def scorer(variants: list[str]) -> np.ndarray:
                for text in variants:
                    if text not in lookup:
                        raise ValueError(f"no lookup score for variant {text!r}")
                return np.array([lookup[text] for text in variants])

            result = explain.lime_explain(scorer, args.text, config)
    except explain.KernelWidthError as exc:
        raise ValueError(f"--kernel-width: {exc}") from None
    except explain.SampleCountError as exc:
        raise ValueError(f"--num-samples: {exc}") from None
    payload = explain.explanation_json(result)
    # encoded before anything is printed or written, so a failure leaves no
    # empty or partial file
    page = None
    if args.html_out:
        try:
            page = (explain.explanation_html(result) + "\n").encode("utf-8")
        except UnicodeEncodeError as exc:
            # the page holds the tokens in order: the first token holding
            # the character is the one the page failed at
            char = exc.object[exc.start]
            token = next(tok for tok in result.tokens if char in tok)
            raise ValueError(f"{args.html_out}: token {token!r} holds {char!r}, a lone "
                             "surrogate, which UTF-8 cannot encode") from None
    print(payload)
    if args.json_out:
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")
    if page is not None:
        Path(args.html_out).write_bytes(page)
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
                   help="writes <prefix>.pipeline")
    p.add_argument("--n-min", type=_int_at_least(1), default=3)
    p.add_argument("--n-max", type=_int_at_least(1), default=5)
    p.add_argument("--max-features", type=_int_at_least(1), default=30000)
    p.add_argument("--min-df", type=_int_at_least(1), default=1)
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--max-iter", type=_int_at_least(1), default=1000)
    _add_preprocess_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score comments with a trained pipeline")
    p.add_argument("--model-prefix", required=True, help="reads <prefix>.pipeline")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--comments", help="comments CSV (comment_id,text)")
    src.add_argument("--pairs", help="pairs CSV; scores both sides of each pair")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="pairwise agreement of scores on judgment pairs")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scores", help="scores CSV (comment_id,score)")
    src.add_argument("--model-prefix", help="score pair texts with a trained pipeline")
    p.add_argument("--pairs", required=True)
    p.add_argument("--comments",
                   help="with --scores: resolve pair texts against these comments' ids")
    p.add_argument("--tie-credit", type=float, default=0.0, choices=[0.0, 0.5])
    p.add_argument("--top-errors", type=_int_at_least(0), default=0,
                   help="write the k worst-ranked pairs to --errors-out")
    p.add_argument("--errors-out", default="errors.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "ensemble", help="fit blend weights on pairs and blend",
        description="Fit blend weights on judgment pairs and blend the matrix. The "
                    "printed accuracy is in-sample: it is measured on the pairs the "
                    "weights were fitted on.")
    p.add_argument("--matrix", required=True,
                   help="score matrix CSV (comment_id,<model>,...)")
    p.add_argument("--pairs", required=True)
    p.add_argument("--mode", default="minmax", choices=evaluate.NORMALIZATION_MODES)
    p.add_argument("--temperature", type=_positive_float, default=0.1)
    p.add_argument("--max-iter", type=_int_at_least(1), default=200)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-blend", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("search", help="random hyperparameter search for the pipeline")
    p.add_argument("--labeled", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    _add_preprocess_flags(p)
    seed_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("explain", help="word-level explanation of one prediction")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model-prefix")
    src.add_argument("--scores-lookup",
                     help="CSV text,score mapping every masked variant to a score")
    p.add_argument("--text", type=_non_blank, required=True)
    p.add_argument("--num-samples", type=_int_at_least(10), default=1000,
                   help="perturbed samples to draw, 10 to 100000 (default 1000)")
    p.add_argument("--num-features", type=_int_at_least(1), default=10)
    p.add_argument("--kernel-width", type=_positive_float, default=None)
    p.add_argument("--json-out")
    p.add_argument("--html-out")
    seed_flag(p)
    p.set_defaults(func=cmd_explain)

    return parser


def _flag_conflict(args: argparse.Namespace) -> str | None:
    """Why a command's flags do not go together, if they do not."""
    if args.command == "train" and args.n_min > args.n_max:
        return f"--n-min {args.n_min} is above --n-max {args.n_max}"
    if args.command == "evaluate" and args.comments and not args.scores:
        return "--comments resolves the pairs for --scores; it needs --scores"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    conflict = _flag_conflict(args)
    if conflict:
        parser.error(conflict)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"sevrank: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The process entry (the `sevrank` script and `python -m sevrank.cli`):
    `main` with the cyclic collector off, and every object frozen before
    the interpreter exits (see the module docstring)."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
