"""Exact pairwise agreement metric and worst-error triage.

A scorer agrees with a judgment pair when it assigns the annotated
more-toxic comment a strictly higher score; ties count as disagreement
(tallied separately).  Scores come as one flat list in the side order of
`corpus.Pairs`: scores[2i] is pair i's less-toxic side and scores[2i + 1]
its more-toxic side, with `ids` naming the sides.  A score that is not a
finite number stops the evaluation with the comment id of the first such
side, so NaN never counts as a wrong answer.  Misordered pairs can be
ranked by how badly they were misordered, which is the entry point for
manual error audits: `rank_errors` gives the pair indices, worst first,
and `write_errors_csv` reads each one's texts from the pairs and its
scores and margin from the flat scores.

NORMALIZATION_MODES names the ways `ensemble` can rescale score columns
before blending them; it lives here, in a numpy-free module, so the CLI
can offer the choices without importing numpy.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import Pairs, write_columns

__all__ = [
    "NORMALIZATION_MODES",
    "EvalReport",
    "pairwise_accuracy",
    "rank_errors",
    "report_json",
    "write_errors_csv",
]

NORMALIZATION_MODES = ("none", "minmax", "zscore", "rank")


class EvalReport(NamedTuple):
    accuracy: float
    n_pairs: int
    n_correct: int
    n_ties: int


def scores_for(ids: Sequence[str], scores: Mapping[str, float]) -> list[float]:
    """The score of every side id, in order; the first id without one is named."""
    try:
        return [scores[cid] for cid in ids]
    except KeyError as exc:
        raise ValueError(f"no score for comment id {exc.args[0]!r}") from None


def _check_finite(ids: Sequence[str], scores: Sequence[float]) -> None:
    if not all(map(math.isfinite, scores)):
        cid, score = next((cid, score) for cid, score in zip(ids, scores)
                          if not math.isfinite(score))
        raise ValueError(f"score of comment id {cid!r} is not a finite number: {score!r}")


def pairwise_accuracy(
    ids: Sequence[str],
    scores: Sequence[float],
    tie_credit: float = 0.0,
) -> EvalReport:
    """Fraction of pairs ranked in agreement with the annotator.

    A pair is correct iff its more-toxic side scores strictly higher than
    its less-toxic side.  tie_credit (0 by default, 0.5 for sensitivity
    analysis) awards ties a partial score without counting them as
    correct.
    """
    n_pairs = len(scores) // 2
    if n_pairs == 0:
        raise ValueError("cannot evaluate zero pairs")
    _check_finite(ids, scores)
    less, more = scores[0::2], scores[1::2]
    n_correct = sum(map(operator.gt, more, less))
    n_ties = sum(map(operator.eq, more, less))
    return EvalReport(
        accuracy=(n_correct + tie_credit * n_ties) / n_pairs,
        n_pairs=n_pairs,
        n_correct=n_correct,
        n_ties=n_ties,
    )


def rank_errors(ids: Sequence[str], scores: Sequence[float], k: int) -> list[int]:
    """The indices of the k worst misordered pairs, largest margin first.

    Pair i's margin is scores[2i] - scores[2i + 1] (less-toxic minus
    more-toxic side).  Collects every pair with margin >= 0 (wrong or
    tied), sorts by margin descending with first-occurrence order breaking
    ties, and returns the first min(k, count) pair indices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_finite(ids, scores)
    margins = list(map(operator.sub, scores[0::2], scores[1::2]))
    wrong = [i for i, margin in enumerate(margins) if margin >= 0.0]
    wrong.sort(key=lambda i: -margins[i])  # stable: ties keep input order
    return wrong[:k]


def report_json(report: EvalReport) -> str:
    return json.dumps(report._asdict())


def write_errors_csv(path: str | Path, errors: Sequence[int], pairs: Pairs,
                     scores: Sequence[float]) -> None:
    """Ranked-error listing: rank,less_text,more_text,score_less,score_more,margin.

    `errors` holds pair indices, as `rank_errors` returns them; pair i's
    texts are read from `pairs` and its side scores from the flat
    `scores` (sides 2i and 2i + 1), with margin = score_less - score_more.
    """
    less = [scores[2 * i] for i in errors]
    more = [scores[2 * i + 1] for i in errors]
    write_columns(
        path,
        ("rank", "less_text", "more_text", "score_less", "score_more", "margin"),
        (
            [str(rank) for rank in range(1, len(errors) + 1)],
            [pairs.texts[2 * i] for i in errors],
            [pairs.texts[2 * i + 1] for i in errors],
            list(map(repr, less)),
            list(map(repr, more)),
            list(map(repr, map(operator.sub, less, more))),
        ),
    )
