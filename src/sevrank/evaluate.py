"""Exact pairwise agreement metric and worst-error triage.

A scorer agrees with a judgment pair when it assigns the annotated
more-toxic comment a strictly higher score; ties count as disagreement
(tallied separately).  A score that is not a finite number stops the
evaluation with the comment id, so NaN never counts as a wrong answer.
Misordered pairs can be ranked by how badly they were misordered, which
is the entry point for manual error audits.

NORMALIZATION_MODES names the ways `ensemble` can rescale score columns
before blending them; it lives here, in a numpy-free module, so the CLI
can offer the choices without importing numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import PairJudgment, write_csv

__all__ = [
    "NORMALIZATION_MODES",
    "EvalReport",
    "RankedError",
    "pairwise_accuracy",
    "rank_errors",
    "report_json",
    "write_errors_csv",
]

NORMALIZATION_MODES = ("none", "minmax", "zscore", "rank")


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    n_pairs: int
    n_correct: int
    n_ties: int


@dataclass(frozen=True)
class RankedError:
    """A misordered (or tied) pair; margin = score_less - score_more >= 0."""

    pair: PairJudgment
    score_less: float
    score_more: float
    margin: float


def _score_of(scores: Mapping[str, float], cid: str) -> float:
    if cid not in scores:
        raise ValueError(f"no score for comment id {cid!r}")
    score = scores[cid]
    if not math.isfinite(score):
        raise ValueError(f"score of comment id {cid!r} is not a finite number: {score!r}")
    return score


def pairwise_accuracy(
    scores: Mapping[str, float],
    pairs: Sequence[PairJudgment],
    tie_credit: float = 0.0,
) -> EvalReport:
    """Fraction of pairs ranked in agreement with the annotator.

    A pair is correct iff score(more_toxic) > score(less_toxic) strictly.
    tie_credit (0 by default, 0.5 for sensitivity analysis) awards ties a
    partial score without counting them as correct.
    """
    if len(pairs) == 0:
        raise ValueError("cannot evaluate zero pairs")
    n_correct = 0
    n_ties = 0
    for pair in pairs:
        less = _score_of(scores, pair.less_toxic.id)
        more = _score_of(scores, pair.more_toxic.id)
        if more > less:
            n_correct += 1
        elif more == less:
            n_ties += 1
    accuracy = (n_correct + tie_credit * n_ties) / len(pairs)
    return EvalReport(
        accuracy=accuracy,
        n_pairs=len(pairs),
        n_correct=n_correct,
        n_ties=n_ties,
    )


def rank_errors(
    scores: Mapping[str, float],
    pairs: Sequence[PairJudgment],
    k: int,
) -> list[RankedError]:
    """The k worst misordered pairs, largest margin first.

    Collects every pair with margin >= 0 (wrong or tied), sorts by margin
    descending with first-occurrence order breaking ties, and returns the
    first min(k, count).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    errors = []
    for pair in pairs:
        less = _score_of(scores, pair.less_toxic.id)
        more = _score_of(scores, pair.more_toxic.id)
        margin = less - more
        if margin >= 0.0:
            errors.append(
                RankedError(
                    pair=pair, score_less=less, score_more=more, margin=margin
                )
            )
    errors.sort(key=lambda e: -e.margin)  # stable: ties keep input order
    return errors[:k]


def report_json(report: EvalReport) -> str:
    return json.dumps(
        {
            "accuracy": report.accuracy,
            "n_pairs": report.n_pairs,
            "n_correct": report.n_correct,
            "n_ties": report.n_ties,
        }
    )


def write_errors_csv(path: str | Path, errors: Sequence[RankedError]) -> None:
    """Ranked-error listing: rank,less_text,more_text,score_less,score_more,margin."""
    write_csv(
        path,
        ("rank", "less_text", "more_text", "score_less", "score_more", "margin"),
        (
            (str(rank), err.pair.less_toxic.text, err.pair.more_toxic.text,
             repr(err.score_less), repr(err.score_more), repr(err.margin))
            for rank, err in enumerate(errors, start=1)
        ),
    )
