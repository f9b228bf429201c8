import csv
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import evaluate
from sevrank.corpus import Pairs

IDS = [f"c{i}" for i in range(8)]


def pairs_of(*sides):
    """Pairs over comment ids, given as (less, more) tuples; text is 'text <id>'."""
    ids = [cid for side in sides for cid in side]
    return Pairs(ids=ids, texts=[f"text {cid}" for cid in ids])


def side_scores(scores, pairs):
    return evaluate.scores_for(pairs.ids, scores)


def accuracy(scores, pairs, tie_credit=0.0):
    return evaluate.pairwise_accuracy(pairs.ids, side_scores(scores, pairs), tie_credit)


def errors_of(scores, pairs, k):
    return evaluate.rank_errors(pairs.ids, side_scores(scores, pairs), k)


# The per-pair loop, keyed by comment id, that flat side scores replaced;
# kept as the reference the flat evaluation must equal.

def _ref_score_of(scores, cid):
    if cid not in scores:
        raise ValueError(f"no score for comment id {cid!r}")
    score = scores[cid]
    if not math.isfinite(score):
        raise ValueError(f"score of comment id {cid!r} is not a finite number: {score!r}")
    return score


def ref_accuracy(scores, pair_ids, tie_credit):
    if not pair_ids:
        raise ValueError("cannot evaluate zero pairs")
    n_correct = n_ties = 0
    for less_id, more_id in pair_ids:
        less = _ref_score_of(scores, less_id)
        more = _ref_score_of(scores, more_id)
        if more > less:
            n_correct += 1
        elif more == less:
            n_ties += 1
    return evaluate.EvalReport(accuracy=(n_correct + tie_credit * n_ties) / len(pair_ids),
                               n_pairs=len(pair_ids), n_correct=n_correct, n_ties=n_ties)


def ref_rank_errors(scores, pair_ids, k):
    errors = []
    for i, (less_id, more_id) in enumerate(pair_ids):
        less = _ref_score_of(scores, less_id)
        more = _ref_score_of(scores, more_id)
        if less - more >= 0.0:
            errors.append((i, less, more, less - more))
    errors.sort(key=lambda e: -e[3])  # stable: ties keep input order
    return errors[:k]


def errors_csv_rows(path, errors, pairs, flat):
    """The data rows of the errors CSV written for `errors`."""
    evaluate.write_errors_csv(path, errors, pairs, flat)
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def bits(value):
    return (value, math.copysign(1.0, value))


# scores on a few distinct values, so ties occur, and pairs over their ids
SCORES = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0, 1e9]),
                  min_size=len(IDS), max_size=len(IDS)).map(
                      lambda v: dict(zip(IDS, v)))
PAIR_IDS = st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)),
                    min_size=1, max_size=40)
PAIRS = PAIR_IDS.map(lambda ids: pairs_of(*ids))


class TestEqualsThePerPairReference:
    @settings(max_examples=300, deadline=None)
    @given(SCORES, PAIR_IDS, st.sampled_from([0.0, 0.5]), st.integers(1, 50))
    def test_accuracy_and_ranked_errors(self, tmp_path_factory, scores, pair_ids,
                                        credit, k):
        pairs = pairs_of(*pair_ids)
        flat = side_scores(scores, pairs)
        assert (evaluate.pairwise_accuracy(pairs.ids, flat, credit)
                == ref_accuracy(scores, pair_ids, credit))
        errors = evaluate.rank_errors(pairs.ids, flat, k)
        want = ref_rank_errors(scores, pair_ids, k)
        assert errors == [i for i, *_ in want]
        # the CSV's scores and margin, down to the sign of a zero margin
        rows = errors_csv_rows(tmp_path_factory.mktemp("errors") / "e.csv", errors,
                               pairs, flat)
        assert [(row[:3], *map(bits, map(float, row[3:]))) for row in rows] == [
            ([str(rank), pairs.texts[2 * i], pairs.texts[2 * i + 1]], *map(bits, rest))
            for rank, (i, *rest) in enumerate(want, start=1)]

    @settings(max_examples=100, deadline=None)
    @given(SCORES, PAIR_IDS, st.sampled_from(IDS), st.sampled_from(
        [float("nan"), float("inf"), float("-inf")]))
    def test_the_same_side_is_named_for_a_non_finite_score(self, scores, pair_ids,
                                                            bad_id, bad):
        scores = {**scores, bad_id: bad}
        pairs = pairs_of(*pair_ids)
        flat = side_scores(scores, pairs)
        assert (outcome(lambda: evaluate.pairwise_accuracy(pairs.ids, flat))
                == outcome(lambda: ref_accuracy(scores, pair_ids, 0.0)))
        assert (outcome(lambda: evaluate.rank_errors(pairs.ids, flat, 5))
                == outcome(lambda: [i for i, *_ in ref_rank_errors(scores, pair_ids, 5)]))


class TestPairwiseAccuracy:
    @settings(max_examples=200, deadline=None)
    @given(SCORES, PAIRS, st.data())
    def test_unchanged_by_a_strictly_increasing_map(self, scores, pairs, data):
        values = sorted(set(scores.values()))
        # any strictly increasing map, restricted to the values that occur
        images = sorted(data.draw(st.lists(
            st.floats(-1e12, 1e12), min_size=len(values), max_size=len(values),
            unique=True)))
        image = dict(zip(values, images))
        mapped = {cid: image[score] for cid, score in scores.items()}
        for credit in (0.0, 0.5):
            assert accuracy(mapped, pairs, credit) == accuracy(scores, pairs, credit)

    @settings(max_examples=200, deadline=None)
    @given(SCORES, PAIRS)
    def test_counts_add_up(self, scores, pairs):
        report = accuracy(scores, pairs, tie_credit=0.5)
        wrong = sum(scores[more] < scores[less]
                    for less, more in zip(pairs.ids[0::2], pairs.ids[1::2]))
        assert report.n_pairs == len(pairs)
        assert report.n_correct + report.n_ties + wrong == len(pairs)
        assert report.accuracy == (report.n_correct + 0.5 * report.n_ties) / len(pairs)
        assert 0.0 <= report.accuracy <= 1.0

    def test_ties_are_not_correct(self):
        scores = {"a": 0.5, "b": 0.5, "c": 0.9}
        report = accuracy(scores, pairs_of(("a", "b"), ("a", "c"), ("c", "a")))
        assert (report.n_correct, report.n_ties) == (1, 1)
        assert report.accuracy == 1 / 3

    def test_missing_id(self):
        with pytest.raises(ValueError, match="no score for comment id 'b'"):
            accuracy({"a": 0.1}, pairs_of(("a", "b")))

    def test_first_missing_side_in_flat_order_is_named(self):
        pairs = pairs_of(("a", "b"), ("c", "d"), ("e", "f"))
        with pytest.raises(ValueError, match="no score for comment id 'd'"):
            evaluate.scores_for(pairs.ids, {"a": 0.1, "b": 0.2, "c": 0.3})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_score_names_the_comment(self, bad, side):
        scores = {"a": 0.1, "b": 0.9, "c": 0.5, side: bad}
        with pytest.raises(ValueError, match=f"score of comment id '{side}' is not a finite"):
            accuracy(scores, pairs_of(("c", "c"), ("a", "b")))

    def test_zero_pairs(self):
        with pytest.raises(ValueError, match="zero pairs"):
            evaluate.pairwise_accuracy([], [])

    def test_report_json(self):
        report = evaluate.EvalReport(accuracy=0.75, n_pairs=4, n_correct=3, n_ties=0)
        assert json.loads(evaluate.report_json(report)) == {
            "accuracy": 0.75, "n_pairs": 4, "n_correct": 3, "n_ties": 0}


class TestRankErrors:
    @settings(max_examples=200, deadline=None)
    @given(SCORES, PAIRS, st.integers(1, 50))
    def test_worst_first_and_stable(self, scores, pairs, k):
        errors = errors_of(scores, pairs, k)
        margin = [scores[less] - scores[more]
                  for less, more in zip(pairs.ids[0::2], pairs.ids[1::2])]
        wrong = [i for i in range(len(pairs)) if margin[i] >= 0.0]
        assert len(errors) == min(k, len(wrong))
        margins = [margin[i] for i in errors]
        assert margins == sorted(margins, reverse=True)
        assert all(m >= 0.0 for m in margins)
        # equal margins keep input order
        expected = sorted(wrong, key=lambda i: -margin[i])
        assert errors == expected[:k]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_names_the_comment(self, bad):
        with pytest.raises(ValueError, match="score of comment id 'b' is not a finite"):
            errors_of({"a": 0.1, "b": bad}, pairs_of(("a", "b")), 5)

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            errors_of({"a": 0.0}, pairs_of(("a", "a")), 0)

    def test_errors_csv(self, tmp_path):
        scores = {"a": 0.9, "b": 0.1, "c": 0.5}
        pairs = pairs_of(("a", "b"), ("c", "b"))
        errors = errors_of(scores, pairs, 5)
        evaluate.write_errors_csv(tmp_path / "e.csv", errors, pairs,
                                  side_scores(scores, pairs))
        with (tmp_path / "e.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "less_text", "more_text", "score_less",
                           "score_more", "margin"]
        assert rows[1] == ["1", "text a", "text b", "0.9", "0.1", repr(0.9 - 0.1)]
        assert rows[2][:3] == ["2", "text c", "text b"]
