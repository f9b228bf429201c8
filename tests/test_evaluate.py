import csv
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import evaluate
from sevrank.corpus import Comment, PairJudgment

IDS = [f"c{i}" for i in range(8)]


def pair(less, more):
    return PairJudgment(Comment(less, f"text {less}"), Comment(more, f"text {more}"))


# scores on a few distinct values, so ties occur, and pairs over their ids
SCORES = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0, 1e9]),
                  min_size=len(IDS), max_size=len(IDS)).map(
                      lambda v: dict(zip(IDS, v)))
PAIRS = st.lists(st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).map(
    lambda ab: pair(*ab)), min_size=1, max_size=40)


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
            assert (evaluate.pairwise_accuracy(mapped, pairs, credit)
                    == evaluate.pairwise_accuracy(scores, pairs, credit))

    @settings(max_examples=200, deadline=None)
    @given(SCORES, PAIRS)
    def test_counts_add_up(self, scores, pairs):
        report = evaluate.pairwise_accuracy(scores, pairs, tie_credit=0.5)
        wrong = sum(scores[p.more_toxic.id] < scores[p.less_toxic.id] for p in pairs)
        assert report.n_pairs == len(pairs)
        assert report.n_correct + report.n_ties + wrong == len(pairs)
        assert report.accuracy == (report.n_correct + 0.5 * report.n_ties) / len(pairs)
        assert 0.0 <= report.accuracy <= 1.0

    def test_ties_are_not_correct(self):
        scores = {"a": 0.5, "b": 0.5, "c": 0.9}
        pairs = [pair("a", "b"), pair("a", "c"), pair("c", "a")]
        report = evaluate.pairwise_accuracy(scores, pairs)
        assert (report.n_correct, report.n_ties) == (1, 1)
        assert report.accuracy == 1 / 3

    def test_missing_id(self):
        with pytest.raises(ValueError, match="no score for comment id 'b'"):
            evaluate.pairwise_accuracy({"a": 0.1}, [pair("a", "b")])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_score_names_the_comment(self, bad, side):
        scores = {"a": 0.1, "b": 0.9, "c": 0.5, side: bad}
        with pytest.raises(ValueError, match=f"score of comment id '{side}' is not a finite"):
            evaluate.pairwise_accuracy(scores, [pair("c", "c"), pair("a", "b")])

    def test_zero_pairs(self):
        with pytest.raises(ValueError, match="zero pairs"):
            evaluate.pairwise_accuracy({}, [])

    def test_report_json(self):
        report = evaluate.EvalReport(accuracy=0.75, n_pairs=4, n_correct=3, n_ties=0)
        assert json.loads(evaluate.report_json(report)) == {
            "accuracy": 0.75, "n_pairs": 4, "n_correct": 3, "n_ties": 0}


class TestRankErrors:
    @settings(max_examples=200, deadline=None)
    @given(SCORES, PAIRS, st.integers(1, 50))
    def test_worst_first_and_stable(self, scores, pairs, k):
        errors = evaluate.rank_errors(scores, pairs, k)
        wrong = [p for p in pairs
                 if scores[p.less_toxic.id] - scores[p.more_toxic.id] >= 0.0]
        assert len(errors) == min(k, len(wrong))
        margins = [e.margin for e in errors]
        assert margins == sorted(margins, reverse=True)
        for e in errors:
            assert e.margin == e.score_less - e.score_more >= 0.0
        # equal margins keep input order
        expected = sorted(wrong, key=lambda p: -(scores[p.less_toxic.id]
                                                 - scores[p.more_toxic.id]))
        assert [e.pair for e in errors] == expected[:k]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_score_names_the_comment(self, bad):
        with pytest.raises(ValueError, match="score of comment id 'b' is not a finite"):
            evaluate.rank_errors({"a": 0.1, "b": bad}, [pair("a", "b")], 5)

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate.rank_errors({"a": 0.0}, [pair("a", "a")], 0)

    def test_errors_csv(self, tmp_path):
        scores = {"a": 0.9, "b": 0.1, "c": 0.5}
        errors = evaluate.rank_errors(scores, [pair("a", "b"), pair("c", "b")], 5)
        evaluate.write_errors_csv(tmp_path / "e.csv", errors)
        with (tmp_path / "e.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "less_text", "more_text", "score_less",
                           "score_more", "margin"]
        assert rows[1] == ["1", "text a", "text b", "0.9", "0.1", repr(0.9 - 0.1)]
        assert rows[2][:3] == ["2", "text c", "text b"]
