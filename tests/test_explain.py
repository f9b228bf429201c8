import re

import numpy as np
import pytest

from sevrank.explain import ExplainConfig, Explanation, explanation_html, lime_explain


class RecordingScorer:
    """Batched scorer: counts calls, scores a variant by its toxic words."""

    def __init__(self, weights=None):
        self.weights = weights or {"idiot": 1.0, "stupid": 0.5}
        self.batches = []

    def __call__(self, variants):
        self.batches.append(list(variants))
        return np.array([
            sum(self.weights.get(w, 0.0) for w in v.split()) for v in variants
        ])


CONFIG = ExplainConfig(num_samples=200, num_features=3, seed=5)


class TestTokens:
    def test_whitespace_split(self):
        assert lime_explain(RecordingScorer(), "a  b", CONFIG).tokens == ["a", "b"]

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one word"):
            lime_explain(RecordingScorer(), "", CONFIG)

    def test_punctuation_retained(self):
        result = lime_explain(RecordingScorer(), "f*** you!", CONFIG)
        assert result.tokens == ["f***", "you!"]


class TestBatchedScorer:
    def test_called_once_with_every_variant(self):
        scorer = RecordingScorer()
        lime_explain(scorer, "you stupid little idiot", CONFIG)
        assert len(scorer.batches) == 1
        variants = scorer.batches[0]
        assert len(variants) == CONFIG.num_samples
        assert variants[0] == "you stupid little idiot"
        assert all(set(v.split()) <= {"you", "stupid", "little", "idiot"}
                   for v in variants)

    def test_attributes_the_toxic_words(self):
        result = lime_explain(RecordingScorer(), "you stupid little idiot", CONFIG)
        words = [w for w, _ in result.importances]
        assert words[:2] == ["idiot", "stupid"]
        assert result.local_r2 == pytest.approx(1.0, abs=1e-3)

    def test_non_finite_score_names_the_sample(self):
        def scorer(variants):
            out = np.zeros(len(variants))
            out[7] = np.nan
            out[9] = np.inf
            return out

        with pytest.raises(ValueError, match="sample 7"):
            lime_explain(scorer, "one two three", CONFIG)

    def test_wrong_number_of_scores_rejected(self):
        with pytest.raises(ValueError, match="scores for 200 variants"):
            lime_explain(lambda variants: np.zeros(3), "one two three", CONFIG)

    def test_deterministic_for_a_seed(self):
        a = lime_explain(RecordingScorer(), "you stupid little idiot", CONFIG)
        b = lime_explain(RecordingScorer(), "you stupid little idiot", CONFIG)
        assert a.importances == b.importances
        assert a.intercept == b.intercept
        assert a.local_r2 == b.local_r2


class TestConstantScorer:
    @pytest.mark.parametrize("value", [0.3, 0.5, 0.0])
    def test_zero_importances_and_perfect_fit(self, value):
        result = lime_explain(lambda variants: np.full(len(variants), value),
                              "a b c", CONFIG)
        assert [w for w, _ in result.importances] == ["a", "b", "c"]
        assert all(weight == 0.0 for _, weight in result.importances)
        assert result.intercept == value
        assert result.local_r2 == 1.0


class TestConfig:
    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
    def test_kernel_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="kernel_width must be positive"):
            ExplainConfig(kernel_width=width)


class TestHtml:
    def html(self, tokens, importances):
        return explanation_html(Explanation(" ".join(tokens), tokens, importances,
                                            intercept=0.0, local_r2=1.0))

    def test_tokens_are_escaped(self):
        got = self.html(["a<b", "&c"], [("a<b", 0.5), ("&c", -0.25)])
        assert "a&lt;b" in got and "&amp;c" in got
        assert "a<b" not in got and "&c" not in got

    def test_top_word_is_full_red_and_others_scale_by_weight(self):
        got = self.html(["mild", "rude"], [("rude", -0.8), ("mild", 0.2)])
        assert got == ('<div class="sevrank-explanation">'
                       '<span style="background-color: rgba(255,0,0,0.250)">mild</span> '
                       '<span style="background-color: rgba(255,0,0,1.000)">rude</span>'
                       '</div>')

    def test_repeated_word_colours_only_its_first_occurrence(self):
        got = self.html(["x", "y", "x"], [("x", 1.0), ("y", 0.5)])
        assert got.split("</span> ") == [
            '<div class="sevrank-explanation">'
            '<span style="background-color: rgba(255,0,0,1.000)">x',
            '<span style="background-color: rgba(255,0,0,0.500)">y',
            '<span style="background-color: rgba(255,0,0,0.000)">x</span></div>']
        # a word listed twice (once per position) colours its occurrences in turn
        got = self.html(["x", "y", "x"], [("x", 1.0), ("y", 0.5), ("x", 0.25)])
        assert re.findall(r"rgba\(255,0,0,([\d.]+)\)", got) == ["1.000", "0.500", "0.250"]

    def test_all_zero_weights_give_zero_everywhere(self):
        got = self.html(["a", "b", "a"], [("a", 0.0), ("b", 0.0)])
        assert got.count("rgba(255,0,0,0.000)") == 3
