import re
import warnings

import numpy as np
import pytest

from sevrank import explain
from sevrank.explain import (
    ExplainConfig,
    Explanation,
    explanation_html,
    lime_explain,
    lime_explain_masks,
)


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
        words = [result.tokens[i] for i, _ in result.importances]
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


class TestMaskScorer:
    def test_called_once_with_the_tokens_and_every_mask(self):
        calls = []

        def score_masks(tokens, masks):
            calls.append((tokens, masks.copy()))
            return masks @ np.arange(1.0, len(tokens) + 1)

        lime_explain_masks(score_masks, "you stupid  little idiot", CONFIG)
        [(tokens, masks)] = calls
        assert tokens == ["you", "stupid", "little", "idiot"]
        assert masks.dtype == np.int8 and masks.shape == (CONFIG.num_samples, 4)
        assert (masks[0] == 1).all() and set(np.unique(masks)) == {0, 1}

    def test_text_scorer_gets_each_masks_variant(self):
        # the same scores give the same explanation, bit for bit
        def joined(tokens, masks):
            return [" ".join(t for t, k in zip(tokens, m) if k) for m in masks.tolist()]

        seen = []

        def score_masks(tokens, masks):
            seen.append(masks)
            return RecordingScorer()(joined(tokens, masks))

        text = "you stupid little idiot you"
        scorer = RecordingScorer()
        by_text = lime_explain(scorer, text, CONFIG)
        assert lime_explain_masks(score_masks, text, CONFIG) == by_text
        assert scorer.batches == [joined(by_text.tokens, seen[0])]

    def test_wrong_number_of_scores_rejected(self):
        with pytest.raises(ValueError, match="scores for 200 variants"):
            lime_explain_masks(lambda tokens, masks: np.zeros(3), "one two", CONFIG)


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 7, 44, 120])
    def test_matches_lapack_on_ridge_systems(self, n):
        # the systems _weighted_ridge solves: a weighted Gram matrix plus I
        rng = np.random.default_rng(n)
        z = rng.integers(0, 2, size=(300, n)).astype(float)
        z -= z.mean(axis=0)
        a = np.einsum("ij,ik->jk", z * rng.random(300)[:, None], z) + np.eye(n)
        b = rng.normal(size=n)
        got = explain._solve_spd(a, b)
        want = np.linalg.solve(a, b)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestConstantScorer:
    @pytest.mark.parametrize("value", [0.3, 0.5, 0.0])
    def test_zero_importances_and_perfect_fit(self, value):
        result = lime_explain(lambda variants: np.full(len(variants), value),
                              "a b c", CONFIG)
        assert [i for i, _ in result.importances] == [0, 1, 2]
        assert all(weight == 0.0 for _, weight in result.importances)
        assert result.intercept == value
        assert result.local_r2 == 1.0


class TestConfig:
    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan")])
    def test_kernel_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="kernel_width must be positive"):
            lime_explain(RecordingScorer(), "a b", ExplainConfig(kernel_width=width))

    @pytest.mark.parametrize("width, message", [
        (1e155, "squares to inf"), (1e-300, "squares to 0.0"),
        (1e-160, "gives every perturbed sample weight 0"),
        (1e-4, "gives every perturbed sample weight 0"),
    ])
    def test_kernel_width_whose_weights_are_unusable(self, width, message):
        # refused by value, before scoring, without a numpy warning
        scorer = RecordingScorer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(explain.KernelWidthError, match=message):
                lime_explain(scorer, "you stupid idiot", CONFIG._replace(kernel_width=width))
        assert scorer.batches == []

    @pytest.mark.parametrize("width", [1e-2, 1.0, 1e100, 1.3e154])
    def test_kernel_widths_with_usable_weights(self, width):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = lime_explain(RecordingScorer(), "you stupid idiot",
                                  CONFIG._replace(kernel_width=width))
        assert all(np.isfinite(w) for _, w in result.importances)
        assert 0.0 <= result.local_r2 <= 1.0

    @pytest.mark.parametrize("config, message", [
        (ExplainConfig(num_samples=9), "num_samples must be >= 10"),
        (ExplainConfig(num_features=0), "num_features must be >= 1"),
        (ExplainConfig(num_samples=explain.MAX_SAMPLES + 1),
         "100001 samples is above the limit of 100000"),
        (ExplainConfig(num_samples=10**20),
         "100000000000000000000 samples is above the limit of 100000"),
    ])
    def test_counts_are_checked_before_scoring(self, config, message):
        scorer = RecordingScorer()
        with pytest.raises(ValueError, match=message):
            lime_explain(scorer, "a b", config)
        assert scorer.batches == []


class TestHtml:
    def html(self, tokens, importances):
        return explanation_html(Explanation(" ".join(tokens), tokens, importances,
                                            intercept=0.0, local_r2=1.0))

    def test_tokens_are_escaped(self):
        got = self.html(["a<b", "&c"], [(0, 0.5), (1, -0.25)])
        assert "a&lt;b" in got and "&amp;c" in got
        assert "a<b" not in got and "&c" not in got

    def test_top_word_is_full_red_and_others_scale_by_weight(self):
        got = self.html(["mild", "rude"], [(1, -0.8), (0, 0.2)])
        assert got == ('<div class="sevrank-explanation">'
                       '<span style="background-color: rgba(255,0,0,0.250)">mild</span> '
                       '<span style="background-color: rgba(255,0,0,1.000)">rude</span>'
                       '</div>')

    def test_a_repeated_word_colours_the_fitted_position(self):
        # the score depends on whether the variant ends in "you", so the
        # last token, not the first with the same text, carries the weight
        result = lime_explain(
            lambda variants: np.array([float(v.split()[-1:] == ["you"]) for v in variants]),
            "you idiot you", ExplainConfig(num_features=1))
        assert [i for i, _ in result.importances] == [2]
        got = explanation_html(result)
        assert re.findall(r"rgba\(255,0,0,([\d.]+)\)", got) == ["0.000", "0.000", "1.000"]
        # each position listed is coloured by its own weight
        got = self.html(["x", "y", "x"], [(2, 1.0), (1, 0.5), (0, 0.25)])
        assert re.findall(r"rgba\(255,0,0,([\d.]+)\)", got) == ["0.250", "0.500", "1.000"]

    def test_all_zero_weights_give_zero_everywhere(self):
        got = self.html(["a", "b", "a"], [(0, 0.0), (1, 0.0)])
        assert got.count("rgba(255,0,0,0.000)") == 3
