import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import features
from sevrank.features import TfidfConfig, TfidfModel, fit_tfidf, transform
from sevrank.pipeline import Pipeline, load_pipeline, save_pipeline
from sevrank.regress import fit_ridge
from sevrank.textproc import PreprocessConfig, char_wb_ngrams, preprocess

TEXTS = ["you absolute clown", "thanks for the helpful notes", "it's über dumb",
         "kind words", "clowning around again"]
Y = [0.9, 0.1, 0.7, 0.0, 0.5]


def fitted(pp=PreprocessConfig(), config=TfidfConfig(n_min=2, n_max=4)):
    texts = [preprocess(t, pp) for t in TEXTS]
    tfidf = fit_tfidf(texts, config)
    ridge = fit_ridge(transform(tfidf, texts), Y, alpha=0.37)
    return Pipeline(pp, tfidf, ridge)


class TestRoundTrip:
    def test_round_trip_is_bit_exact(self, tmp_path):
        pp = PreprocessConfig(lowercase=False, strip_urls=True,
                              expand_contractions=False, stem=True)
        model = fitted(pp, TfidfConfig(n_min=2, n_max=5, max_features=40, min_df=1))
        path = tmp_path / "m.pipeline"
        save_pipeline(model, path)
        loaded = load_pipeline(path)
        assert loaded.preprocess == pp
        assert loaded.tfidf.config == model.tfidf.config
        assert loaded.tfidf.vocabulary == model.tfidf.vocabulary
        assert list(loaded.tfidf.vocabulary) == list(model.tfidf.vocabulary)
        assert loaded.tfidf.idf.tobytes() == model.tfidf.idf.tobytes()
        assert loaded.ridge.weights.tobytes() == model.ridge.weights.tobytes()
        assert loaded.ridge.alpha == model.ridge.alpha
        assert loaded.ridge.intercept == model.ridge.intercept
        # writing the loaded model reproduces the file byte for byte
        save_pipeline(loaded, tmp_path / "again.pipeline")
        assert (tmp_path / "again.pipeline").read_bytes() == path.read_bytes()

    def test_loaded_model_scores_bit_exactly(self, tmp_path):
        model = fitted()
        save_pipeline(model, tmp_path / "m.pipeline")
        loaded = load_pipeline(tmp_path / "m.pipeline")
        texts = TEXTS + ["a clown's über notes", "", "zzz"]
        before = model.score(texts)
        after = loaded.score(texts)
        assert after.tobytes() == before.tobytes()

    def test_empty_vocabulary(self, tmp_path):
        texts = ["", "  "]
        tfidf = fit_tfidf(texts)
        model = Pipeline(PreprocessConfig(), tfidf,
                         fit_ridge(transform(tfidf, texts), [0.25, 0.75]))
        save_pipeline(model, tmp_path / "m.pipeline")
        loaded = load_pipeline(tmp_path / "m.pipeline")
        assert loaded.tfidf.dim == 0 and len(loaded.ridge.weights) == 0
        assert loaded.ridge.intercept == 0.5


# documents of 0-6 words drawn from a small pool, so words repeat, with
# non-ASCII and non-BMP ones, and stemmable English among them
POOL = ["clown", "clowning", "clowns", "ponies", "motoring", "über", "it's",
        "a", "ab", "naïve", "日本", "😀", "x😀y", "generalizations", "run", "zz"]
CORPORA = st.lists(st.lists(st.sampled_from(POOL), max_size=6).map(" ".join),
                   min_size=1, max_size=12)
RANGES = st.tuples(st.integers(1, 6), st.integers(0, 3)).map(lambda r: (r[0], r[0] + r[1]))


class TestSavedWordTable:
    @settings(max_examples=60, deadline=None)
    @given(CORPORA, RANGES, st.booleans(), st.integers(1, 60))
    def test_table_holds_each_training_words_columns(self, tmp_path_factory, docs,
                                                     ngram_range, stem, max_features):
        pp = PreprocessConfig(stem=stem)
        config = TfidfConfig(*ngram_range, max_features=max_features)
        texts = [preprocess(t, pp) for t in docs]
        tfidf = fit_tfidf(texts, config)
        ridge = fit_ridge(transform(tfidf, texts), [float(len(t)) for t in docs])
        path = tmp_path_factory.mktemp("table") / "m.pipeline"
        save_pipeline(Pipeline(pp, tfidf, ridge), path)
        loaded = load_pipeline(path)

        words, counts, columns = loaded.tfidf.word_table()
        assert words == list(dict.fromkeys(w for t in texts for w in t.split()))
        cuts = np.concatenate(([0], np.cumsum(counts))).tolist()
        vocabulary = loaded.tfidf.vocabulary
        for word, a, b in zip(words, cuts, cuts[1:]):
            grams = char_wb_ngrams(word, *ngram_range)
            assert columns[a:b].tolist() == [vocabulary[g] for g in grams
                                             if g in vocabulary], word

        # scoring with the table gives the bits of splitting every word anew
        queries = docs + ["über clowns zz", "unseen words", ""]
        emptied = TfidfModel(dict(vocabulary), loaded.tfidf.idf.copy(), config)
        with_table = loaded.score(queries)
        without = Pipeline(pp, emptied, loaded.ridge).score(queries)
        assert with_table.tobytes() == without.tobytes()


# Pipeline.score_masks agrees with Pipeline.score on the joined variants
# to within this absolute difference (the sums run in another order; on
# the benchmark model they were at most 1.1e-16 apart)
MASK_TOL = 1e-12
# tokens of texts to explain: a URL-only token, contractions, case, a
# word the models never saw ("clownery"), one with no in-vocabulary gram
# ("☃☃"), stemmable words, and punctuation
MASK_TOKENS = ["you", "You", "clown", "clowns", "clowning", "http://x.co/clown",
               "www.x.y", "They'll", "AIN'T", "it's", "über", "clownery", "☃☃", "notes!",
               "thanks,", "dumb"]
MODELS = {stem: fitted(PreprocessConfig(stem=stem)) for stem in (False, True)}


def joined_variants(tokens, masks):
    return [" ".join(tok for tok, keep in zip(tokens, mask) if keep)
            for mask in masks.tolist()]


def every_mask(n_tokens):
    return ((np.arange(2 ** n_tokens)[:, None] >> np.arange(n_tokens)) & 1).astype(np.int8)


class TestScoreMasks:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(MASK_TOKENS), min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_scores_as_the_joined_variants(self, tokens, seed, stem):
        model = MODELS[stem]
        masks = np.random.default_rng(seed).integers(0, 2, size=(40, len(tokens)),
                                                     dtype=np.int8)
        # masks first, so that unseen words enter the table through them
        got = model.score_masks(tokens, masks)
        np.testing.assert_allclose(got, model.score(joined_variants(tokens, masks)),
                                   rtol=0, atol=MASK_TOL)

    @pytest.mark.parametrize("stem", [False, True])
    @pytest.mark.parametrize("tokens", [
        ["http://x.co/clown"],                  # URL only: preprocesses to ""
        ["They'll", "clown", "AIN'T"],          # contractions: one token, two words
        ["clown", "you", "clown", "clown"],     # a repeated word
        ["clownery", "you"],                    # a word the model never saw
        ["☃☃", "dumb", "☃☃"],                   # a token with no in-vocabulary gram
        ["Clowning", "ponies", "generalizations"],
    ])
    def test_every_mask_of_a_short_text(self, tokens, stem):
        model = MODELS[stem]
        masks = every_mask(len(tokens))
        # masks first, so that unseen words enter the table through them
        got = model.score_masks(tokens, masks)
        np.testing.assert_allclose(got, model.score(joined_variants(tokens, masks)),
                                   rtol=0, atol=MASK_TOL)

    def test_the_special_tokens_are_what_they_claim(self):
        model = fitted()  # scoring adds unseen words to a model's table
        assert preprocess("http://x.co/clown") == ""
        assert preprocess("They'll") == "they will"
        assert "clownery" not in model.tfidf.word_table()[0]
        assert features.idf_rows(model.tfidf, ["☃☃"]).nnz == 0
        assert features.idf_rows(model.tfidf, ["clownery"]).nnz > 0

    @pytest.mark.parametrize("tokens", [["you", "clown"], ["☃☃"], ["http://x.co"]])
    def test_a_mask_with_no_gram_scores_the_intercept(self, tokens):
        model = MODELS[False]
        masks = np.zeros((3, len(tokens)), dtype=np.int8)
        masks[1:] = 1
        got = model.score_masks(tokens, masks)
        assert got[0] == model.ridge.intercept == model.score([""])[0]
        if tokens != ["you", "clown"]:
            assert (got == model.ridge.intercept).all()

    def test_scores_the_same_after_a_save_and_load(self, tmp_path):
        model = MODELS[True]
        save_pipeline(model, tmp_path / "m.pipeline")
        loaded = load_pipeline(tmp_path / "m.pipeline")
        tokens = ["clown", "clownery", "They'll", "clown"]
        masks = every_mask(len(tokens))
        assert (loaded.score_masks(tokens, masks).tobytes()
                == model.score_masks(tokens, masks).tobytes())
