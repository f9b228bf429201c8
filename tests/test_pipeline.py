import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
