import pytest

from sevrank import cli
from sevrank.features import TfidfConfig, fit_tfidf, transform
from sevrank.pipeline import Pipeline, load_pipeline, save_pipeline
from sevrank.regress import fit_ridge
from sevrank.textproc import PreprocessConfig, preprocess

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
        before = cli.score_texts(model.tfidf, model.ridge, model.preprocess, texts)
        after = cli.score_texts(loaded.tfidf, loaded.ridge, loaded.preprocess, texts)
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
