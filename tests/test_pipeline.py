import csv
import re
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sevrank
from sevrank import cli, features, pipeline, textproc
from sevrank.features import CHUNK_ROWS, TfidfConfig, TfidfModel
from sevrank.pipeline import Pipeline, load_pipeline, save_pipeline
from sevrank.regress import fit_ridge, predict
from sevrank.textproc import PreprocessConfig, preprocess

from reference import char_wb_ngrams, fit_tfidf, transform, whole_word_table

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

    def test_v1_and_truncated_files_are_refused_by_name(self, tmp_path):
        save_pipeline(fitted(), tmp_path / "m.pipeline")
        raw = (tmp_path / "m.pipeline").read_bytes()
        bad = tmp_path / "bad.pipeline"
        # a v1 magic line, whole or alone, asks for a retrain
        for v1 in (b"sevrank-pipeline-v1\n" + raw[len(b"sevrank-pipeline-v2\n"):],
                   b"sevrank-pipeline-v1"):
            bad.write_bytes(v1)
            with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: a sevrank-"
                                                 "pipeline-v1 file holds no word table"):
                load_pipeline(bad)
        # cut in the magic, the manifest, the grams, the numbers and the table
        manifest_end = raw.index(b"\n", len(b"sevrank-pipeline-v2\n"))
        for cut, message in ((10, "not a sevrank-pipeline-v2 file"),
                             (manifest_end, "missing manifest line"),
                             (manifest_end + 3, "payload is 2 bytes, not "),
                             (len(raw) // 2, "payload is "),
                             (len(raw) - 1, "payload is ")):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {message}"):
                load_pipeline(bad)


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

    @pytest.mark.parametrize("stem", [False, True])
    def test_scoring_does_not_change_the_saved_bytes(self, tmp_path, stem):
        # scoring adds the words it meets to the table in memory; the file
        # holds the fit's words alone, whether saved before or after
        model, _ = pipeline.fit(TEXTS, Y, preprocess=PreprocessConfig(stem=stem),
                                tfidf=TfidfConfig(n_min=2, n_max=4))
        save_pipeline(model, tmp_path / "fit.pipeline")
        fit_bytes = (tmp_path / "fit.pipeline").read_bytes()
        n_words = model.tfidf.n_words
        texts = ["zebras galloping clownishly", "you absolute clown", "über ☃☃ motoring"]
        scores = model.score(texts)
        model.score_masks(["ponies", "clowned"], np.ones((1, 2)))
        assert model.tfidf.n_words > n_words
        save_pipeline(model, tmp_path / "scored.pipeline")
        assert (tmp_path / "scored.pipeline").read_bytes() == fit_bytes
        # a loaded model scores the same bits and, scored, saves the same bytes
        loaded = load_pipeline(tmp_path / "fit.pipeline")
        assert loaded.score(texts[::-1]).tobytes() == scores[::-1].tobytes()
        assert loaded.tfidf.n_words > n_words
        save_pipeline(loaded, tmp_path / "loaded.pipeline")
        assert (tmp_path / "loaded.pipeline").read_bytes() == fit_bytes


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
        assert "clownery" not in whole_word_table(model.tfidf)[0]
        assert features.idf_rows(model.tfidf, ["☃☃"], list).nnz == 0
        assert features.idf_rows(model.tfidf, ["clownery"], list).nnz > 0

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


# raw tokens that preprocessing treats specially: URLs (alone, inside a
# word, in capitals), contractions in any case, a final sigma, letters
# that lowercase by context or into two code points, lone surrogates,
# astral characters, stemmable words and punctuation
BATCH_TOKENS = ["http://x.co/clown", "xwww.y", "HTTPS://Q", "couldn't've", "They'll",
                "AIN'T", "'tis", "ΟΔΟΣ", "Σ", "ſhe'd", "İsn't", "ǅ", "ß", "ﬁ", "c\ud800lown",
                "\udfff", "\U0001D538ber", "😀clown😀", "clowning", "ponies", "Clowns!",
                "notes,", "you", "über", "zz", "generalizations"]
SEPARATORS = [" ", "  ", "\t", "\n", "　", "\x85"]


def batch_texts(n, seed):
    """n raw texts of 0 to 9 tokens drawn from BATCH_TOKENS and fresh
    words, joined by assorted whitespace; with empty and whitespace-only
    texts, repeated texts and repeated tokens among them."""
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        tokens = [BATCH_TOKENS[j] if j < len(BATCH_TOKENS) else f"w{j}x{seed}"
                  for j in rng.integers(0, len(BATCH_TOKENS) + 8, size=rng.integers(0, 10))]
        seps = rng.choice(SEPARATORS, size=len(tokens) + 1)
        texts.append("".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[-1])
    specials = ["", " ", "\t　\n", "you you you you", "couldn't've couldn't've Σ"]
    for i, text in enumerate(specials[: n]):
        texts[(7 * i) % n] = text
    if n > 1:
        texts[-1] = texts[0]  # a repeated text
    return texts


@pytest.fixture(scope="module", params=[False, True], ids=["default", "stem"])
def saved_model(request, tmp_path_factory):
    """The path of a saved model, with or without stemming; each test
    loads its own copies, since scoring adds unseen words to a model."""
    path = tmp_path_factory.mktemp("batch") / "m.pipeline"
    save_pipeline(fitted(PreprocessConfig(stem=request.param)), path)
    return path


class TestBatchScoresAsAlone:
    """One `Pipeline.score` call gives each text the bits it gets alone,
    at batch sizes inside one chunk, at a chunk's edge and past three
    chunks, and splits and preprocesses each thing once."""

    @pytest.mark.parametrize("n", [1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5])
    def test_batch_equals_each_text_alone(self, saved_model, n):
        texts = batch_texts(n, seed=n)
        batch = load_pipeline(saved_model).score(texts)
        alone = [load_pipeline(saved_model).score([text])[0] for text in texts]
        assert batch.tobytes() == np.array(alone).tobytes()
        # and as transforming the preprocessed text scores it
        model = load_pipeline(saved_model)
        for text, score in zip(texts, batch):
            row = transform(model.tfidf, [preprocess(text, model.preprocess)])
            assert predict(model.ridge, row)[0] == score, text

    @pytest.mark.parametrize("n", [1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5])
    def test_one_split_and_each_distinct_token_once(self, saved_model, monkeypatch, n):
        texts = batch_texts(n, seed=n + 1)
        texts[n // 2] += " zebrafish"  # a word the model never saw
        split_calls, tokens_seen = [], []
        real_split, real_tokens = features._split_spans, textproc.preprocess_tokens

        def counting_split(words, n_min, n_max):
            split_calls.append(list(words))
            return real_split(words, n_min, n_max)

        def counting_tokens(tokens, config):
            tokens_seen.extend(tokens)
            return real_tokens(tokens, config)

        monkeypatch.setattr(features, "_split_spans", counting_split)
        monkeypatch.setattr(textproc, "preprocess_tokens", counting_tokens)
        model = load_pipeline(saved_model)
        model.score(texts)
        distinct = {token for text in texts for token in text.split()}
        assert sorted(tokens_seen) == sorted(distinct)
        assert len(split_calls) == 1
        assert len(split_calls[0]) == len(set(split_calls[0]))
        # scoring them again finds no new word and splits nothing
        model.score(texts)
        assert len(split_calls) == 1

    def test_score_masks_preprocesses_each_distinct_token_once(self, saved_model,
                                                               monkeypatch):
        tokens_seen = []
        real_tokens = textproc.preprocess_tokens
        monkeypatch.setattr(textproc, "preprocess_tokens",
                            lambda tokens, config: tokens_seen.extend(tokens)
                            or real_tokens(tokens, config))
        tokens = ["clown", "They'll", "clown", "http://x.co", "Σ", "clown"]
        load_pipeline(saved_model).score_masks(tokens, every_mask(len(tokens)))
        assert sorted(tokens_seen) == sorted(set(tokens))


class TestOneStrIsRefused:
    """A bare str is one text, not a batch of its characters."""

    def test_score(self):
        with pytest.raises(TypeError, match="not one str"):
            MODELS[False].score("you idiot")

    def test_score_masks(self):
        with pytest.raises(TypeError, match="not one str"):
            MODELS[False].score_masks("you idiot", np.ones((2, 9), dtype=np.int8))


def literal_blocks(doc):
    """The code of each `::` literal block of a docstring, dedented."""
    blocks = []
    for part in doc.split("::\n\n")[1:]:
        lines = []
        for line in part.splitlines():
            if line and not line.startswith("    "):
                break
            lines.append(line)
        blocks.append(textwrap.dedent("\n".join(lines)))
    return blocks


class TestQuickStart:
    def test_the_package_docstring_runs(self, tmp_path, monkeypatch, capsys):
        with (tmp_path / "labeled.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["comment_id", "text", "score"])
            writer.writerows((f"q{i}", text, repr(y)) for i, (text, y) in enumerate(zip(TEXTS, Y)))
        monkeypatch.chdir(tmp_path)
        blocks = literal_blocks(sevrank.__doc__)
        assert len(blocks) == 2
        namespace = {}
        exec(blocks[0], namespace)
        model, objective = namespace["model"], namespace["objective"]
        assert isinstance(model, Pipeline) and objective > 0.0
        assert namespace["scores"].shape == (2,)
        exec(blocks[1], namespace)
        assert namespace["scores"].tolist() == model.score(["you idiot"]).tolist()
        # the quick start's fit is `sevrank train`'s (scoring adds the
        # scored words to a model's table, so the files differ there)
        assert cli.main(["train", "--labeled", "labeled.csv", "--out-prefix", "trained"]) == 0
        assert capsys.readouterr().out == f"training objective: {objective!r}\n"
        trained = load_pipeline(tmp_path / "trained.pipeline")
        assert trained.score(TEXTS).tobytes() == model.score(TEXTS).tobytes()
