import math
from collections import Counter

import numpy as np
import pytest

from sevrank.features import (
    CHUNK_ROWS,
    CsrBatch,
    TfidfConfig,
    TfidfModel,
    fit_tfidf,
    load_tfidf,
    save_tfidf,
    transform,
)
from sevrank.textproc import char_wb_ngrams


def brute_force_tfidf(corpus, config):
    """Independent dense oracle: enumerate grams with plain loops, apply the
    declared vocabulary, idf and normalization rules, return (vocab, matrix)."""

    def grams_of(doc):
        out = []
        for word in doc.split():
            padded = " " + word + " "
            for n in range(config.n_min, config.n_max + 1):
                if n >= len(padded):
                    out.append(padded)
                    break
                i = 0
                while i + n <= len(padded):
                    out.append(padded[i:i + n])
                    i += 1
        return out

    per_doc = [grams_of(doc) for doc in corpus]
    totals = {}
    dfs = {}
    for grams in per_doc:
        for g in grams:
            totals[g] = totals.get(g, 0) + 1
        for g in set(grams):
            dfs[g] = dfs.get(g, 0) + 1
    survivors = [g for g in totals if dfs[g] >= config.min_df]
    survivors.sort(key=lambda g: (-totals[g], g))
    kept = sorted(survivors[: config.max_features])
    vocab = {g: i for i, g in enumerate(kept)}
    n_docs = len(corpus)
    idf = [math.log((1 + n_docs) / (1 + dfs[g])) + 1.0 for g in kept]
    matrix = np.zeros((n_docs, len(kept)))
    for r, grams in enumerate(per_doc):
        for g in grams:
            if g in vocab:
                matrix[r, vocab[g]] += 1.0
        matrix[r] *= idf
        norm = math.sqrt(float(matrix[r] @ matrix[r]))
        if norm > 0:
            matrix[r] /= norm
    return vocab, np.array(idf), matrix


def reference_fit(corpus, config):
    """Per-document fit: Counter every document's grams, select and weight
    them by the declared rules; returns (vocabulary, idf)."""
    total_counts = Counter()
    doc_freq = Counter()
    for doc in corpus:
        counts = Counter(char_wb_ngrams(doc, config.n_min, config.n_max))
        total_counts.update(counts)
        doc_freq.update(counts.keys())
    candidates = [g for g in total_counts if doc_freq[g] >= config.min_df]
    candidates.sort(key=lambda g: (-total_counts[g], g))
    kept = sorted(candidates[: config.max_features])
    n_docs = len(corpus)
    idf = np.array(
        [np.log((1.0 + n_docs) / (1.0 + doc_freq[g])) + 1.0 for g in kept]
    )
    return {gram: i for i, gram in enumerate(kept)}, idf


def reference_row(model, text):
    """One text vectorized on its own: Counter of its grams, sorted by
    column, scaled by idf, divided by its norm."""
    counts = Counter(char_wb_ngrams(text, model.config.n_min, model.config.n_max))
    entries = sorted(
        (model.vocabulary[g], c) for g, c in counts.items() if g in model.vocabulary
    )
    indices = np.array([i for i, _ in entries], dtype=np.int32)
    values = np.array([c for _, c in entries], dtype=np.float64)
    if len(values):
        values *= model.idf[indices]
        values /= np.linalg.norm(values)
    return indices, values


def row(batch, i):
    lo, hi = batch.indptr[i], batch.indptr[i + 1]
    return batch.indices[lo:hi], batch.data[lo:hi]


class TestFitTfidf:
    def test_repeated_doc_idf_is_one(self):
        model = fit_tfidf(["ab", "ab"], TfidfConfig(n_min=3, n_max=3))
        assert set(model.vocabulary) == {" ab", "ab "}
        np.testing.assert_allclose(model.idf, 1.0)

    def test_single_doc_idf_is_one(self):
        model = fit_tfidf(["x"], TfidfConfig(n_min=3, n_max=3))
        np.testing.assert_allclose(model.idf, 1.0)

    def test_max_features_tie_break_is_lexicographic(self):
        model = fit_tfidf(["ab", "cd"], TfidfConfig(n_min=3, n_max=3, max_features=2))
        # all four grams have count 1; the lexicographically smallest two win
        assert sorted(model.vocabulary) == [" ab", " cd"]

    def test_column_indices_follow_lexicographic_order(self):
        model = fit_tfidf(["cd ab"], TfidfConfig(n_min=3, n_max=3))
        ordered = sorted(model.vocabulary, key=model.vocabulary.get)
        assert ordered == sorted(ordered)
        assert list(model.vocabulary.values()) != []
        assert sorted(model.vocabulary.values()) == list(range(len(model.vocabulary)))

    def test_min_df_drops_rare_grams(self):
        model = fit_tfidf(["ab ab ab", "cd"], TfidfConfig(n_min=3, n_max=3, min_df=2))
        assert model.vocabulary == {}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_tfidf([], TfidfConfig())

    def test_fit_independent_of_corpus_order(self):
        docs = ["ab cd", "cd ef", "ab ab", "gh"]
        a = fit_tfidf(docs, TfidfConfig(n_min=2, n_max=4))
        b = fit_tfidf(list(reversed(docs)), TfidfConfig(n_min=2, n_max=4))
        assert a.vocabulary == b.vocabulary
        np.testing.assert_array_equal(a.idf, b.idf)

    def test_vocabulary_never_exceeds_cap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            docs = [
                " ".join(
                    "".join(rng.choice(list("abc"), size=rng.integers(1, 5)))
                    for _ in range(rng.integers(1, 6))
                )
                for _ in range(rng.integers(1, 5))
            ]
            cap = int(rng.integers(1, 12))
            model = fit_tfidf(docs, TfidfConfig(n_min=2, n_max=4, max_features=cap))
            assert len(model.vocabulary) <= cap


class TestFitMatchesPerDocumentCounts:
    """The word-level fit equals counting each document's grams, bit for bit."""

    MIXED = ["the cat sat on the mat", "café naïve über café", "aaa aaaa bb a",
             "it's a dog's life, isn't it?", "日本 привет 😀 the", "", "   ",
             "x y z", "the the the"]

    @pytest.mark.parametrize("corpus, config", [
        # four grams of count 1 and two slots: a tie at the max_features cut
        (["ab", "cd"], TfidfConfig(n_min=3, n_max=3, max_features=2)),
        (["ab ab cd", "cd ef", "gh"], TfidfConfig(n_min=2, n_max=3, max_features=5)),
        (MIXED, TfidfConfig(n_min=1, n_max=3, min_df=2)),
        (MIXED, TfidfConfig(n_min=2, n_max=5, max_features=7)),
        (["", "  ", "\t\n", "a b"], TfidfConfig(n_min=2, n_max=4)),
        (["", " ", "\n"], TfidfConfig()),              # no grams at all
        (["ab", "cd"], TfidfConfig(n_min=3, n_max=3, min_df=2)),  # none kept
        (MIXED, TfidfConfig(n_min=4, n_max=6)),        # words shorter than n_min
        (MIXED, TfidfConfig(max_features=0)),
        (MIXED, TfidfConfig(n_min=2, n_max=3, max_features=-4)),
    ])
    def test_vocabulary_and_idf(self, corpus, config):
        vocabulary, idf = reference_fit(corpus, config)
        model = fit_tfidf(corpus, config)
        assert model.vocabulary == vocabulary
        assert model.idf.dtype == np.float64
        assert model.idf.tobytes() == idf.tobytes()

    def test_more_than_one_chunk_of_documents(self):
        rng = np.random.default_rng(11)
        pool = ("the cat sat on mat café naïve über aaa bb it's dog's "
                "life, 日本 привет 😀 zz qq a").split()
        corpus = [" ".join(rng.choice(pool, size=rng.integers(0, 12)))
                  for _ in range(3 * CHUNK_ROWS + 5)]
        for config in (TfidfConfig(n_min=2, n_max=4),
                       TfidfConfig(n_min=1, n_max=5, max_features=40, min_df=3)):
            vocabulary, idf = reference_fit(corpus, config)
            model = fit_tfidf(corpus, config)
            assert model.vocabulary == vocabulary
            assert model.idf.tobytes() == idf.tobytes()

    def test_primed_model_transforms_like_a_fresh_one(self):
        corpus = self.MIXED * 20 + ["a new word", "zzz café"]
        texts = corpus + ["unseen words here", "", "the cat"]
        for config in (TfidfConfig(n_min=2, n_max=4, max_features=15),
                       TfidfConfig(n_min=1, n_max=3, min_df=2)):
            primed = fit_tfidf(corpus, config)
            fresh = TfidfModel(vocabulary=dict(primed.vocabulary),
                               idf=primed.idf.copy(), config=config)
            assert fresh._word_columns == {}
            assert set(primed._word_columns) == {w for d in corpus for w in d.split()}
            got, want = transform(primed, texts), transform(fresh, texts)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            for word, cols in primed._word_columns.items():
                assert np.array_equal(cols, fresh._word_columns[word]), word

    def test_rejects_single_string(self):
        with pytest.raises(TypeError):
            fit_tfidf("abc")

    def test_rejects_bad_ngram_range_without_any_word(self):
        with pytest.raises(ValueError, match="invalid n-gram range"):
            fit_tfidf(["", " "], TfidfConfig(n_min=3, n_max=2))


class TestTransform:
    def test_out_of_vocabulary_text_is_zero_vector(self):
        model = fit_tfidf(["ab"], TfidfConfig(n_min=3, n_max=3))
        batch = transform(model, ["zq"])
        assert batch.nnz == 0
        assert batch.shape == (1, len(model.vocabulary))

    def test_single_gram_normalizes_to_one(self):
        model = fit_tfidf(["ab cd"], TfidfConfig(n_min=4, n_max=4))
        batch = transform(model, ["ab"])
        assert batch.nnz == 1
        np.testing.assert_allclose(batch.data, [1.0])

    def test_counts_scale_values(self):
        # vocabulary of 2-grams with equal idf; "abab" has counts ab:2, ba:1
        model = fit_tfidf(["abab"], TfidfConfig(n_min=2, n_max=2))
        vec = transform(model, ["abab"]).to_dense()[0]
        expected = np.zeros(len(model.vocabulary))
        expected[model.vocabulary["ab"]] = 2.0
        expected[model.vocabulary["ba"]] = 1.0
        expected[model.vocabulary[" a"]] = 1.0
        expected[model.vocabulary["b "]] = 1.0
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(vec, expected, atol=1e-12)

    def test_nonempty_vectors_have_unit_norm(self):
        rng = np.random.default_rng(9)
        docs = [
            " ".join(
                "".join(rng.choice(list("abcd"), size=rng.integers(1, 6)))
                for _ in range(rng.integers(1, 5))
            )
            for _ in range(10)
        ]
        model = fit_tfidf(docs)
        batch = transform(model, docs)
        for i in range(len(docs)):
            _, values = row(batch, i)
            if len(values):
                assert abs(np.linalg.norm(values) - 1.0) < 1e-9

    def test_matches_brute_force_oracle_on_toy_corpora(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n_docs = int(rng.integers(1, 6))
            docs = [
                " ".join(
                    "".join(rng.choice(list("abc"), size=rng.integers(1, 5)))
                    for _ in range(rng.integers(1, 9))
                )
                for _ in range(n_docs)
            ]
            config = TfidfConfig(
                n_min=int(rng.integers(2, 4)),
                n_max=int(rng.integers(4, 6)),
                max_features=int(rng.integers(5, 40)),
            )
            model = fit_tfidf(docs, config)
            vocab, idf, expected = brute_force_tfidf(docs, config)
            assert model.vocabulary == vocab
            np.testing.assert_allclose(model.idf, idf, atol=1e-12)
            got = transform(model, docs).to_dense()
            np.testing.assert_allclose(got, expected, atol=1e-9)


class TestBatchTransform:
    """Every row of a batch equals the text vectorized on its own, bit for bit."""

    VOCAB_DOCS = ["the cat sat on the mat", "café naïve über", "aaa aaaa bb",
                  "it's a dog's life, isn't it?", "日本 привет 😀"]

    @pytest.fixture
    def model(self):
        return fit_tfidf(self.VOCAB_DOCS, TfidfConfig(n_min=2, n_max=4))

    def assert_rows_exact(self, model, texts):
        batch = transform(model, texts)
        assert batch.shape == (len(texts), model.dim)
        for i, text in enumerate(texts):
            got_idx, got_val = row(batch, i)
            ref_idx, ref_val = reference_row(model, text)
            assert np.array_equal(got_idx, ref_idx), text
            assert np.array_equal(got_val, ref_val), text

    def test_edge_texts(self, model):
        self.assert_rows_exact(model, [
            "",                          # empty
            "   ",                       # whitespace only
            "zzz qqq xxx",               # out-of-vocabulary only
            "the the the cat the",       # repeated words
            "café café über",            # non-ASCII, repeated
            "日本 😀 привет the",
            "a",
        ])

    def test_batch_longer_than_one_chunk(self, model):
        rng = np.random.default_rng(17)
        pool = ("the cat sat on mat café naïve über aaa bb it's dog's "
                "life, 日本 привет 😀 zz qq").split()
        texts = [
            " ".join(rng.choice(pool, size=rng.integers(0, 12)))
            for _ in range(2 * CHUNK_ROWS + 17)
        ]
        self.assert_rows_exact(model, texts)

    def test_row_does_not_depend_on_batch(self, model):
        texts = ["the cat", "café the", "", "zzz", "the cat"]
        whole = transform(model, texts)
        for i, text in enumerate(texts):
            alone = transform(model, [text])
            assert np.array_equal(row(whole, i)[0], alone.indices)
            assert np.array_equal(row(whole, i)[1], alone.data)

    def test_rows_sorted_without_stored_zeros(self, model):
        batch = transform(model, ["the cat sat", "", "mat the", "aaaa bb aaa"])
        assert batch.indices.dtype == np.int32
        assert batch.nnz == len(batch.data) == batch.indptr[-1]
        for i in range(batch.shape[0]):
            indices, values = row(batch, i)
            assert np.all(np.diff(indices) > 0)
            assert np.all(values != 0.0)

    def test_empty_batch(self, model):
        batch = transform(model, [])
        assert batch.shape == (0, model.dim)
        assert batch.nnz == 0
        assert list(batch.indptr) == [0]

    def test_rejects_single_string(self, model):
        with pytest.raises(TypeError):
            transform(model, "the cat")

    def test_scipy_accepts_the_layout(self, model):
        sparse = pytest.importorskip("scipy.sparse")
        batch = transform(model, ["the cat sat", "", "café the the"])
        csr = sparse.csr_matrix((batch.data, batch.indices, batch.indptr),
                                shape=batch.shape)
        csr.check_format(full_check=True)
        assert csr.has_canonical_format
        np.testing.assert_array_equal(csr.toarray(), batch.to_dense())


class TestCsrBatch:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 2], indices=[3, 1], data=[1.0, 2.0], shape=(1, 5))

    def test_indices_may_fall_across_rows(self):
        batch = CsrBatch(indptr=[0, 1, 1, 2], indices=[3, 1], data=[1.0, 2.0],
                         shape=(3, 5))
        assert batch.nnz == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 2], indices=[0, 7], data=[1.0, 2.0], shape=(1, 5))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 2], indices=[0, 1], data=[1.0, 0.0], shape=(1, 5))

    def test_rejects_inconsistent_indptr(self):
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 1], indices=[0, 1], data=[1.0, 2.0], shape=(1, 5))
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 2, 1, 2], indices=[0, 1], data=[1.0, 2.0],
                     shape=(3, 5))
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 2], indices=[0, 1], data=[1.0, 2.0], shape=(2, 5))

    def test_to_dense(self):
        batch = CsrBatch(indptr=[0, 2, 2, 3], indices=[1, 3, 0],
                         data=[2.0, -1.0, 5.0], shape=(3, 4))
        np.testing.assert_array_equal(
            batch.to_dense(),
            [[0.0, 2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]],
        )


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = fit_tfidf(["ab cd ef", "cd ef gh", "it's x"],
                          TfidfConfig(n_min=2, n_max=5, max_features=50))
        path = tmp_path / "model.tfidf"
        save_tfidf(model, path)
        loaded = load_tfidf(path)
        assert loaded.vocabulary == model.vocabulary
        assert loaded.config == model.config
        np.testing.assert_array_equal(loaded.idf, model.idf)
        # writing the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.tfidf"
        save_tfidf(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.tfidf"
        path.write_text("nonsense\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_tfidf(path)
