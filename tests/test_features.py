import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import features
from sevrank.features import (
    CHUNK_ROWS,
    CsrBatch,
    TfidfConfig,
    TfidfModel,
    _count,
    _grams_per_word,
    _WordTable,
    row_sums,
)
from sevrank.fitting import GramTable
from sevrank.pipeline import Pipeline, load_pipeline, save_pipeline
from sevrank.regress import RidgeModel
from sevrank.textproc import PreprocessConfig

from reference import (
    char_wb_ngrams,
    fit_tfidf,
    split_words,
    table_grams,
    to_dense,
    transform,
    whole_word_table,
    word_columns,
)


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
    column, scaled by idf, divided by its norm, the norm summed by
    `row_sums` over this lone row."""
    counts = Counter(char_wb_ngrams(text, model.config.n_min, model.config.n_max))
    entries = sorted(
        (model.vocabulary[g], c) for g, c in counts.items() if g in model.vocabulary
    )
    indices = np.array([i for i, _ in entries], dtype=np.int32)
    values = np.array([c for _, c in entries], dtype=np.float64)
    if len(values):
        values *= model.idf[indices]
        values /= np.sqrt(row_sums(values * values, [len(values)]))
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
            assert fresh.n_words == 0 and word_columns(fresh) == {}
            assert set(word_columns(primed)) == {w for d in corpus for w in d.split()}
            got, want = transform(primed, texts), transform(fresh, texts)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            fresh_columns = word_columns(fresh)
            for word, cols in word_columns(primed).items():
                assert np.array_equal(cols, fresh_columns[word]), word

    def test_rejects_single_string(self):
        with pytest.raises(TypeError):
            fit_tfidf("abc")

    def test_rejects_bad_ngram_range_without_any_word(self):
        with pytest.raises(ValueError, match="invalid n-gram range"):
            fit_tfidf(["", " "], TfidfConfig(n_min=3, n_max=2))


# words of 1-8 characters, non-BMP ones among them, and n-gram ranges
# (a, b) inside (lo, hi) that reach past the longest padded word
WORDS = st.text(st.sampled_from("ab\u00e9\u0436\U0001F600\U0001D538"), min_size=1, max_size=8)
NESTED_RANGES = st.lists(st.integers(1, 12), min_size=4, max_size=4).map(sorted)


class TestGramTable:
    """A table split over a wide n-gram range fits every range inside it as
    fit_tfidf would on that range alone."""

    @settings(max_examples=300, deadline=None)
    @given(WORDS, NESTED_RANGES)
    def test_range_selects_the_grams_of_a_narrower_split(self, word, ranges):
        lo, a, b, hi = ranges
        table = GramTable.split([word], lo, hi, prep=list)
        inside = table.in_range(a, b)
        # one document, so a gram's corpus count is its count in the word
        grams = table_grams(table)
        got = {grams[g]: int(table.total[g]) for g in np.flatnonzero(inside).tolist()}
        assert Counter(got) == Counter(char_wb_ngrams(word, a, b))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=5), NESTED_RANGES)
    def test_grams_per_word_counts_char_wb_ngrams(self, words, ranges):
        _, a, b, _ = ranges
        padded = np.array([len(w) + 2 for w in words])
        assert _grams_per_word(padded, a, b).tolist() == [
            len(char_wb_ngrams(w, a, b)) for w in words]

    def test_a_above_the_padded_length_keeps_the_whole_word(self):
        table = GramTable.split(["ab cdefgh"], 2, 9, prep=list)
        inside = table.in_range(5, 9)
        assert sorted(table_grams(table)[g] for g in np.flatnonzero(inside)) == sorted(
            char_wb_ngrams("ab cdefgh", 5, 9))
        assert " ab " in [table_grams(table)[g] for g in np.flatnonzero(inside)]

    @pytest.mark.parametrize("config", [
        TfidfConfig(n_min=2, n_max=4),
        TfidfConfig(n_min=3, n_max=5, max_features=9),
        TfidfConfig(n_min=1, n_max=2, max_features=5),
        TfidfConfig(n_min=4, n_max=6, min_df=2),
        TfidfConfig(n_min=6, n_max=6),
        TfidfConfig(n_min=2, n_max=3, max_features=0),
        TfidfConfig(n_min=2, n_max=3, min_df=0),
    ])
    def test_fits_each_range_like_fit_tfidf(self, config):
        corpus = TestFitMatchesPerDocumentCounts.MIXED
        more = ["unseen words", "the cat", "😀 zz"]
        table = GramTable.split(corpus, 1, 6, more, prep=list)
        model = table.model(config, table.select(config))
        vocabulary, idf = reference_fit(corpus, config)
        assert model.vocabulary == vocabulary
        assert model.idf.tobytes() == idf.tobytes()
        # the words of more_texts are known, but never counted
        fresh = TfidfModel(vocabulary=dict(model.vocabulary), idf=model.idf.copy(),
                           config=config)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(transform(model, corpus + more), name),
                                  getattr(transform(fresh, corpus + more), name))
        assert set(word_columns(model)) == {w for t in corpus + more for w in t.split()}
        # the rows built from the table's own count are transform's, bit for bit
        kept = table.select(config)
        for texts, of_more in ((corpus, False), (more, True)):
            got, want = table.matrix(kept, more=of_more), transform(fresh, texts)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_total_and_df_match_a_counter_over_each_document(self):
        rng = np.random.default_rng(3)
        pool = "the cat sat on mat café naïve it's 日本 😀 a bb".split()
        corpus = [" ".join(rng.choice(pool, size=rng.integers(0, 9)))
                  for _ in range(2 * CHUNK_ROWS + 9)]
        # words that no corpus document holds: their grams get no count
        more = ["zebra quux", "", "qq😀q zebra"]
        table = GramTable.split(corpus, 1, 4, more, prep=list)
        per_doc = [Counter(char_wb_ngrams(doc, 1, 4)) for doc in corpus]
        grams = set(char_wb_ngrams(" ".join(corpus + more), 1, 4))
        assert table_grams(table) == sorted(grams)
        for g, gram in enumerate(table_grams(table)):
            assert table.total[g] == sum(c[gram] for c in per_doc), gram
            assert table.df[g] == sum(gram in c for c in per_doc), gram
        assert table.df[table_grams(table).index("zebr")] == 0
        assert table.total[table_grams(table).index("quux")] == 0.0

    def test_matrix_of_more_than_one_chunk_equals_transform(self):
        rng = np.random.default_rng(5)
        pool = "the cat sat on mat café naïve it's 日本 😀 a bb zz\x00 q\ud800q".split()
        corpus = [" ".join(rng.choice(pool, size=rng.integers(0, 12)))
                  for _ in range(2 * CHUNK_ROWS + 3)]
        more = corpus[:CHUNK_ROWS + 1] + ["brand new", ""]
        table = GramTable.split(corpus, 1, 6, more, prep=list)
        for config in (TfidfConfig(n_min=2, n_max=5, max_features=60),
                       TfidfConfig(n_min=3, n_max=3, min_df=4), TfidfConfig(n_min=1, n_max=6)):
            kept = table.select(config)
            fresh = TfidfModel(*reference_fit(corpus, config), config=config)
            for texts, of_more in ((corpus, False), (more, True)):
                got, want = table.matrix(kept, more=of_more), transform(fresh, texts)
                assert got.shape == want.shape
                for name in ("indptr", "indices", "data"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_split_holds_no_temporary_half_the_size_of_its_count(self, monkeypatch):
        rng = np.random.default_rng(8)
        pool = [f"w{i}x{i * 7 % 13}" for i in range(150)]
        corpus = [" ".join(rng.choice(pool, size=12)) for _ in range(800)]
        # chunks of 8 documents and sums over 1024 entries: each temporary
        # is far smaller than the count that the table keeps
        monkeypatch.setattr(features, "CHUNK_ROWS", 8)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 1024)
        tracemalloc.start()
        try:
            table = GramTable.split(corpus, 3, 5, prep=list)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        X = table.matrix(np.arange(len(table_grams(table))))
        assert X.nnz > 20 * 1024
        assert peak - held < X.data.nbytes / 2
        # the sums over slices are the sums over all entries at once
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 1 << 30)
        whole = GramTable.split(corpus, 3, 5, prep=list)
        assert table.total.tobytes() == whole.total.tobytes()
        assert table.df.tobytes() == whole.df.tobytes()

    def test_grams_become_strings_only_in_model(self, monkeypatch):
        # a gram is a span of the split's text: the split and its matrices
        # make no string of one, and a model makes one per gram it keeps
        made, real = [], features._gram_strings

        def spy(text, start, length):
            grams = real(text, start, length)
            made.extend(grams)
            return grams

        monkeypatch.setattr(features, "_gram_strings", spy)
        corpus = ["the cat sat", "a café naïve 😀", "it's the mat", "cat cat x\ud800y"]
        table = GramTable.split(corpus, 1, 5, ["brand new"], prep=list)
        config = TfidfConfig(n_min=2, n_max=4, max_features=20)
        kept = table.select(config)
        table.matrix(kept)
        table.matrix(kept, more=True)
        table.drop_counts()
        assert made == []
        model = table.model(config, kept)
        got = list(made)
        assert got == list(model.vocabulary)
        grams = table_grams(table)
        assert got == [grams[g] for g in kept.tolist()] and len(got) == 20 < len(grams)
        assert model.vocabulary == fit_tfidf(corpus, config).vocabulary

    def test_documents_without_words(self):
        table = GramTable.split(["", " ", "\n"], 1, 3, [""], prep=list)
        assert table_grams(table) == [] and len(table.total) == 0 and len(table.df) == 0
        kept = table.select(TfidfConfig(n_min=1, n_max=3))
        assert table.matrix(kept).shape == (3, 0)
        assert table.matrix(kept, more=True).shape == (1, 0)
        model = table.model(TfidfConfig(n_min=1, n_max=3), kept)
        assert model.dim == 0 and transform(model, ["ab"]).shape == (1, 0)

    def test_range_outside_the_table_rejected(self):
        table = GramTable.split(["ab"], 2, 4, prep=list)
        with pytest.raises(ValueError, match="not inside"):
            table.in_range(1, 4)
        with pytest.raises(ValueError, match="not inside"):
            table.select(TfidfConfig(n_min=3, n_max=5))


# words holding NUL, a lone surrogate and astral characters, some of them
# shorter than n_min once padded; drawing from all of Unicode too makes
# alphabets wide enough that a gram's key spans two int64 words
KERNEL_WORDS = st.text(st.one_of(
    st.sampled_from("ab\x00\ud800\u00e9\U0001F600\U0001D538"),
    st.characters(min_codepoint=0x21).filter(lambda c: not c.isspace())),
    min_size=1, max_size=14)
RANGES = st.lists(st.integers(1, 12), min_size=2, max_size=2).map(sorted)


class TestSplitWords:
    """The one-pass kernel splits words as char_wb_ngrams does, and numbers
    the grams in lexicographic order."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(KERNEL_WORDS, max_size=8), RANGES)
    def test_ids_are_the_ranks_of_the_emitted_grams(self, words, ranges):
        n_min, n_max = ranges
        grams, length, whole, per_word, ids = split_words(words, n_min, n_max)
        emitted = char_wb_ngrams(" ".join(words), n_min, n_max)
        assert grams == sorted(set(emitted))
        rank = {gram: i for i, gram in enumerate(grams)}
        assert ids.dtype == np.int32
        assert ids.tolist() == [rank[gram] for gram in emitted]
        assert per_word.tolist() == [len(char_wb_ngrams(w, n_min, n_max)) for w in words]
        assert length.tolist() == [len(gram) for gram in grams]
        assert whole.tolist() == [gram in {f" {w} " for w in words} for gram in grams]

    def test_keys_of_three_int64_words(self):
        # 5000 characters take 13 bits each, so four fit in one int64 word
        rng = np.random.default_rng(2)
        alphabet = [chr(c) for c in range(0x4E00, 0x4E00 + 5000)]
        words = ["".join(rng.choice(alphabet, size=rng.integers(1, 15))) for _ in range(300)]
        words += [w[:-1] + "a" for w in words[:50]] + [w[:4] for w in words[:50]]
        grams, _, _, _, ids = split_words(words, 1, 12)
        emitted = char_wb_ngrams(" ".join(words), 1, 12)
        assert grams == sorted(set(emitted))
        assert [grams[i] for i in ids.tolist()] == emitted

    def test_no_words(self):
        grams, length, whole, per_word, ids = split_words([], 2, 5)
        assert grams == []
        assert [len(length), len(whole), len(per_word), len(ids)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("n_min,n_max", [(2, 2**70), (2**63, 2**64), (7, 2**63), (5, 7)])
    def test_ranges_past_int64(self, n_min, n_max):
        words = ["ab", "\U0001F600xyz", "a"]
        grams, _, _, per_word, ids = split_words(words, n_min, n_max)
        assert [grams[i] for i in ids.tolist()] == char_wb_ngrams(" ".join(words), n_min, n_max)
        want = [len(char_wb_ngrams(w, n_min, n_max)) for w in words]
        assert per_word.tolist() == want
        assert _grams_per_word(np.array([4, 6, 3]), n_min, n_max).tolist() == want

    def test_n_min_above_every_padded_length(self):
        grams, _, whole, per_word, ids = split_words(["ab", "\U0001F600"], 9, 12)
        assert grams == [" ab ", " \U0001F600 "]
        assert whole.all() and per_word.tolist() == [1, 1] and ids.tolist() == [0, 1]


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
        vec = to_dense(transform(model, ["abab"]))[0]
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
            got = to_dense(transform(model, docs))
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
            "th\ud800e c\udfffat \ud800",  # unseen words with lone surrogates
            "\U0001D538the 😀😀 \U0001F600a\U0001D538",  # unseen astral words
        ])

    def test_batch_longer_than_one_chunk(self, model):
        rng = np.random.default_rng(17)
        pool = ("the cat sat on mat café naïve über aaa bb it's dog's "
                "life, 日本 привет 😀 zz qq").split()
        texts = [
            " ".join(rng.choice(pool, size=rng.integers(0, 12)))
            for _ in range(2 * CHUNK_ROWS + 17)
        ]
        # unseen words with a lone surrogate or an astral character, in more
        # than one chunk
        for i, word in enumerate(["ca\ud800t", "\udc00", "\U0001D538ber", "😀the\U0001F600"]):
            texts[i * CHUNK_ROWS // 2] += f" {word} the {word}"
        self.assert_rows_exact(model, texts)

    def test_one_split_per_batch(self, model, monkeypatch):
        # a batch over three chunks splits all its new words in one call
        calls = []

        real = features._split_spans

        def counting(words, n_min, n_max):
            calls.append(list(words))
            return real(words, n_min, n_max)

        monkeypatch.setattr(features, "_split_spans", counting)
        texts = [f"the w{i % 70} cat" for i in range(2 * CHUNK_ROWS + 5)]
        self.assert_rows_exact(model, texts)
        assert calls == [[f"w{i}" for i in range(70)]]
        transform(model, texts)  # no word is new the second time
        assert len(calls) == 1

    def test_word_in_two_chunks_gets_one_row(self, model):
        texts = ["zebra the"] + ["cat"] * CHUNK_ROWS + ["the zebra zebra"]
        n_words = model.n_words
        self.assert_rows_exact(model, texts)
        assert model.n_words == n_words + 1 and whole_word_table(model)[0].count("zebra") == 1
        assert word_columns(model)["zebra"].tolist() == [
            model.vocabulary[g] for g in char_wb_ngrams("zebra", 2, 4) if g in model.vocabulary]

    def test_row_does_not_depend_on_batch(self, model):
        texts = ["the cat", "café the", "", "zzz", "the cat"]
        whole = transform(model, texts)
        for i, text in enumerate(texts):
            alone = transform(model, [text])
            assert np.array_equal(row(whole, i)[0], alone.indices)
            assert np.array_equal(row(whole, i)[1], alone.data)

    def test_rows_sorted_without_stored_zeros(self, model):
        batch = transform(model, ["the cat sat", "", "mat the", "aaaa bb aaa"])
        assert batch.indices.dtype == np.intp
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

    def test_new_words_grow_the_table_by_doubling(self, model):
        # 300 calls, each with one word the model has not seen: the word
        # table's column array is copied only when it outgrows its room
        buffers = []
        texts = [f"the w{i}x{'y' * (i % 7)}" for i in range(300)]
        for text in texts:
            transform(model, [text])
            if not buffers or model._table.ids is not buffers[-1]:
                buffers.append(model._table.ids)
        assert model.n_words == len(set(" ".join(self.VOCAB_DOCS + texts).split()))
        assert len(buffers) <= 8
        self.assert_rows_exact(model, texts)

    def test_scipy_accepts_the_layout(self, model):
        sparse = pytest.importorskip("scipy.sparse")
        batch = transform(model, ["the cat sat", "", "café the the"])
        csr = sparse.csr_matrix((batch.data, batch.indices, batch.indptr),
                                shape=batch.shape)
        csr.check_format(full_check=True)
        assert csr.has_canonical_format
        np.testing.assert_array_equal(csr.toarray(), to_dense(batch))


def count_reference(table, tokens, doc_len, width):
    """Reference: `_count` with every key built, sorted and reduced as
    int64, as it was before it chose int32 where that holds the keys."""
    width = max(width, 1)
    start = table.offsets[tokens]
    per_token = table.offsets[tokens + 1] - start
    first = np.cumsum(per_token) - per_token
    pos = np.arange(int(per_token.sum())) + np.repeat(start - first, per_token)
    doc = np.repeat(np.arange(len(doc_len)), doc_len)
    keys = np.sort(np.repeat(doc, per_token) * width + table.ids[pos])
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    starts = np.flatnonzero(distinct)
    times = np.diff(np.append(starts, len(keys))).astype(np.int32)
    keys = keys[starts]
    docs = keys // width
    return (np.bincount(docs, minlength=len(doc_len)),
            (keys - docs * width).astype(np.int32), times)


class TestCount:
    """`_count` keys in int32 wherever rows x width < 2**31, and gives the
    int64 reference's entries at every width."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 40), max_size=6), min_size=1, max_size=12),
           st.lists(st.integers(0, 7), max_size=CHUNK_ROWS + 1), st.integers(0, 2**31),
           st.integers(0, 2**32))
    def test_equals_the_int64_reference(self, runs, doc_len, top, seed):
        # ids from 0 to 40, and one near the top of the width, which is
        # drawn past 2**31 // CHUNK_ROWS, where the keys need int64
        width = max(top, 41)
        rng = np.random.default_rng(seed)
        table = _WordTable()
        table.rows.update((f"w{i}", i) for i in range(len(runs)))
        ids = np.array([i for run in runs for i in run], dtype=np.int32)
        ids[ids == 40] = width - 1
        table.add(np.array([len(run) for run in runs]), ids)
        doc_len = np.array(doc_len, dtype=np.int64)
        tokens = rng.integers(0, len(runs), size=int(doc_len.sum())).astype(np.int32)
        got = _count(table, tokens, doc_len, width)
        want = count_reference(table, tokens, doc_len, width)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()
        assert got[1].dtype == got[2].dtype == np.int32

    @pytest.mark.parametrize("n_docs", [CHUNK_ROWS - 1, CHUNK_ROWS])
    def test_widths_at_the_int32_edge(self, n_docs):
        # CHUNK_ROWS x width = 2**31: one document fewer keys in int32
        width = 2**31 // CHUNK_ROWS
        table = _WordTable()
        table.rows.update({"a": 0, "b": 1})
        table.add(np.array([3, 2]), np.array([width - 1, 0, width - 1, 5, 5], dtype=np.int32))
        doc_len = np.arange(n_docs) % 4
        tokens = (np.arange(int(doc_len.sum())) % 2).astype(np.int32)
        got = _count(table, tokens, doc_len, width)
        want = count_reference(table, tokens, doc_len, width)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()
        assert got[1].max() == width - 1


class TestRowSums:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6), max_size=40), max_size=12))
    def test_each_row_sums_as_it_does_alone(self, rows):
        nnz = np.array([len(r) for r in rows], dtype=np.int64)
        values = np.array([v for r in rows for v in r])
        got = row_sums(values, nnz)
        assert got.shape == (len(rows),)
        for i, r in enumerate(rows):
            assert got[i] == row_sums(np.array(r), [len(r)])[0]
            assert math.isclose(got[i], math.fsum(r), rel_tol=1e-9, abs_tol=1e-6)

    def test_no_rows(self):
        assert row_sums(np.zeros(0), np.zeros(0, dtype=np.int64)).shape == (0,)


class TestCsrBatch:
    def test_every_producer_gives_intp_columns(self):
        corpus = ["the cat sat", "mat the", "café 😀 a"]
        config = TfidfConfig(n_min=2, n_max=4)
        table = GramTable.split(corpus, 2, 4, ["the dog"], prep=list)
        kept = table.select(config)
        model = table.model(config, kept)
        batches = [table.matrix(kept), table.matrix(kept, more=True),
                   *features.transform_chunks(model, ["the cat", "zebra", ""], list),
                   features.idf_rows(model, ["the", "café"], list),
                   CsrBatch(indptr=[0, 1], indices=np.array([2], dtype=np.int32),
                            data=[1.0], shape=(1, 3))]
        assert all(batch.indices.dtype == np.intp for batch in batches)
        assert all(batch.nnz > 0 for batch in batches)

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
            to_dense(batch),
            [[0.0, 2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]],
        )



class TestSerialization:
    """The vectorizer's part of the saved pipeline file."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = fit_tfidf(["ab cd ef", "cd ef gh", "it's x"],
                          TfidfConfig(n_min=2, n_max=5, max_features=50))
        ridge = RidgeModel(weights=np.zeros(model.dim), intercept=0.0, alpha=1.0)
        path = tmp_path / "model.pipeline"
        save_pipeline(Pipeline(PreprocessConfig(), model, ridge), path)
        loaded = load_pipeline(path).tfidf
        assert loaded.vocabulary == model.vocabulary
        assert list(loaded.vocabulary) == list(model.vocabulary)
        assert loaded.config == model.config
        assert loaded.idf.tobytes() == model.idf.tobytes()
        # writing the loaded model reproduces the file byte for byte
        path2 = tmp_path / "model2.pipeline"
        save_pipeline(Pipeline(PreprocessConfig(), loaded, ridge), path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_header(self, tmp_path):
        # a model file of the old tfidf-v1 text format is not read
        path = tmp_path / "bad.pipeline"
        path.write_text("tfidf-v1\nconfig\tn_min=2\tn_max=3\tmax_features=9\tmin_df=1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="not a sevrank-pipeline-v2 file"):
            load_pipeline(path)
