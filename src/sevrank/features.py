"""Char-wb TF-IDF features: fit a vocabulary, map text batches to CSR rows.

The vectorizer counts within-word character n-grams, weights raw counts by
smoothed inverse document frequency, and L2-normalizes each row.  Fitting
is fully deterministic: vocabulary selection breaks count ties
lexicographically and column indices follow lexicographic gram order, so
the model is independent of corpus order.

A char-wb gram never crosses a word boundary, so a document's gram counts
are the sum of its words' gram counts.  Both passes work per distinct
word.  A `GramTable` splits each distinct word into grams once and counts
(document, word) pairs with array operations, CHUNK_ROWS documents at a
time; it can split over a wider n-gram range than one fit needs and then
serve every range inside it, which is how `search` fits all its trials
from one split.  `fit_tfidf` is one table and one fit.

A model keeps a word table: every word it knows, with that word's
in-vocabulary columns, as one array table (a word -> row dict, row
offsets, and one int32 column array).  A fitted model knows every word
of its table, and the `.pipeline` file saves the table with the model.
`transform` gathers each known word's columns from the table and splits
only the words it has never seen, one batch per chunk, appending them to
the table.  The vocabulary, the idf weights and each row's values are
the same float64 numbers, bit for bit, as counting each document's grams
on its own.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count, filterfalse, repeat
from typing import Iterable, Sequence

import numpy as np

from .textproc import char_wb_ngrams

__all__ = [
    "CHUNK_ROWS",
    "CsrBatch",
    "GramTable",
    "TfidfConfig",
    "TfidfModel",
    "fit_tfidf",
    "transform",
]

# Documents counted together in one array pass of `fit_tfidf` and
# `transform`; bounds the size of the per-chunk gram arrays, whatever the
# corpus or batch size.
CHUNK_ROWS = 64


@dataclass(frozen=True, eq=False)
class CsrBatch:
    """Rows of sparse real vectors in compressed sparse row layout.

    Row i holds columns indices[indptr[i]:indptr[i + 1]] with the values
    at the same positions of data.  Within a row the column indices are
    strictly increasing and no stored value is zero; construction checks
    this, and the shape, with whole-array operations.
    """

    indptr: np.ndarray   # int64, n_rows + 1 offsets into indices/data
    indices: np.ndarray  # int32 column indices
    data: np.ndarray     # float64 values
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int32)
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        n_rows, dim = self.shape
        nnz = len(indices)
        if n_rows < 0 or dim < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if indptr.shape != (n_rows + 1,):
            raise ValueError(f"indptr needs {n_rows + 1} entries, got {len(indptr)}")
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 to the number of entries")
        if len(data) != nnz:
            raise ValueError("index/value length mismatch")
        if nnz == 0:
            return
        if indices.min() < 0 or indices.max() >= dim:
            raise ValueError("index out of range")
        increasing = np.diff(indices) > 0
        starts = indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < nnz)] - 1] = True
        if not increasing.all():
            raise ValueError("indices must be strictly increasing within a row")
        if np.any(data == 0.0):
            raise ValueError("explicit zeros are not stored")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def to_dense(self) -> np.ndarray:
        n_rows, dim = self.shape
        dense = np.zeros((n_rows, dim))
        rows = np.repeat(np.arange(n_rows), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


@dataclass(frozen=True)
class TfidfConfig:
    n_min: int = 3
    n_max: int = 5
    max_features: int = 30000
    min_df: int = 1


@dataclass(eq=False)
class TfidfModel:
    """Fitted vectorizer: gram -> column index, per-column idf weights.

    The model's word table holds, for every word it knows, the columns of
    the word's in-vocabulary grams, in char_wb_ngrams order with repeats.
    Row r (`_rows[word]`) owns `_columns[_offsets[r]:_offsets[r + 1]]`;
    both arrays keep room at their end, so adding words copies the table
    only when it outgrows that room.  `fit_tfidf` fills the table with
    every training word, a loaded model reads it from its file, and
    `transform` adds each new word it meets, so a word is split into grams
    once per model, however many batches it appears in.  The table grows
    with the distinct words seen.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    config: TfidfConfig
    _rows: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64),
                                 init=False, repr=False)
    _columns: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32),
                                 init=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    @property
    def n_words(self) -> int:
        """Words in the word table."""
        return len(self._rows)

    def add_words(self, words: Iterable[str], counts: np.ndarray,
                  columns: np.ndarray) -> None:
        """Append words to the word table: word i owns the next counts[i]
        entries of `columns`.  The words must be distinct and not in the
        table yet; a repeat leaves `n_words` short of the rows added."""
        n, k = len(self._rows), len(counts)
        used = int(self._offsets[n])
        self._offsets = _room(self._offsets, n + 1, k)
        self._columns = _room(self._columns, used, len(columns))
        self._offsets[n + 1 : n + 1 + k] = used + np.cumsum(counts)
        self._columns[used : used + len(columns)] = columns
        self._rows.update(zip(words, range(n, n + k)))

    def word_table(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(words in row order, columns per word, all columns) of the table."""
        offsets = self._offsets[: len(self._rows) + 1]
        return list(self._rows), np.diff(offsets), self._columns[: offsets[-1]]


def _room(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """`buffer`, or a copy of its first `used` entries at least twice as
    long, with room for `extra` more entries after them."""
    if len(buffer) >= used + extra:
        return buffer
    grown = np.empty(max(2 * len(buffer), used + extra), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


def fit_tfidf(corpus: Sequence[str], config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Fit vocabulary and idf weights on preprocessed documents.

    Grams with document frequency below min_df are dropped; of the rest,
    the max_features grams with the highest total corpus count are kept
    (ties broken by lexicographic order, ascending).  Column indices are
    assigned in lexicographic gram order and
    idf(g) = ln((1 + N) / (1 + df(g))) + 1 with N the corpus size.
    The returned model knows the columns of every word of the corpus.
    """
    table = GramTable.split(corpus, config.n_min, config.n_max)
    return table.model(config, table.select(config))


@dataclass(eq=False)
class GramTable:
    """Every distinct word of a corpus split once into char-wb grams, and
    every gram counted over the corpus.

    `split` splits each word over one n-gram range [n_min, n_max].  A fit
    for any range inside it needs no second split: a char-wb gram never
    crosses a word, so the grams of a narrower range are the entries of
    the wider one whose gram has a length in that range, plus the whole
    padded word when the range reaches its length (`in_range`).  For the
    same reason a gram's count in a document, and its document frequency,
    are the same in every range that holds it.  Gram ids follow
    lexicographic gram order, so choosing and ordering a vocabulary are
    array operations on ids.

    Words of `more_texts` are split too, but not counted: a model fitted
    from the table then knows their columns, so transforming those texts
    splits no word again.
    """

    n_min: int
    n_max: int
    n_docs: int
    words: dict[str, int]   # word -> word id, in first-seen order
    flat: np.ndarray        # every word's gram ids, concatenated in word-id order
    offsets: np.ndarray     # word i's gram ids are flat[offsets[i]:offsets[i + 1]]
    grams: list[str]        # the gram of each id; ids ascend lexicographically
    length: np.ndarray      # characters per gram
    whole: np.ndarray       # gram is a whole padded word
    total: np.ndarray       # count per gram over the corpus, float64
    df: np.ndarray          # corpus documents holding each gram

    @classmethod
    def split(
        cls,
        corpus: Sequence[str],
        n_min: int,
        n_max: int,
        more_texts: Sequence[str] = (),
    ) -> GramTable:
        """Split the words of `corpus` and `more_texts`, count over `corpus`."""
        if isinstance(corpus, str):
            raise TypeError("a corpus is a sequence of documents, not one str")
        if len(corpus) == 0:
            raise ValueError("cannot fit tf-idf on an empty corpus")
        if not 1 <= n_min <= n_max:
            raise ValueError(f"invalid n-gram range ({n_min}, {n_max})")
        word_ids: dict[str, int] = {}
        gram_ids: dict[str, int] = defaultdict(count().__next__)  # numbers new grams
        word_grams = array("q")
        width = array("q")
        tokens = array("q")   # word id of every token, in text order
        doc_len = array("q")  # tokens per text
        for text in chain(corpus, more_texts):
            words = text.split()
            doc_len.append(len(words))
            for word in words:
                w = word_ids.get(word)
                if w is None:
                    w = word_ids[word] = len(word_ids)
                    grams = char_wb_ngrams(word, n_min, n_max)
                    width.append(len(grams))
                    word_grams.extend(map(gram_ids.__getitem__, grams))
                tokens.append(w)

        # renumber the grams in lexicographic order
        grams = sorted(gram_ids)
        rank = np.empty(len(grams), dtype=np.int64)
        rank[np.fromiter(map(gram_ids.__getitem__, grams), dtype=np.int64,
                         count=len(grams))] = np.arange(len(grams))
        flat = rank[np.frombuffer(word_grams, dtype=np.int64)]
        # a word is one whole gram once the range reaches its padded length
        whole = np.zeros(len(grams), dtype=bool)
        whole[rank[[gram_ids[f" {w} "] for w in word_ids if len(w) + 2 <= n_max]]] = True
        del gram_ids
        offsets = np.concatenate(([0], np.cumsum(np.frombuffer(width, dtype=np.int64))))
        # count over the corpus documents, the first texts
        doc_len = np.frombuffer(doc_len, dtype=np.int64)[: len(corpus)]
        tokens = np.frombuffer(tokens, dtype=np.int64)[: int(doc_len.sum())]
        total, df = _corpus_counts(flat, offsets, tokens, doc_len, len(grams))
        return cls(
            n_min=n_min, n_max=n_max, n_docs=len(corpus), words=word_ids,
            flat=flat, offsets=offsets, grams=grams,
            length=np.fromiter(map(len, grams), dtype=np.int64, count=len(grams)),
            whole=whole, total=total, df=df,
        )

    def in_range(self, n_min: int, n_max: int) -> np.ndarray:
        """Which grams char_wb_ngrams emits over [n_min, n_max], per id.

        A window is emitted when its length is in the range; a whole
        padded word (L characters) when n_max >= L, also when n_min > L.
        """
        if not self.n_min <= n_min <= n_max <= self.n_max:
            raise ValueError(f"n-gram range ({n_min}, {n_max}) is not inside the "
                             f"table's ({self.n_min}, {self.n_max})")
        return (self.length <= n_max) & ((self.length >= n_min) | self.whole)

    def select(self, config: TfidfConfig) -> np.ndarray:
        """Ids of the grams `fit_tfidf` keeps under `config`, ascending."""
        # a gram of more_texts alone has df 0 and is never a candidate
        candidates = np.flatnonzero(
            self.in_range(config.n_min, config.n_max)
            & (self.df >= max(config.min_df, 1))
        )
        # as many as candidates[:max_features] holds, max_features < 0 included
        n_keep = len(range(len(candidates))[: config.max_features])
        if n_keep == len(candidates):
            return candidates
        if n_keep == 0:
            return candidates[:0]
        # the n_keep highest totals; a tie at the cut goes to the smallest grams
        counts = self.total[candidates]
        cut = -np.partition(-counts, n_keep - 1)[n_keep - 1]
        above = candidates[counts > cut]
        tied = candidates[counts == cut]
        return np.sort(np.concatenate((above, tied[: n_keep - len(above)])))

    def model(self, config: TfidfConfig, kept: np.ndarray) -> TfidfModel:
        """The model of the grams `kept`, knowing every table word's columns."""
        kept_df = self.df[kept].tolist()
        idf_of = {d: np.log((1.0 + self.n_docs) / (1.0 + d)) + 1.0
                  for d in set(kept_df)}
        grams = self.grams
        model = TfidfModel(
            vocabulary={grams[g]: i for i, g in enumerate(kept.tolist())},
            idf=np.array([idf_of[d] for d in kept_df]),
            config=config,
        )
        # every word's in-vocabulary columns, in gram order, for transform
        column = np.full(len(grams), -1, dtype=np.int64)
        column[kept] = np.arange(len(kept))
        model.add_words(self.words, *_in_vocabulary(column[self.flat], self.offsets))
        return model


def _corpus_counts(
    flat: np.ndarray, offsets: np.ndarray, tokens: np.ndarray, doc_len: np.ndarray,
    n_grams: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(total count, document frequency) per gram id, CHUNK_ROWS documents
    at a time; `tokens` holds the word ids of the documents' words."""
    n_docs, n_words = len(doc_len), len(offsets) - 1
    total = np.zeros(n_grams)
    df = np.zeros(n_grams, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(doc_len))).tolist()
    for start in range(0, n_docs, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_docs)
        doc = np.repeat(np.arange(stop - start), doc_len[start:stop])
        # distinct (document, word) pairs and how often each occurs
        pairs, times = _count_keys(doc * n_words + tokens[bounds[start] : bounds[stop]])
        pair_doc, pair_word = np.divmod(pairs, n_words)
        doc, grams, per_pair = _expand(flat, offsets, pair_word, pair_doc)
        total += np.bincount(grams, weights=np.repeat(times, per_pair), minlength=n_grams)
        doc_grams, _ = _count_keys(doc * n_grams + grams)
        df += np.bincount(doc_grams % n_grams, minlength=n_grams)
    return total, df


def transform(model: TfidfModel, texts: Sequence[str]) -> CsrBatch:
    """Vectorize a batch of preprocessed documents, one row per text.

    Raw in-vocabulary gram counts are scaled by idf and each row is
    L2-normalized; a text with no in-vocabulary gram maps to an empty
    row.  Documents are counted CHUNK_ROWS at a time.
    """
    if isinstance(texts, str):
        raise TypeError("transform takes a sequence of texts, not one str")
    row_nnz, indices, data = [], [], []
    for start in range(0, len(texts), CHUNK_ROWS):
        nnz, cols, values = _transform_chunk(model, texts[start : start + CHUNK_ROWS])
        row_nnz.append(nnz)
        indices.append(cols)
        data.append(values)
    if not row_nnz:
        return CsrBatch(indptr=[0], indices=[], data=[], shape=(0, model.dim))
    return CsrBatch(
        indptr=np.concatenate(([0], np.cumsum(np.concatenate(row_nnz)))),
        indices=np.concatenate(indices),
        data=np.concatenate(data),
        shape=(len(texts), model.dim),
    )


def _count_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and how often each occurs."""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(np.append(starts, len(keys)))


def _expand(
    flat: np.ndarray, offsets: np.ndarray, ids: np.ndarray, doc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every entry of each id in `ids`, in order, tagged with its document.

    Id i owns the entries flat[offsets[i]:offsets[i + 1]]; doc[k] is the
    document of ids[k].  Returns (document of each entry, entries, entries
    per id).
    """
    start = offsets[ids]
    per_id = offsets[ids + 1] - start
    first = np.cumsum(per_id) - per_id
    pos = np.arange(int(per_id.sum())) + np.repeat(start - first, per_id)
    return np.repeat(doc, per_id), flat[pos], per_id


def _in_vocabulary(
    cols: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(in-vocabulary columns per word, those columns in order) of words
    whose grams' columns are cols[offsets[i]:offsets[i + 1]], -1 for a gram
    out of the vocabulary."""
    found = cols >= 0
    inside = np.concatenate(([0], np.cumsum(found)))
    return np.diff(inside[offsets]), cols[found].astype(np.int32)


def _grams_per_word(padded: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
    """How many grams char_wb_ngrams emits for words of `padded` characters
    with their two pad spaces: padded - n + 1 windows for each n in
    [n_min, min(n_max, padded - 1)], then the whole padded word once when
    n_max reaches it."""
    k = np.maximum(np.minimum(n_max, padded - 1) - n_min + 1, 0)
    return k * (padded + 1 - n_min) - k * (k - 1) // 2 + (padded <= n_max)


def _add_new_words(model: TfidfModel, words: list[str]) -> None:
    """Split words the model has never seen, in one batch, into its table."""
    cfg = model.config
    grams = char_wb_ngrams(" ".join(words), cfg.n_min, cfg.n_max)
    cols = np.fromiter(map(model.vocabulary.get, grams, repeat(-1)),
                       dtype=np.int64, count=len(grams))
    padded = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) + 2
    offsets = np.concatenate(([0], np.cumsum(_grams_per_word(padded, cfg.n_min,
                                                             cfg.n_max))))
    model.add_words(words, *_in_vocabulary(cols, offsets))


def _transform_chunk(
    model: TfidfModel, texts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entries per row, columns, values) of a few documents' rows."""
    words: list[str] = []
    doc_words = np.empty(len(texts), dtype=np.int64)
    for d, text in enumerate(texts):
        split = text.split()
        doc_words[d] = len(split)
        words.extend(split)
    known = model._rows
    new = list(filterfalse(known.__contains__, dict.fromkeys(words)))
    if new:
        _add_new_words(model, new)

    # every token's columns, in order, tagged with its document
    token = np.fromiter(map(known.__getitem__, words), dtype=np.int64, count=len(words))
    doc, cols, _ = _expand(model._columns, model._offsets, token,
                           np.repeat(np.arange(len(texts)), doc_words))

    dim = max(model.dim, 1)
    keys, counts = _count_keys(doc * dim + cols)
    rows = keys // dim
    cols = (keys - rows * dim).astype(np.int32)
    nnz = np.bincount(rows, minlength=len(texts))
    values = counts.astype(np.float64)
    values *= model.idf[cols]
    # per-row norms, each taken exactly as for a lone row vector
    bounds = np.concatenate(([0], np.cumsum(nnz))).tolist()
    norms = np.ones(len(texts))
    for i in np.flatnonzero(nnz).tolist():
        norms[i] = np.linalg.norm(values[bounds[i] : bounds[i + 1]])
    values /= np.repeat(norms, nnz)
    return nnz, cols, values
