"""Char-wb TF-IDF features: fit a vocabulary, map text batches to CSR rows.

The vectorizer counts within-word character n-grams, weights raw counts by
smoothed inverse document frequency, and L2-normalizes each row.  Fitting
is fully deterministic: vocabulary selection breaks count ties
lexicographically and column indices follow lexicographic gram order, so
the model is independent of corpus order.

A char-wb gram never crosses a word boundary, so a document's gram counts
are the sum of its words' gram counts.  Fit and `transform` therefore
share one walk and one count.  A word table holds, for every word seen,
a run of int32 ids: gram ids in a `GramTable`, in-vocabulary columns in a
`TfidfModel`.  The walk (`_chunks`) takes CHUNK_ROWS texts at a time,
splits the chunk's words the table lacks in one `char_wb_ngrams` call and
adds them; the count (`_count`) then gathers every token's ids and counts
each document's distinct ids.  A `GramTable` can split over a wider
n-gram range than one fit needs and then serve every range inside it,
which is how `search` fits all its trials from one split; `fit_tfidf` is
one table and one fit.

A fitted model knows every word of its corpus, and the `.pipeline` file
saves its word table with it, so `transform` splits only words it has
never seen, once per model.  The vocabulary, the idf weights and each
row's values are the same float64 numbers, bit for bit, as counting each
document's grams on its own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, filterfalse, repeat
from typing import Callable, Iterable, Iterator, Sequence

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
class _WordTable:
    """Words, each owning a run of int32 ids, in the order they were added.

    Row r (`rows[word]`) owns `ids[offsets[r]:offsets[r + 1]]`.  Both
    arrays keep room at their end, so adding words copies them only when
    they outgrow that room.
    """

    rows: dict[str, int] = field(default_factory=dict)
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int32))

    def add(self, words: Iterable[str], counts: np.ndarray, ids: np.ndarray) -> None:
        """Append words: word i owns the next counts[i] entries of `ids`.
        The words must be distinct and not in the table yet; a repeat
        leaves `rows` short of the rows added."""
        n, k = len(self.rows), len(counts)
        used = int(self.offsets[n])
        self.offsets = _room(self.offsets, n + 1, k)
        self.ids = _room(self.ids, used, len(ids))
        self.offsets[n + 1 : n + 1 + k] = used + np.cumsum(counts)
        self.ids[used : used + len(ids)] = ids
        self.rows.update(zip(words, range(n, n + k)))

    def used(self) -> tuple[np.ndarray, np.ndarray]:
        """(row offsets, ids) of the words added so far, without the room."""
        offsets = self.offsets[: len(self.rows) + 1]
        return offsets, self.ids[: offsets[-1]]


def _room(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """`buffer`, or a copy of its first `used` entries at least twice as
    long, with room for `extra` more entries after them."""
    if len(buffer) >= used + extra:
        return buffer
    grown = np.empty(max(2 * len(buffer), used + extra), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


@dataclass(eq=False)
class TfidfModel:
    """Fitted vectorizer: gram -> column index, per-column idf weights.

    The model's word table, laid out as a `GramTable`'s, holds for every
    word it knows the columns of the word's in-vocabulary grams, in
    char_wb_ngrams order with repeats.  `fit_tfidf` fills it with every
    training word, a loaded model reads it from its file, and `transform`'s
    walk adds each new word it meets, so a word is split into grams once
    per model, however many batches it appears in.  The table grows with
    the distinct words seen.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    config: TfidfConfig
    _table: _WordTable = field(default_factory=_WordTable, init=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    @property
    def n_words(self) -> int:
        """Words in the word table."""
        return len(self._table.rows)

    def word_table(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(words in row order, columns per word, all columns) of the table."""
        offsets, columns = self._table.used()
        return list(self._table.rows), np.diff(offsets), columns


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
    are the same in every range that holds it.  The split walks and counts
    the corpus as `transform` does; its word table holds each word's gram
    ids, numbered in lexicographic gram order, so choosing and ordering a
    vocabulary are array operations on ids.

    Words of `more_texts` are split too, but not counted: a model fitted
    from the table then knows their columns, so transforming those texts
    splits no word again.
    """

    n_min: int
    n_max: int
    n_docs: int
    _table: _WordTable      # each word's gram ids, in char_wb_ngrams order
    grams: list[str]        # the gram of each id; ids ascend lexicographically
    length: np.ndarray      # characters per gram
    whole: np.ndarray       # gram is a whole padded word
    total: np.ndarray       # count per gram over the corpus, float64
    df: np.ndarray          # corpus documents holding each gram

    @property
    def flat(self) -> np.ndarray:
        """Every word's gram ids, concatenated in table row order."""
        return self._table.used()[1]

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
        table = _WordTable()
        gram_ids: dict[str, int] = defaultdict(count().__next__)  # numbers new grams
        ids_of = partial(map, gram_ids.__getitem__)
        # count only once every word is split and every gram renumbered, so
        # total and df are allocated once; keep the corpus tokens till then
        chunks = list(_chunks(table, corpus, n_min, n_max, ids_of))
        for _ in _chunks(table, more_texts, n_min, n_max, ids_of):
            pass

        # renumber the grams in lexicographic order, in the table's own ids
        grams = sorted(gram_ids)
        rank = np.empty(len(grams), dtype=np.int32)
        rank[np.fromiter(map(gram_ids.__getitem__, grams), dtype=np.int64,
                         count=len(grams))] = np.arange(len(grams))
        flat = table.used()[1]
        flat[:] = rank[flat]
        # a word is one whole gram once the range reaches its padded length
        whole = np.zeros(len(grams), dtype=bool)
        whole[rank[[gram_ids[f" {w} "] for w in table.rows if len(w) + 2 <= n_max]]] = True
        del gram_ids

        total = np.zeros(len(grams))
        df = np.zeros(len(grams), dtype=np.int64)
        while chunks:  # free each chunk's tokens once counted; sums are exact
            _, ids, times = _count(table, *chunks.pop(), len(grams))
            total += np.bincount(ids, weights=times, minlength=len(grams))
            df += np.bincount(ids, minlength=len(grams))
        return cls(
            n_min=n_min, n_max=n_max, n_docs=len(corpus), _table=table, grams=grams,
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
        offsets, ids = self._table.used()
        model._table.add(self._table.rows, *_kept(column[ids], offsets))
        return model


def transform(model: TfidfModel, texts: Sequence[str]) -> CsrBatch:
    """Vectorize a batch of preprocessed documents, one row per text.

    Raw in-vocabulary gram counts are scaled by idf and each row is
    L2-normalized; a text with no in-vocabulary gram maps to an empty
    row.  Documents are counted CHUNK_ROWS at a time.
    """
    if isinstance(texts, str):
        raise TypeError("transform takes a sequence of texts, not one str")
    vocabulary, config = model.vocabulary, model.config
    row_nnz, indices, data = [], [], []
    for tokens, doc_len in _chunks(model._table, texts, config.n_min, config.n_max,
                                   lambda grams: map(vocabulary.get, grams, repeat(-1))):
        nnz, cols, values = _count(model._table, tokens, doc_len, model.dim)
        values = values * model.idf[cols]
        # per-row norms, each taken exactly as for a lone row vector
        bounds = np.concatenate(([0], np.cumsum(nnz))).tolist()
        norms = np.ones(len(doc_len))
        for i in np.flatnonzero(nnz).tolist():
            norms[i] = np.linalg.norm(values[bounds[i] : bounds[i + 1]])
        values /= np.repeat(norms, nnz)
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


def _chunks(
    table: _WordTable,
    texts: Sequence[str],
    n_min: int,
    n_max: int,
    ids_of: Callable[[list[str]], Iterable[int]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk `texts` CHUNK_ROWS at a time, adding the words `table` lacks.

    A chunk's new words are split over [n_min, n_max] in one
    char_wb_ngrams call; `ids_of` maps their grams to ids, and an id < 0
    is dropped.  Yields (table row of each token, tokens per text) for
    each chunk.
    """
    rows = table.rows
    for start in range(0, len(texts), CHUNK_ROWS):
        split = [text.split() for text in texts[start : start + CHUNK_ROWS]]
        words = list(chain.from_iterable(split))
        new = list(filterfalse(rows.__contains__, dict.fromkeys(words)))
        if new:
            grams = char_wb_ngrams(" ".join(new), n_min, n_max)
            padded = np.fromiter(map(len, new), dtype=np.int64, count=len(new)) + 2
            offsets = np.concatenate(([0], np.cumsum(_grams_per_word(padded, n_min,
                                                                     n_max))))
            ids = np.fromiter(ids_of(grams), dtype=np.int64, count=len(grams))
            table.add(new, *_kept(ids, offsets))
        yield (np.fromiter(map(rows.__getitem__, words), dtype=np.int32, count=len(words)),
               np.fromiter(map(len, split), dtype=np.int64, count=len(split)))


def _count(
    table: _WordTable, tokens: np.ndarray, doc_len: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entries per document, ids, counts) of documents whose tokens are
    the table rows `tokens`, doc_len[d] of them for document d.

    Each document's entries are its distinct ids, ascending, as int32,
    with how often the document holds each; every id is below `width`.
    """
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
    times = np.diff(np.append(starts, len(keys)))
    keys = keys[starts]
    docs = keys // width
    return (np.bincount(docs, minlength=len(doc_len)),
            (keys - docs * width).astype(np.int32), times)


def _kept(ids: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids >= 0 per word, those ids in order, as int32) of words whose ids
    are ids[offsets[i]:offsets[i + 1]]; an id < 0 marks a dropped gram."""
    found = ids >= 0
    inside = np.concatenate(([0], np.cumsum(found)))
    return np.diff(inside[offsets]), ids[found].astype(np.int32)


def _grams_per_word(padded: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
    """How many grams char_wb_ngrams emits for words of `padded` characters
    with their two pad spaces: padded - n + 1 windows for each n in
    [n_min, min(n_max, padded - 1)], then the whole padded word once when
    n_max reaches it."""
    k = np.maximum(np.minimum(n_max, padded - 1) - n_min + 1, 0)
    return k * (padded + 1 - n_min) - k * (k - 1) // 2 + (padded <= n_max)
