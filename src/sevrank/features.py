"""Char-wb TF-IDF features: the fitted vectorizer (`TfidfModel`), its CSR
rows (`CsrBatch`), and the word tables and kernels that fitting
(`fitting`) and scoring share.

The vectorizer counts within-word character n-grams, weights raw counts by
smoothed inverse document frequency, and L2-normalizes each row; its
columns follow lexicographic gram order.  The char-wb grams of a text
over [n_min, n_max]: for each whitespace-separated word, padded with one
space each side, and n from n_min up, every n-character window in order,
until n reaches the padded length: then the whole padded word, once.  No
gram crosses a word, so a document's gram counts are its words' summed.
The tests check every count here against this definition as plain loops
(`char_wb_ngrams` in `tests/reference.py`).

A word table (`_WordTable`) holds, for every word seen, a run of int32
ids: gram ids in a `fitting.GramTable`, in-vocabulary columns in a
`TfidfModel`; only a `CsrBatch` holds its columns as `np.intp`.  Every
batch, fit or scored, is counted in three steps: the walk gives each word
the table lacks the next row, preprocessing each distinct whitespace
token of the batch once (a `Prep`; the identity step `list` walks texts
that are already preprocessed), one `add` gives those new words their
runs, and `_count` counts each document's distinct ids, CHUNK_ROWS
documents at a time, in int32 keys wherever they fit.  One vectorized
kernel (`_split_spans`) splits all of a batch's new words in one call:
each distinct gram is a (start, length) span over the words' joined
text, and gram ids come out in lexicographic gram order.  Scoring makes
each new distinct gram a string to look it up (`_gram_strings`); a fit
makes strings only of the grams its model keeps.

A fitted model knows every word of its corpus, and the `.pipeline` file
saves its word table with it, so scoring splits only words the model
has never seen, once per model.  The vocabulary, the idf weights and
each row's values are the same float64 numbers, bit for bit, as counting
each document's char-wb grams on its own.  `idf_rows` is that count of a
whole batch, scaled by idf and not yet normalized, which
`pipeline.Pipeline.score_masks` combines for single tokens;
`transform_chunks` gives the normalized rows CHUNK_ROWS texts at a time,
after one walk and one split of the whole batch, so that
`pipeline.Pipeline.score` holds one chunk's rows at a time.
"""

from __future__ import annotations

from itertools import chain, count, filterfalse, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BLOCK_ENTRIES",
    "CHUNK_ROWS",
    "CsrBatch",
    "TfidfConfig",
    "TfidfModel",
]

# Documents counted together in one array pass of a walk's count
# (`fitting.GramTable.split`, `idf_rows`, `transform_chunks`) or of
# `fitting.GramTable.matrix`; bounds the size of the per-chunk gram arrays,
# whatever the corpus or batch size.
CHUNK_ROWS = 64

# The form of each of a list of whitespace-free tokens, its words joined
# by single spaces (`textproc.preprocess_tokens` with a config bound)
Prep = Callable[[list[str]], Sequence[str]]

# Stored entries that one step of a pass over a whole matrix or count
# handles at once (`fitting.GramTable.split`'s sums, `regress.fit_ridge`'s
# products): the pass's temporaries are this size, not the matrix's.
BLOCK_ENTRIES = 1 << 17


class CsrBatch:
    """Rows of sparse real vectors in compressed sparse row layout.

    Row i holds columns indices[indptr[i]:indptr[i + 1]] with the values
    at the same positions of data.  Within a row the column indices are
    strictly increasing and no stored value is zero; construction checks
    this, and the shape, with whole-array operations.

    The column indices are `np.intp`, the index type of numpy's fancy
    indexing and of `np.bincount`: a product over the entries gathers and
    bins with them as they are, and makes no cast the size of the batch.
    Construction casts other integer indices to it.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]) -> None:
        self.indptr = indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = indices = np.asarray(indices, dtype=np.intp)
        self.data = data = np.asarray(data, dtype=np.float64)
        self.shape = shape
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
        increasing = indices[1:] > indices[:-1]
        starts = indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < nnz)] - 1] = True
        if not increasing.all():
            raise ValueError("indices must be strictly increasing within a row")
        if np.any(data == 0.0):
            raise ValueError("explicit zeros are not stored")

    @property
    def nnz(self) -> int:
        return len(self.indices)


class TfidfConfig(NamedTuple):
    n_min: int = 3
    n_max: int = 5
    max_features: int = 30000
    min_df: int = 1


class _WordTable:
    """Words, each owning a run of int32 ids, in the order they were added.

    Row r (`rows[word]`) owns `ids[offsets[r]:offsets[r + 1]]`.  A word
    gets its row first (from `walk`, or by filling `rows`) and its run
    after (`add`).  Both arrays keep room at their end, so adding runs
    copies them only when they outgrow that room.
    """

    __slots__ = ("rows", "offsets", "ids")

    def __init__(self) -> None:
        self.rows: dict[str, int] = {}
        self.offsets = np.zeros(1, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int32)

    def walk(self, texts: Sequence[str], prep: Prep
             ) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]]]:
        """Give each word of `texts` the table lacks the next row; return
        those new words in row order and, per CHUNK_ROWS texts, (the table
        row of each word, words per text), which `count` counts once the
        new words have their runs.

        A text's words are the words of its whitespace-separated tokens'
        forms: prep(tokens) returns the form of each token of a list, its
        words joined by single spaces.  Each chunk passes `prep` the tokens
        no earlier chunk held, so a walk preprocesses each distinct token
        once.
        """
        rows, new, chunks = self.rows, [], []
        number: dict[str, int] = {}  # each distinct token, numbered as first met
        words_per_token: list[int] = []
        token_rows: list[int] = []  # the rows of each token's words, token after token
        for start in range(0, len(texts), CHUNK_ROWS):
            split = [text.split() for text in texts[start : start + CHUNK_ROWS]]
            tokens = list(chain.from_iterable(split))
            fresh = list(filterfalse(number.__contains__, dict.fromkeys(tokens)))
            number.update(zip(fresh, count(len(number))))
            # a form's words are joined by single spaces
            forms = prep(fresh)
            words = " ".join(forms).split()
            words_per_token += (form.count(" ") + 1 if form else 0 for form in forms)
            unseen = list(filterfalse(rows.__contains__, dict.fromkeys(words)))
            rows.update(zip(unseen, count(len(rows))))
            new += unseen
            token_rows += map(rows.__getitem__, words)
            chunks.append((np.fromiter(map(number.__getitem__, tokens), dtype=np.int32,
                                       count=len(tokens)),
                           np.fromiter(map(len, split), dtype=np.int64, count=len(split))))
        # each token by its words' rows, each text by its tokens' words
        per_token = np.array(words_per_token, dtype=np.int64)
        first = np.cumsum(per_token) - per_token
        token_rows = np.array(token_rows, dtype=np.int32)
        for i, (tokens, n_tokens) in enumerate(chunks):
            k = per_token[tokens]
            at = np.repeat(first[tokens] - (np.cumsum(k) - k), k) + np.arange(int(k.sum()))
            text_starts = np.concatenate(([0], np.cumsum(n_tokens)))
            chunks[i] = (token_rows[at], _in_groups(k, text_starts))
        return new, chunks

    def add(self, counts: np.ndarray, ids: np.ndarray) -> None:
        """Give the last len(counts) rows their runs: row i of them owns
        the next counts[i] entries of `ids`."""
        k = len(counts)
        n = len(self.rows) - k
        used = int(self.offsets[n])
        self.offsets = _room(self.offsets, n + 1, k)
        self.ids = _room(self.ids, used, len(ids))
        self.offsets[n + 1 : n + 1 + k] = used + np.cumsum(counts)
        self.ids[used : used + len(ids)] = ids

    def used(self) -> tuple[np.ndarray, np.ndarray]:
        """(row offsets, ids) of the words added so far, without the room."""
        offsets = self.offsets[: len(self.rows) + 1]
        return offsets, self.ids[: offsets[-1]]

    def count(self, chunks: list[tuple[np.ndarray, np.ndarray]],
              width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(entries per text, ids, counts) of the texts of the walked
        `chunks`: `_count` of each chunk, joined.  Each chunk's entries are
        written as they come into arrays with room for every id of every
        token, which bounds them, so no chunk's entries are held beside a
        copy of them all; the room past the entries is never written."""
        offsets = self.offsets
        room = sum(int((offsets[tokens + 1] - offsets[tokens]).sum()) for tokens, _ in chunks)
        nnz = np.empty(sum(len(doc_len) for _, doc_len in chunks), dtype=np.int64)
        ids, counts = np.empty(room, dtype=np.int32), np.empty(room, dtype=np.int32)
        texts = entries = 0
        for tokens, doc_len in chunks:
            chunk_nnz, chunk_ids, chunk_counts = _count(self, tokens, doc_len, width)
            nnz[texts : texts + len(doc_len)] = chunk_nnz
            ids[entries : entries + len(chunk_ids)] = chunk_ids
            counts[entries : entries + len(chunk_ids)] = chunk_counts
            texts += len(doc_len)
            entries += len(chunk_ids)
        return nnz, ids[:entries], counts[:entries]


def _room(buffer: np.ndarray, used: int, extra: int) -> np.ndarray:
    """`buffer`, or a copy of its first `used` entries at least twice as
    long, with room for `extra` more entries after them."""
    if len(buffer) >= used + extra:
        return buffer
    grown = np.empty(max(2 * len(buffer), used + extra), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class TfidfModel:
    """Fitted vectorizer: gram -> column index, per-column idf weights.

    The model's word table, laid out as a `fitting.GramTable`'s, holds for
    every word it knows the columns of the word's in-vocabulary grams, in
    char-wb emission order with repeats.  A fit (`fitting.GramTable.model`) fills
    it with every training word, a loaded model reads it from its file, and
    every scored batch (`idf_rows`, `transform_chunks`) adds each new word
    it meets, so a word is split into grams once per model, however many
    batches it appears in.  The table grows with the distinct words seen;
    its first rows are the words the fit or the file gave it, and only
    those are saved (`word_table`).
    """

    __slots__ = ("vocabulary", "idf", "config", "_table", "_n_fitted")

    def __init__(self, vocabulary: dict[str, int], idf: np.ndarray,
                 config: TfidfConfig) -> None:
        self.vocabulary, self.idf, self.config = vocabulary, idf, config
        self._table = _WordTable()
        self._n_fitted = 0  # rows of the table that came from the fit or the file

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    @property
    def n_words(self) -> int:
        """Words in the word table."""
        return len(self._table.rows)

    @classmethod
    def with_words(cls, vocabulary: dict[str, int], idf: np.ndarray, config: TfidfConfig,
                   words: Iterable[str], counts: np.ndarray, columns: np.ndarray) -> TfidfModel:
        """The model whose word table gives the i-th of `words` the next
        counts[i] entries of `columns`; one word per count, no word twice."""
        model = cls(vocabulary, idf, config)
        model._table.rows.update(zip(words, count()))
        if model.n_words != len(counts):
            raise ValueError("words must be distinct")
        model._table.add(counts, columns)
        model._n_fitted = model.n_words
        return model

    def word_table(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """(words in row order, columns per word, all columns) of the
        table's rows from the fit or the file, which no scoring changes;
        `with_words` builds the model back from them."""
        n = self._n_fitted
        offsets, columns = self._table.used()
        return list(islice(self._table.rows, n)), np.diff(offsets[: n + 1]), \
            columns[: offsets[n]]


def transform_chunks(model: TfidfModel, texts: Sequence[str],
                     prep: Prep) -> Iterator[CsrBatch]:
    """The rows of the raw `texts` preprocessed by `prep`, CHUNK_ROWS
    texts per batch, in order: each text's `idf_rows` row divided by its
    L2 norm, an empty row for a text with no in-vocabulary gram.

    A text's words are those of its tokens' forms (`_WordTable.walk`).
    The whole input is walked, and its new words split, before the
    first batch; each batch is then counted on its own, so no array of
    the whole input's entries is ever made.  A row's sums are segments
    of its own (`row_sums`), so it does not depend on the other texts.
    """
    table, dim, idf = model._table, model.dim, model.idf
    for tokens, doc_len in _add_words(model, texts, prep):
        nnz, indices, counts = _count(table, tokens, doc_len, dim)
        batch = CsrBatch(indptr=np.concatenate(([0], np.cumsum(nnz))), indices=indices,
                         data=counts * idf[indices], shape=(len(doc_len), dim))
        _normalize(nnz, batch.data)
        yield batch


def idf_rows(model: TfidfModel, texts: Sequence[str], prep: Prep) -> CsrBatch:
    """Raw in-vocabulary gram counts of each raw text preprocessed by
    `prep`, scaled by idf and not normalized: the rows `transform_chunks`
    divides by their norms."""
    nnz, indices, counts = model._table.count(_add_words(model, texts, prep), model.dim)
    return CsrBatch(indptr=np.concatenate(([0], np.cumsum(nnz))), indices=indices,
                    data=counts * model.idf[indices], shape=(len(texts), model.dim))


def _add_words(model: TfidfModel, texts: Sequence[str],
               prep: Prep) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk `texts` (see `_WordTable.walk`) and give the words the model
    has not seen their columns; return the walk's chunks.

    The new words are split in one `_split_spans` call, their distinct
    grams made strings and looked up in the vocabulary, and each word's
    columns added to the model's word table.
    """
    if isinstance(texts, str):
        raise TypeError("a batch is a sequence of texts, not one str")
    vocabulary, config, table = model.vocabulary, model.config, model._table
    new, chunks = table.walk(texts, prep)
    if new:
        text, start, length, _, per_word, ids = _split_spans(new, config.n_min, config.n_max)
        column = np.fromiter(map(vocabulary.get, _gram_strings(text, start, length),
                                 repeat(-1)), dtype=np.int64, count=len(length))
        table.add(*_kept(column[ids], np.concatenate(([0], np.cumsum(per_word)))))
    return chunks


def _normalize(nnz: np.ndarray, values: np.ndarray) -> None:
    """Divide `values`, row i holding the next nnz[i] of them, by their
    rows' L2 norms (summed by `row_sums`) in place."""
    values /= np.repeat(np.sqrt(row_sums(values * values, nnz)), nnz)


def row_sums(values: np.ndarray, nnz: np.ndarray) -> np.ndarray:
    """Sum of each row, row i holding the next nnz[i] `values`; 0 if empty.
    One `np.add.reduceat` segment per row, in an order set by the row's own
    values: a row sums to the same bits alone or anywhere in any batch."""
    sums = np.zeros(len(nnz))
    full = np.asarray(nnz) > 0
    sums[full] = np.add.reduceat(values, (np.cumsum(nnz) - nnz)[full])
    return sums


def _count(
    table: _WordTable, tokens: np.ndarray, doc_len: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(entries per document, ids, counts) of documents whose tokens are
    the table rows `tokens`, doc_len[d] of them for document d.

    Each document's entries are its distinct ids, ascending, as int32,
    with how often the document holds each, as int32; every id is below
    `width`.  The keys doc * width + id are built, sorted and reduced as
    int32 wherever that holds them.
    """
    width = max(width, 1)
    # width itself must fit the key type, even when there are no documents
    key = np.int32 if max(len(doc_len), 1) * width < 2**31 else np.int64
    start = table.offsets[tokens]
    per_token = table.offsets[tokens + 1] - start
    first = np.cumsum(per_token) - per_token
    pos = np.repeat(start - first, per_token)
    pos += np.arange(len(pos))
    doc = np.repeat(np.arange(len(doc_len), dtype=key) * key(width), doc_len)
    keys = np.repeat(doc, per_token)
    keys += table.ids[pos]
    del pos
    keys.sort()
    distinct = np.empty(len(keys), dtype=bool)
    distinct[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    starts = np.flatnonzero(distinct)
    times = np.diff(np.append(starts, len(keys))).astype(np.int32)
    keys = keys[starts]
    docs = keys // width
    return (np.bincount(docs, minlength=len(doc_len)),
            (keys - docs * width).astype(np.int32, copy=False), times)


def _kept(ids: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ids >= 0 per word, those ids in order, as int32) of words whose ids
    are ids[offsets[i]:offsets[i + 1]]; an id < 0 marks a dropped gram."""
    found = ids >= 0
    return _in_groups(found, offsets), ids[found].astype(np.int32, copy=False)


def _in_groups(found: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """How many of found[offsets[i]:offsets[i + 1]] are true, per group i;
    their sum, for integers."""
    return np.diff(np.concatenate(([0], np.cumsum(found)))[offsets])


def _grams_per_word(padded: np.ndarray, n_min: int, n_max: int) -> np.ndarray:
    """How many char-wb grams words of `padded` characters, with their two
    pad spaces, emit: padded - n + 1 windows for each n in
    [n_min, min(n_max, padded - 1)], then the whole padded word once when
    n_max reaches it."""
    cap = int(padded.max(initial=0)) + 1  # see _split_spans
    n_min, n_max = min(n_min, cap), min(n_max, cap)
    k = np.maximum(np.minimum(n_max, padded - 1) - n_min + 1, 0)
    return k * (padded + 1 - n_min) - k * (k - 1) // 2 + (padded <= n_max)


def _gram_strings(text: str, start: np.ndarray, length: np.ndarray) -> list[str]:
    """The gram of each (start, length) span over `text`."""
    return [text[a : a + b] for a, b in zip(start.tolist(), length.tolist())]


def _split_spans(
    words: list[str], n_min: int, n_max: int
) -> tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every word into its char-wb grams over [n_min, n_max] in one
    array pass.

    Returns (the padded words' joined text, the start in it and the
    length of each distinct gram, in lexicographic gram order, whether
    each is a whole padded word, grams per word, and the id of every gram
    in char-wb emission order, as int32).  Each gram is a window (start,
    length) over the padded words' code points; its characters, coded as
    their rank in the alphabet plus one (0 past the gram's end), are
    packed into int64 keys that sort as the grams do.  No gram becomes a
    string here (`_gram_strings`).  The per-window positions and lengths
    are int32 wherever that holds them, and every per-window array is
    freed as soon as it is used.
    """
    padded = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) + 2
    # no window outgrows its padded word: capping changes no gram, fits int64
    cap = int(padded.max(initial=0)) + 1
    n_min, n_max = min(n_min, cap), min(n_max, cap)
    per_word = _grams_per_word(padded, n_min, n_max)
    if not words:
        return "", np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), \
            np.zeros(0, dtype=bool), per_word, np.zeros(0, dtype=np.int32)
    # one segment per (word, window length n), then one for the whole word
    n = np.arange(n_min, min(n_max, int(padded.max()) - 1) + 1)
    fits = n < padded[:, None]
    seg_count = np.hstack((np.where(fits, padded[:, None] - n + 1, 0),
                           (padded <= n_max)[:, None])).ravel()
    seg_length = np.hstack((np.broadcast_to(n, fits.shape), padded[:, None])).ravel()
    seg_whole = np.zeros((len(words), len(n) + 1), dtype=bool)
    seg_whole[:, -1] = True
    word_start = np.cumsum(padded) - padded
    # the windows, in emission order: word, n ascending, position, whole word
    total = int(seg_count.sum())
    at = np.int32 if max(total, int(padded.sum()) + cap) < 2**31 else np.int64
    first = np.cumsum(seg_count) - seg_count
    start = np.repeat((np.repeat(word_start, len(n) + 1) - first).astype(at), seg_count)
    start += np.arange(total, dtype=at)
    length = np.repeat(seg_length.astype(at), seg_count)
    whole = np.repeat(seg_whole.ravel(), seg_count)
    del first, seg_count, seg_length, seg_whole

    text = "".join(f" {w} " for w in words)
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    alphabet, rank = np.unique(points, return_inverse=True)
    longest = int(length.max())
    code = np.concatenate((rank.astype(np.int64) + 1, np.zeros(longest, dtype=np.int64)))
    del points, rank
    bits = len(alphabet).bit_length()
    per_key = 63 // bits
    keys = []
    for slot in range(0, longest, per_key):
        key = np.zeros(total, dtype=np.int64)
        for j in range(slot, min(slot + per_key, longest)):
            key <<= bits
            char = code[start + j]
            char *= length > j
            key |= char
            del char
        keys.append(key)
    del code, key

    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    new_gram = np.zeros(total, dtype=bool)  # in sorted order, a key unlike the last
    new_gram[0] = True
    while keys:
        key = keys.pop()[order]
        new_gram[1:] |= key[1:] != key[:-1]
        del key
    ids = np.empty(total, dtype=np.int32)
    sorted_ids = np.cumsum(new_gram, dtype=np.int32)
    sorted_ids -= 1
    ids[order] = sorted_ids
    del sorted_ids
    firsts = order[new_gram]
    del order, new_gram
    return text, start[firsts], length[firsts].astype(np.int64), whole[firsts], per_word, ids
