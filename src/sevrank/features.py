"""Char-wb TF-IDF features: fit a vocabulary, map text batches to CSR rows.

The vectorizer counts within-word character n-grams, weights raw counts by
smoothed inverse document frequency, and L2-normalizes each row.  Fitting
is fully deterministic: vocabulary selection breaks count ties
lexicographically and column indices follow lexicographic gram order, so
the model is independent of corpus order.

A char-wb gram never crosses a word boundary, so a document's gram counts
are the sum of its words' gram counts.  Both passes work per distinct
word: `fit_tfidf` splits each distinct word into grams once and counts
(document, word) pairs with array operations, CHUNK_ROWS documents at a
time; `transform` expands each document's words to their in-vocabulary
columns the same way.  A fitted model already holds the columns of every
training word, so transforming the training corpus splits no word again.
The vocabulary, the idf weights and each row's values are the same
float64 numbers, bit for bit, as counting each document's grams on its
own.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .textproc import char_wb_ngrams

__all__ = [
    "CHUNK_ROWS",
    "CsrBatch",
    "TfidfConfig",
    "TfidfModel",
    "fit_tfidf",
    "transform",
    "save_tfidf",
    "load_tfidf",
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

    `fit_tfidf` fills this memo with the in-vocabulary columns of every
    training word, and `transform` adds each new word it meets, so a
    word is split into grams once per model, however many batches it
    appears in.  The memo grows with the distinct words seen.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    config: TfidfConfig
    _word_columns: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def dim(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(corpus: Sequence[str], config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Fit vocabulary and idf weights on preprocessed documents.

    Grams with document frequency below min_df are dropped; of the rest,
    the max_features grams with the highest total corpus count are kept
    (ties broken by lexicographic order, ascending).  Column indices are
    assigned in lexicographic gram order and
    idf(g) = ln((1 + N) / (1 + df(g))) + 1 with N the corpus size.
    The returned model knows the columns of every word of the corpus.
    """
    if isinstance(corpus, str):
        raise TypeError("fit_tfidf takes a sequence of documents, not one str")
    if len(corpus) == 0:
        raise ValueError("cannot fit tf-idf on an empty corpus")
    if not 1 <= config.n_min <= config.n_max:
        raise ValueError(f"invalid n-gram range ({config.n_min}, {config.n_max})")
    words, names, flat, width, total, df = _count_grams(corpus, config)
    kept = _select_grams(names, total, df, config)

    n_docs = len(corpus)
    kept_df = df[kept].tolist()
    idf_of = {d: np.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in set(kept_df)}
    model = TfidfModel(
        vocabulary={names[g]: i for i, g in enumerate(kept)},
        idf=np.array([idf_of[d] for d in kept_df]),
        config=config,
    )

    # every corpus word's in-vocabulary columns, in gram order, for transform
    column = np.full(len(names), -1, dtype=np.int64)
    column[kept] = np.arange(len(kept))
    cols = column[flat]
    inside = np.concatenate(([0], np.cumsum(cols >= 0)))
    cuts = inside[np.concatenate(([0], np.cumsum(width)))].tolist()
    cols = cols[cols >= 0]
    model._word_columns.update(
        zip(words, (cols[a:b] for a, b in zip(cuts, cuts[1:])))
    )
    return model


def _count_grams(corpus: Sequence[str], config: TfidfConfig) -> tuple[
    dict[str, int], list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray
]:
    """Gram counts of a corpus, each distinct word split into grams once.

    Returns (word -> word id, gram of each gram id, every distinct word's
    gram ids concatenated in word-id order, gram ids per word, total count
    per gram id, document frequency per gram id).
    """
    word_ids: dict[str, int] = {}
    gram_ids: dict[str, int] = {}
    word_grams = array("q")
    width = array("q")
    tokens = array("q")   # word id of every token, in corpus order
    doc_len = array("q")  # tokens per document
    for doc in corpus:
        words = doc.split()
        doc_len.append(len(words))
        for word in words:
            w = word_ids.get(word)
            if w is None:
                w = word_ids[word] = len(word_ids)
                grams = char_wb_ngrams(word, config.n_min, config.n_max)
                width.append(len(grams))
                word_grams.extend(gram_ids.setdefault(g, len(gram_ids)) for g in grams)
            tokens.append(w)
    flat = np.frombuffer(word_grams, dtype=np.int64)
    width = np.frombuffer(width, dtype=np.int64)
    tokens = np.frombuffer(tokens, dtype=np.int64)
    doc_len = np.frombuffer(doc_len, dtype=np.int64)

    n_docs, n_words, n_grams = len(corpus), len(word_ids), len(gram_ids)
    total = np.zeros(n_grams)
    df = np.zeros(n_grams, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(doc_len))).tolist()
    for start in range(0, n_docs, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_docs)
        doc = np.repeat(np.arange(stop - start), doc_len[start:stop])
        # distinct (document, word) pairs and how often each occurs
        pairs, times = _count_keys(doc * n_words + tokens[bounds[start] : bounds[stop]])
        pair_doc, pair_word = np.divmod(pairs, n_words)
        doc, grams, per_pair = _expand(flat, width, pair_word, pair_doc)
        total += np.bincount(grams, weights=np.repeat(times, per_pair), minlength=n_grams)
        doc_grams, _ = _count_keys(doc * n_grams + grams)
        df += np.bincount(doc_grams % n_grams, minlength=n_grams)
    return word_ids, list(gram_ids), flat, width, total, df


def _select_grams(
    names: list[str], total: np.ndarray, df: np.ndarray, config: TfidfConfig
) -> list[int]:
    """Ids of the kept grams, in lexicographic gram order."""
    candidates = np.flatnonzero(df >= config.min_df)
    chosen = candidates.tolist()
    # as many as candidates[:max_features] holds, max_features < 0 included
    n_keep = len(range(len(chosen))[: config.max_features])
    if n_keep < len(chosen):
        # the n_keep highest totals; a tie at the cut goes to the smallest grams
        counts = total[candidates]
        cut = -np.partition(-counts, n_keep - 1)[n_keep - 1] if n_keep else np.inf
        above = candidates[counts > cut].tolist()
        tied = sorted(candidates[counts == cut].tolist(), key=names.__getitem__)
        chosen = above + tied[: n_keep - len(above)]
    return sorted(chosen, key=names.__getitem__)


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
    flat: np.ndarray, width: np.ndarray, ids: np.ndarray, doc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every entry of each id in `ids`, in order, tagged with its document.

    Id i owns the width[i] entries of `flat` that follow those of ids
    0..i-1; doc[k] is the document of ids[k].  Returns (document of each
    entry, entries, entries per id).
    """
    offset = np.cumsum(width) - width
    per_id = width[ids]
    first = np.cumsum(per_id) - per_id
    pos = np.arange(int(per_id.sum())) + np.repeat(offset[ids] - first, per_id)
    return np.repeat(doc, per_id), flat[pos], per_id


def _columns_of_word(model: TfidfModel, word: str) -> np.ndarray:
    """In-vocabulary column of every gram of one word, repeats kept."""
    cfg = model.config
    found = map(model.vocabulary.get, char_wb_ngrams(word, cfg.n_min, cfg.n_max))
    return np.array([c for c in found if c is not None], dtype=np.int64)


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
    # this chunk's distinct words and their columns
    slot = {w: i for i, w in enumerate(dict.fromkeys(words))}
    known = model._word_columns
    table = []
    for w in slot:
        cols = known.get(w)
        if cols is None:
            cols = known[w] = _columns_of_word(model, w)
        table.append(cols)
    width = np.fromiter(map(len, table), dtype=np.int64, count=len(table))
    flat = np.concatenate(table) if table else np.empty(0, dtype=np.int64)

    # every token's columns, in order, tagged with its document
    token = np.fromiter(map(slot.__getitem__, words), dtype=np.int64, count=len(words))
    doc, cols, _ = _expand(flat, width, token, np.repeat(np.arange(len(texts)), doc_words))

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


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    """Write the model in the tfidf-v1 text format (bit-exact round trip).

    Layout: a `tfidf-v1` header line, one config line, then one
    gram<TAB>index<TAB>idf line per vocabulary entry.  Idf values are
    written with repr so reading them back is lossless.
    """
    cfg = model.config
    lines = [
        "tfidf-v1",
        f"config\tn_min={cfg.n_min}\tn_max={cfg.n_max}"
        f"\tmax_features={cfg.max_features}\tmin_df={cfg.min_df}",
    ]
    for gram, index in sorted(model.vocabulary.items(), key=lambda kv: kv[1]):
        lines.append(f"{gram}\t{index}\t{float(model.idf[index])!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_tfidf(path: str | Path) -> TfidfModel:
    """Read a tfidf-v1 file written by save_tfidf.

    The config line must give the four integer settings, and vocabulary
    indices must run 0, 1, 2, ... in file order.  Any defect raises
    ValueError naming the file and line.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last line, it opens none

    def fail(lineno: int, message: str) -> ValueError:
        return ValueError(f"{path}: line {lineno}: {message}")

    if not lines or lines[0] != "tfidf-v1":
        raise fail(1, "not a tfidf-v1 model file")
    config_fields = lines[1].split("\t") if len(lines) > 1 else [""]
    if config_fields[0] != "config":
        raise fail(2, "missing config line")
    params = dict(field.partition("=")[::2] for field in config_fields[1:])
    names = ("n_min", "n_max", "max_features", "min_df")
    if len(config_fields) != len(names) + 1 or sorted(params) != sorted(names):
        raise fail(2, f"config line must set exactly {', '.join(names)}")
    try:
        config = TfidfConfig(**{name: int(params[name]) for name in names})
    except ValueError:
        raise fail(2, "config values must be integers") from None
    if not 1 <= config.n_min <= config.n_max:
        raise fail(2, f"invalid n-gram range ({config.n_min}, {config.n_max})")

    vocabulary: dict[str, int] = {}
    idf: list[float] = []
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split("\t")
        if len(fields) != 3:
            raise fail(lineno, "expected gram<TAB>index<TAB>idf")
        gram, index_str, idf_str = fields
        try:
            index, weight = int(index_str), float(idf_str)
        except ValueError:
            raise fail(lineno, "index must be an integer and idf a number") from None
        if not math.isfinite(weight):
            raise fail(lineno, f"non-finite idf {idf_str!r}")
        if gram in vocabulary:
            raise fail(lineno, f"duplicate gram {gram!r}")
        if index != len(vocabulary):
            problem = "duplicate" if 0 <= index < len(vocabulary) else "non-contiguous"
            raise fail(lineno, f"{problem} index {index}, expected {len(vocabulary)}")
        vocabulary[gram] = index
        idf.append(weight)
    return TfidfModel(vocabulary=vocabulary, idf=np.array(idf), config=config)
