"""Fitting: the steps of `sevrank train` and `sevrank search` that
scoring never runs.  Only `pipeline.fit` and `sevrank search` import this
module, where they run, so loading and scoring a saved model never load
it.  Every step is called through its module (`features`, `regress`,
`evaluate`, `textproc`), so a patched function is the one that runs.

A fit does its text work once, as arrays: `GramTable.split` walks the raw
texts, splits every new word once and counts each document once, and
`GramTable.matrix` builds the training rows from that count, so a fit
never vectorizes its own texts a second time.  A fit is deterministic:
vocabulary selection breaks count ties lexicographically and columns
follow lexicographic gram order, so the model does not depend on the
corpus order.

Both fits take their table from `split`, then `GramTable.select` and
`GramTable.matrix`.  `pipeline.fit` does so for one config, then builds
the vectorizer from the table and solves the ridge.  `search` draws every
trial up front and splits once for all of them: one table over the union
of the drawn n-gram ranges, which also splits and counts the pair texts
(they add nothing to the idf), from which each trial selects its
vocabulary, and one training matrix and one matrix of the distinct pair
texts per distinct (n-gram range, kept grams).  Each trial's ridge
solve, predictions and pairwise accuracy run on the same float64 values
as fitting it alone with `pipeline.fit` and scoring the pair texts with
the fitted model, so its records are the same bytes.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

from . import corpus, evaluate, features, regress, textproc

__all__ = ["GramTable", "split", "search"]

# the choices of `search`'s n-gram range and max_features per trial
_SEARCH_NGRAM_RANGES = ((2, 4), (3, 5), (3, 6))
_SEARCH_MAX_FEATURES = (10000, 30000, 50000)


class GramTable:
    """Every distinct word of a corpus split once into char-wb grams, and
    every gram counted over the corpus.

    `split` splits each word over one n-gram range [n_min, n_max].  A fit
    for any range inside it needs no second split: a char-wb gram never
    crosses a word, so the grams of a narrower range are the entries of
    the wider one whose gram has a length in that range, plus the whole
    padded word when the range reaches its length (`in_range`).  For the
    same reason a gram's count in a document, and its document frequency,
    are the same in every range that holds it.

    The split splits every distinct word in one `features._split_spans`
    call; its word table holds each word's gram ids, numbered in
    lexicographic gram order, so choosing and ordering a vocabulary are
    array operations on ids.  It counts each document once and keeps the
    counts, so `matrix` builds any fit's rows without walking the text
    again; `drop_counts` frees them once the last matrix is built.

    Each gram is kept as a (start, length) span over the split's joined
    text, not as a string: `model` makes strings of the grams it keeps
    and nothing else does, so `search`, which builds matrices and no
    model, makes no gram string.

    The documents of `more_texts` are split and counted too, but their
    counts add nothing to `total` or `df`: a model fitted from the table
    knows their words' columns, and `matrix(kept, more=True)` gives their
    rows.
    """

    __slots__ = ("n_min", "n_max", "n_docs", "_table", "_text", "_start", "length", "whole",
                 "total", "df", "_doc_offsets", "_doc_ids", "_doc_counts")

    def __init__(self, n_min: int, n_max: int, n_docs: int, table: features._WordTable,
                 text: str, start: np.ndarray, length: np.ndarray, whole: np.ndarray,
                 total: np.ndarray, df: np.ndarray, doc_offsets: np.ndarray,
                 doc_ids: np.ndarray, doc_counts: np.ndarray) -> None:
        self.n_min, self.n_max, self.n_docs = n_min, n_max, n_docs
        self._table = table    # each word's gram ids, in char-wb emission order
        # the gram of id g is text[start[g] : start[g] + length[g]]; ids
        # ascend lexicographically
        self._text, self._start = text, start
        self.length = length   # characters per gram
        self.whole = whole     # gram is a whole padded word
        self.total = total     # count per gram over the corpus, float64
        self.df = df           # corpus documents holding each gram
        # document d, the corpus's then more_texts', holds gram doc_ids[j]
        # doc_counts[j] times, j in [doc_offsets[d], doc_offsets[d + 1]), ids
        # ascending; one array each, so that freeing the table frees them whole
        self._doc_offsets = doc_offsets  # int64
        self._doc_ids = doc_ids          # int32
        self._doc_counts = doc_counts    # int32

    @classmethod
    def split(
        cls,
        corpus: Sequence[str],
        n_min: int,
        n_max: int,
        more_texts: Sequence[str] = (),
        *,
        prep: features.Prep,
    ) -> GramTable:
        """Split the words of `corpus` and `more_texts`, count over `corpus`.

        The documents are raw, and their words those of their tokens'
        forms under `prep`, each distinct token preprocessed once
        (`features._WordTable.walk`): the table is the one of the
        preprocessed documents.

        Beside what the table keeps, the split holds only bounded
        temporaries: `features._split_spans`' per-window arrays, which grow
        with the distinct words, one chunk's `features._count`, and the
        sums of `total` and `df` over BLOCK_ENTRIES entries at a time.  The
        documents' counts are written once (`features._WordTable.count`),
        never copied.
        """
        if isinstance(corpus, str):
            raise TypeError("a corpus is a sequence of documents, not one str")
        if len(corpus) == 0:
            raise ValueError("cannot fit tf-idf on an empty corpus")
        if not 1 <= n_min <= n_max:
            raise ValueError(f"invalid n-gram range ({n_min}, {n_max})")
        table = features._WordTable()
        new, chunks = table.walk([*corpus, *more_texts], prep)
        text, start, length, whole, per_word, ids = features._split_spans(new, n_min, n_max)
        table.add(per_word, ids)
        del ids
        n_grams = len(length)
        nnz, doc_ids, doc_counts = table.count(chunks, n_grams)
        doc_offsets = np.concatenate(([0], np.cumsum(nnz)))
        # summed BLOCK_ENTRIES entries at a time, so no entry-sized cast
        # is made; integer sums below 2**53, so exact in any order
        total, df = np.zeros(n_grams), np.zeros(n_grams, dtype=np.int64)
        end = int(doc_offsets[len(corpus)])
        for first in range(0, end, features.BLOCK_ENTRIES):
            block = slice(first, min(first + features.BLOCK_ENTRIES, end))
            total += np.bincount(doc_ids[block], weights=doc_counts[block],
                                 minlength=n_grams)
            df += np.bincount(doc_ids[block], minlength=n_grams)
        return cls(
            n_min=n_min, n_max=n_max, n_docs=len(corpus), table=table, text=text,
            start=start, length=length, whole=whole, total=total, df=df,
            doc_offsets=doc_offsets, doc_ids=doc_ids, doc_counts=doc_counts,
        )

    def in_range(self, n_min: int, n_max: int) -> np.ndarray:
        """Which grams the char-wb split emits over [n_min, n_max], per id.

        A window is emitted when its length is in the range; a whole
        padded word (L characters) when n_max >= L, also when n_min > L.
        """
        if not self.n_min <= n_min <= n_max <= self.n_max:
            raise ValueError(f"n-gram range ({n_min}, {n_max}) is not inside the "
                             f"table's ({self.n_min}, {self.n_max})")
        return (self.length <= n_max) & ((self.length >= n_min) | self.whole)

    def select(self, config: features.TfidfConfig) -> np.ndarray:
        """Ids of the grams a fit under `config` keeps, ascending: of those
        with document frequency >= min_df, the max_features with the
        highest total count, a tie going to the smaller gram."""
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

    def model(self, config: features.TfidfConfig, kept: np.ndarray) -> features.TfidfModel:
        """The model of the grams `kept`, knowing every table word's columns;
        the kept grams are the only ones made strings."""
        grams = features._gram_strings(self._text, self._start[kept], self.length[kept])
        # every word's in-vocabulary columns, in gram order, for scoring
        offsets, ids = self._table.used()
        return features.TfidfModel.with_words(
            dict(zip(grams, range(len(grams)))), self._idf(kept), config, self._table.rows,
            *features._kept(self._columns(kept)[ids], offsets))

    def matrix(self, kept: np.ndarray, more: bool = False) -> features.CsrBatch:
        """The rows of the corpus documents (of `more_texts` if `more`)
        under the model of the grams `kept`: the same rows, bit for bit,
        as `features.transform_chunks` gives those documents under that
        model; the columns are written as intp directly (see
        `features.CsrBatch`)."""
        first, last = (self.n_docs, len(self._doc_offsets) - 1) if more else (0, self.n_docs)
        column, idf = self._columns(kept), self._idf(kept)
        # the count entries' offsets of each CHUNK_ROWS documents
        chunks = [self._doc_offsets[start : min(start + features.CHUNK_ROWS, last) + 1]
                  for start in range(first, last, features.CHUNK_ROWS)]

        def columns(offsets: np.ndarray) -> np.ndarray:
            """Each count entry's column in the chunk, -1 if not kept."""
            return column[self._doc_ids[offsets[0] : offsets[-1]]]

        # the rows' lengths first, so the rows are written in place and no
        # second copy of the matrix is ever held; a chunk's columns are
        # found again when its rows are written, not kept between the passes
        nnz = np.concatenate([np.zeros(0, dtype=np.int64), *(
            features._in_groups(columns(offsets) >= 0, offsets - offsets[0])
            for offsets in chunks)])
        indptr = np.concatenate(([0], np.cumsum(nnz)))
        indices = np.empty(indptr[-1], dtype=np.intp)
        data = np.empty(indptr[-1])
        for row, offsets in zip(range(0, len(nnz), features.CHUNK_ROWS), chunks):
            rows = slice(indptr[row], indptr[min(row + features.CHUNK_ROWS, len(nnz))])
            entries = columns(offsets)
            found = entries >= 0
            indices[rows] = entries[found]
            data[rows] = idf[indices[rows]]
            data[rows] *= self._doc_counts[offsets[0] : offsets[-1]][found]
            features._normalize(nnz[row : row + features.CHUNK_ROWS], data[rows])
        return features.CsrBatch(indptr=indptr, indices=indices, data=data,
                                 shape=(len(nnz), len(kept)))

    def drop_counts(self) -> None:
        """Free the documents' counts, once every `matrix` needed is built;
        `matrix` cannot be called after, `select` and `model` still can."""
        self._doc_offsets = self._doc_ids = self._doc_counts = None

    def _idf(self, kept: np.ndarray) -> np.ndarray:
        """ln((1 + N) / (1 + df)) + 1 of each gram `kept`, N the corpus size;
        one scalar log per distinct df."""
        dfs, which = np.unique(self.df[kept], return_inverse=True)
        return np.array([np.log((1.0 + self.n_docs) / (1.0 + d)) + 1.0
                         for d in dfs.tolist()])[which]

    def _columns(self, kept: np.ndarray) -> np.ndarray:
        """Column of each gram id under the model of `kept`; -1 if not kept."""
        column = np.full(len(self.length), -1, dtype=np.int32)
        column[kept] = np.arange(len(kept))
        return column


def split(texts: Sequence[str], preprocess: textproc.PreprocessConfig,
          configs: Sequence[features.TfidfConfig], more_texts: Sequence[str] = ()
          ) -> GramTable:
    """The table of the raw `texts` and `more_texts`, each distinct token
    preprocessed under `preprocess` once, split over every n-gram range of
    `configs`; it counts over `texts` only (see `GramTable`)."""
    return GramTable.split(
        texts, min(c.n_min for c in configs), max(c.n_max for c in configs), more_texts,
        prep=functools.partial(textproc.preprocess_tokens, config=preprocess))


def search(texts: Sequence[str], scores: Sequence[float], pairs: corpus.Pairs,
           preprocess: textproc.PreprocessConfig, n_trials: int,
           seed: int) -> Iterator[tuple[dict, regress.CgReport]]:
    """`n_trials` hyperparameter draws from `seed`, each fitted on the raw
    `texts` and their `scores` and rated by its pairwise accuracy on
    `pairs`; per trial, in order, its record and its solver's report."""
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(n_trials):
        n_min, n_max = _SEARCH_NGRAM_RANGES[rng.integers(len(_SEARCH_NGRAM_RANGES))]
        max_features = _SEARCH_MAX_FEATURES[rng.integers(len(_SEARCH_MAX_FEATURES))]
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        trials.append((features.TfidfConfig(n_min=n_min, n_max=n_max,
                                             max_features=max_features), alpha))
    # each distinct pair text gets one row
    slot = {t: i for i, t in enumerate(dict.fromkeys(pairs.texts))}
    side_slots = np.fromiter(map(slot.__getitem__, pairs.texts), dtype=np.int64,
                             count=len(pairs.texts))
    table = split(texts, preprocess, [config for config, _ in trials], list(slot))
    # trials whose n-gram range and kept grams are equal share one training
    # matrix and one matrix of the distinct pair texts, kept until the last
    # trial that uses them
    key_of = {config: (config.n_min, config.n_max, table.select(config).tobytes())
              for config, _ in trials}
    last_use = {key_of[config]: trial for trial, (config, _) in enumerate(trials)}
    shared: dict[tuple[int, int, bytes], tuple[features.CsrBatch, features.CsrBatch]] = {}
    for trial, (config, alpha) in enumerate(trials):
        key = key_of[config]
        if key not in shared:
            kept = np.frombuffer(key[2], dtype=np.int64)
            shared[key] = (table.matrix(kept), table.matrix(kept, more=True))
        X, X_pairs = shared[key] if last_use[key] > trial else shared.pop(key)
        ridge = regress.fit_ridge(X, scores, alpha=alpha, tol=1e-8, max_iter=1000)
        side_scores = regress.predict(ridge, X_pairs)[side_slots].tolist()
        accuracy = evaluate.pairwise_accuracy(pairs.ids, side_scores).accuracy
        yield {"trial": trial, "n_min": config.n_min, "n_max": config.n_max,
               "max_features": config.max_features, "alpha": alpha,
               "accuracy": accuracy}, ridge.solver
