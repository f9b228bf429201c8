r"""The severity model: `fit` fits it, one `<prefix>.pipeline` file saves
it, and it scores as it did when fit.

`fit` is the one fit path; `sevrank train` is `fit`, then `save_pipeline`.
Its steps live in `fitting`, which `fit` imports when it runs, so loading
and scoring a model load no fit code.  It builds its matrix from its
split's own count, frees that count before it builds the vectorizer and
the split before the solve, so its peak memory is the matrix plus
bounded temporaries.

The file holds the preprocessing switches, the TF-IDF vocabulary and idf,
the ridge weights, and the model's word table:

    sevrank-pipeline-v2\n
    JSON manifest: preprocess, tfidf, alpha, intercept, dim, grams_bytes,
                   words_bytes, n_words, n_columns\n
    the grams in column order, joined by \n, UTF-8   (grams_bytes bytes)
    idf, then the weights, little-endian float64      (8 * dim bytes each)
    the table's words in row order, joined by \n, UTF-8  (words_bytes bytes)
    the column count of each word, little-endian int32   (4 * n_words bytes)
    the words' columns, in row order, little-endian int32 (4 * n_columns bytes)

JSON writes floats with repr, so every number round-trips bit for bit.  A
char-wb gram comes from one whitespace-split word, so it holds no \n.

The word table (see `features.TfidfModel`) holds every distinct
preprocessed training word with the columns of its in-vocabulary grams,
so scoring splits only the words the model never saw.  It grows with the
number of distinct words in the training corpus: on the 1000-document
benchmark model the file grows from 483 KB to 978 KB.  Scoring adds the
words it meets to the model in memory, but the file holds only the words
the fit or the file gave it, so a model saves the same bytes before and
after it scores.

`load_pipeline` checks every part; a defect raises ValueError naming the
file.  A v1 file, which has no word table, is refused with a request to
retrain.

`Pipeline.score` is the one way a model scores texts, always with its own
preprocessing, in one pass over the batch's distinct texts:

- each distinct whitespace token is preprocessed once
  (`textproc.preprocess_tokens`), which is exact because preprocessing
  acts on each token on its own;
- the model's word table is walked once for all texts, and the words it
  has never seen are split in one `features._split_spans` call;
- the rows are counted, normalized and predicted `features.CHUNK_ROWS`
  texts at a time (`features.transform_chunks`), so its memory is
  bounded by one chunk's entries, not the batch's.

Each score is the one the text gets alone, bit for bit: a row's counts
do not depend on the other texts, and its sums are `features.row_sums`
segments of its own.  `fit` and `score` call each step through its
module, so a patched function is the one that runs.

`Pipeline.score_masks` scores LIME's word-drop variants of one text
without building them.  Let v_t be the idf-scaled raw gram counts of
whitespace token t, preprocessed on its own (`features.idf_rows`), w the
ridge weights, a_t = v_t . w and G = V V^T.  The variant that keeps the
tokens of 0/1 mask m scores

    intercept + (m . a) / sqrt(m^T G m),  or intercept when m^T G m = 0.

This is `score` of the kept tokens joined by single spaces, with the sums
taken in another order, because

- preprocessing acts on each token on its own: `preprocess` of tokens
  joined by spaces is their non-empty results joined by spaces, by
  construction, and each token is preprocessed once;
- a char-wb gram never crosses a word, so the variant's counts are the
  sum of its tokens' counts;
- the model is linear in the L2-normalized row.

So a mask's score agrees with `score` to within a few units in the last
place (on the benchmark model, at most 1.1e-16 apart), not bit for bit.
G is accumulated from the pairs of entries that share a column, and every
other product is an einsum: no sum goes through a threaded BLAS call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import features, regress, textproc

__all__ = ["Pipeline", "fit", "save_pipeline", "load_pipeline"]

_MAGIC = b"sevrank-pipeline-v2\n"
_KEYS = ("preprocess", "tfidf", "alpha", "intercept", "dim", "grams_bytes",
         "words_bytes", "n_words", "n_columns")


class Pipeline(NamedTuple):
    preprocess: textproc.PreprocessConfig
    tfidf: features.TfidfModel
    ridge: regress.RidgeModel

    def score(self, texts: Sequence[str]) -> np.ndarray:
        """Scores of `texts`, in input order, each as it scores alone, from
        one pass over the distinct texts (see the module docstring)."""
        if isinstance(texts, str):
            raise TypeError("score takes a sequence of texts, not one str")
        slot = {text: i for i, text in enumerate(dict.fromkeys(texts))}
        scores = np.empty(len(slot))
        done = 0
        for X in features.transform_chunks(self.tfidf, list(slot), self._forms):
            scores[done : done + X.shape[0]] = regress.predict(self.ridge, X)
            done += X.shape[0]
        return scores[np.fromiter(map(slot.__getitem__, texts), dtype=np.int64,
                                  count=len(texts))]

    def _forms(self, tokens: list[str]) -> list[str]:
        """Each whitespace-free token preprocessed with the model's switches."""
        return textproc.preprocess_tokens(tokens, self.preprocess)

    def score_masks(self, tokens: Sequence[str], masks: np.ndarray) -> np.ndarray:
        """Score of each word-drop variant of `tokens`: row i of `masks`
        keeps token t where masks[i, t] is 1 (0 drops it).

        Row i scores as `score` scores the kept tokens joined by single
        spaces, within rounding, without building that text (see the module
        docstring).  Each distinct token is preprocessed and counted once.
        """
        if isinstance(tokens, str):
            raise TypeError("score_masks takes a sequence of tokens, not one str")
        slot = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
        which = np.fromiter(map(slot.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        rows = features.idf_rows(self.tfidf, list(slot), self._forms)
        products = self.ridge.weights[rows.indices]
        products *= rows.data
        a = features.row_sums(products, np.diff(rows.indptr))[which]
        gram = _gram(rows)[np.ix_(which, which)]
        m = np.asarray(masks, dtype=np.float64)
        norm2 = np.einsum("is,is->i", np.einsum("it,ts->is", m, gram), m)
        kept = norm2 > 0.0  # some kept token has an in-vocabulary gram
        scores = np.full(len(m), self.ridge.intercept)
        scores[kept] += np.einsum("it,t->i", m[kept], a) / np.sqrt(norm2[kept])
        return scores


def fit(texts: Sequence[str], scores: Sequence[float],
        preprocess: textproc.PreprocessConfig = textproc.PreprocessConfig(),
        tfidf: features.TfidfConfig = features.TfidfConfig(), alpha: float = 1.0,
        tol: float = 1e-8, max_iter: int = 1000) -> tuple[Pipeline, float]:
    """The pipeline fitted on raw `texts` and their severity `scores`, and
    its training objective; the arguments are `sevrank train`'s flags.

    The steps: `fitting.split` (each distinct token preprocessed once),
    `GramTable.select`, `matrix`, `drop_counts`, `model`,
    `regress.fit_ridge` and `regress.ridge_objective`.  The solver's
    report is `ridge.solver`.
    """
    from . import fitting

    table = fitting.split(texts, preprocess, [tfidf])
    kept = table.select(tfidf)
    X = table.matrix(kept)
    table.drop_counts()
    vectorizer = table.model(tfidf, kept)
    del table
    ridge = regress.fit_ridge(X, scores, alpha=alpha, tol=tol, max_iter=max_iter)
    return Pipeline(preprocess, vectorizer, ridge), regress.ridge_objective(ridge, X, scores)


def _gram(rows: features.CsrBatch) -> np.ndarray:
    """G = V V^T of the rows V, from the pairs of entries that share a
    column, accumulated by one bincount in a fixed order."""
    n = rows.shape[0]
    order = np.argsort(rows.indices, kind="stable")
    row = np.repeat(np.arange(n), np.diff(rows.indptr))[order]
    column, value = rows.indices[order], rows.data[order]
    starts = np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))
    sizes = np.diff(np.append(starts, len(column)))
    # entry e pairs with each entry of its column, its own included
    partners = np.repeat(sizes, sizes)
    left = np.repeat(np.arange(len(column)), partners)
    first = np.cumsum(partners) - partners
    right = np.repeat(np.repeat(starts, sizes) - first, partners) + np.arange(len(left))
    return np.bincount(row[left] * n + row[right], weights=value[left] * value[right],
                       minlength=n * n).reshape(n, n)


def save_pipeline(model: Pipeline, path: str | Path) -> None:
    vocabulary = model.tfidf.vocabulary
    blob = "\n".join(sorted(vocabulary, key=vocabulary.__getitem__)).encode("utf-8")
    words, counts, columns = model.tfidf.word_table()
    words_blob = "\n".join(words).encode("utf-8")
    manifest = {"preprocess": model.preprocess._asdict(), "tfidf": model.tfidf.config._asdict(),
                "alpha": float(model.ridge.alpha), "intercept": float(model.ridge.intercept),
                "dim": len(vocabulary), "grams_bytes": len(blob),
                "words_bytes": len(words_blob), "n_words": len(words),
                "n_columns": len(columns)}
    Path(path).write_bytes(b"".join((_MAGIC, json.dumps(manifest).encode("ascii"), b"\n",
                                     blob, model.tfidf.idf.astype("<f8").tobytes(),
                                     model.ridge.weights.astype("<f8").tobytes(),
                                     words_blob, counts.astype("<i4").tobytes(),
                                     columns.astype("<i4").tobytes())))


def load_pipeline(path: str | Path) -> Pipeline:
    raw = Path(path).read_bytes()

    def fail(message: str) -> ValueError:
        return ValueError(f"{path}: {message}")

    # the first line, with or without its newline, is the v1 magic
    if raw[: len(_MAGIC)].rstrip(b"\n") == b"sevrank-pipeline-v1":
        raise fail("a sevrank-pipeline-v1 file holds no word table; "
                   "retrain the model to write a sevrank-pipeline-v2 file")
    if not raw.startswith(_MAGIC):
        raise fail("not a sevrank-pipeline-v2 file")
    end = raw.find(b"\n", len(_MAGIC))
    if end < 0:
        raise fail("missing manifest line")
    try:
        manifest = json.loads(raw[len(_MAGIC) : end])
    except (ValueError, RecursionError):
        raise fail("manifest line is not JSON") from None
    if not isinstance(manifest, dict) or sorted(manifest) != sorted(_KEYS):
        raise fail(f"manifest must hold exactly {', '.join(_KEYS)}")
    for key, cls, kind in (("preprocess", textproc.PreprocessConfig, bool),
                           ("tfidf", features.TfidfConfig, int)):
        names, values = cls._fields, manifest[key]
        if (not isinstance(values, dict) or sorted(values) != sorted(names)
                or any(type(v) is not kind for v in values.values())):
            raise fail(f"manifest {key!r} must set exactly {', '.join(names)} "
                       f"to {kind.__name__} values")
    pp = textproc.PreprocessConfig(**manifest["preprocess"])
    config = features.TfidfConfig(**manifest["tfidf"])
    if not 1 <= config.n_min <= config.n_max:
        raise fail(f"invalid n-gram range ({config.n_min}, {config.n_max})")
    alpha, intercept, dim, grams_bytes, words_bytes, n_words, n_columns = (
        manifest[key] for key in _KEYS[2:])
    sizes = (dim, grams_bytes, words_bytes, n_words, n_columns)
    if not all(type(n) is int and n >= 0 for n in sizes):
        raise fail(f"{', '.join(_KEYS[4:])} must be integers >= 0")
    payload = memoryview(raw)[end + 1 :]  # read in place, never copied whole
    size = grams_bytes + 16 * dim + words_bytes + 4 * (n_words + n_columns)
    if len(payload) != size:
        raise fail(f"payload is {len(payload)} bytes, not {size}")
    try:
        text = str(payload[:grams_bytes], "utf-8")
    except UnicodeDecodeError:
        raise fail("grams are not UTF-8") from None
    grams = text.split("\n") if text else []
    vocabulary = dict(zip(grams, range(dim)))
    if len(grams) != dim or len(vocabulary) != dim or "" in vocabulary:
        raise fail(f"grams must be {dim} distinct non-empty strings")
    if not (type(alpha) is float and math.isfinite(alpha) and alpha > 0):
        raise fail(f"alpha must be a finite number > 0, got {alpha!r}")
    numbers = np.frombuffer(payload, dtype="<f8", count=2 * dim,
                            offset=grams_bytes).astype(np.float64)
    if not (type(intercept) is float and math.isfinite(intercept)
            and np.isfinite(numbers).all()):
        raise fail("intercept, idf and weights must be finite numbers")
    start = grams_bytes + 16 * dim
    try:
        text = str(payload[start : start + words_bytes], "utf-8")
    except UnicodeDecodeError:
        raise fail("words are not UTF-8") from None
    # a table of non-empty words without whitespace, joined by \n, is
    # what its own split() joins back to
    words = text.split()
    if len(words) != n_words or "\n".join(words) != text:
        raise fail(f"words must be {n_words} non-empty strings without whitespace")
    start += words_bytes
    counts = np.frombuffer(payload, dtype="<i4", count=n_words, offset=start)
    columns = np.frombuffer(payload, dtype="<i4", count=n_columns,
                            offset=start + 4 * n_words)
    if counts.min(initial=0) < 0 or counts.sum(dtype=np.int64) != n_columns:
        raise fail(f"word column counts must be >= 0 and sum to {n_columns}")
    if n_columns and not (columns.min() >= 0 and columns.max() < dim):
        raise fail(f"word columns must lie in [0, {dim})")
    try:
        tfidf = features.TfidfModel.with_words(vocabulary, numbers[:dim], config,
                                               words, counts, columns)
    except ValueError as exc:  # a word repeats
        raise fail(str(exc)) from None
    return Pipeline(pp, tfidf, regress.RidgeModel(numbers[dim:], intercept, alpha))
