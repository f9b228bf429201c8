"""Reference definitions the tests check the program against.

No command runs these.  `char_wb_ngrams` and `check_gradient` are plain
loops, kept as the definitions that the vectorized kernels and the
analytic gradients must agree with.  `fit_tfidf` and `transform` fit and
vectorize texts that are already preprocessed, built from the program's
own steps with the identity step `list` in place of preprocessing: the
vocabulary, idf, word table and rows are those of the raw-text path on
the preprocessed texts, bit for bit.  `split_words`, `table_grams`,
`whole_word_table`, `word_columns` and `to_dense` show the split
kernel's and a gram table's grams as strings, a model's whole in-memory
word table, scored words included, and rows as a dense array, which the
program itself never needs.  `surrogate_loss` is the blend's fit
objective on a matrix as it is, for checking its gradient.
"""

import numpy as np

from sevrank import ensemble, features
from sevrank.features import CsrBatch, TfidfConfig, TfidfModel
from sevrank.fitting import GramTable
from sevrank.optim import Objective, _evaluate


def char_wb_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    """Character n-grams drawn from inside space-padded words.

    Each whitespace-delimited word is padded with one space on each side
    and every contiguous n-gram with n in [n_min, n_max] that fits inside
    the padded word is emitted.  A word whose padded form is shorter than
    n contributes the whole padded word exactly once, and no longer n is
    attempted for it, so no gram ever spans two words.  Returns the grams
    in emission order (a multiset, not a set).
    """
    if not (1 <= n_min <= n_max):
        raise ValueError(f"invalid n-gram range ({n_min}, {n_max})")
    grams: list[str] = []
    for word in text.split():
        padded = f" {word} "
        length = len(padded)
        for n in range(n_min, n_max + 1):
            if n >= length:
                grams.append(padded)
                break
            for i in range(length - n + 1):
                grams.append(padded[i : i + n])
    return grams


def fit_tfidf(corpus, config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Fit vocabulary and idf weights on preprocessed documents.

    Grams with document frequency below min_df are dropped; of the rest,
    the max_features grams with the highest total corpus count are kept
    (ties broken by lexicographic order, ascending).  Column indices are
    assigned in lexicographic gram order and
    idf(g) = ln((1 + N) / (1 + df(g))) + 1 with N the corpus size.
    The returned model knows the columns of every word of the corpus.
    """
    table = GramTable.split(corpus, config.n_min, config.n_max, prep=list)
    return table.model(config, table.select(config))


def transform(model: TfidfModel, texts) -> CsrBatch:
    """Vectorize a batch of preprocessed documents, one row per text: the
    batches of `features.transform_chunks`, joined."""
    batches = list(features.transform_chunks(model, texts, list))
    nnz = np.concatenate([np.zeros(0, dtype=np.int64),
                          *(np.diff(batch.indptr) for batch in batches)])
    return CsrBatch(indptr=np.concatenate(([0], np.cumsum(nnz))),
                    indices=np.concatenate([np.zeros(0, dtype=np.int32),
                                            *(batch.indices for batch in batches)]),
                    data=np.concatenate([np.zeros(0), *(batch.data for batch in batches)]),
                    shape=(len(nnz), model.dim))


def split_words(words: list[str], n_min: int, n_max: int):
    """`features._split_spans` with each distinct gram made a string: (the
    distinct grams in lexicographic order, each one's length, whether it
    is a whole padded word, grams per word, and the id of every gram in
    char-wb emission order)."""
    text, start, length, whole, per_word, ids = features._split_spans(words, n_min, n_max)
    return features._gram_strings(text, start, length), length, whole, per_word, ids


def table_grams(table: GramTable) -> list[str]:
    """The gram of each id of a gram table, made from its spans."""
    return features._gram_strings(table._text, table._start, table.length)


def to_dense(batch: CsrBatch) -> np.ndarray:
    """The rows of a batch as a dense array of its shape."""
    n_rows, dim = batch.shape
    dense = np.zeros((n_rows, dim))
    rows = np.repeat(np.arange(n_rows), np.diff(batch.indptr))
    dense[rows, batch.indices] = batch.data
    return dense


def whole_word_table(model: TfidfModel):
    """(words in row order, columns per word, all columns) of the model's
    whole in-memory word table, the words it has scored included."""
    offsets, columns = model._table.used()
    return list(model._table.rows), np.diff(offsets), columns


def word_columns(model: TfidfModel) -> dict:
    """word -> columns of the model's whole word table, as a dict of arrays."""
    words, counts, columns = whole_word_table(model)
    cuts = np.concatenate(([0], np.cumsum(counts))).tolist()
    return {w: columns[a:b] for w, a, b in zip(words, cuts, cuts[1:])}


def check_gradient(f: Objective, x: np.ndarray, h: float = 1e-6) -> float:
    """Max relative error of the analytic gradient vs central differences.

    Per coordinate the relative error uses max(1, |analytic|) as the
    denominator; the maximum over coordinates is returned.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    _, grad = _evaluate(f, x, 0)
    worst = 0.0
    for i in range(len(x)):
        bump = np.zeros_like(x)
        bump[i] = h
        f_plus, _ = _evaluate(f, x + bump, 0)
        f_minus, _ = _evaluate(f, x - bump, 0)
        numeric = (f_plus - f_minus) / (2.0 * h)
        err = abs(numeric - grad[i]) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst


def surrogate_loss(weights, matrix: ensemble.ScoreMatrix, side_ids, temperature: float):
    """Mean logistic margin loss and its analytic gradient, on the pairs
    whose sides are `side_ids` (in side order) and the matrix's values as
    they are.

    For each pair the margin is w . (s_more - s_less); the loss is
    ln(1 + exp(-margin/temperature)) averaged over pairs, computed in a
    form stable for large |margin|/temperature.
    """
    ensemble._check_temperature(temperature)
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(matrix.model_names):
        raise ValueError("one weight per model required")
    rows = ensemble.pair_rows(matrix, side_ids)
    return ensemble._loss_from_diffs(w, ensemble._pair_diffs(matrix, matrix.values, rows),
                                     temperature)
