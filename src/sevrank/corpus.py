"""Comment corpora, pairwise judgments, and label-to-severity transforms.

Heterogeneous toxicity datasets label comments in incompatible ways
(real-valued offensiveness, binary flag sets, coder counts, ordinal
levels).  Each loader here reads one layout and the transforms map every
labeling scheme onto a single severity scale in [0, 1], larger meaning
more toxic, so the datasets can train one regressor.  A transform takes
one row's labels as plain numbers, each parameter named as its column in
the dataset's published layout, and checks their domain once; a value
outside it raises ValueError naming its column.

Every reader returns flat columns, not one object per row.  A labeled
file is a `Labeled` (`ids`, `texts`, `scores`, row i in slot i); the five
dataset loaders differ only in their column lookup and transform, and
share one row loop that passes each row's labels to the transform and
names the file and row of a label it rejects.
A comments file is an `(ids, texts)` pair of lists.  Judgment pairs are
flat columns of sides (`Pairs`): side 2i is pair i's less-toxic comment
and side 2i + 1 its more-toxic one.  Every consumer (scoring,
evaluation, ensembling, search) reads that one order.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = [
    "Labeled",
    "Pairs",
    "JTC_WEIGHTS",
    "JTC_WEIGHT_TOTAL",
    "load_comments",
    "load_pairs",
    "load_labeled",
    "save_labeled",
    "resolve_pairs_to_ids",
    "transform_ruddit",
    "transform_jtc",
    "transform_unintended",
    "transform_davidson",
    "transform_founta",
    "load_ruddit",
    "load_jtc",
    "load_unintended",
    "load_davidson",
    "load_founta",
]


class Labeled:
    """Labeled comments as three flat columns.

    `ids[i]`, `texts[i]` and `scores[i]` (a severity in [0, 1]) belong to
    row i; texts are kept verbatim and may be empty.  len() is the number
    of rows; == compares the columns.
    """

    __slots__ = ("ids", "texts", "scores")

    def __init__(self, ids: list[str], texts: list[str], scores: list[float]) -> None:
        self.ids, self.texts, self.scores = ids, texts, scores
        if not len(self.ids) == len(self.texts) == len(self.scores):
            raise ValueError(f"{len(self.ids)} ids, {len(self.texts)} texts and "
                             f"{len(self.scores)} scores do not make whole rows")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Labeled:
            return NotImplemented
        return (self.ids, self.texts, self.scores) == (other.ids, other.texts, other.scores)


class Pairs:
    """Annotated pairs as two flat columns over their sides.

    Side 2i is pair i's less-toxic comment and side 2i + 1 its more-toxic
    one; `ids[j]` and `texts[j]` belong to side j.  Identical texts on both
    sides are allowed (they occur in the task data).  len() is the number
    of pairs; == compares the columns.
    """

    __slots__ = ("ids", "texts")

    def __init__(self, ids: list[str], texts: list[str]) -> None:
        self.ids, self.texts = ids, texts
        if len(self.ids) != len(self.texts) or len(self.ids) % 2:
            raise ValueError(f"{len(self.ids)} side ids and {len(self.texts)} "
                             "side texts do not make whole pairs")

    def __len__(self) -> int:
        return len(self.ids) // 2

    def __eq__(self, other: object) -> bool:
        if type(other) is not Pairs:
            return NotImplemented
        return (self.ids, self.texts) == (other.ids, other.texts)


# Flag weights for the Wikipedia comments labels; the divisor is the
# largest attainable weighted sum, which pins scores to [0, 1].
JTC_WEIGHTS = {
    "severe_toxic": 12,
    "identity_hate": 9,
    "threat": 8,
    "insult": 6,
    "obscene": 5,
    "toxic": 4,
}
JTC_WEIGHT_TOTAL = sum(JTC_WEIGHTS.values())  # 44

# Label columns in the order of their transform's parameters.  The
# fractional attributes stand for the last five flags; the first one's
# column is target or toxicity, whichever the file has.
_JTC_FLAGS = ("toxic", "severe_toxic", "obscene", "threat", "insult", "identity_hate")
_UNINTENDED_ATTRS = ("severe_toxicity", "obscene", "threat", "insult", "identity_attack")
_DAVIDSON_COUNTS = ("hate_speech", "offensive_language", "neither")


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def transform_ruddit(raw: float) -> float:
    """Map an offensiveness score in [-1, 1] onto [0, 1] affinely."""
    if not -1.0 <= raw <= 1.0:
        raise ValueError(f"ruddit score {raw!r} outside [-1, 1]")
    return (raw + 1.0) / 2.0


def _weighted_severity(binary: bool, names: Sequence[str], *values: float) -> float:
    """The JTC_WEIGHTS-weighted sum of one value per flag (in the order of
    `_JTC_FLAGS`, named `names`), divided by the maximum sum.

    Each value must lie in {0, 1} when `binary`, else in [0, 1].
    """
    for name, value in zip(names, values):
        if binary and value not in (0, 1):
            raise ValueError(f"flag {name} value {value!r} not in {{0, 1}}")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"attribute {name} value {value!r} outside [0, 1]")
    total = sum(JTC_WEIGHTS[flag] * value for flag, value in zip(_JTC_FLAGS, values))
    return total / JTC_WEIGHT_TOTAL


def transform_jtc(toxic: int, severe_toxic: int, obscene: int, threat: int,
                  insult: int, identity_hate: int) -> float:
    """Weighted sum of the six binary flags, divided by the maximum sum (44)."""
    return _weighted_severity(True, _JTC_FLAGS, toxic, severe_toxic, obscene, threat,
                              insult, identity_hate)


def transform_unintended(toxicity: float, severe_toxicity: float, obscene: float,
                         threat: float, insult: float, identity_attack: float) -> float:
    """Same weighting as the binary-flag transform, on fractions in [0, 1].

    identity_attack stands in for the identity-hate flag.  The datasets'
    sexually_explicit attribute has no weighted counterpart and is not an
    input here.
    """
    return _weighted_severity(False, ("toxicity", *_UNINTENDED_ATTRS), toxicity,
                              severe_toxicity, obscene, threat, insult, identity_attack)


def transform_davidson(hate_speech: int, offensive_language: int, neither: int) -> float:
    """Coder-vote average with weights hate=3 / offensive=2 / neither=1.

    The counts are nonnegative integers with at least one coder in all.
    The raw average lands in [1, 3]; (raw - 1) / 2 rescales it onto [0, 1].
    """
    counts = (hate_speech, offensive_language, neither)
    for name, count in zip(_DAVIDSON_COUNTS, counts):
        if not isinstance(count, int) or count < 0:
            raise ValueError(f"count {name} must be a nonnegative integer")
    total = sum(counts)
    if total < 1:
        raise ValueError("at least one coder is required")
    raw = (3 * hate_speech + 2 * offensive_language + neither) / total
    return (raw - 1.0) / 2.0


def transform_founta(label: int) -> float:
    """Ordinal label 0/1/2 (increasing toxicity) scaled to {0, 0.5, 1}."""
    if label not in (0, 1, 2):
        raise ValueError(f"founta label {label!r} not in {{0, 1, 2}}")
    return label / 2.0


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------
#
# Every CSV file the program reads goes through `read_csv`, `number` and
# `unique_ids`, and every one it writes through the column writer
# (`csv_columns`/`write_columns`), which takes whole columns, scans each
# column once for a field that needs quotes, and joins the file in one
# piece; `csv_line` writes one record (a header).  The dialect:
#   - UTF-8 text; records are written with LF endings, and LF or CRLF
#     endings are read;
#   - a field holding a comma, a double quote, CR or LF is written inside
#     double quotes with each inner quote doubled, so a quoted field may
#     span physical lines; every other field is written as it is;
#   - columns are looked up by header name, a name may appear only once,
#     extra columns are allowed, and every record has as many fields as
#     the header;
#   - a number field must parse and be finite (no NaN, no infinity);
#   - row numbers in diagnostics count CSV records with the header as
#     row 1, so the first data record is row 2 whatever lines its quoted
#     fields span.
# The helpers stay out of `__all__`: they are the file format, not the
# corpus API.

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def read_csv(path: str | Path, required: Sequence[str]) -> tuple[dict[str, int], list[list[str]]]:
    """Read a CSV and check its header; return (column index by name, data rows).

    The data row at list index i is row i + 2.  A record the csv module
    cannot read (a field over its size limit) or a file that is not UTF-8
    raises ValueError naming the file, and the row or the byte offset from
    the file's start.  A leading UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    header, rows = None, []
    try:
        with path.open("r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a CSV header")
            columns = {name: i for i, name in enumerate(header)}
            if len(columns) != len(header):
                repeated = next(name for name in header if header.count(name) > 1)
                raise ValueError(f"{path}: column {repeated!r} appears twice in the header")
            for name in required:
                if name not in columns:
                    raise ValueError(f"{path}: missing required column {name!r}")
            rows.extend(reader)  # on an error, keeps the rows read before it
    except csv.Error as exc:
        record = 1 if header is None else len(rows) + 2
        raise ValueError(f"{path}: malformed CSV row {record}: {exc}") from None
    except UnicodeDecodeError:
        try:  # a text stream's decoder counts from its last chunk, not the file's start
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8: {exc.reason} at byte offset {exc.start}") from None
        raise
    width = len(header)
    if not set(map(len, rows)) <= {width}:  # the rows are walked only to name one
        record, fields = next((record, fields) for record, fields in enumerate(rows, start=2)
                              if len(fields) != width)
        raise ValueError(f"{path}: malformed CSV row {record}: expected "
                         f"{width} fields, found {len(fields)}")
    return columns, rows


def _quote(field: str) -> str:
    return '"' + field.replace('"', '""') + '"' if _NEEDS_QUOTES.search(field) else field


def csv_line(fields: Iterable[str]) -> str:
    """One LF-terminated CSV record, each field quoted only where it must be."""
    return ",".join(map(_quote, fields)) + "\n"


def _quoted(column: Sequence[str]) -> Sequence[str]:
    """A column's fields as written.  A field needs quotes when it holds
    one of four characters, so the joined column holds one exactly when
    some field does: one scan decides the column, and only a column that
    needs quotes is looked at field by field."""
    if _NEEDS_QUOTES.search("".join(column)) is None:
        return column
    return list(map(_quote, column))


def csv_columns(header: Sequence[str], columns: Sequence[Sequence[str]]) -> str:
    """CSV text of a header and whole columns of string fields: field j of
    row i is columns[j][i], and every column holds one field per row.  The
    records are those `csv_line` writes, one per row."""
    records = [*map(",".join, zip(*map(_quoted, columns), strict=True)), ""]
    # the trailing "" ends the last record in LF and leaves no rows as nothing
    return csv_line(header) + "\n".join(records)


def write_columns(path: str | Path, header: Sequence[str],
                  columns: Sequence[Sequence[str]]) -> None:
    """Write `csv_columns(header, columns)` to `path` in one write."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(csv_columns(header, columns))


def number(path: str | Path, record: int, name: str, text: str, kind: type = float) -> float:
    """Field `name` of row `record` as a finite `kind` (float or int)."""
    try:
        value = kind(text)
    except ValueError:
        what = "non-integer" if kind is int else "non-numeric"
        raise ValueError(f"{path}: {what} {name} {text!r} at row {record}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: non-finite {name} {text!r} at row {record}")
    return value


def unique_ids(path: str | Path, ids: Sequence[str], what: str = "comment id") -> None:
    """Reject a column (ids[i] is row i + 2) that repeats a value, naming its row."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for record, cid in enumerate(ids, start=2):
            if cid in seen:
                raise ValueError(f"{path}: duplicate {what} {cid!r} at row {record}")
            seen.add(cid)


def _pick(columns: dict[str, int], *names: str) -> int | None:
    for name in names:
        if name in columns:
            return columns[name]
    return None


def load_comments(path: str | Path) -> tuple[list[str], list[str]]:
    """Load a comments file (columns comment_id, text) as (ids, texts), in
    file order.

    Text is taken verbatim, including embedded newlines inside quoted
    fields.  Duplicate ids abort with the offending row number.
    """
    columns, rows = read_csv(path, ("comment_id", "text"))
    id_col, text_col = columns["comment_id"], columns["text"]
    ids = [fields[id_col] for fields in rows]
    unique_ids(path, ids)
    return ids, [fields[text_col] for fields in rows]


def load_pairs(path: str | Path) -> Pairs:
    """Load annotated pairs (columns less_toxic, more_toxic holding raw text).

    Synthetic side ids p<row>_l / p<row>_m are assigned from the CSV row
    number (header is row 1), so reloading the same file reproduces them
    exactly.
    """
    columns, rows = read_csv(path, ("less_toxic", "more_toxic"))
    sides = (columns["less_toxic"], columns["more_toxic"])
    return Pairs(
        ids=[f"p{record}_{side}" for record in range(2, len(rows) + 2) for side in "lm"],
        texts=[fields[col] for fields in rows for col in sides],
    )


def resolve_pairs_to_ids(pairs: Pairs, ids: Sequence[str], texts: Sequence[str]) -> Pairs:
    """The same pairs with each side's id replaced by the id of the comment
    (`ids[i]` with text `texts[i]`) whose text matches exactly.

    Duplicate texts resolve to the first occurrence among the comments.
    The first side (in side order) whose text has no match aborts with
    its id.
    """
    # filled back to front, so the first comment with a text wins
    id_of = dict(zip(reversed(texts), reversed(ids)))
    side_ids = [id_of.get(text) for text in pairs.texts]
    if None in side_ids:
        side = pairs.ids[side_ids.index(None)]
        raise ValueError(f"no comment matches the text of pair side {side!r}")
    return Pairs(ids=side_ids, texts=pairs.texts)


def save_labeled(path: str | Path, labeled: Labeled) -> None:
    """Write a labeled CSV (comment_id, text, score), score at 6 decimals."""
    write_columns(path, ("comment_id", "text", "score"), (
        labeled.ids, labeled.texts, list(map("{:.6f}".format, labeled.scores))))


def _labeled(path: str | Path, columns: dict[str, int], rows: list[list[str]],
             id_col: int | None, text_col: int, labels: Sequence[str], kind: type,
             to_score: Callable[..., float]) -> Labeled:
    """The one row loop of every labeled-file reader.

    Each row's `labels` columns are read with `number` as `kind`, and
    `to_score(*values)` maps them to a severity; a label it rejects is
    named with the file and row.  Without an id column a row's id is its
    data row number (1 for the first data row).
    """
    label_cols = [(name, columns[name]) for name in labels]
    scores = []
    for record, fields in enumerate(rows, start=2):
        values = [number(path, record, name, fields[col], kind) for name, col in label_cols]
        try:
            scores.append(to_score(*values))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc} at row {record}") from None
    ids = ([fields[id_col] for fields in rows] if id_col is not None
           else [str(n) for n in range(1, len(rows) + 1)])
    return Labeled(ids=ids, texts=[fields[text_col] for fields in rows], scores=scores)


def _severity(score: float) -> float:
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"severity score {score!r} outside [0, 1]")
    return score


def load_labeled(path: str | Path) -> Labeled:
    """Read a labeled CSV back (columns comment_id, text, score in [0, 1])."""
    columns, rows = read_csv(path, ("comment_id", "text", "score"))
    return _labeled(path, columns, rows, columns["comment_id"], columns["text"],
                    ("score",), float, _severity)


def load_ruddit(path: str | Path) -> Labeled:
    """Ruddit-style file: comment_id, text, score with score in [-1, 1]."""
    columns, rows = read_csv(path, ("comment_id", "text", "score"))
    return _labeled(path, columns, rows, columns["comment_id"], columns["text"],
                    ("score",), float, transform_ruddit)


def load_jtc(path: str | Path) -> Labeled:
    """Wikipedia comments file in its published layout.

    Required columns: id (or comment_id), comment_text (or text), and the
    six binary flags toxic, severe_toxic, obscene, threat, insult,
    identity_hate.
    """
    columns, rows = read_csv(path, _JTC_FLAGS)
    id_col = _pick(columns, "id", "comment_id")
    text_col = _pick(columns, "comment_text", "text")
    if id_col is None or text_col is None:
        raise ValueError(f"{path}: missing id/comment_text columns")
    return _labeled(path, columns, rows, id_col, text_col, _JTC_FLAGS, int, transform_jtc)


def load_unintended(path: str | Path) -> Labeled:
    """Fractional-attribute file in its published layout.

    Required columns: id (or comment_id), comment_text (or text), target
    (or toxicity), severe_toxicity, obscene, threat, insult,
    identity_attack.  Any sexually_explicit column is ignored.  A value
    outside [0, 1] is named by the file's own column, target or toxicity.
    """
    columns, rows = read_csv(path, _UNINTENDED_ATTRS)
    id_col = _pick(columns, "id", "comment_id")
    text_col = _pick(columns, "comment_text", "text")
    toxicity = next((name for name in ("target", "toxicity") if name in columns), None)
    if id_col is None or text_col is None or toxicity is None:
        raise ValueError(f"{path}: missing id/comment_text/target columns")
    labels = (toxicity, *_UNINTENDED_ATTRS)
    return _labeled(path, columns, rows, id_col, text_col, labels, float,
                    functools.partial(_weighted_severity, False, labels))


def load_davidson(path: str | Path) -> Labeled:
    """Coder-count file: columns hate_speech, offensive_language, neither,
    text (or tweet), and optionally comment_id/id (row number otherwise)."""
    columns, rows = read_csv(path, _DAVIDSON_COUNTS)
    text_col = _pick(columns, "text", "tweet")
    if text_col is None:
        raise ValueError(f"{path}: missing text/tweet column")
    return _labeled(path, columns, rows, _pick(columns, "comment_id", "id"), text_col,
                    _DAVIDSON_COUNTS, int, transform_davidson)


def load_founta(path: str | Path) -> Labeled:
    """Ordinal-label file: columns comment_id (or id), text, label in {0,1,2}."""
    columns, rows = read_csv(path, ("text", "label"))
    return _labeled(path, columns, rows, _pick(columns, "comment_id", "id"),
                    columns["text"], ("label",), int, transform_founta)
