"""Deterministic text normalization and tokenization.

Pipeline pieces used ahead of feature extraction: hyperlink removal,
contraction expansion from a fixed table, lowercasing, whitespace
collapse, optional Porter stemming, and char-wb n-gram extraction
(character n-grams that never cross word boundaries).

Every contraction key holds an apostrophe and otherwise only word
characters, so a key can only match inside a run of word characters and
apostrophes that holds an apostrophe.  The table's regex runs on those
runs alone; at a run's edges its word-boundary checks see a non-word
character, as they would in the whole text, so the result is the same
as running it over the whole text.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from importlib import resources

__all__ = [
    "PreprocessConfig",
    "preprocess",
    "char_wb_ngrams",
    "porter_stem",
]


@dataclass(frozen=True)
class PreprocessConfig:
    """Switches for the normalization steps, applied in a fixed order.

    Stemming is off by default: char-wb n-grams already absorb most
    morphology, so the stemmer is only worth enabling for word-level
    pipelines.
    """

    lowercase: bool = True
    strip_urls: bool = True
    expand_contractions: bool = True
    stem: bool = False


_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")
# a maximal run of word characters and apostrophes holding an apostrophe;
# the lookbehind starts a match only at a run's first character, which
# keeps the scan linear in the text length
_APOSTROPHE_RUN_RE = re.compile(r"(?<![\w'])[\w']*'[\w']*")

_contraction_map: dict[str, str] | None = None
_contraction_re: re.Pattern | None = None


def _load_contractions() -> tuple[dict[str, str], re.Pattern]:
    global _contraction_map, _contraction_re
    if _contraction_map is None:
        table = {}
        data = resources.files("sevrank.data").joinpath("contractions.csv")
        with data.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # header
            for row in reader:
                table[row[0]] = row[1]
        # longest key first so "couldn't've" wins over "couldn't"
        keys = sorted(table, key=len, reverse=True)
        pattern = "|".join(re.escape(k) for k in keys)
        _contraction_map = table
        _contraction_re = re.compile(
            rf"(?<!\w)(?:{pattern})(?!\w)", re.IGNORECASE
        )
    return _contraction_map, _contraction_re


def preprocess(text: str, config: PreprocessConfig = PreprocessConfig()) -> str:
    """Normalize raw comment text.

    Steps run in a fixed order: URL removal (http://, https:// and www.
    prefixes, deleted up to the next whitespace), contraction expansion
    (case-insensitive table lookup), lowercasing, whitespace collapse to
    single spaces plus trim, and finally per-token Porter stemming when
    enabled.  A case-insensitive match whose lowercased form is not a
    table key (the regex lets "ſ" match "s", lower() keeps it) is left
    as it is.  Total function: never raises, empty input stays empty.
    """
    out = text
    if config.strip_urls:
        out = _URL_RE.sub("", out)
    if config.expand_contractions:
        out = _APOSTROPHE_RUN_RE.sub(_expand_contractions, out)
    if config.lowercase:
        out = out.lower()
    out = _WS_RE.sub(" ", out).strip()
    if config.stem:
        out = " ".join(porter_stem(tok) for tok in out.split())
    return out


def _expand_contractions(run: re.Match) -> str:
    """One apostrophe run with each contraction in it expanded."""
    table, pattern = _load_contractions()
    return pattern.sub(
        lambda m: table.get(m.group(0).lower(), m.group(0)), run.group(0)
    )


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


# ---------------------------------------------------------------------------
# Porter stemmer (classic 1980 rule set, steps 1a-5b)
# ---------------------------------------------------------------------------

_VOWELS = frozenset("aeiou")


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel exactly when preceded by a consonant
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """m in the [C](VC)^m[V] decomposition of the stem."""
    n = len(stem)
    i = 0
    while i < n and _is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            break
        while i < n and _is_cons(stem, i):
            i += 1
        m += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_cons(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    n = len(word)
    if n < 3:
        return False
    return (
        _is_cons(word, n - 3)
        and not _is_cons(word, n - 2)
        and _is_cons(word, n - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement, min measure of the remaining stem); within a step the
# longest matching suffix decides, and a failed condition ends the step.
_STEP2 = (
    ("ization", "ize"), ("ational", "ate"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("entli", "ent"), ("ousli", "ous"),
    ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("ation", "ate"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("ator", "ate"), ("eli", "e"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ness", ""), ("ful", ""),
)

_STEP4 = (
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_cons(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step2(word: str) -> str:
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step3(word: str) -> str:
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return word
            return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(token: str) -> str:
    """Stem one word with the classic Porter algorithm.

    Only ASCII alphabetic tokens are stemmed (lowercased first); anything
    containing digits, punctuation or non-ASCII letters passes through
    unchanged, as do tokens of length <= 2.
    """
    if not token.isascii() or not token.isalpha():
        return token
    word = token.lower()
    if len(word) <= 2:
        return token
    for step in (
        _step1a, _step1b, _step1c, _step2, _step3, _step4, _step5a, _step5b,
    ):
        word = step(word)
    return word
