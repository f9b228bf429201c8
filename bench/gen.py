"""Seeded synthetic corpus for the sevrank benchmark.

Texts are drawn from a Zipfian vocabulary and decorated with mixed-case
contractions, URLs, punctuation and some non-ASCII words.  Severity labels
come from a hidden lexicon of "toxic" words plus noise, so a char n-gram
model can learn them and pair accuracy sits well above chance.  All random
draws are vectorized numpy calls on one generator; the same seed always
gives the same files.  Nothing here is timed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LONG_WORDS = (24, 64)
SHORT_WORDS = (3, 8)
PAIR_WORDS = (8, 40)

_SYLLABLES = (
    "ba be bi bo bu ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni no "
    "nu ra re ri ro ru sa se si so su ta te ti to tu va ve vi vo vu za ze zi "
    "zo zu dra tre gli pho sch str wha"
).split()
_NON_ASCII = ("café", "naïve", "über", "señor", "façade", "smörgås", "日本",
              "привет", "😀", "🙄", "coöp", "déjà")
# Every key is in sevrank's contraction table; case varies on purpose.
_CONTRACTIONS = ("don't", "Can't", "YOU'RE", "it's", "I'm", "won't",
                 "They'll", "isn't", "we've", "Shouldn't", "you'd", "AIN'T")
_PUNCT = (",", "!", "?", "!!", "...", ".", "?!")


@dataclass(frozen=True)
class Lexicon:
    words: np.ndarray       # vocabulary, object array of str
    probs: np.ndarray       # Zipfian draw probability per word
    severity: np.ndarray    # hidden per-word severity weight, 0 for most words


def make_lexicon(rng: np.random.Generator, size: int = 6000,
                 n_toxic: int = 300) -> Lexicon:
    """Vocabulary of distinct pseudo-words, Zipf-Mandelbrot frequencies and
    a hidden severity weight on n_toxic words spread over the mid ranks."""
    n_syl = rng.integers(1, 4, size=size * 2)
    parts = rng.integers(0, len(_SYLLABLES), size=(size * 2, 3))
    syl = np.array(_SYLLABLES, dtype=object)
    candidates = [
        "".join(syl[parts[i, : n_syl[i]]]) for i in range(size * 2)
    ]
    words = list(dict.fromkeys(candidates))[: size - len(_NON_ASCII)]
    words += list(_NON_ASCII)
    words = np.array(words, dtype=object)
    words = words[rng.permutation(len(words))]
    ranks = np.arange(1, len(words) + 1)
    probs = 1.0 / (ranks + 2.7) ** 1.07
    probs /= probs.sum()
    severity = np.zeros(len(words))
    toxic = rng.choice(np.arange(30, len(words) // 2), size=n_toxic, replace=False)
    severity[toxic] = rng.uniform(0.5, 3.0, size=n_toxic)
    return Lexicon(words=words, probs=probs, severity=severity)


@dataclass(frozen=True)
class Texts:
    texts: list[str]
    severity: np.ndarray    # noisy label in [0, 1]
    true_severity: np.ndarray  # label before noise

    @property
    def n_words(self) -> np.ndarray:
        return np.array([len(t.split()) for t in self.texts])


def draw_lengths(rng: np.random.Generator, n: int,
                 words: tuple[int, int]) -> np.ndarray:
    """n word counts drawn uniformly from words[0]..words[1]."""
    return rng.integers(words[0], words[1] + 1, size=n)


def spread_lengths(n: int, words: tuple[int, int]) -> np.ndarray:
    """n word counts at the midpoints of n equal slices of the range, so a
    handful of texts has the same length mix whatever the seed."""
    lo, hi = words
    return np.floor(lo + (hi - lo + 1) * (np.arange(n) + 0.5) / n).astype(np.int64)


def make_texts(rng: np.random.Generator, lex: Lexicon,
               lengths: np.ndarray) -> Texts:
    """One text per entry of `lengths` (its word count), with hidden
    severity labels."""
    n = len(lengths)
    total = int(lengths.sum())
    ids = rng.choice(len(lex.words), size=total, p=lex.probs)
    # a per-text toxicity level decides how many tokens come from the lexicon
    level = rng.beta(0.6, 1.4, size=n)
    doc_of = np.repeat(np.arange(n), lengths)
    toxic_ids = np.flatnonzero(lex.severity)
    swap = rng.random(total) < 0.35 * level[doc_of]
    ids[swap] = rng.choice(toxic_ids, size=int(swap.sum()))
    weight = np.bincount(doc_of, weights=lex.severity[ids], minlength=n)
    true = 1.0 - np.exp(-weight / (2.0 * np.sqrt(lengths)))
    noisy = np.clip(true + rng.normal(0.0, 0.06, size=n), 0.0, 1.0)

    tokens = lex.words[ids].copy()
    roll = rng.random(total)
    title = roll < 0.08
    upper = (roll >= 0.08) & (roll < 0.11)
    tokens[title] = [t.capitalize() for t in tokens[title]]
    tokens[upper] = [t.upper() for t in tokens[upper]]
    contraction = rng.random(total) < 0.05
    tokens[contraction] = np.array(_CONTRACTIONS, dtype=object)[
        rng.integers(0, len(_CONTRACTIONS), size=int(contraction.sum()))
    ]
    punct = rng.random(total) < 0.10
    tokens[punct] = tokens[punct] + np.array(_PUNCT, dtype=object)[
        rng.integers(0, len(_PUNCT), size=int(punct.sum()))
    ]
    url_doc = rng.random(n) < 0.08
    url_pos = rng.integers(0, lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    url_at = starts[url_doc] + url_pos[url_doc]
    hosts = lex.words[rng.integers(0, len(lex.words), size=len(url_at))]
    schemes = np.where(rng.random(len(url_at)) < 0.5, "https://", "www.")
    tokens[url_at] = [
        f"{tokens[i]} {s}{h}.example.org/{k}"
        for i, s, h, k in zip(url_at, schemes, hosts, range(len(url_at)))
    ]
    texts = [" ".join(tokens[a:b]) for a, b in zip(starts, starts + lengths)]
    return Texts(texts=texts, severity=noisy, true_severity=true)


def make_pairs(rng: np.random.Generator, pool: Texts, n_pairs: int,
               flip: float = 0.08) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Judgment pairs over a pool of texts: (less_toxic, more_toxic).

    Sides are drawn uniformly from the pool, so with a pool smaller than
    2 * n_pairs texts repeat as they do in real judgment data.  The more
    toxic side is the one with the higher hidden severity, with a share
    `flip` of judgments reversed as annotator noise.
    """
    a = rng.integers(0, len(pool.texts), size=n_pairs)
    b = (a + rng.integers(1, len(pool.texts), size=n_pairs)) % len(pool.texts)
    sev = pool.true_severity
    a_more = (sev[a] > sev[b]) ^ (rng.random(n_pairs) < flip)
    more = np.where(a_more, a, b)
    less = np.where(a_more, b, a)
    pairs = [(pool.texts[i], pool.texts[j]) for i, j in zip(less, more)]
    return pairs, np.concatenate([less, more])


def repeat_share(texts: list[str]) -> float:
    """Share of texts that repeat an earlier one in the same list."""
    return 1.0 - len(set(texts)) / len(texts) if texts else 0.0


def write_csv(path: Path, header: list[str], rows) -> int:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        count = 0
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def write_raw_labeled(path: Path, texts: Texts, prefix: str) -> int:
    """Ruddit layout: comment_id,text,score with score in [-1, 1]."""
    return write_csv(path, ["comment_id", "text", "score"], (
        (f"{prefix}{i}", t, f"{2.0 * s - 1.0:.6f}")
        for i, (t, s) in enumerate(zip(texts.texts, texts.severity))
    ))


def write_comments(path: Path, texts: list[str], prefix: str) -> int:
    return write_csv(path, ["comment_id", "text"],
                     ((f"{prefix}{i}", t) for i, t in enumerate(texts)))


def write_pairs(path: Path, pairs: list[tuple[str, str]]) -> int:
    return write_csv(path, ["less_toxic", "more_toxic"], pairs)
