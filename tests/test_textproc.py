import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import textproc
from sevrank.textproc import (
    PreprocessConfig,
    char_wb_ngrams,
    porter_stem,
    preprocess,
)


def preprocess_whole_text(text):
    """Reference: the contraction regex run over the whole text, then the
    remaining default steps."""
    table, pattern = textproc._load_contractions()
    out = textproc._URL_RE.sub("", text)
    out = pattern.sub(lambda m: table.get(m.group(0).lower(), m.group(0)), out)
    return " ".join(out.lower().split())


_KEYS = sorted(textproc._load_contractions()[0])
_PIECES = st.one_of(
    st.sampled_from(_KEYS),
    st.sampled_from(_KEYS).map(str.upper),
    st.sampled_from(["'", "’", "ſ", "İ", "K", "_", "3", "é", "😀"]),
    st.sampled_from(list(".,!?-\"*")),
    st.sampled_from([" ", "\t", "\n", "\u00a0"]),
    st.text(alphabet="abdehilnostvw", min_size=1, max_size=3),
)


class TestPreprocess:
    def test_url_removed_and_lowercased(self):
        assert preprocess("Visit http://x.co now") == "visit now"

    def test_https_and_www_urls(self):
        assert preprocess("see https://a.b/c?q=1 and www.site.org/x end") == "see and end"

    def test_contraction_expanded(self):
        assert preprocess("Don't go") == "do not go"

    def test_contraction_case_insensitive(self):
        assert preprocess("DON'T SHOUT") == "do not shout"
        assert preprocess("You'Re wrong") == "you are wrong"

    def test_longest_contraction_wins(self):
        assert preprocess("he couldn't've known") == "he could not have known"

    def test_contraction_inside_word_untouched(self):
        # "she's" must not trigger the "he's" entry
        assert preprocess("she's here") == "she is here"

    def test_empty_is_fixed_point(self):
        assert preprocess("") == ""

    def test_whitespace_collapsed(self):
        assert preprocess("a\t b\n\nc  ") == "a b c"

    def test_stemming_applied_per_token(self):
        config = PreprocessConfig(stem=True)
        assert preprocess("Motoring ponies", config) == "motor poni"

    def test_flags_can_disable_steps(self):
        config = PreprocessConfig(lowercase=False, strip_urls=False,
                                  expand_contractions=False)
        assert preprocess("Don't visit www.x.y", config) == "Don't visit www.x.y"

    def test_case_folding_letters(self):
        # the regex matches each case-insensitively; a match whose lowercased
        # form is no table key ("ſ".lower() is not "s") stays as it is
        assert preprocess("ſhe'd go") == "ſhe'd go"
        assert preprocess("iſn't it") == "iſn't it"
        assert preprocess("İsn't it") == "i̇sn't it"
        assert preprocess("O'CLOC\u212a") == preprocess("o'clock") != "o'clock"

    def test_contraction_at_apostrophe_run_edges(self):
        assert preprocess("'cause (can't) x'can't don't'") == (
            "because (cannot) x'cannot do not'")

    def test_every_contraction_key_is_an_apostrophe_run(self):
        # the apostrophe-run fast path relies on this
        assert all(textproc._APOSTROPHE_RUN_RE.fullmatch(k) for k in _KEYS)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PIECES, max_size=12).map("".join))
    def test_matches_the_regex_over_the_whole_text(self, text):
        assert preprocess(text) == preprocess_whole_text(text)

    def test_idempotent_on_random_strings(self):
        rng = random.Random(42)
        pool = string.ascii_letters + string.digits + "  '.,!?*:/-é中"
        snippets = ["http://", "https://t.co/x", "www.", "don't", "CAN'T",
                    "I'm", "  ", "\t", "\n"]
        for _ in range(300):
            parts = [
                rng.choice(snippets) if rng.random() < 0.2 else
                "".join(rng.choice(pool) for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(0, 6))
            ]
            text = "".join(parts)
            once = preprocess(text)
            assert preprocess(once) == once


class TestCharWbNgrams:
    def test_two_trigrams_for_two_letter_word(self):
        assert sorted(char_wb_ngrams("hi", 3, 3)) == [" hi", "hi "]

    def test_per_word_padding(self):
        assert sorted(char_wb_ngrams("ab cd", 3, 3)) == [" ab", " cd", "ab ", "cd "]

    def test_empty_text(self):
        assert char_wb_ngrams("", 3, 5) == []

    def test_short_word_emitted_once(self):
        # padded "hi" has length 4: full trigram set, then the whole padded
        # word exactly once, with no further lengths attempted
        assert char_wb_ngrams("hi", 3, 5) == [" hi", "hi ", " hi "]
        assert char_wb_ngrams("a", 3, 5) == [" a "]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            char_wb_ngrams("abc", 0, 3)
        with pytest.raises(ValueError):
            char_wb_ngrams("abc", 4, 3)

    def test_count_matches_enumeration_for_fixed_n(self):
        # a padded word of length L >= n yields exactly L - n + 1 grams
        for word_len in range(1, 11):
            word = "x" * word_len
            padded_len = word_len + 2
            for n in range(1, 7):
                if padded_len < n:
                    continue
                grams = char_wb_ngrams(word, n, n)
                assert len(grams) == padded_len - n + 1

    def test_no_gram_spans_words(self):
        rng = random.Random(7)
        for _ in range(100):
            words = [
                "".join(rng.choice("abcde") for _ in range(rng.randint(1, 7)))
                for _ in range(rng.randint(1, 5))
            ]
            text = " ".join(words)
            for gram in char_wb_ngrams(text, 2, 6):
                core = gram
                if core.startswith(" "):
                    core = core[1:]
                if core.endswith(" "):
                    core = core[:-1]
                assert " " not in core, gram


# Inputs paired with the stem the full rule pipeline produces.  Values were
# derived by tracing every step by hand; several differ from single-step
# illustrations (e.g. "agreed" passes step 1b as "agree" and then loses the
# final e in step 5a).
PORTER_CASES = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("oscillators", "oscil"),
]


class TestPorterStem:
    @pytest.mark.parametrize("word,expected", PORTER_CASES)
    def test_reference_vocabulary(self, word, expected):
        assert porter_stem(word) == expected

    def test_short_tokens_unchanged(self):
        assert porter_stem("a") == "a"
        assert porter_stem("as") == "as"
        assert porter_stem("A") == "A"

    def test_non_alpha_tokens_pass_through(self):
        assert porter_stem("f***") == "f***"
        assert porter_stem("123") == "123"
        assert porter_stem("cats!") == "cats!"
        assert porter_stem("cafés") == "cafés"

    def test_uppercase_input_is_stemmed_lowercase(self):
        assert porter_stem("Caresses") == "caress"

    def test_output_never_longer_than_input(self):
        rng = random.Random(3)
        words = [w for w, _ in PORTER_CASES]
        words += [
            "".join(rng.choice("abcdefghilmnoprstuvy") for _ in range(rng.randint(1, 12)))
            for _ in range(500)
        ]
        for word in words:
            assert len(porter_stem(word)) <= len(word)
