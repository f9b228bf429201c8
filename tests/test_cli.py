import ast
import csv
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sevrank
from sevrank import (cli, corpus, ensemble, evaluate, explain, features, fitting,
                     pipeline, regress, textproc)
from sevrank.textproc import PreprocessConfig, preprocess

from reference import char_wb_ngrams, fit_tfidf, transform

MILD = ["nice", "thanks", "great", "friendly", "agree", "helpful", "kind", "fair"]
HARSH = ["idiot", "stupid", "moron", "dumb", "loser", "pathetic", "trash", "clown"]


def sentence(rng, n_harsh):
    words = list(rng.choice(MILD, size=6 - n_harsh)) + list(rng.choice(HARSH, size=n_harsh))
    rng.shuffle(words)
    return " ".join(words)


# ids and texts built from everything the CSV quote rule must handle
FIELDS = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "é", "ſ", "ж", "a b", ""]),
                  max_size=6).map("".join)


def write_csv(path, header, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny labeled set, comments, pairs with repeated sides, and a model."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    labeled = []
    for i in range(40):
        n_harsh = int(rng.integers(0, 4))
        labeled.append((f"t{i}", sentence(rng, n_harsh) + " Don't!", f"{n_harsh / 3:.6f}"))
    pool = [sentence(rng, int(rng.integers(0, 4))) for _ in range(12)]
    pairs = []
    for _ in range(30):
        a, b = rng.choice(len(pool), size=2, replace=False)
        pairs.append((pool[a], pool[b]))
    f = {
        "root": root,
        "labeled": write_csv(root / "labeled.csv", ["comment_id", "text", "score"], labeled),
        "comments": write_csv(root / "comments.csv", ["comment_id", "text"],
                              [(f"c{i}", t) for i, t in enumerate(pool + pool[:3])]),
        "pairs": write_csv(root / "pairs.csv", ["less_toxic", "more_toxic"], pairs),
        "model": str(root / "model"),
    }
    assert cli.main(["train", "--labeled", str(f["labeled"]), "--out-prefix",
                     f["model"], "--n-min", "2", "--n-max", "4"]) == 0
    return f


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def run_twice(capsys, tmp_path, argv, outputs=()):
    """Run a command twice; return (stdout, [file bytes]) of each run."""
    results = []
    for attempt in range(2):
        paths = [tmp_path / f"{attempt}-{name}" for name in outputs]
        code, out, err = run(capsys, *argv(*paths))
        assert code == 0, err
        results.append((out.replace(str(tmp_path), ""),
                        [p.read_bytes() for p in paths]))
    return results


class TestRerunsAreByteIdentical:
    def test_score(self, files, capsys, tmp_path):
        first, second = run_twice(capsys, tmp_path, lambda out: [
            "score", "--model-prefix", files["model"],
            "--comments", files["comments"], "--out", out], ["scores.csv"])
        assert first == second
        assert first[1][0].decode().count("\n") == 16

    def test_evaluate(self, files, capsys, tmp_path):
        first, second = run_twice(capsys, tmp_path, lambda errors: [
            "evaluate", "--model-prefix", files["model"], "--pairs", files["pairs"],
            "--top-errors", "5", "--errors-out", errors], ["errors.csv"])
        assert first == second

    def test_search(self, files, capsys, tmp_path):
        first, second = run_twice(capsys, tmp_path, lambda: [
            "search", "--labeled", files["labeled"], "--pairs", files["pairs"],
            "--trials", "2", "--seed", "3"])
        assert first == second
        records = [json.loads(line) for line in first[0].splitlines()]
        assert len(records) == 3 and "best" in records[-1]

    def test_explain(self, files, capsys, tmp_path):
        first, second = run_twice(capsys, tmp_path, lambda out: [
            "explain", "--model-prefix", files["model"], "--text",
            "you stupid clown, thanks", "--num-samples", "60", "--seed", "4",
            "--json-out", out], ["explain.json"])
        assert first == second


class TestScoring:
    def test_evaluate_model_prefix_matches_score_then_evaluate(self, files, capsys, tmp_path):
        code, direct, _ = run(capsys, "evaluate", "--model-prefix", files["model"],
                              "--pairs", files["pairs"], "--top-errors", "5",
                              "--errors-out", tmp_path / "direct.csv")
        assert code == 0
        scores = tmp_path / "pair_scores.csv"
        assert run(capsys, "score", "--model-prefix", files["model"], "--pairs",
                   files["pairs"], "--out", scores)[0] == 0
        code, two_step, _ = run(capsys, "evaluate", "--scores", scores,
                                "--pairs", files["pairs"], "--top-errors", "5",
                                "--errors-out", tmp_path / "two_step.csv")
        assert code == 0
        assert direct == two_step
        assert (tmp_path / "direct.csv").read_bytes() == (
            tmp_path / "two_step.csv").read_bytes()

    def test_score_texts_keeps_order_and_scores_each_text_once(self, files, monkeypatch):
        model = pipeline.load_pipeline(f"{files['model']}.pipeline")
        tfidf, ridge, pp = model.tfidf, model.ridge, model.preprocess
        texts = ["you idiot", "Thanks, friend!", "you idiot", "", "Thanks, friend!"]
        walked, seen = [], []
        real_chunks, real_tokens = features.transform_chunks, textproc.preprocess_tokens

        def counting_chunks(model, texts, prep):
            walked.extend(texts)
            return real_chunks(model, texts, prep)

        def counting_tokens(tokens, config):
            seen.extend(tokens)
            return real_tokens(tokens, config)

        monkeypatch.setattr(features, "transform_chunks", counting_chunks)
        monkeypatch.setattr(textproc, "preprocess_tokens", counting_tokens)
        got = model.score(texts)
        # each distinct text is walked once, each distinct token preprocessed once
        assert sorted(walked) == sorted(set(texts))
        assert sorted(seen) == ["Thanks,", "friend!", "idiot", "you"]
        for text, score in zip(texts, got):
            alone = regress.predict(ridge, transform(tfidf, [preprocess(text, pp)]))
            assert score == alone[0]

    def test_case_folding_letter_next_to_an_apostrophe(self, files, capsys, tmp_path):
        # re.IGNORECASE lets "ſ" match "s"; the comment is scored, not rejected
        comments = write_csv(tmp_path / "odd.csv", ["comment_id", "text"],
                             [("c0", "ſhe'd go"), ("c1", "İsn't it")])
        out = tmp_path / "scores.csv"
        code, _, err = run(capsys, "score", "--model-prefix", files["model"],
                           "--comments", comments, "--out", out)
        assert (code, err) == (0, "")
        assert [r["comment_id"] for r in csv.DictReader(out.open())] == ["c0", "c1"]

    def test_seed_is_only_read_where_it_is_used(self, files, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["score", "--model-prefix", files["model"], "--comments",
                      str(files["comments"]), "--out", str(tmp_path / "s.csv"),
                      "--seed", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_evaluate_comments_without_scores_is_a_usage_error(self, files, capsys,
                                                                tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["evaluate", "--model-prefix", files["model"], "--pairs",
                      str(files["pairs"]), "--comments", str(tmp_path / "missing.csv")])
        assert exc.value.code == 2
        assert "--comments resolves the pairs for --scores" in capsys.readouterr().err


class TestExplain:
    def test_scorer_called_once_with_every_sample(self, files, capsys, monkeypatch):
        # the model scores the keep masks; no variant text is built or scored
        calls = []
        real = pipeline.Pipeline.score_masks

        def counting(model, tokens, masks):
            calls.append((tokens, masks.shape))
            return real(model, tokens, masks)

        monkeypatch.setattr(pipeline.Pipeline, "score_masks", counting)
        monkeypatch.setattr(pipeline.Pipeline, "score", None)
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", "you stupid clown", "--num-samples", "40")
        assert code == 0, err
        assert calls == [(["you", "stupid", "clown"], (40, 3))]

    def test_html_out_is_the_explanation_html(self, files, capsys, tmp_path):
        text = "you stupid clown, thanks you"
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", text, "--num-samples", "40", "--seed", "2",
                             "--html-out", tmp_path / "x.html")
        assert code == 0, err
        model = pipeline.load_pipeline(f"{files['model']}.pipeline")
        config = explain.ExplainConfig(num_samples=40, seed=2)
        result = explain.lime_explain_masks(model.score_masks, text, config)
        assert out == explain.explanation_json(result) + "\n"
        assert (tmp_path / "x.html").read_text(encoding="utf-8") == (
            explain.explanation_html(result) + "\n")
        # scoring the variant texts instead moves no word and no weight
        # by more than the rounding of the mask scores
        by_text = explain.lime_explain(model.score, text, config)
        assert [i for i, _ in by_text.importances] == [i for i, _ in result.importances]
        np.testing.assert_allclose([w for _, w in result.importances],
                                   [w for _, w in by_text.importances], rtol=0, atol=1e-12)
        assert result.local_r2 == pytest.approx(by_text.local_r2, rel=0, abs=1e-12)

    @pytest.mark.parametrize("width, why", [
        ("1e155", "squares to inf"), ("1e-300", "squares to 0.0"),
        ("1e-160", "gives every perturbed sample weight 0"),
    ])
    def test_unusable_kernel_width_names_the_flag(self, files, capsys, tmp_path, recwarn,
                                                  width, why):
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", "you stupid clown", "--kernel-width", width,
                             "--json-out", tmp_path / "x.json")
        assert (code, out) == (1, "")
        assert err.startswith("sevrank: error: --kernel-width: ") and why in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "x.json").exists()

    def test_html_out_of_a_lone_surrogate_names_file_and_token(self, files, capsys, tmp_path):
        # an argv byte that is not UTF-8 reaches the text as a lone surrogate
        page = tmp_path / "x.html"
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", "you caf\udce9 clown", "--num-samples", "20",
                             "--json-out", tmp_path / "x.json", "--html-out", page)
        assert (code, out) == (1, "")
        assert err == (f"sevrank: error: {page}: token 'caf\\udce9' holds '\\udce9', "
                       "a lone surrogate, which UTF-8 cannot encode\n")
        assert not page.exists() and not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("value", ["100001", "3000000000", "99999999999999999999"])
    def test_num_samples_above_the_limit_names_the_flag(self, files, capsys, tmp_path,
                                                         value):
        # refused before any mask is drawn: nothing is printed or written
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", "you idiot", "--num-samples", value,
                             "--json-out", tmp_path / "x.json")
        assert (code, out) == (1, "")
        assert err == (f"sevrank: error: --num-samples: {value} samples is above the "
                       "limit of 100000\n")
        assert not (tmp_path / "x.json").exists()

    def lookup(self, tmp_path, scores):
        return write_csv(tmp_path / "lookup.csv", ["text", "score"], scores.items())

    def test_scores_lookup(self, capsys, tmp_path):
        path = self.lookup(tmp_path, {"a b": 1.0, "a": 0.25, "b": 0.75, "": 0.0})
        code, out, err = run(capsys, "explain", "--scores-lookup", path,
                             "--text", "a b", "--num-samples", "20")
        assert code == 0, err
        result = json.loads(out)
        assert result["tokens"] == ["a", "b"]
        assert [w["word"] for w in result["importances"]] == ["b", "a"]

    def test_scores_lookup_html_colours_the_fitted_position(self, capsys, tmp_path):
        # every variant ending in "you" scores 1: the last "you" carries the weight
        path = self.lookup(tmp_path, {"you idiot you": 1.0, "idiot you": 1.0, "you you": 1.0,
                                      "you": 1.0, "you idiot": 0.0, "idiot": 0.0, "": 0.0})
        code, out, err = run(capsys, "explain", "--scores-lookup", path,
                             "--text", "you idiot you", "--num-features", "1",
                             "--html-out", tmp_path / "x.html")
        assert code == 0, err
        assert [w["word"] for w in json.loads(out)["importances"]] == ["you"]
        html = (tmp_path / "x.html").read_text(encoding="utf-8")
        assert re.findall(r"rgba\(255,0,0,([\d.]+)\)", html) == ["0.000", "0.000", "1.000"]

    def test_scores_lookup_missing_variant(self, capsys, tmp_path):
        path = self.lookup(tmp_path, {"a b": 1.0, "a": 0.25})
        code, _, err = run(capsys, "explain", "--scores-lookup", path,
                           "--text", "a b", "--num-samples", "20")
        assert code == 1
        assert "no lookup score for variant" in err

    def test_scores_lookup_malformed_row(self, capsys, tmp_path):
        path = tmp_path / "lookup.csv"
        path.write_text("text,score\na b,1.0\na\n", encoding="utf-8")
        code, _, err = run(capsys, "explain", "--scores-lookup", path,
                           "--text", "a b", "--num-samples", "20")
        assert code == 1
        assert "malformed CSV row 3" in err

    def test_non_finite_score_names_the_sample(self, capsys, tmp_path):
        # the table is rejected as it is read; LIME's own check on the
        # scorer's output is tested in test_explain.py
        path = self.lookup(tmp_path, {"a b": 1.0, "a": 0.25, "b": "nan", "": 0.0})
        code, _, err = run(capsys, "explain", "--scores-lookup", path,
                           "--text", "a b", "--num-samples", "20")
        assert code == 1
        assert f"{path}: non-finite score 'nan' at row 4" in err
        assert "Traceback" not in err

    def test_scores_lookup_repeated_text_names_its_row(self, capsys, tmp_path):
        path = write_csv(tmp_path / "lookup.csv", ["text", "score"],
                         [("a b", "1.0"), ("a", "0.1"), ("b", "0.5"), ("a", "0.9")])
        code, out, err = run(capsys, "explain", "--scores-lookup", path,
                             "--text", "a b", "--num-samples", "20")
        assert (code, out) == (1, "")
        assert f"{path}: duplicate text 'a' at row 5" in err
        assert "Traceback" not in err

    def test_blank_text_is_a_usage_error(self, capsys, tmp_path):
        path = self.lookup(tmp_path, {"a": 1.0, "": 0.0})
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--scores-lookup", str(path), "--text", " \t"])
        assert exc.value.code == 2
        assert "argument --text: must be non-empty" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")
DROP = object()  # `pipeline_bytes` leaves out a manifest key given this value
GOOD_MANIFEST = {
    "preprocess": {"lowercase": True, "strip_urls": True,
                   "expand_contractions": True, "stem": False},
    "tfidf": {"n_min": 2, "n_max": 3, "max_features": 9, "min_df": 1},
    "alpha": 1.0, "intercept": 0.25, "dim": 2, "grams_bytes": 6,
    "words_bytes": 3, "n_words": 2, "n_columns": 2,
}
SIZES_MESSAGE = "dim, grams_bytes, words_bytes, n_words, n_columns must be integers >= 0"
RETRAIN = ("a sevrank-pipeline-v1 file holds no word table; "
           "retrain the model to write a sevrank-pipeline-v2 file")


def pipeline_bytes(grams=b" a\n a ", numbers=(1.5, 1.25, 0.5, -0.5), words=b"a\nb",
                   counts=(2, 0), columns=(0, 1), magic=b"sevrank-pipeline-v2", **changes):
    """A pipeline file: GOOD_MANIFEST with `changes` (a dict value updates
    that section), then the grams, the idf and weight numbers, and the word
    table (words, columns per word, columns).  Unchanged, word "a" holds
    grams " a" (column 0) and " a " (column 1); word "b" holds neither."""
    manifest = {key: dict(value) if isinstance(value, dict) else value
                for key, value in GOOD_MANIFEST.items()}
    for key, value in changes.items():
        if isinstance(value, dict):
            manifest[key].update(value)
            manifest[key] = {k: v for k, v in manifest[key].items() if v is not DROP}
        elif value is DROP:
            del manifest[key]
        else:
            manifest[key] = value
    return (magic + b"\n" + json.dumps(manifest).encode() + b"\n"
            + grams + np.array(numbers, dtype="<f8").tobytes()
            + words + np.array(counts, dtype="<i4").tobytes()
            + np.array(columns, dtype="<i4").tobytes())


# a whole file of the v1 layout, which had no word table
V1_FILE = pipeline_bytes(magic=b"sevrank-pipeline-v1", words=b"", counts=(), columns=(),
                         words_bytes=DROP, n_words=DROP, n_columns=DROP)


class TestBadModelFiles:
    def score_with(self, files, capsys, tmp_path, raw):
        (tmp_path / "bad.pipeline").write_bytes(raw)
        code, _, err = run(capsys, "score", "--model-prefix", tmp_path / "bad",
                           "--comments", files["comments"], "--out", tmp_path / "s.csv")
        assert code == 1
        assert "Traceback" not in err
        return err

    def test_good_file_loads(self, files, capsys, tmp_path):
        (tmp_path / "ok.pipeline").write_bytes(pipeline_bytes())
        model = pipeline.load_pipeline(tmp_path / "ok.pipeline")
        assert model.tfidf.vocabulary == {" a": 0, " a ": 1}
        assert model.tfidf.idf.tolist() == [1.5, 1.25]
        assert model.ridge.weights.tolist() == [0.5, -0.5]
        assert (model.ridge.alpha, model.ridge.intercept) == (1.0, 0.25)
        assert model.preprocess == PreprocessConfig()
        assert model.tfidf.config == features.TfidfConfig(2, 3, 9, 1)
        words, counts, columns = model.tfidf.word_table()
        assert (words, counts.tolist(), columns.tolist()) == (["a", "b"], [2, 0], [0, 1])
        code, _, err = run(capsys, "score", "--model-prefix", tmp_path / "ok",
                           "--comments", files["comments"], "--out", tmp_path / "s.csv")
        assert code == 0, err

    @pytest.mark.parametrize("raw,message", [
        (b"tfidf-v1\nconfig\tn_min=2\tn_max=3\tmax_features=9\tmin_df=1\n",
         "not a sevrank-pipeline-v2 file"),
        (V1_FILE, RETRAIN),
        (b"sevrank-pipeline-v2\ndim=0\n", "manifest line is not JSON"),
        (b"sevrank-pipeline-v2\n" + b"[" * 100000 + b"\n", "manifest line is not JSON"),
        (b"sevrank-pipeline-v2\n[]\n", "manifest must hold exactly preprocess, tfidf"),
        (pipeline_bytes(alpha=DROP), "manifest must hold exactly preprocess, tfidf"),
        (pipeline_bytes(n_words=DROP), "manifest must hold exactly preprocess, tfidf"),
        (pipeline_bytes(version=1), "manifest must hold exactly preprocess, tfidf"),
        (pipeline_bytes(preprocess={"stem": 0}),
         "manifest 'preprocess' must set exactly lowercase, strip_urls"),
        (pipeline_bytes(tfidf={"n_min": 2.0}),
         "manifest 'tfidf' must set exactly n_min, n_max, max_features, min_df "
         "to int values"),
        (pipeline_bytes(tfidf={"min_df": True}), "manifest 'tfidf' must set"),
        (pipeline_bytes(tfidf={"n_min": 4}), "invalid n-gram range (4, 3)"),
        (pipeline_bytes(tfidf={"n_min": 0}), "invalid n-gram range (0, 3)"),
        (pipeline_bytes(dim=-1), SIZES_MESSAGE),
        (pipeline_bytes(grams_bytes=6.0), SIZES_MESSAGE),
        (pipeline_bytes(words_bytes=True), SIZES_MESSAGE),
        (pipeline_bytes(n_words=-2), SIZES_MESSAGE),
        (pipeline_bytes(n_columns="2"), SIZES_MESSAGE),
        (pipeline_bytes(numbers=(1.5, 1.25, 0.5)),
         "payload is 49 bytes, not 57"),
        (pipeline_bytes(numbers=(1.5, 1.25, 0.5, -0.5, 0.0)),
         "payload is 65 bytes, not 57"),
        (pipeline_bytes(grams_bytes=5), "payload is 57 bytes, not 56"),
        (pipeline_bytes(grams=b" ab\n a \n b", grams_bytes=10),
         "grams must be 2 distinct non-empty strings"),
        (pipeline_bytes(grams=b" a\n a", grams_bytes=5), "grams must be 2 distinct non-empty strings"),
        (pipeline_bytes(grams=b" a \n", grams_bytes=4),
         "grams must be 2 distinct non-empty strings"),
        (pipeline_bytes(grams=b"\xff\xfe\n a "), "grams are not UTF-8"),
        (pipeline_bytes(alpha=0.0), "alpha must be a finite number > 0, got 0.0"),
        (pipeline_bytes(alpha=-1.0), "alpha must be a finite number > 0, got -1.0"),
        (pipeline_bytes(alpha=NAN), "alpha must be a finite number > 0, got nan"),
        (pipeline_bytes(alpha=1), "alpha must be a finite number > 0, got 1"),
        (pipeline_bytes(alpha="1"), "alpha must be a finite number > 0, got '1'"),
        (pipeline_bytes(intercept=INF), "intercept, idf and weights must be finite numbers"),
        (pipeline_bytes(intercept="0"), "intercept, idf and weights must be finite numbers"),
        (pipeline_bytes(intercept=10 ** 400), "intercept, idf and weights must be finite numbers"),
        (pipeline_bytes(numbers=(NAN, 1.25, 0.5, -0.5)),
         "intercept, idf and weights must be finite numbers"),
        (pipeline_bytes(numbers=(1.5, 1.25, 0.5, -INF)),
         "intercept, idf and weights must be finite numbers"),
        # the word table
        (pipeline_bytes(words=b"\xffa\nb", words_bytes=4), "words are not UTF-8"),
        (pipeline_bytes(words=b"a\na"), "words must be distinct"),
        (pipeline_bytes(words=b"a\n\n", counts=(2, 0, 0), n_words=3),
         "words must be 3 non-empty strings without whitespace"),
        (pipeline_bytes(words=b"\nab"), "words must be 2 non-empty strings"),
        (pipeline_bytes(words=b"a b"), "words must be 2 non-empty strings without whitespace"),
        (pipeline_bytes(words="a\u3000\nb".encode(), words_bytes=6),
         "words must be 2 non-empty strings without whitespace"),
        (pipeline_bytes(words=b"a\nb\nc", words_bytes=5),
         "words must be 2 non-empty strings without whitespace"),
        (pipeline_bytes(counts=(3, -1)), "word column counts must be >= 0 and sum to 2"),
        (pipeline_bytes(counts=(1, 0)), "word column counts must be >= 0 and sum to 2"),
        (pipeline_bytes(counts=(2, 1), columns=(0, 1, 0), n_columns=2),
         "payload is 61 bytes, not 57"),
        (pipeline_bytes(columns=(0, 2)), "word columns must lie in [0, 2)"),
        (pipeline_bytes(columns=(-1, 1)), "word columns must lie in [0, 2)"),
        (pipeline_bytes()[:-3], "payload is 54 bytes, not 57"),
        (pipeline_bytes()[:-8], "payload is 49 bytes, not 57"),
    ], ids=["wrong-magic", "v1-file",
            "manifest-not-json", "manifest-nested-too-deep", "manifest-not-object", "manifest-missing-key",
            "manifest-missing-table-key", "manifest-extra-key", "switch-not-bool",
            "config-not-int", "config-bool", "ngram-range-reversed", "ngram-range-zero",
            "dim-negative", "grams-bytes-float", "words-bytes-bool", "n-words-negative",
            "n-columns-string", "payload-short", "payload-long",
            "grams-bytes-mismatch", "gram-count", "duplicate-gram", "empty-gram",
            "grams-not-utf8", "alpha-zero", "alpha-negative", "alpha-nan",
            "alpha-int", "alpha-string", "intercept-inf", "intercept-string",
            "intercept-huge-int", "idf-nan", "weight-inf",
            "words-not-utf8", "word-repeated", "word-empty-last", "word-empty-first",
            "word-holds-space", "word-holds-ideographic-space", "word-count",
            "count-negative", "counts-short-of-columns", "columns-past-count",
            "column-past-dim", "column-negative", "table-truncated-in-a-column",
            "table-truncated-columns"])
    def test_defect_names_the_file(self, files, capsys, tmp_path, raw, message):
        err = self.score_with(files, capsys, tmp_path, raw)
        assert f"{tmp_path / 'bad.pipeline'}: {message}" in err

    def test_header_only_without_newline(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path, b"sevrank-pipeline-v2")
        assert "bad.pipeline: not a sevrank-pipeline-v2 file" in err

    def test_v1_header_asks_to_retrain(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path, b"sevrank-pipeline-v1")
        assert f"bad.pipeline: {RETRAIN}" in err

    def test_missing_config_line(self, files, capsys, tmp_path):
        # the manifest line holds the preprocessing and tf-idf config
        err = self.score_with(files, capsys, tmp_path,
                              b"sevrank-pipeline-v2\n{\"dim\": 0}")
        assert "bad.pipeline: missing manifest line" in err

    def test_incomplete_config_line(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path,
                              pipeline_bytes(preprocess={"stem": DROP}))
        assert "bad.pipeline: manifest 'preprocess' must set exactly" in err

    @pytest.mark.parametrize("tfidf", [{"n_max": 2**70}, {"n_min": 2**70, "n_max": 2**71}])
    def test_n_gram_sizes_past_int64_score_unseen_words(self, capsys, tmp_path, tfidf):
        # no window outgrows its padded word (at most 7 characters here), so
        # the model scores as the one whose range is capped at 9
        comments = write_csv(tmp_path / "c.csv", ["comment_id", "text"],
                             [("c0", "a zebra"), ("c1", "b \U0001F600a"), ("c2", "ab")])
        scores = []
        for name, sizes in (("huge", tfidf), ("capped", {k: 9 for k in tfidf})):
            (tmp_path / f"{name}.pipeline").write_bytes(pipeline_bytes(tfidf=sizes))
            code, out, err = run(capsys, "score", "--model-prefix", tmp_path / name,
                                 "--comments", comments, "--out", tmp_path / f"{name}.csv")
            assert (code, out, err) == (0, "scored 3 comments\n", ""), err
            scores.append((tmp_path / f"{name}.csv").read_bytes())
        assert scores[0] == scores[1]

    def test_old_model_pair_is_not_read(self, files, capsys, tmp_path):
        (tmp_path / "bad.tfidf").write_text(
            "tfidf-v1\nconfig\tn_min=2\tn_max=3\tmax_features=9\tmin_df=1\n")
        (tmp_path / "bad.ridge").write_bytes(b"ridge-v1\n" + bytes(16))
        code, _, err = run(capsys, "score", "--model-prefix", tmp_path / "bad",
                           "--comments", files["comments"], "--out", tmp_path / "s.csv")
        assert code == 1
        assert "No such file" in err and str(tmp_path / "bad.pipeline") in err
        assert "Traceback" not in err


PREPROCESS_FLAGS = ["--stem", "--no-lowercase", "--no-strip-urls", "--no-contractions"]


class TestPreprocessingIsSavedWithTheModel:
    def test_train_writes_one_pipeline_file(self, files, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--labeled", files["labeled"],
                           "--out-prefix", tmp_path / "sub" / "m", *PREPROCESS_FLAGS)
        assert code == 0, err
        assert list((tmp_path / "sub").iterdir()) == [tmp_path / "sub" / "m.pipeline"]
        saved = pipeline.load_pipeline(tmp_path / "sub" / "m.pipeline").preprocess
        assert saved == PreprocessConfig(lowercase=False, strip_urls=False,
                                         expand_contractions=False, stem=True)

    def test_stemmed_model_scores_as_it_did_at_training_time(self, files, capsys,
                                                             tmp_path):
        prefix = tmp_path / "stemmed"
        assert run(capsys, "train", "--labeled", files["labeled"], "--out-prefix",
                   prefix, "--n-min", "2", "--n-max", "4", "--stem")[0] == 0
        code, _, err = run(capsys, "score", "--model-prefix", prefix,
                           "--comments", files["comments"], "--out", tmp_path / "s.csv")
        assert code == 0, err
        got = [float(r["score"]) for r in csv.DictReader((tmp_path / "s.csv").open())]

        # the training-time pipeline, fit in memory as `train --stem` fits it
        labeled = corpus.load_labeled(files["labeled"])
        stem = PreprocessConfig(stem=True)
        texts = [preprocess(text, stem) for text in labeled.texts]
        tfidf = fit_tfidf(texts, features.TfidfConfig(n_min=2, n_max=4))
        ridge = regress.fit_ridge(transform(tfidf, texts), labeled.scores)
        _, comments = corpus.load_comments(files["comments"])
        assert got == pipeline.Pipeline(stem, tfidf, ridge).score(comments).tolist()
        unstemmed = pipeline.Pipeline(PreprocessConfig(), tfidf, ridge).score(comments)
        assert got != unstemmed.tolist()

    @pytest.mark.parametrize("flag", PREPROCESS_FLAGS)
    @pytest.mark.parametrize("command", ["score", "evaluate", "explain"])
    def test_scoring_commands_take_no_preprocessing_flag(self, files, capsys, tmp_path,
                                                         command, flag):
        inputs = {
            "score": ["--comments", files["comments"], "--out", tmp_path / "s.csv"],
            "evaluate": ["--pairs", files["pairs"]],
            "explain": ["--text", "you clown"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--model-prefix", files["model"],
                      *map(str, inputs), flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_search_takes_the_flags(self, files, capsys, tmp_path):
        code, out, err = run(capsys, "search", "--labeled", files["labeled"],
                             "--pairs", files["pairs"], "--trials", "1",
                             *PREPROCESS_FLAGS)
        assert code == 0, err
        assert "best" in json.loads(out.splitlines()[-1])


def search_oracle(labeled, pairs_path, trials, seed, pp):
    """`search` rebuilt one trial at a time: each trial fits its own
    vectorizer, transforms, solves, and scores every pair side on its own."""
    examples = corpus.load_labeled(labeled)
    pairs = corpus.load_pairs(pairs_path)
    texts = [preprocess(text, pp) for text in examples.texts]
    y = examples.scores
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(trials):
        ranges, caps = fitting._SEARCH_NGRAM_RANGES, fitting._SEARCH_MAX_FEATURES
        n_min, n_max = ranges[rng.integers(len(ranges))]
        max_features = caps[rng.integers(len(caps))]
        alpha = float(10.0 ** rng.uniform(-2.0, 2.0))
        config = features.TfidfConfig(n_min=n_min, n_max=n_max, max_features=max_features)
        tfidf = fit_tfidf(texts, config)
        ridge = regress.fit_ridge(transform(tfidf, texts), y, alpha=alpha)
        scores = [float(regress.predict(ridge, transform(
            tfidf, [preprocess(text, pp)]))[0]) for text in pairs.texts]
        records.append({
            "trial": trial, "n_min": n_min, "n_max": n_max, "max_features": max_features,
            "alpha": alpha,
            "accuracy": evaluate.pairwise_accuracy(pairs.ids, scores).accuracy,
            "vocabulary": sorted(tfidf.vocabulary), "texts": texts,
        })
    return records


def spy_on_vectorizing(monkeypatch):
    """A list that gets the model of each later `features.transform_chunks`
    or `features.idf_rows` call: the two ways a fitted model vectorizes
    texts."""
    calls = []
    for name in ("transform_chunks", "idf_rows"):
        real = getattr(features, name)
        monkeypatch.setattr(features, name, lambda model, *rest, real=real:
                            calls.append(model) or real(model, *rest))
    return calls


class TestSearchMatchesPerTrialFits:
    """Every search record equals fitting and scoring that trial on its own,
    although search splits and counts each text once and shares matrices
    between trials."""

    def search(self, capsys, monkeypatch, files, trials, seed, *flags):
        calls = spy_on_vectorizing(monkeypatch)
        code, out, err = run(capsys, "search", "--labeled", files["labeled"],
                             "--pairs", files["pairs"], "--trials", trials,
                             "--seed", seed, *flags)
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines()]
        return records, len(calls)

    def check(self, records, oracle, n_transforms):
        trials = [{k: r[k] for k in r if k not in ("vocabulary", "texts")} for r in oracle]
        assert records[:-1] == trials
        best = max(trials, key=lambda r: r["accuracy"])  # the first of equals
        assert records[-1] == {"best": best}
        # every matrix comes from the gram table's own count
        assert n_transforms == 0

    def test_trials_that_share_a_range(self, files, capsys, monkeypatch):
        records, n_transforms = self.search(capsys, monkeypatch, files, 6, 2)
        oracle = search_oracle(files["labeled"], files["pairs"], 6, 2, PreprocessConfig())
        ranges = [(r["n_min"], r["n_max"]) for r in oracle]
        assert len(set(ranges)) < len(ranges)
        self.check(records, oracle, n_transforms)

    def test_cap_below_the_candidates_with_a_tie_at_the_cut(self, files, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(fitting, "_SEARCH_MAX_FEATURES", (7, 40, 10**6))
        oracle = search_oracle(files["labeled"], files["pairs"], 6, 5, PreprocessConfig())
        ties = 0
        for r in oracle:
            counts = Counter(g for t in r["texts"]
                             for g in char_wb_ngrams(t, r["n_min"], r["n_max"]))
            totals = sorted(counts.values(), reverse=True)
            cap = r["max_features"]
            ties += cap < len(totals) and totals[cap - 1] == totals[cap]
        assert ties >= 2
        records, n_transforms = self.search(capsys, monkeypatch, files, 6, 5)
        self.check(records, oracle, n_transforms)

    def test_makes_no_gram_string(self, files, capsys, monkeypatch, tmp_path):
        # search builds matrices and no model, so no gram becomes a string
        oracle = search_oracle(files["labeled"], files["pairs"], 4, 2, PreprocessConfig())
        made, real = [], features._gram_strings
        monkeypatch.setattr(features, "_gram_strings",
                            lambda *span: made.extend(real(*span)) or real(*span))
        records, n_transforms = self.search(capsys, monkeypatch, files, 4, 2)
        self.check(records, oracle, n_transforms)
        assert made == []
        # the spy sees the strings that train's model makes
        code, _, err = run(capsys, "train", "--labeled", files["labeled"],
                           "--out-prefix", tmp_path / "m")
        assert (code, err) == (0, "") and made

    def test_stem(self, files, capsys, monkeypatch):
        records, n_transforms = self.search(capsys, monkeypatch, files, 4, 7, "--stem")
        oracle = search_oracle(files["labeled"], files["pairs"], 4, 7,
                               PreprocessConfig(stem=True))
        self.check(records, oracle, n_transforms)
        plain = search_oracle(files["labeled"], files["pairs"], 4, 7, PreprocessConfig())
        assert oracle[0]["texts"] != plain[0]["texts"]


GOLDEN_WORDS = MILD + HARSH + ["Don't", "can't", "It's", "won't", "I'm", "café", "naïve",
                              "straße", "😀", "x😀y", "𝔸𝔹", "日本語", "ok", "a"]


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """More than CHUNK_ROWS labeled texts, with non-BMP words and
    contractions, and pairs drawn from them."""
    root = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(11)
    labeled = []
    for i in range(features.CHUNK_ROWS + 26):
        words = rng.choice(GOLDEN_WORDS, size=int(rng.integers(1, 9))).tolist()
        harsh = sum(w in HARSH for w in words)
        labeled.append((f"g{i}", " ".join(words), f"{min(harsh / 3, 1.0):.6f}"))
    # the more toxic side of a pair is the one whose label is higher, or drawn
    pairs = [tuple(labeled[i][1] for i in sorted(
        rng.choice(len(labeled), size=2, replace=False), key=lambda i: labeled[i][2]))
        for _ in range(40)]
    return {
        "labeled": write_csv(root / "labeled.csv", ["comment_id", "text", "score"], labeled),
        "pairs": write_csv(root / "pairs.csv", ["less_toxic", "more_toxic"], pairs),
    }


def float_platform():
    """Digest of a few float64 results of the kernels `train` rounds with,
    which may differ between platforms: np.log (idf), np.add.reduceat
    (`features.row_sums`: row norms, scores and CG inner products) and
    weighted np.bincount (CG's column sums).  The golden digests below hold
    where this equals GOLDEN_PLATFORM.  The inputs are made by exactly
    rounded operations, so they are the same bits everywhere."""
    x = (np.arange(6000.0) * 0.7548776662466927) % 1.0 - 0.5
    parts = [np.log(np.arange(1.0, 300.0) / 7.0)]
    for n in (7, 33, 1000, 5999):
        parts += [np.add.reduceat(x[:n] * x[:n], [0, n // 3]),
                  np.bincount(np.arange(n) % 7, weights=x[:n], minlength=7)]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()[:16]


GOLDEN_PLATFORM = "885564cbdb9aaf29"

# train flags -> (sha256 of the .pipeline file, stdout)
GOLDEN_TRAIN = {
    "3-5": ((), "eb12c086a92ad356a27920f05a049e3190b6179c539cee0b375707c9f4a4f8e9",
            "training objective: 3.676514762041491\n"),
    "1-7-max500": (("--n-min", "1", "--n-max", "7", "--max-features", "500"),
                   "314124f0e43cd958e80e467a7512928c223115e9e17ced8e5a0d18505fc8aa70",
                   "training objective: 4.1633312325285114\n"),
    "min-df-2": (("--min-df", "2"),
                 "f4d02a12b09bca55c2dde55b0de43e4e50a4e3f8c67009a703a936f7964710fd",
                 "training objective: 3.676514762041491\n"),
    "stem": (("--stem",), "d911dc3963648399afbbc7c391fb47a68a961be3715152ae9c13d321e6f4abf5",
             "training objective: 3.6568954078456564\n"),
}


# each GOLDEN_TRAIN flag set as `pipeline.fit` arguments
FIT_ARGS = {
    "3-5": {},
    "1-7-max500": {"tfidf": features.TfidfConfig(n_min=1, n_max=7, max_features=500)},
    "min-df-2": {"tfidf": features.TfidfConfig(min_df=2)},
    "stem": {"preprocess": PreprocessConfig(stem=True)},
}


# search --trials 8 --seed 3 on the golden files
GOLDEN_SEARCH = "".join(line + "\n" for line in [
    '{"trial": 0, "n_min": 3, "n_max": 6, "max_features": 10000, '
    '"alpha": 0.08856090101436472, "accuracy": 0.825}',
    '{"trial": 1, "n_min": 2, "n_max": 4, "max_features": 50000, '
    '"alpha": 2.1313174674015007, "accuracy": 0.825}',
    '{"trial": 2, "n_min": 2, "n_max": 4, "max_features": 10000, '
    '"alpha": 0.540141767140498, "accuracy": 0.825}',
    '{"trial": 3, "n_min": 3, "n_max": 5, "max_features": 30000, '
    '"alpha": 0.043546741020812206, "accuracy": 0.825}',
    '{"trial": 4, "n_min": 3, "n_max": 6, "max_features": 50000, '
    '"alpha": 0.02848971335587143, "accuracy": 0.825}',
    '{"trial": 5, "n_min": 3, "n_max": 5, "max_features": 30000, '
    '"alpha": 1.1667041172730443, "accuracy": 0.8}',
    '{"trial": 6, "n_min": 3, "n_max": 5, "max_features": 30000, '
    '"alpha": 2.2243047319119422, "accuracy": 0.8}',
    '{"trial": 7, "n_min": 2, "n_max": 4, "max_features": 50000, '
    '"alpha": 66.84501411716934, "accuracy": 0.825}',
    '{"best": {"trial": 0, "n_min": 3, "n_max": 6, "max_features": 10000, '
    '"alpha": 0.08856090101436472, "accuracy": 0.825}}',
])


class TestGoldenFits:
    """`train` and `search` outputs, pinned as bytes on a corpus of more than
    one chunk, so that a change to how a fit counts its text cannot change
    what it writes."""

    def train(self, capsys, tmp_path, golden, flags):
        prefix = tmp_path / "golden"
        code, out, err = run(capsys, "train", "--labeled", golden["labeled"],
                             "--out-prefix", prefix, *flags)
        assert (code, err) == (0, "")
        return Path(f"{prefix}.pipeline").read_bytes(), out

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAIN))
    def test_train_writes_the_step_by_step_fit(self, golden, capsys, tmp_path, name):
        flags = GOLDEN_TRAIN[name][0]
        data, out = self.train(capsys, tmp_path, golden, flags)
        args = cli.build_parser().parse_args(
            ["train", "--labeled", str(golden["labeled"]), "--out-prefix", "x", *flags])
        pp = cli._preprocess_config(args)
        labeled = corpus.load_labeled(golden["labeled"])
        texts = [preprocess(text, pp) for text in labeled.texts]
        tfidf = fit_tfidf(texts, features.TfidfConfig(
            n_min=args.n_min, n_max=args.n_max, max_features=args.max_features,
            min_df=args.min_df))
        X = transform(tfidf, texts)
        ridge = regress.fit_ridge(X, labeled.scores)
        pipeline.save_pipeline(pipeline.Pipeline(pp, tfidf, ridge), tmp_path / "ref.pipeline")
        assert data == (tmp_path / "ref.pipeline").read_bytes()
        objective = regress.ridge_objective(ridge, X, labeled.scores)
        assert out == f"training objective: {objective!r}\n"

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAIN))
    def test_fit_is_train(self, golden, capsys, tmp_path, name):
        data, out = self.train(capsys, tmp_path, golden, GOLDEN_TRAIN[name][0])
        labeled = corpus.load_labeled(golden["labeled"])
        model, objective = pipeline.fit(labeled.texts, labeled.scores, **FIT_ARGS[name])
        pipeline.save_pipeline(model, tmp_path / "fit.pipeline")
        assert data == (tmp_path / "fit.pipeline").read_bytes()
        assert out == f"training objective: {objective!r}\n"

    def test_train_transforms_nothing(self, golden, capsys, tmp_path, monkeypatch):
        calls = spy_on_vectorizing(monkeypatch)
        data, _ = self.train(capsys, tmp_path, golden, ())
        assert calls == []
        # the spy sees the model score
        (tmp_path / "m.pipeline").write_bytes(data)
        pipeline.load_pipeline(tmp_path / "m.pipeline").score(["you idiot"])
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAIN))
    def test_train_golden_bytes(self, golden, capsys, tmp_path, name):
        if float_platform() != GOLDEN_PLATFORM:
            pytest.skip("this platform's float kernels differ from the recorded ones")
        flags, digest, stdout = GOLDEN_TRAIN[name]
        data, out = self.train(capsys, tmp_path, golden, flags)
        assert (hashlib.sha256(data).hexdigest(), out) == (digest, stdout)

    def test_search_golden_stdout(self, golden, capsys):
        code, out, err = run(capsys, "search", "--labeled", golden["labeled"],
                             "--pairs", golden["pairs"], "--trials", "8", "--seed", "3")
        assert (code, err) == (0, "")
        assert out == GOLDEN_SEARCH


class TestSolverWarnings:
    def test_train_warns_when_cg_stops_early(self, files, capsys, tmp_path):
        argv = ["train", "--labeled", files["labeled"], "--alpha", "0.0001"]
        code, out, err = run(capsys, *argv, "--out-prefix", tmp_path / "a")
        assert (code, err) == (0, "")
        code, cut_out, err = run(capsys, *argv, "--out-prefix", tmp_path / "b",
                                 "--max-iter", "1")
        assert code == 0
        assert cut_out.startswith("training objective: ") and cut_out != out
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sevrank: warning: train: conjugate gradient stopped "
                                   "after 1 iterations without converging")

    def test_each_unconverged_search_trial_warns(self, files, capsys, monkeypatch):
        real = regress.fit_ridge
        monkeypatch.setattr(regress, "fit_ridge",
                            lambda X, y, **kw: real(X, y, **{**kw, "max_iter": 1}))
        code, out, err = run(capsys, "search", "--labeled", files["labeled"],
                             "--pairs", files["pairs"], "--trials", "3")
        assert code == 0
        assert len(out.splitlines()) == 4
        assert [line.split(": ")[:3] for line in err.splitlines()] == [
            ["sevrank", "warning", f"search trial {t}"] for t in range(3)]


    def test_ensemble_warns_when_lbfgs_stops_early(self, capsys, tmp_path):
        # pair p3 is p2 reversed, so no weights rank every pair right
        matrix = write_csv(tmp_path / "matrix.csv", ["comment_id", "m0", "m1"], [
            ("p2_l", "0.1", "0.9"), ("p2_m", "0.8", "0.3"), ("p3_l", "0.8", "0.3"),
            ("p3_m", "0.1", "0.9"), ("p4_l", "0.2", "0.4"), ("p4_m", "0.6", "0.5")])
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"],
                          [("a", "b"), ("c", "d"), ("e", "f")])

        def ensemble(tag, *flags):
            code, out, err = run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                                 "--out-weights", tmp_path / f"{tag}-w.csv",
                                 "--out-blend", tmp_path / f"{tag}-b.csv", *flags)
            assert code == 0
            return out, err

        assert ensemble("full")[1] == ""
        out, err = ensemble("cut", "--max-iter", "1")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sevrank: warning: ensemble: L-BFGS stopped after 1 "
                                   "iterations without converging (gradient max-norm ")
        assert json.loads(out)["n_pairs"] == 3


class TestOverflowingBlendColumn:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_is_named_and_nothing_else_is_printed(self, capsys, tmp_path, mode):
        matrix = write_csv(tmp_path / "matrix.csv", ["comment_id", "a", "b"],
                           [("p2_l", "0.1", "1e308"), ("p2_m", "0.9", "-1e308")])
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"], [("x", "y")])
        code, out, err = run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                             "--mode", mode, "--out-weights", tmp_path / "w.csv",
                             "--out-blend", tmp_path / "b.csv")
        assert (code, out) == (1, "")
        assert err == (f"sevrank: error: score column 'b' is too widely spread "
                       f"for {mode} normalization\n")

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_pair_difference_is_named(self, capsys, tmp_path):
        # --mode none leaves the column as it is: 1e308 - -1e308 overflows
        matrix = write_csv(tmp_path / "matrix.csv", ["comment_id", "a", "b"],
                           [("p2_l", "0.1", "1e308"), ("p2_m", "0.9", "-1e308")])
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"], [("x", "y")])
        code, out, err = run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                             "--mode", "none", "--out-weights", tmp_path / "w.csv",
                             "--out-blend", tmp_path / "b.csv")
        assert (code, out) == (1, "")
        assert err == ("sevrank: error: score column 'b' is too widely spread "
                       "for pair differences\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("less,more,code,out,err", [
        # z = -inf: the pair's loss and gradient are their limit, 0
        ("0", "1e308", 0, '{"accuracy": 1.0, "n_pairs": 1, "n_correct": 1, "n_ties": 0}\n', ""),
        # z = +inf: the loss is not finite, and the solver says so
        ("1e308", "0", 1, "", "sevrank: error: non-finite objective or gradient at iteration 0\n"),
    ], ids=["more-toxic-side-huge", "less-toxic-side-huge"])
    def test_a_finite_difference_near_the_float_limit(self, capsys, tmp_path, less, more,
                                                       code, out, err):
        matrix = write_csv(tmp_path / "matrix.csv", ["comment_id", "a", "b"],
                           [("p2_l", "0.1", less), ("p2_m", "0.9", more)])
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"], [("x", "y")])
        assert run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                   "--mode", "none", "--out-weights", tmp_path / "w.csv",
                   "--out-blend", tmp_path / "b.csv") == (code, out, err)


class TestFirstMissingSideIsNamed:
    """Both sides of pair p2 (the first data row) are missing, and so is a
    later side: every command names the first side in flat order, p2_l."""

    @pytest.fixture
    def pairs(self, tmp_path):
        return write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"],
                         [("gone", "lost"), ("a", "b"), ("c", "missing")])

    def test_evaluate_scores(self, capsys, tmp_path, pairs):
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("p3_l", "0.1"), ("p3_m", "0.2"), ("p4_l", "0.3")])
        code, _, err = run(capsys, "evaluate", "--scores", scores, "--pairs", pairs)
        assert (code, err) == (1, "sevrank: error: no score for comment id 'p2_l'\n")

    def test_evaluate_scores_resolved_by_comments(self, capsys, tmp_path, pairs):
        comments = write_csv(tmp_path / "c.csv", ["comment_id", "text"],
                             [("c1", "a"), ("c2", "b"), ("c3", "c")])
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("c1", "0.1"), ("c2", "0.2"), ("c3", "0.3")])
        code, _, err = run(capsys, "evaluate", "--scores", scores, "--pairs", pairs,
                           "--comments", comments)
        assert (code, err) == (
            1, "sevrank: error: no comment matches the text of pair side 'p2_l'\n")

    def test_ensemble(self, capsys, tmp_path, pairs):
        matrix = write_csv(tmp_path / "m.csv", ["comment_id", "m0"],
                           [("p3_l", "0.1"), ("p3_m", "0.2"), ("p4_l", "0.3")])
        code, _, err = run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                           "--out-weights", tmp_path / "w.csv",
                           "--out-blend", tmp_path / "b.csv")
        assert (code, err) == (
            1, "sevrank: error: id 'p2_l' not present in the score matrix\n")

    def test_non_finite_model_score(self, files, capsys, monkeypatch, tmp_path, pairs):
        real = regress.predict

        def nan_for_gone(model, X):
            # distinct texts in first-seen order: gone, lost, a, b, c, missing
            scores = real(model, X)
            scores[[0, 1, 5]] = np.nan
            return scores

        monkeypatch.setattr(regress, "predict", nan_for_gone)
        code, _, err = run(capsys, "evaluate", "--model-prefix", files["model"],
                           "--pairs", pairs)
        assert (code, err) == (
            1, "sevrank: error: score of comment id 'p2_l' is not a finite number: nan\n")


class TestEmptyPairsFile:
    """A pairs file with a header and no pairs stops before any work, naming
    the file, with exit code 1."""

    @pytest.fixture
    def empty(self, tmp_path):
        return write_csv(tmp_path / "empty.csv", ["less_toxic", "more_toxic"], [])

    def refused(self, capsys, empty, *argv):
        assert run(capsys, *argv, "--pairs", empty) == (
            1, "", f"sevrank: error: {empty}: no pairs\n")

    def test_evaluate(self, files, capsys, tmp_path, empty):
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"], [("a", "0.5")])
        self.refused(capsys, empty, "evaluate", "--scores", scores)
        self.refused(capsys, empty, "evaluate", "--model-prefix", files["model"])

    def test_search_fits_nothing(self, files, capsys, monkeypatch, empty):
        def no_fit(*args, **kwargs):
            raise AssertionError("a trial was fitted")

        monkeypatch.setattr(regress, "fit_ridge", no_fit)
        self.refused(capsys, empty, "search", "--labeled", files["labeled"],
                     "--trials", "2")

    def test_ensemble(self, capsys, tmp_path, empty):
        matrix = write_csv(tmp_path / "m.csv", ["comment_id", "a"], [("p2_l", "0.5")])
        self.refused(capsys, empty, "ensemble", "--matrix", matrix,
                     "--out-weights", tmp_path / "w.csv", "--out-blend", tmp_path / "b.csv")
        assert not (tmp_path / "w.csv").exists()


class TestScoresCsv:
    def test_non_finite_score_rejected_with_its_row(self, files, capsys, tmp_path):
        scores = tmp_path / "scores.csv"
        assert run(capsys, "score", "--model-prefix", files["model"], "--pairs",
                   files["pairs"], "--out", scores)[0] == 0
        lines = scores.read_text(encoding="utf-8").splitlines()
        cid = lines[3].split(",")[0]
        lines[3] = f"{cid},nan"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--scores", scores, "--pairs", files["pairs"])
        assert code == 1
        assert "non-finite score 'nan' at row 4" in err

    def test_tie_credit_counts_a_tied_pair_as_half(self, capsys, tmp_path):
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"],
                          [("a", "b"), ("c", "d")])
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("p2_l", "0.5"), ("p2_m", "0.5"),
                            ("p3_l", "0.1"), ("p3_m", "0.9")])
        code, out, err = run(capsys, "evaluate", "--scores", scores, "--pairs", pairs,
                             "--tie-credit", "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"accuracy": 0.75, "n_pairs": 2, "n_correct": 1,
                                   "n_ties": 1}

    def test_non_numeric_score_rejected_with_its_row(self, capsys, tmp_path):
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("a", "0.5"), ("b", "high")])
        with pytest.raises(ValueError, match="row 3"):
            cli.read_scores_csv(scores)

    def test_extra_column_accepted(self, tmp_path):
        scores = write_csv(tmp_path / "s.csv", ["model", "comment_id", "score", "note"],
                           [("m", "a", "0.5", ""), ("m", "b", "-1e-3", "x")])
        assert cli.read_scores_csv(scores) == {"a": 0.5, "b": -1e-3}

    def test_duplicate_id_rejected_with_its_row(self, tmp_path):
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("a", "0.5"), ("b", "0.1"), ("a", "0.2")])
        with pytest.raises(ValueError, match="duplicate comment id 'a' at row 4"):
            cli.read_scores_csv(scores)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(FIELDS, unique=True, max_size=8),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8,
                    max_size=8))
    def test_round_trip(self, tmp_path_factory, ids, values):
        path = tmp_path_factory.mktemp("scores") / "s.csv"
        scores = dict(zip(ids, values))
        cli.write_scores_csv(path, list(scores), list(scores.values()))
        assert cli.read_scores_csv(path) == scores


class TestUnreadableCsv:
    """A file the csv module or the UTF-8 decoder cannot read stops with one
    error line naming it, exit code 1 and no traceback."""

    def score(self, files, capsys, tmp_path, comments):
        code, out, err = run(capsys, "score", "--model-prefix", files["model"],
                             "--comments", comments, "--out", tmp_path / "s.csv")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith(f"sevrank: error: {comments}: ")
        assert "Traceback" not in err
        return err

    def test_field_over_the_csv_size_limit_names_its_row(self, files, capsys, tmp_path):
        limit = csv.field_size_limit()
        comments = write_csv(tmp_path / "c.csv", ["comment_id", "text"],
                             [("c0", "fine"), ("c1", "x" * 140000), ("c2", "fine")])
        err = self.score(files, capsys, tmp_path, comments)
        assert err.endswith(f": malformed CSV row 3: field larger than field limit "
                            f"({limit})\n")
        assert csv.field_size_limit() == limit

    def test_header_over_the_csv_size_limit_is_row_1(self, files, capsys, tmp_path):
        comments = tmp_path / "c.csv"
        comments.write_text("comment_id,text," + "x" * 140000 + "\n", encoding="utf-8")
        err = self.score(files, capsys, tmp_path, comments)
        assert ": malformed CSV row 1: field larger than field limit" in err

    @pytest.mark.parametrize("rows", [0, 3000])
    def test_non_utf8_byte_named_by_its_offset_in_the_file(self, files, capsys, tmp_path,
                                                           rows):
        # 3000 rows put the bad byte past the text stream's first chunk
        head = b"comment_id,text\n" + b"".join(b"c%d,ok\n" % i for i in range(rows))
        comments = tmp_path / "c.csv"
        comments.write_bytes(head + b"bad,caf\xe9 x\n")
        err = self.score(files, capsys, tmp_path, comments)
        offset = len(head) + len(b"bad,caf")
        assert err.endswith(f": not UTF-8: invalid continuation byte at byte offset "
                            f"{offset}\n")


BOM = "\ufeff".encode()


class TestByteOrderMark:
    """A CSV that starts with a UTF-8 byte-order mark reads as the same
    file without it; writers write none."""

    def with_and_without_bom(self, tmp_path, name, text):
        plain, marked = tmp_path / f"{name}.csv", tmp_path / f"bom_{name}.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(BOM + text.encode())
        return plain, marked

    def evaluate(self, capsys, scores, pairs):
        code, out, err = run(capsys, "evaluate", "--scores", scores, "--pairs", pairs)
        assert (code, err) == (0, "")
        return out

    def test_pairs_file(self, capsys, tmp_path):
        plain, marked = self.with_and_without_bom(tmp_path, "pairs",
                                                  "less_toxic,more_toxic\na,b\n")
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("p2_l", "0.1"), ("p2_m", "0.9")])
        out = self.evaluate(capsys, scores, marked)
        assert json.loads(out)["n_correct"] == 1
        assert out == self.evaluate(capsys, scores, plain)

    def test_scores_file(self, capsys, tmp_path):
        plain, marked = self.with_and_without_bom(tmp_path, "scores",
                                                  "comment_id,score\np2_l,0.1\np2_m,0.9\n")
        pairs = write_csv(tmp_path / "p.csv", ["less_toxic", "more_toxic"], [("a", "b")])
        out = self.evaluate(capsys, marked, pairs)
        assert json.loads(out)["n_correct"] == 1
        assert out == self.evaluate(capsys, plain, pairs)

    def test_labeled_file(self, files, capsys, tmp_path):
        plain, marked = self.with_and_without_bom(
            tmp_path, "labeled", Path(files["labeled"]).read_text(encoding="utf-8"))
        written = []
        for labeled in (plain, marked):
            prefix = tmp_path / labeled.stem
            code, out, err = run(capsys, "train", "--labeled", labeled, "--out-prefix", prefix)
            assert (code, err) == (0, "")
            written.append((out, Path(f"{prefix}.pipeline").read_bytes()))
        assert written[0] == written[1]

    def test_non_utf8_offset_counts_the_mark(self, files, capsys, tmp_path):
        comments = tmp_path / "c.csv"
        head = BOM + b"comment_id,text\nbad,caf"
        comments.write_bytes(head + b"\xe9 x\n")
        code, out, err = run(capsys, "score", "--model-prefix", files["model"],
                             "--comments", comments, "--out", tmp_path / "s.csv")
        assert (code, out) == (1, "")
        assert err.endswith(f": not UTF-8: invalid continuation byte at byte offset "
                            f"{len(head)}\n")

    def test_writers_write_no_mark(self, files, capsys, tmp_path):
        marked = tmp_path / "bom_comments.csv"
        marked.write_bytes(BOM + Path(files["comments"]).read_bytes())
        code, _, err = run(capsys, "score", "--model-prefix", files["model"],
                           "--comments", marked, "--out", tmp_path / "s.csv")
        assert (code, err) == (0, "")
        assert (tmp_path / "s.csv").read_bytes().startswith(b"comment_id,score\n")


class TestMatrixFiles:
    def ensemble(self, capsys, tmp_path, matrix_text):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text(matrix_text, encoding="utf-8")
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"], [("a", "b")])
        code, _, err = run(capsys, "ensemble", "--matrix", matrix, "--pairs", pairs,
                           "--out-weights", tmp_path / "w.csv",
                           "--out-blend", tmp_path / "b.csv")
        assert code == 1
        assert "Traceback" not in err
        assert f"{matrix}: " in err
        return err

    def test_non_finite_cell_names_its_row_and_column(self, capsys, tmp_path):
        err = self.ensemble(capsys, tmp_path,
                            "comment_id,m0,m1\np2_l,0.1,0.2\np2_m,0.3,nan\n")
        assert "non-finite m1 'nan' at row 3" in err

    def test_non_numeric_cell_names_its_row_and_column(self, capsys, tmp_path):
        err = self.ensemble(capsys, tmp_path,
                            "comment_id,m0,m1\np2_l,0.1,high\np2_m,0.3,0.4\n")
        assert "non-numeric m1 'high' at row 2" in err

    def test_repeated_id_names_its_row(self, capsys, tmp_path):
        err = self.ensemble(capsys, tmp_path,
                            "comment_id,m0\np2_l,0.1\np2_m,0.3\np2_l,0.2\n")
        assert "duplicate comment id 'p2_l' at row 4" in err

    def test_header_only(self, capsys, tmp_path):
        err = self.ensemble(capsys, tmp_path, "comment_id,m0,m1\n")
        assert "no score rows" in err

    def test_repeated_column_name(self, capsys, tmp_path):
        err = self.ensemble(capsys, tmp_path, "comment_id,m0,m0\np2_l,0.1,0.2\n")
        assert "column 'm0' appears twice in the header" in err

    def test_values_are_c_contiguous(self, tmp_path):
        # the blend's BLAS product gives other last bits on another memory order
        path = write_csv(tmp_path / "m.csv", ["comment_id", "a", "b", "c"],
                         [(f"r{i}", str(i), str(-i), "0.5") for i in range(5)])
        values = ensemble.load_score_matrix(path).values
        assert values.flags.c_contiguous and values.shape == (5, 3)
        assert values[:, 1].tolist() == [0.0, -1.0, -2.0, -3.0, -4.0]


class TestTrainFlags:
    def test_n_min_above_n_max_is_a_usage_error(self, capsys, tmp_path):
        # refused before --labeled is read: the file does not exist
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--labeled", str(tmp_path / "missing.csv"),
                      "--out-prefix", str(tmp_path / "model"), "--n-min", "5",
                      "--n-max", "3"])
        assert exc.value.code == 2
        assert "--n-min 5 is above --n-max 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-features", "-3", "must be >= 1, got -3"),
        ("--max-features", "0", "must be >= 1, got 0"),
        ("--min-df", "-1", "must be >= 1, got -1"),
        ("--min-df", "0", "must be >= 1, got 0"),
        ("--min-df", "two", "invalid int value: 'two'"),
    ])
    def test_value_below_one_is_a_usage_error(self, files, capsys, tmp_path,
                                               flag, value, message):
        prefix = tmp_path / "model"
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--labeled", str(files["labeled"]),
                      "--out-prefix", str(prefix), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["train", "--tol", "-1"], "argument --tol: must be a finite number > 0, got -1"),
        (["train", "--tol", "0"], "argument --tol: must be a finite number > 0, got 0"),
        (["train", "--tol", "nan"], "argument --tol: must be a finite number > 0, got nan"),
        (["train", "--tol", "small"], "argument --tol: invalid float value: 'small'"),
        (["train", "--max-iter", "0"], "argument --max-iter: must be >= 1, got 0"),
        (["ensemble", "--max-iter", "-2"], "argument --max-iter: must be >= 1, got -2"),
        (["search", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
        (["train", "--alpha", "nan"], "argument --alpha: must be a finite number > 0, got nan"),
        (["train", "--alpha", "-1"], "argument --alpha: must be a finite number > 0, got -1"),
        (["train", "--n-min", "0"], "argument --n-min: must be >= 1, got 0"),
        (["train", "--n-max", "0"], "argument --n-max: must be >= 1, got 0"),
        (["ensemble", "--temperature", "0"],
         "argument --temperature: must be a finite number > 0, got 0"),
        (["ensemble", "--temperature", "-1"],
         "argument --temperature: must be a finite number > 0, got -1"),
        (["evaluate", "--top-errors", "-2"], "argument --top-errors: must be >= 0, got -2"),
        (["explain", "--num-samples", "5"], "argument --num-samples: must be >= 10, got 5"),
        (["explain", "--num-features", "0"], "argument --num-features: must be >= 1, got 0"),
        (["explain", "--kernel-width", "nan"],
         "argument --kernel-width: must be a finite number > 0, got nan"),
    ], ids=["tol-negative", "tol-zero", "tol-nan", "tol-word", "train-max-iter-zero",
            "ensemble-max-iter-negative", "search-trials-zero", "alpha-nan",
            "alpha-negative", "n-min-zero", "n-max-zero", "temperature-zero",
            "temperature-negative", "top-errors-negative", "num-samples-five",
            "num-features-zero", "kernel-width-nan"])
    def test_bad_solver_flag_is_a_usage_error(self, files, capsys, tmp_path, argv, message):
        command, *flag = argv
        inputs = {
            "train": ["--labeled", files["labeled"], "--out-prefix", tmp_path / "model"],
            "ensemble": ["--matrix", tmp_path / "m.csv", "--pairs", files["pairs"],
                         "--out-weights", tmp_path / "w.csv",
                         "--out-blend", tmp_path / "b.csv"],
            "search": ["--labeled", files["labeled"], "--pairs", files["pairs"]],
            "evaluate": ["--model-prefix", files["model"], "--pairs", files["pairs"],
                         "--errors-out", tmp_path / "e.csv"],
            "explain": ["--model-prefix", files["model"], "--text", "you clown",
                        "--json-out", tmp_path / "x.json"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *map(str, inputs), *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_min", [2, 2**63 + 1])
    def test_n_gram_sizes_past_int64(self, files, capsys, tmp_path, n_min):
        # no window outgrows its padded word, so a range past every word
        # trains and scores as the range capped at 200 characters does
        comments = write_csv(tmp_path / "c.csv", ["comment_id", "text"],
                             [("u0", "zebra quux idiot"), ("u1", "xylophone\U0001F600 you")])
        vocabularies, scores = [], []
        for name, sizes in (("huge", (n_min, 10**23)), ("capped", (min(n_min, 200), 200))):
            code, _, err = run(capsys, "train", "--labeled", files["labeled"], "--out-prefix",
                               tmp_path / name, "--n-min", sizes[0], "--n-max", sizes[1])
            assert code == 0 and "Traceback" not in err, err
            code, _, err = run(capsys, "score", "--model-prefix", tmp_path / name,
                               "--comments", comments, "--out", tmp_path / f"{name}.csv")
            assert (code, err) == (0, ""), err
            vocabularies.append(pipeline.load_pipeline(tmp_path / f"{name}.pipeline")
                                .tfidf.vocabulary)
            scores.append((tmp_path / f"{name}.csv").read_bytes())
        assert vocabularies[0] == vocabularies[1]
        assert scores[0] == scores[1]

    def test_one_is_accepted(self, files, capsys, tmp_path):
        prefix = tmp_path / "model"
        code, out, err = run(capsys, "train", "--labeled", files["labeled"],
                             "--out-prefix", prefix, "--max-features", "1",
                             "--min-df", "1")
        assert code == 0, err
        assert pipeline.load_pipeline(tmp_path / "model.pipeline").tfidf.dim == 1


RUDDIT = [("r0", "calm words", "-1"), ("r1", 'a "quoted", text', "-0.8"),
          ("r2", "you idiot", "-0.4"), ("r3", "plain", "0"),
          ("r4", "rude words", "0.6"), ("r5", "really rude", "0.98"),
          ("r6", "worst", "1"), ("r7", "nearly calm", "-0.9")]


class TestTransform:
    def test_golden_stdout_and_labeled_csv(self, capsys, tmp_path):
        raw = write_csv(tmp_path / "ruddit.csv", ["comment_id", "text", "score"], RUDDIT)
        out = tmp_path / "labeled.csv"
        code, stdout, err = run(capsys, "transform", "--kind", "ruddit",
                                "--in", raw, "--out", out)
        assert (code, err) == (0, "")
        # (-0.8 + 1) / 2 falls just below 0.1, and 0.3 below the edge 3 * 0.1
        assert stdout == (
            "rows: 8\n"
            "score histogram:\n"
            "  [0.0, 0.1): 3\n"
            "  [0.1, 0.2): 0\n"
            "  [0.2, 0.3): 1\n"
            "  [0.3, 0.4): 0\n"
            "  [0.4, 0.5): 0\n"
            "  [0.5, 0.6): 1\n"
            "  [0.6, 0.7): 0\n"
            "  [0.7, 0.8): 0\n"
            "  [0.8, 0.9): 1\n"
            "  [0.9, 1.0]: 2\n"
        )
        assert out.read_text(encoding="utf-8") == (
            "comment_id,text,score\n"
            "r0,calm words,0.000000\n"
            'r1,"a ""quoted"", text",0.100000\n'
            "r2,you idiot,0.300000\n"
            "r3,plain,0.500000\n"
            "r4,rude words,0.800000\n"
            "r5,really rude,0.990000\n"
            "r6,worst,1.000000\n"
            "r7,nearly calm,0.050000\n"
        )

    @pytest.mark.parametrize("kind, raw, counts, labeled", [
        ("jtc",
         "id,comment_text,toxic,severe_toxic,obscene,threat,insult,identity_hate\n"
         "j0,calm,0,0,0,0,0,0\nj1,\"you, idiot\",1,0,0,0,1,0\n"
         "j2,worst,1,1,1,1,1,1\nj3,rude,1,0,1,0,0,0\n",
         [1, 0, 2, 0, 0, 0, 0, 0, 0, 1],
         "comment_id,text,score\nj0,calm,0.000000\nj1,\"you, idiot\",0.227273\n"
         "j2,worst,1.000000\nj3,rude,0.204545\n"),
        ("unintended",
         "id,target,comment_text,severe_toxicity,obscene,identity_attack,insult,"
         "threat,sexually_explicit\nu0,0.5,words,0,0,0,0,0,0.9\n"
         "u1,1,bad,1,1,1,1,1,0\nu2,0.25,meh,0.5,0,0.125,0.75,0,1\n",
         [1, 0, 1, 0, 0, 0, 0, 0, 0, 1],
         "comment_id,text,score\nu0,words,0.045455\nu1,bad,1.000000\n"
         "u2,meh,0.286932\n"),
        ("unintended",
         "comment_id,text,toxicity,severe_toxicity,obscene,identity_attack,insult,threat\n"
         "v0,ok,0,0,0,0,0,0\nv1,hm,0.3,0.1,0.2,0,0.4,0.05\n",
         [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
         "comment_id,text,score\nv0,ok,0.000000\nv1,hm,0.140909\n"),
        ("davidson",
         "count,hate_speech,offensive_language,neither,class,tweet\n"
         "3,0,0,3,2,some tweet\n3,3,0,0,0,hateful\n4,1,2,1,1,mixed\n",
         [1, 0, 0, 0, 0, 1, 0, 0, 0, 1],
         "comment_id,text,score\n1,some tweet,0.000000\n2,hateful,1.000000\n"
         "3,mixed,0.500000\n"),
        ("davidson",
         "id,text,hate_speech,offensive_language,neither\n"
         "d7,one,0,1,2\nd9,\"two\nlines\",2,1,0\n",
         [0, 1, 0, 0, 0, 0, 0, 0, 1, 0],
         "comment_id,text,score\nd7,one,0.166667\nd9,\"two\nlines\",0.833333\n"),
        ("founta",
         "comment_id,text,label\nf0,fine,0\nf1,abusive,1\nf2,hateful,2\n",
         [1, 0, 0, 0, 0, 1, 0, 0, 0, 1],
         "comment_id,text,score\nf0,fine,0.000000\nf1,abusive,0.500000\n"
         "f2,hateful,1.000000\n"),
    ], ids=["jtc", "unintended-target", "unintended-toxicity", "davidson-row-ids",
            "davidson-id-column", "founta"])
    def test_golden_other_kinds(self, capsys, tmp_path, kind, raw, counts, labeled):
        path = tmp_path / f"{kind}.csv"
        path.write_text(raw, encoding="utf-8")
        out = tmp_path / "labeled.csv"
        code, stdout, err = run(capsys, "transform", "--kind", kind,
                                "--in", path, "--out", out)
        assert (code, err) == (0, "")
        bins = [f"[{i / 10:.1f}, {(i + 1) / 10:.1f}{']' if i == 9 else ')'}"
                for i in range(10)]
        assert stdout == (f"rows: {sum(counts)}\nscore histogram:\n" + "".join(
            f"  {b}: {c}\n" for b, c in zip(bins, counts)))
        assert out.read_bytes() == labeled.encode("utf-8")

    def test_carriage_return_survives_transform_then_train(self, capsys, tmp_path):
        raw = tmp_path / "ruddit.csv"
        raw.write_text('comment_id,text,score\nr0,"calm\rwords",-1\n'
                       'r1,you idiot,1\nr2,"a\r\nb",0\n', encoding="utf-8")
        labeled = tmp_path / "labeled.csv"
        assert run(capsys, "transform", "--kind", "ruddit", "--in", raw,
                   "--out", labeled)[0] == 0
        assert labeled.read_bytes() == (b'comment_id,text,score\nr0,"calm\rwords",0.000000\n'
                                        b'r1,you idiot,1.000000\nr2,"a\r\nb",0.500000\n')
        code, out, err = run(capsys, "train", "--labeled", labeled,
                             "--out-prefix", tmp_path / "model", "--n-min", "2")
        assert (code, err) == (0, "")
        assert out.startswith("training objective: ")

    def test_histogram_matches_numpy(self):
        rng = np.random.default_rng(7)
        values = rng.random(20000).tolist()
        values += [k / 44 for k in range(45)] + [(r + 1.0) / 2.0 for r in
                                                 np.linspace(-1.0, 1.0, 2001).tolist()]
        for edge in np.linspace(0.0, 1.0, 11).tolist() + [i * 0.1 for i in range(11)]:
            for direction in (-math.inf, math.inf):
                x = edge
                for _ in range(4):  # the edge and 3 ulps on either side
                    values.append(x)
                    x = math.nextafter(x, direction)
        values += [-0.0, -1e-300, 5e-324, 1.0000000000000002, 1.5, -2.0,
                   math.nan, math.inf, -math.inf]
        counts, edges = cli.score_histogram(values)
        np_counts, np_edges = np.histogram(values, bins=10, range=(0.0, 1.0))
        assert counts == np_counts.tolist()
        assert edges == np_edges.tolist()

    def test_empty(self):
        assert cli.score_histogram([])[0] == [0] * 10


SRC = Path(sevrank.__file__).resolve().parents[1]


def run_fresh(tmp_path, *argv):
    """Run `python -m sevrank.cli ARGV` in a new interpreter; return its
    stdout lines and the sevrank, numpy, dataclasses and html modules it
    had loaded."""
    program = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('sevrank.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'sevrank', 'dataclasses', 'html')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", program, *map(str, argv)],
                          capture_output=True, text=True, cwd=tmp_path, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], ast.literal_eval(lines[-1])


# what `python -m sevrank.cli` may load besides itself (run as __main__)
NUMPY_FREE = ["sevrank", "sevrank.corpus", "sevrank.evaluate", "sevrank.textproc"]
# the sevrank modules a command that scores with a saved model loads
SCORING = ["corpus", "evaluate", "features", "pipeline", "regress", "textproc"]
# the fit code, which only train and search load
FITTING = "sevrank.fitting"


def sevrank_modules(modules):
    """The sevrank submodules among `modules`, by their short names."""
    return [m.split(".", 1)[1] for m in modules if m.startswith("sevrank.")]


class TestColdStart:
    def test_transform_loads_no_numpy(self, tmp_path):
        raw = write_csv(tmp_path / "ruddit.csv", ["comment_id", "text", "score"], RUDDIT)
        out, modules = run_fresh(tmp_path, "transform", "--kind", "ruddit",
                                 "--in", raw, "--out", tmp_path / "labeled.csv")
        assert out[0] == "rows: 8"
        assert modules == NUMPY_FREE

    def test_evaluate_scores_loads_no_numpy(self, tmp_path):
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"],
                          [("nice", "idiot"), ("idiot", "kind")])
        comments = write_csv(tmp_path / "comments.csv", ["comment_id", "text"],
                             [("a", "nice"), ("b", "idiot"), ("c", "kind")])
        scores = write_csv(tmp_path / "scores.csv", ["comment_id", "score"],
                           [("a", "0.1"), ("b", "0.9"), ("c", "0.2")])
        out, modules = run_fresh(tmp_path, "evaluate", "--scores", scores,
                                 "--pairs", pairs, "--comments", comments)
        assert json.loads(out[-1])["n_correct"] == 1
        assert modules == NUMPY_FREE

    def test_score_loads_the_scoring_modules(self, files, tmp_path):
        out, modules = run_fresh(tmp_path, "score", "--model-prefix", files["model"],
                                 "--comments", files["comments"], "--out", tmp_path / "s.csv")
        assert out == ["scored 15 comments"]
        assert sevrank_modules(modules) == SCORING
        assert FITTING not in modules
        assert "dataclasses" not in modules

    def test_evaluate_model_loads_the_scoring_modules(self, files, tmp_path):
        out, modules = run_fresh(tmp_path, "evaluate", "--model-prefix", files["model"],
                                 "--pairs", files["pairs"], "--top-errors", "2",
                                 "--errors-out", tmp_path / "e.csv")
        assert json.loads(out[-1])["n_pairs"] == 30
        assert sevrank_modules(modules) == SCORING
        assert FITTING not in modules
        assert "dataclasses" not in modules

    def test_train_loads_the_fit_code(self, files, tmp_path):
        out, modules = run_fresh(tmp_path, "train", "--labeled", files["labeled"],
                                 "--out-prefix", tmp_path / "m")
        assert out[-1].startswith("training objective: ")
        # the contraction table is a package resource (`sevrank.data`)
        assert sevrank_modules(modules) == sorted([*SCORING, "data", "fitting"])
        assert "dataclasses" not in modules

    def test_search_loads_the_fit_code_and_no_pipeline(self, files, tmp_path):
        out, modules = run_fresh(tmp_path, "search", "--labeled", files["labeled"],
                                 "--pairs", files["pairs"], "--trials", "2")
        assert len(out) == 3 and "best" in json.loads(out[-1])
        assert sevrank_modules(modules) == ["corpus", "data", "evaluate", "features",
                                            "fitting", "regress", "textproc"]
        assert "dataclasses" not in modules

    def test_explain_loads_the_scoring_modules_and_explain(self, files, tmp_path):
        out, modules = run_fresh(tmp_path, "explain", "--model-prefix", files["model"],
                                 "--text", "you idiot", "--num-samples", "20")
        assert json.loads(out[-1])["tokens"] == ["you", "idiot"]
        assert sevrank_modules(modules) == sorted([*SCORING, "explain"])
        assert FITTING not in modules
        assert "dataclasses" not in modules
        # only --html-out needs html
        assert "html" not in modules
        _, modules = run_fresh(tmp_path, "explain", "--model-prefix", files["model"],
                               "--text", "you idiot", "--num-samples", "20",
                               "--html-out", tmp_path / "e.html")
        assert "html" in modules

    def test_ensemble_loads_no_feature_or_ridge_module(self, tmp_path):
        pairs = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"],
                          [("nice", "idiot")])
        matrix = write_csv(tmp_path / "matrix.csv", ["comment_id", "a", "b"],
                           [("p2_l", "0.1", "0.3"), ("p2_m", "0.9", "0.2")])
        out, modules = run_fresh(tmp_path, "ensemble", "--matrix", matrix, "--pairs", pairs,
                                 "--out-weights", tmp_path / "w.csv",
                                 "--out-blend", tmp_path / "b.csv")
        assert json.loads(out[-1])["n_pairs"] == 1
        assert sevrank_modules(modules) == ["corpus", "ensemble", "evaluate", "optim",
                                            "textproc"]
        assert "dataclasses" not in modules

    def test_every_public_name_resolves(self):
        namespace = {}
        exec("from sevrank import *", namespace)
        for name in sevrank.__all__:
            value = getattr(sevrank, name)
            assert namespace[name] is value
            assert value.__module__.startswith("sevrank.")
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            sevrank.nope


def blend_inputs(root, n_pairs, seed):
    """A pairs file of `n_pairs` pairs and a three-column score matrix over
    their sides, the first column tracking which side is more toxic."""
    rng = np.random.default_rng(seed)
    pairs = write_csv(root / "pairs.csv", ["less_toxic", "more_toxic"],
                      [(f"l{r}", f"m{r}") for r in range(n_pairs)])
    ids = [f"p{r}_{side}" for r in range(2, n_pairs + 2) for side in "lm"]
    values = rng.normal(size=(2 * n_pairs, 3))
    values[1::2, 0] += 1.0
    matrix = write_csv(root / "matrix.csv", ["comment_id", "ridge", "lexicon", "length"],
                       [(cid, *map(repr, row)) for cid, row in zip(ids, values.tolist())])
    return pairs, matrix


class TestCollector:
    """`entry`, the process entry, runs `main` with the cyclic collector off
    and freezes every object before the process exits; `main` leaves the
    collector as it finds it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, files, capsys, tmp_path,
                                                      enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            before = (gc.isenabled(), gc.get_freeze_count())
            code, _, err = run(capsys, "score", "--model-prefix", files["model"],
                               "--comments", files["comments"], "--out", tmp_path / "s.csv")
            after = (gc.isenabled(), gc.get_freeze_count())
        finally:
            (gc.enable if was else gc.disable)()
        assert (code, err) == (0, "")
        assert after == before and before[0] == enabled

    def test_entry_runs_with_the_collector_off_and_freezes(self, files, capsys,
                                                           monkeypatch, tmp_path):
        assert gc.get_freeze_count() == 0 and gc.isenabled()
        monkeypatch.setattr(sys, "argv", ["sevrank", "score", "--model-prefix", files["model"],
                                          "--comments", str(files["comments"]),
                                          "--out", str(tmp_path / "s.csv")])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            state = (gc.isenabled(), gc.get_freeze_count() > 0)
        finally:
            gc.unfreeze()
            gc.enable()
        assert (exc.value.code, state) == (0, (False, True))
        assert capsys.readouterr().out == "scored 15 comments\n"

    def test_entry_writes_the_bytes_main_writes(self, files, capsys, tmp_path):
        pairs, matrix = blend_inputs(tmp_path, 40, 5)
        commands = {
            "score": (lambda d: ["score", "--model-prefix", files["model"], "--comments",
                                 files["comments"], "--out", d / "s.csv"], ["s.csv"]),
            "ensemble": (lambda d: ["ensemble", "--matrix", matrix, "--pairs", pairs,
                                    "--out-weights", d / "w.csv", "--out-blend", d / "b.csv"],
                         ["w.csv", "b.csv"]),
        }
        for name, (argv, outputs) in commands.items():
            fresh, local = tmp_path / f"fresh-{name}", tmp_path / f"main-{name}"
            fresh.mkdir()
            local.mkdir()
            out, _ = run_fresh(fresh, *argv(fresh))
            code, local_out, err = run(capsys, *argv(local))
            assert (code, err) == (0, "")
            assert out == local_out.splitlines(), name
            for output in outputs:
                assert (fresh / output).read_bytes() == (local / output).read_bytes(), output


SYLLABLES = [c + v for c in "bdgklmnprstvz" for v in "aeiou"] + ["dra", "gli", "pho", "str"]


def run_blas_threads(threads, cwd, *argv):
    """stdout of `python -m sevrank.cli ARGV` in a new interpreter whose
    BLAS runs `threads` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "sevrank.cli", *map(str, argv)],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """1000 labeled texts of 24 to 64 words over a Zipfian vocabulary of
    pseudo-words, so that the model has over 10000 columns, where OpenBLAS
    splits a dot product over threads; the model trained on them under one
    BLAS thread, with its stdout; and a 44-word and a 300-word text to
    explain."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(7)
    parts = rng.integers(0, len(SYLLABLES), size=(6000, 3))
    words = np.array(list(dict.fromkeys(
        "".join(SYLLABLES[p] for p in row[: 1 + i % 3]) for i, row in enumerate(parts))))
    probs = 1.0 / np.arange(3.7, len(words) + 3.7) ** 1.07
    probs /= probs.sum()
    severity = np.where(rng.random(len(words)) < 0.05, rng.random(len(words)), 0.0)
    labeled = []
    for i in range(1000):
        drawn = rng.choice(len(words), size=int(rng.integers(24, 65)), p=probs)
        score = min(severity[drawn].sum() / 3.0, 1.0)
        labeled.append((f"w{i}", " ".join(words[drawn]), f"{score:.6f}"))
    path = write_csv(root / "labeled.csv", ["comment_id", "text", "score"], labeled)
    out = run_blas_threads(1, root, "train", "--labeled", path, "--out-prefix", root / "t1")
    return {"labeled": path, "model": root / "t1", "train_out": out,
            "text": " ".join(words[rng.choice(len(words), size=44, p=probs)]),
            "long_text": " ".join(words[rng.choice(len(words), size=300, p=probs)])}


class TestBlasThreadsChangeNoByte:
    """`train`, `score`, `search` and `explain` write the same bytes under
    one and two BLAS threads, and `ensemble` under one and four."""

    def test_train(self, wide, tmp_path):
        data = Path(f"{wide['model']}.pipeline").read_bytes()
        assert pipeline.load_pipeline(f"{wide['model']}.pipeline").tfidf.dim > 10000
        out = run_blas_threads(2, tmp_path, "train", "--labeled", wide["labeled"],
                               "--out-prefix", tmp_path / "t2")
        assert (out, (tmp_path / "t2.pipeline").read_bytes()) == (wide["train_out"], data)

    def test_score(self, wide, tmp_path):
        outputs = [(run_blas_threads(threads, tmp_path, "score", "--model-prefix",
                                     wide["model"], "--comments", wide["labeled"],
                                     "--out", tmp_path / f"{threads}.csv"),
                    (tmp_path / f"{threads}.csv").read_bytes())
                   for threads in (1, 2)]
        assert outputs[0][0] == "scored 1000 comments\n"
        assert outputs[0] == outputs[1]

    def test_search(self, wide, tmp_path):
        # pairs of the labeled texts, the more toxic side the higher label
        labeled = corpus.load_labeled(wide["labeled"])
        rng = np.random.default_rng(3)
        pairs = [tuple(labeled.texts[i] for i in sorted(
            rng.choice(len(labeled), size=2, replace=False), key=labeled.scores.__getitem__))
            for _ in range(200)]
        pairs_path = write_csv(tmp_path / "pairs.csv", ["less_toxic", "more_toxic"], pairs)
        outputs = [run_blas_threads(threads, tmp_path, "search", "--labeled", wide["labeled"],
                                    "--pairs", pairs_path, "--trials", "3", "--seed", "7")
                   for threads in (1, 2)]
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    def test_explain(self, wide, tmp_path):
        for key, n_words in (("text", 44), ("long_text", 300)):
            assert len(wide[key].split()) == n_words
            outputs = [(run_blas_threads(threads, tmp_path, "explain", "--model-prefix",
                                         wide["model"], "--text", wide[key],
                                         "--html-out", tmp_path / f"{threads}.html"),
                        (tmp_path / f"{threads}.html").read_bytes())
                       for threads in (1, 2)]
            assert outputs[0] == outputs[1], n_words

    def test_ensemble(self, tmp_path):
        # the benchmark's blend size: 8000 pairs over a 16000 x 3 matrix
        pairs, matrix = blend_inputs(tmp_path, 8000, 7)
        outputs = []
        for threads in (1, 4):
            out = run_blas_threads(threads, tmp_path, "ensemble", "--matrix", matrix,
                                   "--pairs", pairs, "--mode", "rank",
                                   "--out-weights", tmp_path / f"w{threads}.csv",
                                   "--out-blend", tmp_path / f"b{threads}.csv")
            outputs.append((out, (tmp_path / f"w{threads}.csv").read_bytes(),
                            (tmp_path / f"b{threads}.csv").read_bytes()))
        assert json.loads(outputs[0][0])["n_pairs"] == 8000
        assert outputs[0] == outputs[1]
