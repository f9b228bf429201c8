import csv
import json

import numpy as np
import pytest

from sevrank import cli, features, regress
from sevrank.textproc import PreprocessConfig, preprocess

MILD = ["nice", "thanks", "great", "friendly", "agree", "helpful", "kind", "fair"]
HARSH = ["idiot", "stupid", "moron", "dumb", "loser", "pathetic", "trash", "clown"]


def sentence(rng, n_harsh):
    words = list(rng.choice(MILD, size=6 - n_harsh)) + list(rng.choice(HARSH, size=n_harsh))
    rng.shuffle(words)
    return " ".join(words)


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
        tfidf, ridge = cli._load_models(files["model"])
        pp = PreprocessConfig()
        texts = ["you idiot", "Thanks, friend!", "you idiot", "", "Thanks, friend!"]
        seen = []

        def counting_preprocess(text, config):
            seen.append(text)
            return preprocess(text, config)

        monkeypatch.setattr(cli, "preprocess", counting_preprocess)
        got = cli.score_texts(tfidf, ridge, pp, texts)
        assert sorted(seen) == sorted(set(texts))
        for text, score in zip(texts, got):
            alone = regress.predict(ridge, features.transform(tfidf, [preprocess(text, pp)]))
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


class TestExplain:
    def test_scorer_called_once_with_every_sample(self, files, capsys, monkeypatch):
        calls = []
        real = cli.score_texts

        def counting(tfidf, ridge, pp, texts):
            calls.append(len(texts))
            return real(tfidf, ridge, pp, texts)

        monkeypatch.setattr(cli, "score_texts", counting)
        code, out, err = run(capsys, "explain", "--model-prefix", files["model"],
                             "--text", "you stupid clown", "--num-samples", "40")
        assert code == 0, err
        assert calls == [40]

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
        path = self.lookup(tmp_path, {"a b": 1.0, "a": 0.25, "b": "nan", "": 0.0})
        code, _, err = run(capsys, "explain", "--scores-lookup", path,
                           "--text", "a b", "--num-samples", "20")
        assert code == 1
        assert "non-finite value at sample" in err
        assert "Traceback" not in err


class TestBadModelFiles:
    GOOD = "tfidf-v1\nconfig\tn_min=2\tn_max=3\tmax_features=9\tmin_df=1\n"

    def score_with(self, files, capsys, tmp_path, tfidf_text):
        prefix = tmp_path / "bad"
        (tmp_path / "bad.tfidf").write_text(tfidf_text, encoding="utf-8")
        regress.save_ridge(regress.RidgeModel(np.zeros(2), 0.0, 1.0),
                           tmp_path / "bad.ridge")
        code, _, err = run(capsys, "score", "--model-prefix", prefix, "--comments",
                           files["comments"], "--out", tmp_path / "s.csv")
        assert code == 1
        assert "Traceback" not in err
        assert str(tmp_path / "bad.tfidf") in err
        return err

    def test_good_file_loads(self, files, capsys, tmp_path):
        text = self.GOOD + " a\t0\t1.5\n a \t1\t1.25\n"
        (tmp_path / "ok.tfidf").write_text(text, encoding="utf-8")
        model = features.load_tfidf(tmp_path / "ok.tfidf")
        assert model.vocabulary == {" a": 0, " a ": 1}
        assert model.idf.tolist() == [1.5, 1.25]

    def test_header_only_without_newline(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path, "tfidf-v1")
        assert "line 2: missing config line" in err

    def test_missing_config_line(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path, "tfidf-v1\n a\t0\t1.5\n")
        assert "line 2: missing config line" in err

    def test_incomplete_config_line(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path,
                              "tfidf-v1\nconfig\tn_min=2\tn_max=3\n")
        assert "line 2:" in err

    def test_malformed_row(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path,
                              self.GOOD + " a\t0\t1.5\n a \tone\t1.25\n")
        assert "line 4:" in err

    def test_row_with_missing_field(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path, self.GOOD + " a\t0\n")
        assert "line 3:" in err

    def test_duplicate_index(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path,
                              self.GOOD + " a\t0\t1.5\n a \t0\t1.25\n")
        assert "line 4: duplicate index 0" in err

    def test_index_gap(self, files, capsys, tmp_path):
        err = self.score_with(files, capsys, tmp_path,
                              self.GOOD + " a\t0\t1.5\n a \t2\t1.25\n")
        assert "line 4: non-contiguous index 2" in err


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

    def test_non_numeric_score_rejected_with_its_row(self, capsys, tmp_path):
        scores = write_csv(tmp_path / "s.csv", ["comment_id", "score"],
                           [("a", "0.5"), ("b", "high")])
        with pytest.raises(ValueError, match="row 3"):
            cli.read_scores_csv(scores)
