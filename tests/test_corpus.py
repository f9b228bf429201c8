import csv
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import corpus
from sevrank.corpus import (
    JTC_WEIGHT_TOTAL,
    JTC_WEIGHTS,
    Labeled,
    Pairs,
    load_comments,
    load_davidson,
    load_founta,
    load_jtc,
    load_labeled,
    load_pairs,
    load_ruddit,
    load_unintended,
    resolve_pairs_to_ids,
    save_labeled,
    transform_davidson,
    transform_founta,
    transform_jtc,
    transform_ruddit,
    transform_unintended,
)

FLAG_NAMES = ("toxic", "severe_toxic", "obscene", "threat", "insult", "identity_hate")


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadComments:
    def test_rows_become_comments_in_order(self, tmp_path):
        path = write(tmp_path, "c.csv", 'comment_id,text\na,"hi"\nb,"yo"\n')
        assert load_comments(path) == (["a", "b"], ["hi", "yo"])

    def test_header_only_gives_empty_lists(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,text\n")
        assert load_comments(path) == ([], [])

    def test_duplicate_id_names_second_row(self, tmp_path):
        path = write(
            tmp_path, "c.csv",
            "comment_id,text\na,one\nb,two\nc,three\na,four\n",
        )
        with pytest.raises(ValueError, match="row 5"):
            load_comments(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_comments(tmp_path / "absent.csv")

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,body\na,hi\n")
        with pytest.raises(ValueError, match="text"):
            load_comments(path)

    def test_malformed_row_names_row_number(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,text\na,hi\nb\n")
        with pytest.raises(ValueError, match="row 3"):
            load_comments(path)

    def test_embedded_newline_kept_verbatim(self, tmp_path):
        path = write(tmp_path, "c.csv", 'comment_id,text\na,"line one\nline two"\n')
        _, [text] = load_comments(path)
        assert text == "line one\nline two"

    def test_empty_text_allowed(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,text\na,\n")
        assert load_comments(path) == (["a"], [""])

    def test_loading_is_deterministic(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,text\na,hi\nb,yo\nc,sup\n")
        assert load_comments(path) == load_comments(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"comment_id,text\r\na,hi\r\nb,yo\r\n")
        assert load_comments(path)[0] == ["a", "b"]

    def test_extra_columns_allowed(self, tmp_path):
        path = write(tmp_path, "c.csv", "worker,comment_id,text\nw1,a,hi\n")
        assert load_comments(path) == (["a"], ["hi"])


class TestLoadPairs:
    def test_row_maps_to_pair(self, tmp_path):
        path = write(tmp_path, "p.csv", 'less_toxic,more_toxic\nyou silly,"f*** you"\n')
        pairs = load_pairs(path)
        assert len(pairs) == 1
        assert pairs.texts == ["you silly", "f*** you"]

    def test_cardinality(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\na,b\nc,d\ne,f\n")
        assert len(load_pairs(path)) == 3

    def test_identical_texts_accepted(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\nsame,same\n")
        pairs = load_pairs(path)
        assert pairs.texts == ["same", "same"]
        assert pairs.ids[0] != pairs.ids[1]

    def test_synthetic_ids_from_row_numbers(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\na,b\nc,d\n")
        assert load_pairs(path).ids == ["p2_l", "p2_m", "p3_l", "p3_m"]

    def test_sides_follow_the_columns_not_their_order(self, tmp_path):
        path = write(tmp_path, "p.csv", "more_toxic,less_toxic\nb,a\nd,c\n")
        assert load_pairs(path).texts == ["a", "b", "c", "d"]

    def test_header_only_is_zero_pairs(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\n")
        assert load_pairs(path) == Pairs(ids=[], texts=[])

    def test_missing_column_names_it(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,worse\na,b\n")
        with pytest.raises(ValueError, match="more_toxic"):
            load_pairs(path)

    def test_extra_worker_column_allowed(self, tmp_path):
        path = write(tmp_path, "p.csv", "worker,less_toxic,more_toxic\n1,a,b\n")
        assert len(load_pairs(path)) == 1

    @pytest.mark.parametrize("ids,texts", [(["a"], ["x"]), (["a", "b"], ["x"])])
    def test_sides_must_make_whole_pairs(self, ids, texts):
        with pytest.raises(ValueError, match="do not make whole pairs"):
            Pairs(ids=ids, texts=texts)


class TestPairHelpers:
    def test_resolve_by_text_first_occurrence_wins(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\nhi,yo\n")
        pairs = resolve_pairs_to_ids(load_pairs(path), ["c1", "c2", "c3"], ["hi", "yo", "hi"])
        assert pairs == Pairs(ids=["c1", "c2"], texts=["hi", "yo"])

    def test_resolve_unmatched_text_errors_with_pair_id(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\nhi,yo\n")
        with pytest.raises(ValueError, match="p2_m"):
            resolve_pairs_to_ids(load_pairs(path), ["c1"], ["hi"])

    def test_first_unmatched_side_in_flat_order_is_named(self, tmp_path):
        path = write(tmp_path, "p.csv", "less_toxic,more_toxic\nhi,yo\nno,nope\nhi,gone\n")
        with pytest.raises(ValueError, match="pair side 'p3_l'"):
            resolve_pairs_to_ids(load_pairs(path), ["c1", "c2"], ["hi", "yo"])


def jtc_oracle(flags):
    """Independent restatement of the flag weighting."""
    weights = {"severe_toxic": 12, "identity_hate": 9, "threat": 8,
               "insult": 6, "obscene": 5, "toxic": 4}
    return sum(weights[k] * v for k, v in flags.items()) / 44.0


class TestTransforms:
    def test_ruddit_endpoints_and_midpoint(self):
        assert transform_ruddit(-1.0) == 0.0
        assert transform_ruddit(1.0) == 1.0
        assert transform_ruddit(0.0) == 0.5

    def test_ruddit_domain_error(self):
        with pytest.raises(ValueError):
            transform_ruddit(1.5)
        with pytest.raises(ValueError):
            transform_ruddit(-1.01)

    def test_jtc_all_zero(self):
        assert transform_jtc(0, 0, 0, 0, 0, 0) == 0.0

    def test_jtc_toxic_only(self):
        assert transform_jtc(toxic=1, severe_toxic=0, obscene=0, threat=0,
                             insult=0, identity_hate=0) == pytest.approx(4 / 44)

    def test_jtc_all_flags(self):
        assert transform_jtc(1, 1, 1, 1, 1, 1) == 1.0

    def test_jtc_weight_total_is_44(self):
        assert JTC_WEIGHT_TOTAL == 44
        assert sum(JTC_WEIGHTS.values()) == 44

    def test_jtc_exhaustive_against_oracle(self):
        for bits in itertools.product((0, 1), repeat=6):
            flags = dict(zip(FLAG_NAMES, bits))
            assert transform_jtc(**flags) == jtc_oracle(flags)
            assert transform_jtc(*bits) == jtc_oracle(flags)

    def test_jtc_invalid_flag_rejected(self):
        with pytest.raises(ValueError, match=r"^flag toxic value 2 not in \{0, 1\}$"):
            transform_jtc(2, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match=r"^flag insult value 0.5 not in \{0, 1\}$"):
            transform_jtc(0, 0, 0, 0, 0.5, 0)

    def test_unintended_zeros_and_ones(self):
        zeros = dict(toxicity=0.0, severe_toxicity=0.0, obscene=0.0,
                     threat=0.0, insult=0.0, identity_attack=0.0)
        assert transform_unintended(**zeros) == 0.0
        ones = {k: 1.0 for k in zeros}
        assert transform_unintended(**ones) == 1.0

    def test_unintended_half_toxicity(self):
        assert transform_unintended(
            toxicity=0.5, severe_toxicity=0.0, obscene=0.0,
            threat=0.0, insult=0.0, identity_attack=0.0,
        ) == pytest.approx(2 / 44)

    def test_unintended_matches_jtc_on_binary_inputs(self):
        for bits in itertools.product((0, 1), repeat=6):
            flags = dict(zip(FLAG_NAMES, bits))
            fractional = dict(
                toxicity=float(flags["toxic"]),
                severe_toxicity=float(flags["severe_toxic"]),
                obscene=float(flags["obscene"]),
                threat=float(flags["threat"]),
                insult=float(flags["insult"]),
                identity_attack=float(flags["identity_hate"]),
            )
            assert transform_unintended(**fractional) == transform_jtc(**flags)
            assert transform_unintended(*fractional.values()) == transform_jtc(*bits)

    def test_unintended_domain_error(self):
        with pytest.raises(ValueError, match=r"^attribute toxicity value 1.2 outside"):
            transform_unintended(toxicity=1.2, severe_toxicity=0, obscene=0,
                                 threat=0, insult=0, identity_attack=0)
        with pytest.raises(ValueError, match=r"^attribute identity_attack value -1 outside"):
            transform_unintended(toxicity=0, severe_toxicity=0, obscene=0,
                                 threat=0, insult=0, identity_attack=-1)

    def test_davidson_pure_votes(self):
        assert transform_davidson(3, 0, 0) == 1.0
        assert transform_davidson(0, 0, 3) == 0.0
        assert transform_davidson(hate_speech=1, offensive_language=1, neither=1) == 0.5

    def test_davidson_requires_a_coder(self):
        with pytest.raises(ValueError, match="^at least one coder is required$"):
            transform_davidson(0, 0, 0)

    # the loader test below covers negative hate_speech and offensive_language
    @pytest.mark.parametrize("counts, name", [((1, 0, -1), "neither"),
                                              ((1, 0.5, 0), "offensive_language")])
    def test_davidson_bad_count_names_its_column(self, counts, name):
        with pytest.raises(ValueError, match=f"^count {name} must be a nonnegative integer$"):
            transform_davidson(*counts)

    def test_davidson_grid_matches_formula(self):
        for h in range(7):
            for o in range(7):
                for n in range(7):
                    if h + o + n < 1:
                        continue
                    raw = (3 * h + 2 * o + n) / (h + o + n)
                    expected = (raw - 1) / 2
                    got = transform_davidson(h, o, n)
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_founta_levels(self):
        assert transform_founta(0) == 0.0
        assert transform_founta(1) == 0.5
        assert transform_founta(2) == 1.0

    def test_founta_domain_error(self):
        with pytest.raises(ValueError):
            transform_founta(3)
        with pytest.raises(ValueError):
            transform_founta(-1)

    def test_all_transforms_land_in_unit_interval(self):
        import random

        rng = random.Random(11)
        for _ in range(500):
            assert 0.0 <= transform_ruddit(rng.uniform(-1, 1)) <= 1.0
            assert 0.0 <= transform_unintended(
                toxicity=rng.random(), severe_toxicity=rng.random(),
                obscene=rng.random(), threat=rng.random(),
                insult=rng.random(), identity_attack=rng.random(),
            ) <= 1.0
            counts = (rng.randint(0, 9), rng.randint(0, 9), rng.randint(1, 9))
            assert 0.0 <= transform_davidson(*counts) <= 1.0

    def test_monotone_in_each_component(self):
        # flipping any flag 0 -> 1 never lowers the score (checked over all
        # 64 combinations), and the continuous transforms are nondecreasing
        # along grid steps
        for bits in itertools.product((0, 1), repeat=6):
            flags = dict(zip(FLAG_NAMES, bits))
            base = transform_jtc(**flags)
            for name in FLAG_NAMES:
                if flags[name] == 0:
                    raised = dict(flags, **{name: 1})
                    assert transform_jtc(**raised) >= base
        grid = [i / 10 for i in range(11)]
        assert all(
            transform_ruddit(2 * b - 1) >= transform_ruddit(2 * a - 1)
            for a, b in zip(grid, grid[1:])
        )
        # adding a hate vote never lowers the average, and upgrading one
        # coder's vote (neither -> offensive -> hate) never lowers it;
        # adding an offensive vote is not monotone because it also grows
        # the denominator
        for h in range(4):
            for o in range(4):
                for n in range(4):
                    if h + o + n < 1:
                        continue
                    base = transform_davidson(h, o, n)
                    assert transform_davidson(h + 1, o, n) >= base
                    if n > 0:
                        assert transform_davidson(h, o + 1, n - 1) >= base
                    if o > 0:
                        assert transform_davidson(h + 1, o - 1, n) >= base


class TestLabeledRoundTrip:
    def test_save_and_load(self, tmp_path):
        labeled = Labeled(ids=["a", "b"], texts=["hi there", 'quoted, "text"'],
                          scores=[0.25, 1.0])
        path = tmp_path / "labeled.csv"
        save_labeled(path, labeled)
        assert load_labeled(path) == labeled
        assert len(labeled) == 2

    def test_score_written_with_six_decimals(self, tmp_path):
        path = tmp_path / "labeled.csv"
        save_labeled(path, Labeled(ids=["a"], texts=["x"], scores=[1 / 3]))
        assert path.read_text().splitlines()[1] == "a,x,0.333333"

    def test_out_of_range_score_names_file_and_row(self, tmp_path):
        path = write(tmp_path, "l.csv", "comment_id,text,score\na,x,0.5\nb,y,1.5\n")
        with pytest.raises(ValueError) as exc:
            load_labeled(path)
        assert str(exc.value) == f"{path}: severity score 1.5 outside [0, 1] at row 3"

    @pytest.mark.parametrize("ids,texts,scores", [
        (["a"], ["x", "y"], [0.5]), (["a"], ["x"], []), ([], [], [0.5])])
    def test_columns_must_make_whole_rows(self, ids, texts, scores):
        with pytest.raises(ValueError, match="do not make whole rows"):
            Labeled(ids=ids, texts=texts, scores=scores)


# ids and texts built from everything the CSV quote rule must handle
PIECES = [",", '"', "\r", "\n", "\r\n", "é", "ſ", "ж", "a b", ""]
FIELDS = st.lists(st.sampled_from(PIECES), max_size=6).map("".join)


class TestCsvLayer:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(FIELDS, FIELDS, st.integers(0, 10**6)), max_size=8))
    def test_labeled_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("labeled") / "l.csv"
        labeled = Labeled(ids=[cid for cid, _, _ in rows], texts=[t for _, t, _ in rows],
                          scores=[k / 10**6 for _, _, k in rows])
        save_labeled(path, labeled)
        assert load_labeled(path) == labeled

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FIELDS.map(lambda f: f.replace("\r", "")), min_size=2, max_size=5))
    def test_csv_line_is_the_csv_writer_without_carriage_returns(self, fields):
        # csv.writer with LF records leaves a bare CR unquoted, which is why
        # csv_line exists; on every other field the two agree byte for byte
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerow(fields)
        assert corpus.csv_line(fields) == reference.getvalue()

    def test_carriage_return_is_quoted(self):
        assert corpus.csv_line(["a\rb", "c"]) == '"a\rb",c\n'

    @staticmethod
    def written(tmp_path_factory, header, columns):
        path = tmp_path_factory.mktemp("columns") / "c.csv"
        corpus.write_columns(path, header, columns)
        return path.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.tuples(
        st.lists(FIELDS, min_size=k, max_size=k),
        st.lists(st.lists(FIELDS, min_size=k, max_size=k), max_size=6))))
    def test_columns_are_the_records_csv_line_writes(self, tmp_path_factory, table):
        # one quoting scan per column must give the bytes of quoting each
        # record's fields alone, and of csv.writer wherever no field holds a
        # bare CR (which csv.writer with LF records leaves unquoted)
        header, rows = table
        columns = [list(column) for column in zip(*rows)] or [[] for _ in header]
        data = self.written(tmp_path_factory, header, columns)
        assert data == "".join(map(corpus.csv_line, [header, *rows])).encode("utf-8")
        if not any("\r" in field for row in [header, *rows] for field in row):
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerows([header, *rows])
            assert data == reference.getvalue().encode("utf-8")

    def test_only_the_fields_that_need_quotes_are_quoted(self, tmp_path_factory):
        data = self.written(tmp_path_factory, ["id", "text"],
                            [["a", "b", "c"], ["plain", 'say "hi"', "x,y"]])
        assert data == b'id,text\na,plain\nb,"say ""hi"""\nc,"x,y"\n'

    def test_header_only_file(self, tmp_path_factory):
        assert self.written(tmp_path_factory, ["comment_id", "a,b"], [[], []]) == (
            b'comment_id,"a,b"\n')

    def test_bare_carriage_return_is_quoted_in_a_column(self, tmp_path_factory):
        assert self.written(tmp_path_factory, ["x", "y"], [["a\rb", "c"], ["d", "e"]]) == (
            b'x,y\n"a\rb",d\nc,e\n')

    def test_columns_of_unequal_length_are_refused(self, tmp_path_factory):
        with pytest.raises(ValueError):
            self.written(tmp_path_factory, ["x", "y"], [["a", "b"], ["c"]])

    def test_non_finite_number_names_file_column_and_row(self, tmp_path):
        path = write(tmp_path, "r.csv", "comment_id,text,score\nr1,mild,-1\nr2,x,inf\n")
        with pytest.raises(ValueError, match=r"r\.csv: non-finite score 'inf' at row 3"):
            load_ruddit(path)

    def test_non_integer_names_file_column_and_row(self, tmp_path):
        path = write(tmp_path, "f.csv", "comment_id,text,label\nf1,words,1.0\n")
        with pytest.raises(ValueError, match=r"f\.csv: non-integer label '1.0' at row 2"):
            load_founta(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", "comment_id,text,text\na,x,y\n")
        with pytest.raises(ValueError, match="column 'text' appears twice"):
            load_comments(path)


class TestKindLoaders:
    def test_ruddit_loader(self, tmp_path):
        path = write(tmp_path, "r.csv",
                     "comment_id,text,score\nr1,mild,-1.0\nr2,harsh,1.0\nr3,mid,0.0\n")
        assert load_ruddit(path) == Labeled(ids=["r1", "r2", "r3"],
                                            texts=["mild", "harsh", "mid"],
                                            scores=[0.0, 1.0, 0.5])

    def test_jtc_loader_published_layout(self, tmp_path):
        header = "id,comment_text,toxic,severe_toxic,obscene,threat,insult,identity_hate"
        path = write(tmp_path, "j.csv", f"{header}\nx1,some text,1,0,0,0,0,0\n")
        assert load_jtc(path) == Labeled(ids=["x1"], texts=["some text"], scores=[4 / 44])

    def test_unintended_loader_uses_target_column(self, tmp_path):
        header = ("id,target,comment_text,severe_toxicity,obscene,"
                  "identity_attack,insult,threat,sexually_explicit")
        path = write(tmp_path, "u.csv", f"{header}\nu1,0.5,words,0,0,0,0,0,0.9\n")
        assert load_unintended(path).scores == [2 / 44]

    def test_davidson_loader_published_layout(self, tmp_path):
        header = "count,hate_speech,offensive_language,neither,class,tweet"
        path = write(tmp_path, "d.csv", f"{header}\n3,0,0,3,2,some tweet\n")
        assert load_davidson(path) == Labeled(ids=["1"], texts=["some tweet"],
                                              scores=[0.0])

    def test_founta_loader(self, tmp_path):
        path = write(tmp_path, "f.csv", "comment_id,text,label\nf1,words,2\n")
        assert load_founta(path).scores == [1.0]

    def test_founta_bad_label_names_row(self, tmp_path):
        path = write(tmp_path, "f.csv", "comment_id,text,label\nf1,words,9\n")
        with pytest.raises(ValueError) as exc:
            load_founta(path)
        assert str(exc.value) == f"{path}: founta label 9 not in {{0, 1, 2}} at row 2"

    @pytest.mark.parametrize("loader, content, message", [
        (load_ruddit, "comment_id,text,score\nr1,ok,0\nr2,x,2.0\n",
         "ruddit score 2.0 outside [-1, 1] at row 3"),
        (load_jtc, "id,comment_text,toxic,severe_toxic,obscene,threat,insult,"
                   "identity_hate\nj1,x,2,0,0,0,0,0\n",
         "flag toxic value 2 not in {0, 1} at row 2"),
        (load_jtc, "id,comment_text,toxic,severe_toxic,obscene,threat,insult,"
                   "identity_hate\nj1,x,0,0,0,0,0,1\nj2,y,1,0,0,0,0,2\n",
         "flag identity_hate value 2 not in {0, 1} at row 3"),
        (load_unintended, "id,target,comment_text,severe_toxicity,obscene,"
                          "identity_attack,insult,threat\nu1,1.2,x,0,0,0,0,0\n",
         "attribute target value 1.2 outside [0, 1] at row 2"),
        (load_unintended, "id,toxicity,comment_text,severe_toxicity,obscene,"
                          "identity_attack,insult,threat\nu1,-0.5,x,0,0,0,0,0\n",
         "attribute toxicity value -0.5 outside [0, 1] at row 2"),
        (load_unintended, "id,target,comment_text,severe_toxicity,obscene,"
                          "identity_attack,insult,threat\nu1,0.5,x,0,0,1.5,0,0\n",
         "attribute identity_attack value 1.5 outside [0, 1] at row 2"),
        (load_davidson, "hate_speech,offensive_language,neither,tweet\n0,0,0,x\n",
         "at least one coder is required at row 2"),
        (load_davidson, "hate_speech,offensive_language,neither,tweet\n1,0,0,a\n1,-1,0,b\n",
         "count offensive_language must be a nonnegative integer at row 3"),
        (load_davidson, "hate_speech,offensive_language,neither,tweet\n-2,1,0,a\n",
         "count hate_speech must be a nonnegative integer at row 2"),
    ], ids=["ruddit", "jtc", "jtc-identity-hate", "unintended-target",
            "unintended-toxicity", "unintended-identity-attack", "davidson-no-coder",
            "davidson-negative", "davidson-negative-hate-speech"])
    def test_label_outside_its_domain_names_file_and_row(self, tmp_path, loader,
                                                         content, message):
        path = write(tmp_path, "in.csv", content)
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_unreadable_label_keeps_the_number_message(self, tmp_path):
        path = write(tmp_path, "d.csv", "hate_speech,offensive_language,neither,tweet\n"
                                        "1,x,0,a\n")
        with pytest.raises(ValueError) as exc:
            load_davidson(path)
        assert str(exc.value) == f"{path}: non-integer offensive_language 'x' at row 2"

    def test_founta_id_column_is_optional(self, tmp_path):
        with_id = write(tmp_path, "f.csv", "id,text,label\nf9,a,1\n")
        without = write(tmp_path, "g.csv", "text,label\na,1\n")
        assert load_founta(with_id) == Labeled(ids=["f9"], texts=["a"], scores=[0.5])
        assert load_founta(without) == Labeled(ids=["1"], texts=["a"], scores=[0.5])
