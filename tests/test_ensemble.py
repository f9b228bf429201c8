import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank import corpus, ensemble

from reference import check_gradient, surrogate_loss


def loop_ranks(column):
    """The per-run Python loop `_average_ranks` replaced, kept as the reference."""
    order = np.argsort(column, kind="stable")
    ranks = np.empty(len(column))
    sorted_vals = column[order]
    i = 0
    while i < len(column):
        j = i
        while j + 1 < len(column) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


# few distinct values, so most columns hold ties; -0.0 and 0.0 are equal
VALUES = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([-0.0, 0.5]),
                   st.floats(-1e6, 1e6, allow_nan=False))
COLUMNS = st.lists(VALUES, max_size=60).map(lambda v: np.array(v, dtype=np.float64))


def matrix_of(values):
    values = np.asarray(values, dtype=np.float64).reshape(len(values), -1)
    return ensemble.ScoreMatrix(
        comment_ids=[f"c{i}" for i in range(values.shape[0])],
        model_names=[f"m{k}" for k in range(values.shape[1])],
        values=values,
    )


def pairs_of(sides):
    """The side ids, in side order, of pairs over matrix ids given as
    (less, more) tuples."""
    return [cid for side in sides for cid in side]


class TestRanks:
    @settings(max_examples=300, deadline=None)
    @given(COLUMNS)
    def test_equal_to_the_loop_byte_for_byte(self, column):
        assert ensemble._average_ranks(column).tobytes() == loop_ranks(column).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(VALUES, min_size=1, max_size=60))
    def test_rank_mode_stays_in_unit_interval_and_ties_share_their_mean(self, values):
        column = np.array(values)
        got = ensemble.normalize_scores(matrix_of(column), "rank")[:, 0]
        assert np.all((got >= 0.0) & (got <= 1.0))
        n = len(column)
        if n == 1:
            assert got.tolist() == [0.5]
            return
        for value in set(values):
            below = int(np.sum(column < value))
            same = column == value
            # the tied entries take sorted positions below .. below + count - 1
            mean_rank = (2 * below + int(same.sum()) - 1) / 2.0
            assert np.all(got[same] == mean_rank / (n - 1))

    def test_known_ranks(self):
        column = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        assert ensemble._average_ranks(column).tolist() == [3.5, 0.5, 3.5, 2.0, 0.5]

    def test_empty(self):
        assert ensemble._average_ranks(np.array([])).shape == (0,)


class TestNormalize:
    def test_degenerate_columns(self):
        matrix = matrix_of([[2.0, 5.0], [2.0, 5.0], [2.0, 5.0]])
        assert np.all(ensemble.normalize_scores(matrix, "minmax") == 0.5)
        assert np.all(ensemble.normalize_scores(matrix, "zscore") == 0.0)
        assert np.all(ensemble.normalize_scores(matrix, "rank") == 0.5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown normalization mode"):
            ensemble.normalize_scores(matrix_of([1.0]), "softmax")

    def test_input_is_not_modified(self):
        matrix = matrix_of([[1.0, 4.0], [3.0, 2.0]])
        before = matrix.values.copy()
        for mode in ensemble.NORMALIZATION_MODES:
            normalized = ensemble.normalize_scores(matrix, mode)
            assert normalized.dtype == np.float64 and normalized.shape == (2, 2)
            assert not np.shares_memory(normalized, matrix.values)
        assert np.array_equal(matrix.values, before)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["minmax", "zscore"])
    def test_column_whose_spread_overflows_is_named(self, mode):
        matrix = matrix_of([[0.1, 1e308], [0.9, -1e308], [0.5, 0.0]])
        with pytest.raises(ValueError, match=f"score column 'm1' is too widely spread "
                                             f"for {mode} normalization"):
            ensemble.normalize_scores(matrix, mode)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(VALUES, st.floats(-1e300, 1e300)), min_size=1, max_size=40),
           st.sampled_from(["minmax", "zscore"]))
    def test_a_finite_spread_keeps_the_formula_bits(self, values, mode):
        column = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            if mode == "minmax":
                lo, hi = column.min(), column.max()
                spread = hi - lo
                want = np.full(len(column), 0.5) if hi == lo else (column - lo) / spread
            else:
                spread = column.std()
                want = (np.zeros(len(column)) if spread == 0.0
                        else (column - column.mean()) / spread)
        if not np.isfinite(spread):
            with pytest.raises(ValueError, match="score column 'm0'"):
                ensemble.normalize_scores(matrix_of(column), mode)
        else:
            got = ensemble.normalize_scores(matrix_of(column), mode)[:, 0]
            assert got.tobytes() == want.tobytes()


class TestSurrogate:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 4),
        st.floats(0.1, 1.0),
    )
    def test_gradient_matches_central_differences(self, seed, n, k, temperature):
        rng = np.random.default_rng(seed)
        matrix = matrix_of(rng.random((n, k)))
        pairs = pairs_of((f"c{a}", f"c{b}")
                         for a, b in rng.integers(0, n, size=(2 * n, 2)))
        weights = rng.normal(size=k)

        def objective(w):
            return surrogate_loss(w, matrix, pairs, temperature)

        assert check_gradient(objective, weights) < 1e-6

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="'zz' not present"):
            surrogate_loss([1.0], matrix_of([0.1, 0.2]), pairs_of([("c0", "zz")]), 0.1)

    def test_first_unknown_side_in_flat_order_is_named(self):
        pairs = pairs_of([("c0", "c1"), ("yy", "zz"), ("xx", "c0")])
        with pytest.raises(ValueError, match="'yy' not present"):
            ensemble.fit_weights(matrix_of([0.1, 0.2]), pairs)

    @pytest.mark.parametrize("sides", [[], ["c0"], ["c0", "c1", "c0"]])
    def test_side_ids_must_make_whole_pairs(self, sides):
        with pytest.raises(ValueError, match=rf"side_ids must be the side ids of one or "
                                             rf"more whole pairs \(a corpus.Pairs' ids\), "
                                             rf"not {len(sides)} items"):
            ensemble.fit_weights(matrix_of([0.1, 0.2]), sides)

    def test_rows_are_the_sides_split_into_less_and_more(self):
        matrix = matrix_of([[0.1, 1.0], [0.2, 4.0], [0.3, 9.0]])
        pairs = pairs_of([("c2", "c0"), ("c1", "c1")])
        diffs = ensemble._pair_diffs(matrix, matrix.values, ensemble.pair_rows(matrix, pairs))
        assert diffs.tobytes() == np.array([[0.1 - 0.3, 1.0 - 9.0],
                                            [0.0, 0.0]]).tobytes()


class TestFitAndBlend:
    def setup_method(self):
        rng = np.random.default_rng(3)
        severity = rng.random(40)
        # m0 tracks severity, m1 is noise
        self.matrix = matrix_of(np.column_stack([severity + 0.05 * rng.normal(size=40),
                                                 rng.random(40)]))
        sides = []
        for a, b in rng.integers(0, 40, size=(80, 2)):
            if a != b:
                less, more = (a, b) if severity[a] < severity[b] else (b, a)
                sides.append((f"c{less}", f"c{more}"))
        self.pairs = pairs_of(sides)

    @pytest.mark.parametrize("mode", ensemble.NORMALIZATION_MODES)
    def test_fitted_loss_at_most_the_uniform_start(self, mode):
        weights = ensemble.fit_weights(self.matrix, self.pairs, mode=mode,
                                       max_iter=50)
        normalized = ensemble.ScoreMatrix(self.matrix.comment_ids, self.matrix.model_names,
                                          ensemble.normalize_scores(self.matrix, mode))
        start, _ = surrogate_loss([0.5, 0.5], normalized, self.pairs, 0.1)
        fitted, _ = surrogate_loss(weights.weights, normalized, self.pairs, 0.1)
        assert fitted <= start
        assert weights.weights[0] > weights.weights[1]

    def test_solver_report_is_kept(self):
        cut = ensemble.fit_weights(self.matrix, self.pairs, max_iter=1)
        assert (cut.solver.iterations, cut.solver.converged) == (1, False)
        assert np.array_equal(cut.solver.x, cut.weights)
        full = ensemble.fit_weights(self.matrix, self.pairs)
        assert full.solver.converged
        assert ensemble.EnsembleWeights(["m0"], [1.0]).solver is None

    def test_blend_is_the_weighted_sum_in_id_order(self):
        weights = ensemble.EnsembleWeights(["m0", "m1"], [2.0, -1.0], mode="none")
        blended = ensemble.blend(self.matrix, weights)
        assert blended.dtype == np.float64 and blended.shape == (40,)
        expected = self.matrix.values @ np.array([2.0, -1.0])
        assert blended.tobytes() == expected.tobytes()

    def test_weights_file_golden_bytes(self, tmp_path):
        weights = ensemble.EnsembleWeights(["m0", 'tf-idf, "char"'], [0.5, -0.1],
                                           mode="rank", temperature=0.25)
        ensemble.save_weights(weights, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_bytes() == (
            b"#mode=rank,temperature=0.25\n"
            b"model,weight\n"
            b"m0,0.5\n"
            b'"tf-idf, ""char""",-0.1\n'
        )

    def test_score_matrix_file_round_trip(self, tmp_path):
        corpus.write_columns(tmp_path / "m.csv", ["comment_id", *self.matrix.model_names], [
            self.matrix.comment_ids, *(list(map(repr, col)) for col in self.matrix.values.T.tolist())])
        loaded = ensemble.load_score_matrix(tmp_path / "m.csv")
        assert loaded.comment_ids == self.matrix.comment_ids
        assert loaded.values.tobytes() == self.matrix.values.tobytes()

    def test_non_finite_cell_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            matrix_of([0.1, np.nan])


class TestTemperature:
    """A temperature that is not a finite number > 0 stops before any work."""

    BAD = [float("nan"), float("inf"), 0.0, -1.0]

    def setup_method(self):
        self.matrix = matrix_of([[0.2], [0.7]])
        self.pairs = pairs_of([("c0", "c1")])

    @pytest.mark.parametrize("temperature", BAD)
    def test_fit_weights(self, temperature, monkeypatch):
        def no_solve(*args):
            raise AssertionError("L-BFGS ran")

        monkeypatch.setattr(ensemble, "lbfgs_minimize", no_solve)
        monkeypatch.setattr(ensemble, "normalize_scores", no_solve)
        with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
            ensemble.fit_weights(self.matrix, self.pairs, temperature=temperature)

    @pytest.mark.parametrize("temperature", BAD)
    def test_surrogate_loss(self, temperature):
        with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
            surrogate_loss([1.0], self.matrix, self.pairs, temperature)

    @pytest.mark.parametrize("temperature", BAD)
    def test_weights(self, temperature):
        with pytest.raises(ValueError, match="temperature must be a finite number > 0"):
            ensemble.EnsembleWeights(["m0"], [1.0], temperature=temperature)

    def test_message_names_the_value(self):
        with pytest.raises(ValueError, match="got nan"):
            ensemble.fit_weights(self.matrix, self.pairs, temperature=float("nan"))
