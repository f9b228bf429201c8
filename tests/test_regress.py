import tracemalloc

import numpy as np
import pytest

from sevrank import features
from sevrank.features import CsrBatch, TfidfConfig, TfidfModel, row_sums
from sevrank.pipeline import Pipeline, load_pipeline, save_pipeline
from sevrank.regress import (
    CgReport,
    RidgeModel,
    _row_blocks,
    fit_ridge,
    predict,
    ridge_objective,
)
from sevrank.textproc import PreprocessConfig


def dense_rows(matrix):
    """Turn a dense array into the CSR batch fit_ridge consumes."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = np.nonzero(matrix)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(matrix)))))
    return CsrBatch(indptr=indptr, indices=cols, data=matrix[rows, cols],
                    shape=matrix.shape)


def oracle_solve(matrix, y, alpha):
    """Closed-form solve of (X^T X + alpha I) w = X^T (y - mean(y))."""
    y = np.asarray(y, dtype=float)
    yc = y - y.mean()
    d = matrix.shape[1]
    return np.linalg.solve(matrix.T @ matrix + alpha * np.eye(d), matrix.T @ yc)


SINGLE_FEATURE = np.array([[1.0], [2.0], [3.0]])


class TestFitRidge:
    def test_small_alpha_limit(self):
        # with only y centered the limit weight is sum(x*(y-2))/sum(x^2) = 1/7
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], alpha=1e-10)
        assert model.intercept == pytest.approx(2.0)
        assert model.weights[0] == pytest.approx(2.0 / 14.0, abs=1e-9)

    def test_large_alpha_limit(self):
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], alpha=1e12)
        assert model.weights[0] == pytest.approx(0.0, abs=1e-9)
        preds = predict(model, dense_rows(SINGLE_FEATURE))
        np.testing.assert_allclose(preds, 2.0, atol=1e-9)

    def test_alpha_one_closed_form(self):
        # centered y = [-1, 0, 1], X uncentered: w = (-1 + 0 + 3)/(14 + 1)
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], alpha=1.0)
        assert model.weights[0] == pytest.approx(2.0 / 15.0, abs=1e-12)
        assert model.intercept == pytest.approx(2.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            d = int(rng.integers(1, 11))
            X = rng.normal(size=(n, d))
            X[rng.random(size=X.shape) < 0.3] = 0.0
            y = rng.normal(size=n)
            alpha = float(rng.choice([0.1, 1.0, 10.0]))
            model = fit_ridge(dense_rows(X), y, alpha=alpha, tol=1e-12, max_iter=2000)
            np.testing.assert_allclose(
                model.weights, oracle_solve(X, y, alpha), atol=1e-6
            )

    def test_weight_norm_shrinks_with_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 9))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            rows = dense_rows(X)
            norms = [
                np.linalg.norm(fit_ridge(rows, y, alpha=a, tol=1e-12).weights)
                for a in (0.01, 0.1, 1.0, 10.0, 100.0)
            ]
            for smaller, larger in zip(norms[1:], norms):
                assert smaller <= larger + 1e-9

    def test_objective_no_worse_than_zero_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 5))
        y = rng.normal(size=8)
        model = fit_ridge(dense_rows(X), y, alpha=0.5)
        zero = RidgeModel(weights=np.zeros(5), intercept=float(np.mean(y)), alpha=0.5)
        assert ridge_objective(model, dense_rows(X), y) <= ridge_objective(
            zero, dense_rows(X), y
        ) + 1e-12

    def test_normal_equation_residual_below_tolerance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(9, 6))
        y = rng.normal(size=9)
        tol = 1e-10
        model = fit_ridge(dense_rows(X), y, alpha=1.0, tol=tol)
        yc = y - y.mean()
        b = X.T @ yc
        residual = b - (X.T @ (X @ model.weights) + model.weights)
        assert np.linalg.norm(residual) <= tol * np.linalg.norm(b)

    def test_report_of_a_converged_solve(self):
        rng = np.random.default_rng(12)
        X, y = rng.normal(size=(9, 6)), rng.normal(size=9)
        model = fit_ridge(dense_rows(X), y, alpha=1.0, tol=1e-10)
        report = model.solver
        assert report.converged and 1 <= report.iterations <= 6 + 1
        b = X.T @ (y - y.mean())
        residual = b - (X.T @ (X @ model.weights) + model.weights)
        # CG's updated residual tracks the true one
        np.testing.assert_allclose(report.rel_residual,
                                   np.linalg.norm(residual) / np.linalg.norm(b),
                                   atol=1e-10)
        assert report.rel_residual <= 1e-10

    def test_report_of_a_solve_stopped_by_max_iter(self):
        rng = np.random.default_rng(13)
        X, y = rng.normal(size=(9, 6)), rng.normal(size=9)
        full = fit_ridge(dense_rows(X), y, alpha=1e-4)
        cut = fit_ridge(dense_rows(X), y, alpha=1e-4, max_iter=1)
        assert cut.solver == CgReport(iterations=1, rel_residual=cut.solver.rel_residual,
                                      converged=False)
        assert cut.solver.rel_residual > 1e-8
        assert full.solver.converged and full.solver.iterations > 1

    def test_report_of_a_zero_right_hand_side(self):
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [5.0, 5.0, 5.0])
        assert model.solver == CgReport(iterations=0, rel_residual=0.0, converged=True)

    def test_overflowing_right_hand_side_rejected(self, recwarn):
        # ||X^T (y - mean(y))|| overflows: no solve, and no numpy warning
        X = CsrBatch(indptr=[0, 1, 2], indices=[0, 1], data=[1e200, 1e200],
                     shape=(2, 2))
        with pytest.raises(ValueError, match="X\\^T \\(y - mean\\(y\\)\\) has norm inf"):
            fit_ridge(X, [0.0, 1.0])
        with pytest.raises(ValueError, match="has norm nan"):
            fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, float("nan"), 3.0])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_curvature_stops_unconverged(self, recwarn):
        # ||b|| is finite, but p^T (X^T X + alpha I) p overflows at once
        X = CsrBatch(indptr=[0, 1, 2], indices=[0, 1], data=[1e150, 1e150],
                     shape=(2, 2))
        model = fit_ridge(X, [0.0, 1.0])
        assert model.solver == CgReport(iterations=0, rel_residual=1.0, converged=False)
        np.testing.assert_array_equal(model.weights, 0.0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_dimension_mismatch_rejected(self):
        # a column past the batch width cannot even be stored
        with pytest.raises(ValueError):
            CsrBatch(indptr=[0, 1, 2], indices=[0, 3], data=[1.0, 1.0], shape=(2, 3))
        # targets must be one value per row, not a column of them
        with pytest.raises(ValueError):
            fit_ridge(dense_rows(SINGLE_FEATURE), [[1.0], [2.0], [3.0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            RidgeModel(weights=np.zeros(1), intercept=0.0, alpha=alpha)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tol_not_positive_finite_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            fit_ridge(dense_rows(SINGLE_FEATURE), [1.0, 2.0, 3.0], tol=tol)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(dense_rows(np.zeros((0, 2))), [])

    def test_constant_target_gives_zero_weights(self):
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [5.0, 5.0, 5.0], alpha=1.0)
        np.testing.assert_array_equal(model.weights, 0.0)
        assert model.intercept == 5.0


def random_rows(seed, n, dim, density):
    """A CSR batch of n rows over dim columns, each entry stored with
    probability `density`, and n targets."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < density)
    return dense, dense_rows(dense), rng.normal(size=n)


class TestRowBlocks:
    """`fit_ridge` and `predict` walk X in blocks of whole rows of at most
    features.BLOCK_ENTRIES entries; a longer row is a block alone."""

    def test_fit_holds_no_temporary_half_the_size_of_x(self, monkeypatch):
        _, X, y = random_rows(21, 1000, 400, 0.2)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 2048)
        assert len(_row_blocks(X)) >= 30
        tracemalloc.start()
        try:
            fit_ridge(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.data.nbytes / 2

    def test_columns_are_intp_views_of_x(self, monkeypatch):
        # no product copies or casts X's columns: a block's are X's own
        _, X, _ = random_rows(25, 200, 50, 0.3)
        assert X.indices.dtype == np.intp
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 256)
        blocks = _row_blocks(X)
        assert len(blocks) > 5
        for _, _, cols, vals in blocks:
            assert cols.dtype == np.intp
            assert np.shares_memory(cols, X.indices) and np.shares_memory(vals, X.data)

    def test_many_blocks_agree_with_one(self, monkeypatch):
        _, X, y = random_rows(22, 300, 60, 0.3)
        one = fit_ridge(X, y, alpha=0.1)
        assert len(_row_blocks(X)) == 1
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 64)
        assert len(_row_blocks(X)) > 50
        many = fit_ridge(X, y, alpha=0.1)
        # the column sums are added block by block: the weights agree to
        # within the stated tolerance, not bit for bit
        np.testing.assert_allclose(many.weights, one.weights, rtol=0,
                                   atol=1e-12 * np.abs(one.weights).max())
        assert many.solver.converged and one.solver.converged
        # a prediction sums each row on its own: the same bits in any block
        many_predictions = predict(one, X)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 1 << 30)
        assert many_predictions.tobytes() == predict(one, X).tobytes()

    def test_row_longer_than_a_block_still_fits(self, monkeypatch):
        dense, _, y = random_rows(23, 7, 30, 0.2)
        dense[3] = np.arange(1.0, 31.0) / 30.0
        X = dense_rows(dense)
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 8)
        blocks = _row_blocks(X)
        rows = [block[0] for block in blocks]
        assert rows[0].start == 0 and rows[-1].stop == 7
        assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
        assert all(len(cols) <= 8 or rows.stop - rows.start == 1
                   for rows, _, cols, _ in blocks)
        assert any(len(cols) == 30 for _, _, cols, _ in blocks)
        model = fit_ridge(X, y, alpha=1.0, tol=1e-12)
        np.testing.assert_allclose(model.weights, oracle_solve(dense, y, 1.0), atol=1e-9)

    def test_empty_rows_between_blocks(self, monkeypatch):
        dense, _, y = random_rows(24, 12, 5, 0.8)
        dense[[0, 5, 6, 11]] = 0.0
        monkeypatch.setattr(features, "BLOCK_ENTRIES", 3)
        model = fit_ridge(dense_rows(dense), y, alpha=1.0, tol=1e-12)
        np.testing.assert_allclose(model.weights, oracle_solve(dense, y, 1.0), atol=1e-9)
        np.testing.assert_allclose(predict(model, dense_rows(dense)),
                                   dense @ model.weights + model.intercept, atol=1e-12)


class TestPredict:
    def test_zero_vector_gives_intercept(self):
        model = RidgeModel(weights=np.array([1.0, -2.0]), intercept=0.7, alpha=1.0)
        empty = dense_rows(np.zeros((1, 2)))
        assert empty.nnz == 0
        np.testing.assert_allclose(predict(model, empty), [0.7])

    def test_zero_weights_give_intercept(self):
        model = RidgeModel(weights=np.zeros(3), intercept=-1.5, alpha=1.0)
        X = dense_rows([[4.0, 0.0, 9.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(predict(model, X), [-1.5, -1.5])

    def test_hand_built_dot_product(self):
        model = RidgeModel(weights=np.array([0.5, -0.25]), intercept=0.1, alpha=1.0)
        X = dense_rows([[1.0, 2.0], [0.0, 4.0], [2.0, 0.0]])
        np.testing.assert_allclose(predict(model, X), [0.1, -0.9, 1.1])

    def test_dimension_mismatch(self):
        model = RidgeModel(weights=np.zeros(3), intercept=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            predict(model, dense_rows([[1.0, 0.0, 0.0, 0.0]]))

    def test_predictions_not_clamped(self):
        model = RidgeModel(weights=np.array([10.0]), intercept=0.0, alpha=1.0)
        assert predict(model, dense_rows([[1.0]])).tolist() == [10.0]

    def test_returns_one_float_per_row(self):
        model = RidgeModel(weights=np.ones(2), intercept=0.0, alpha=1.0)
        out = predict(model, dense_rows(np.zeros((0, 2))))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_equals_per_row_dot_exactly(self):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(40, 30))
        dense[rng.random(size=dense.shape) < 0.7] = 0.0
        dense[5] = 0.0
        X = dense_rows(dense)
        model = RidgeModel(weights=rng.normal(size=30), intercept=0.37, alpha=1.0)
        got = predict(model, X)
        for i, values in enumerate(dense):
            idx = np.flatnonzero(values).astype(np.int32)
            # the lone row, summed by the same helper
            expected = float(row_sums(model.weights[idx] * values[idx], [idx.size])[0])
            expected += model.intercept
            assert got[i] == expected

    def test_matches_scipy_product(self):
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(4)
        dense = rng.normal(size=(25, 12))
        dense[rng.random(size=dense.shape) < 0.6] = 0.0
        X = dense_rows(dense)
        model = RidgeModel(weights=rng.normal(size=12), intercept=-0.2, alpha=1.0)
        csr = sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
        np.testing.assert_allclose(predict(model, X), csr @ model.weights - 0.2,
                                   rtol=1e-12, atol=1e-12)



class TestSerialization:
    """The regressor's part of the saved pipeline file."""

    def save(self, model, path):
        dim = len(model.weights)
        tfidf = TfidfModel(vocabulary={f" g{i}": i for i in range(dim)},
                           idf=np.ones(dim), config=TfidfConfig())
        save_pipeline(Pipeline(PreprocessConfig(), tfidf, model), path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        model = RidgeModel(weights=rng.normal(size=17), intercept=0.123456789,
                           alpha=0.5)
        path = tmp_path / "m.pipeline"
        self.save(model, path)
        loaded = load_pipeline(path).ridge
        assert loaded.alpha == model.alpha
        assert loaded.intercept == model.intercept
        assert loaded.weights.tobytes() == model.weights.tobytes()
        path2 = tmp_path / "m2.pipeline"
        self.save(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        # a model file of the old ridge-v1 binary format is not read
        path = tmp_path / "bad.pipeline"
        path.write_bytes(b"ridge-v1\n" + np.array([1.0, 0.0, 0.5], "<f8").tobytes())
        with pytest.raises(ValueError, match="not a sevrank-pipeline-v2 file"):
            load_pipeline(path)
