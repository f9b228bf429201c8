import numpy as np
import pytest

from sevrank.features import CsrBatch
from sevrank.regress import (
    RidgeModel,
    fit_ridge,
    load_ridge,
    predict,
    ridge_objective,
    save_ridge,
)


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

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(dense_rows(np.zeros((0, 2))), [])

    def test_constant_target_gives_zero_weights(self):
        model = fit_ridge(dense_rows(SINGLE_FEATURE), [5.0, 5.0, 5.0], alpha=1.0)
        np.testing.assert_array_equal(model.weights, 0.0)
        assert model.intercept == 5.0


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
            expected = float(model.weights[idx] @ values[idx]) + model.intercept
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
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        model = RidgeModel(weights=rng.normal(size=17), intercept=0.123456789,
                           alpha=0.5)
        path = tmp_path / "m.ridge"
        save_ridge(model, path)
        loaded = load_ridge(path)
        assert loaded.alpha == model.alpha
        assert loaded.intercept == model.intercept
        np.testing.assert_array_equal(loaded.weights, model.weights)
        path2 = tmp_path / "m2.ridge"
        save_ridge(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ridge"
        path.write_bytes(b"something else entirely")
        with pytest.raises(ValueError):
            load_ridge(path)
