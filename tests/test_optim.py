import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevrank.optim import GRAD_TOL, lbfgs_minimize

from reference import check_gradient


def rosenbrock(x):
    value = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    grad = np.array([
        -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return value, grad


A = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
B = np.array([1.0, -2.0, 0.5])


def quadratic(x):
    return 0.5 * x @ A @ x - B @ x, A @ x - B


def logistic(x):
    """A smooth convex objective with no closed form: sum ln(1 + e^(x_i - i)) + |x|^2 / 2."""
    z = x - np.arange(len(x))
    return (float(np.sum(np.logaddexp(0.0, z)) + 0.5 * x @ x),
            1.0 / (1.0 + np.exp(-z)) + x)


OBJECTIVES = {"rosenbrock": (rosenbrock, 2), "quadratic": (quadratic, 3),
              "logistic": (logistic, 4)}


class TestLbfgs:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(OBJECTIVES)), st.data())
    def test_accepted_values_never_increase(self, name, data):
        f, dim = OBJECTIVES[name]
        x0 = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=dim,
                                         max_size=dim)))
        result = lbfgs_minimize(f, x0, max_iter=60)
        # the accepted values, read by rerunning with fewer steps
        reruns = [lbfgs_minimize(f, x0, max_iter=k) for k in range(result.iterations + 1)]
        assert [r.iterations for r in reruns] == list(range(result.iterations + 1))
        seen = [r.f_value for r in reruns]
        assert seen[0] == f(x0)[0]
        assert all(b <= a for a, b in zip(seen, seen[1:]))
        assert len(seen) == result.iterations + 1
        assert result.f_value == seen[-1]

    def test_quadratic_minimum(self):
        result = lbfgs_minimize(quadratic, np.zeros(3))
        assert result.converged
        assert np.max(np.abs(quadratic(result.x)[1])) <= GRAD_TOL
        # x - x* = A^-1 (gradient at x), and the gradient's 2-norm is at most
        # sqrt(3) times its max-norm
        bound = np.linalg.norm(np.linalg.inv(A), 2) * np.sqrt(3) * GRAD_TOL
        assert np.linalg.norm(result.x - np.linalg.solve(A, B)) <= bound

    def test_rosenbrock_converges(self):
        result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=100)
        assert result.converged
        assert np.allclose(result.x, [1.0, 1.0], atol=1e-5)

    def test_convex_minimum(self):
        result = lbfgs_minimize(logistic, np.full(4, 3.0))
        assert result.converged
        assert np.max(np.abs(logistic(result.x)[1])) <= 1e-6
        assert result.iterations < 30

    def test_identical_inputs_give_identical_iterates(self):
        runs = []
        for _ in range(2):
            # each accepted iterate, read by rerunning with fewer steps
            runs.append([lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                                        max_iter=k).x.tobytes() for k in range(1, 31)])
        assert runs[0] == runs[1]

    def test_max_iter_stops_unconverged(self):
        result = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=3)
        assert (result.iterations, result.converged) == (3, False)

    def test_non_finite_objective_names_the_iteration(self):
        def f(x):
            return (np.nan if x[0] < 0.5 else 0.0), np.ones(1)

        with pytest.raises(ValueError, match="non-finite objective or gradient "
                                             "at iteration 0"):
            lbfgs_minimize(f, np.zeros(1))


class TestCheckGradient:
    @pytest.mark.parametrize("name", sorted(OBJECTIVES))
    def test_exact_gradient(self, name):
        f, dim = OBJECTIVES[name]
        x = np.linspace(-0.7, 0.9, dim)
        assert check_gradient(f, x) < 1e-6

    def test_wrong_gradient_is_caught(self):
        def f(x):
            value, grad = quadratic(x)
            return value, grad * 1.01

        assert check_gradient(f, np.array([1.0, 2.0, 3.0])) > 1e-3

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="h must be positive"):
            check_gradient(quadratic, np.zeros(3), h=0.0)
