"""Limited-memory BFGS minimizer with a weak-Wolfe line search.

General-purpose and deterministic: the objective is a callable returning
(value, gradient), the inverse-Hessian approximation lives in the last
MEMORY (s, y) displacement pairs via the standard two-loop recursion, and
steps are found by the weak-Wolfe bisection of Lewis and Overton (Math.
Programming 2013) from a unit step.  A Wolfe step has s.y > 0, which keeps
the implicit Hessian positive definite, also off convex objectives.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["OptimResult", "lbfgs_minimize"]

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

MEMORY = 10          # (s, y) pairs kept
GRAD_TOL = 1e-6      # on the max-norm of the gradient
ARMIJO_C = 1e-4      # sufficient decrease: f(x + t d) <= f(x) + ARMIJO_C t g.d
CURVATURE_C = 0.9    # weak Wolfe: g(x + t d).d >= CURVATURE_C g.d
MAX_TRIALS = 50      # step lengths tried per line search


class OptimResult(NamedTuple):
    x: np.ndarray
    f_value: float
    grad_norm: float     # max-norm at x
    iterations: int
    converged: bool


def _evaluate(f: Objective, x: np.ndarray, iteration: int) -> tuple[float, np.ndarray]:
    value, grad = f(x)
    grad = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ValueError(
            f"non-finite objective or gradient at iteration {iteration}"
        )
    return float(value), grad


def _search_direction(
    grad: np.ndarray,
    history: deque[tuple[np.ndarray, np.ndarray, float]],
    gamma: float,
) -> np.ndarray:
    """Two-loop recursion: returns H_k . grad for the implicit H_k."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    q *= gamma
    for (s, y, rho), a in zip(history, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return q


def lbfgs_minimize(f: Objective, x0: np.ndarray, max_iter: int = 200) -> OptimResult:
    """Minimize f from x0; f maps a vector to (value, gradient).

    Returns once the gradient max-norm falls to GRAD_TOL or max_iter
    accepted steps have run.  If a line search finds no weak-Wolfe step
    in MAX_TRIALS tries the best point so far is returned with
    converged=False.  Non-finite objective values or gradients abort
    with the iteration index at which they were produced.  The sequence
    of accepted objective values is nonincreasing, and identical inputs
    reproduce identical iterates: a run with max_iter=k ends at the k-th
    accepted iterate of every run that accepts k steps.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx, grad = _evaluate(f, x, 0)
    history: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    gamma = 1.0
    iteration = 0
    while True:
        grad_norm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if grad_norm <= GRAD_TOL:
            return OptimResult(x, fx, grad_norm, iteration, converged=True)
        if iteration >= max_iter:
            return OptimResult(x, fx, grad_norm, iteration, converged=False)

        direction = -_search_direction(grad, history, gamma)
        slope = float(grad @ direction)
        if slope >= 0.0:
            # numerically degenerate curvature; fall back to steepest descent
            direction = -grad
            slope = -float(grad @ grad)

        # bisect [low, high] until sufficient decrease and a raised slope
        low, high, step = 0.0, np.inf, 1.0
        for _ in range(MAX_TRIALS):
            x_new = x + step * direction
            f_new, grad_new = _evaluate(f, x_new, iteration)
            if f_new > fx + ARMIJO_C * step * slope:
                high = step
            elif float(grad_new @ direction) < CURVATURE_C * slope:
                low = step
            else:
                break
            step = (low + high) / 2.0 if high < np.inf else 2.0 * low
        else:
            return OptimResult(x, fx, grad_norm, iteration, converged=False)

        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 0.0:  # Wolfe makes it positive, up to rounding
            history.append((s, y, 1.0 / sy))
            gamma = sy / float(y @ y)
        x, fx, grad = x_new, f_new, grad_new
        iteration += 1
