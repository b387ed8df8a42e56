"""``_apg.fista`` against a frozen copy of its earlier loop.

The loop was made cheaper per iteration (lazy backtracking allowance, one
step difference, scalar square roots, no defensive copies, 1-D ``.dot``
products, the restart test on the step d and the momentum point built in
place).  Every change keeps the floating-point operations and decisions, so
the iterates, the residual and the iteration count must be bit-identical to
the copy below.
"""

import numpy as np
import pytest

from ocobench import Box, EuclideanBall, generate_nra, project
from ocobench._apg import _STALL_WINDOW, fista
from ocobench.core import ConvergenceError
from ocobench.offline import _stacked_parts


def reference_fista(x0, smooth_grad, prox, tol, max_iters, l0=1.0,
                    raise_on_fail=True, allowance_decided=None):
    """The earlier loop, verbatim but for ``allowance_decided``, a list that
    gets one entry per backtracking test that only the absolute allowance
    passed."""
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    t_momentum = 1.0
    L = max(float(l0), 1e-12)

    g = smooth_grad(x)
    res = float(np.linalg.norm(x - prox(x - g, 1.0)))
    if res <= tol:
        return x, res, 0
    x_best, res_best, it_best = x.copy(), res, 0

    for it in range(1, int(max_iters) + 1):
        gy = smooth_grad(y)
        L = max(L * 0.9, 1e-12)
        while True:
            x_new = prox(y - gy / L, 1.0 / L)
            d = x_new - y
            dd = float(d @ d)
            if dd == 0.0:
                gnew = gy
                break
            gnew = smooth_grad(x_new)
            noise = 1e-15 * (1.0 + float(np.abs(gy) @ np.abs(d)))
            if float((gnew - gy) @ d) <= L * dd + noise:
                if allowance_decided is not None \
                        and float((gnew - gy) @ d) > L * dd:
                    allowance_decided.append(it)
                break
            L *= 2.0
            if not np.isfinite(L) or L > 1e30:
                raise ConvergenceError(
                    "backtracking failed: curvature not bounded at any step",
                    residual=np.inf, iterations=it)

        if float((y - x_new) @ (x_new - x)) > 0.0:
            t_momentum = 1.0
            y = x_new.copy()
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            y = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            t_momentum = t_next
        x = x_new

        res = float(np.linalg.norm(x - prox(x - gnew, 1.0)))
        if res <= tol:
            return x, res, it
        if res < res_best:
            x_best, res_best, it_best = x.copy(), res, it
        elif it - it_best >= _STALL_WINDOW:
            break

    if raise_on_fail:
        raise ConvergenceError(
            f"projected gradient stalled at residual {res_best:.3e} after {it} iterations",
            residual=res_best, iterations=it)
    return x_best, res_best, it


def assert_same_run(x0, grad, prox, tol, max_iters, l0=1.0):
    got = fista(x0, grad, prox, tol, max_iters, l0=l0, raise_on_fail=False)
    want = reference_fista(x0, grad, prox, tol, max_iters, l0=l0,
                           raise_on_fail=False)
    assert np.array_equal(got[0], want[0])
    assert type(got[1]) is float and got[1] == want[1]
    assert type(got[2]) is int and got[2] == want[2]
    return got


def test_fista_matches_the_reference_on_an_nra_comparator_penalty():
    prob = generate_nra(10, 10, 60, seed=0)
    lagrangian_grad, _, cons, l0 = _stacked_parts(prob)
    lam = np.linspace(0.0, 50.0, prob.p)

    def pen_grad(y):
        return lagrangian_grad(y, np.maximum(lam + 10.0 * cons(y), 0.0))

    def prox(z, step):
        return project(prob.set, z)

    _, res, it = assert_same_run(project(prob.set, np.zeros(prob.n)),
                                 pen_grad, prox, 1e-7, 200_000, l0)
    assert res <= 1e-7 and it > 20


def test_fista_matches_the_reference_on_a_ball():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(8, 8))
    Q, b = G @ G.T + 0.1 * np.eye(8), rng.normal(size=8) * 20.0
    ball = EuclideanBall(1.0, 8)
    x, res, _ = assert_same_run(np.zeros(8), lambda x: Q @ x + b,
                                lambda z, step: project(ball, z), 1e-10, 50_000)
    assert res <= 1e-10 and np.linalg.norm(x) == pytest.approx(1.0)


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
def test_fista_matches_the_reference_where_the_allowance_decides(tol):
    # Near the optimum of this 1-D quadratic the steps fall below 1e-8, so
    # the absolute allowance, not L ||d||^2, passes the secant test; at
    # 1e-14 the solve stalls and returns its best point.
    box = Box(np.array([-1.0]), np.array([1.0]))

    def grad(x):
        return x - 0.3

    def prox(z, step):
        return project(box, z)

    decided = []
    reference_fista(np.array([-1.0]), grad, prox, tol, 5000,
                    raise_on_fail=False, allowance_decided=decided)
    assert decided
    assert_same_run(np.array([-1.0]), grad, prox, tol, 5000)


def test_fista_raises_as_the_reference_does_when_it_stalls():
    box = Box(np.array([-1.0]), np.array([1.0]))
    args = (np.array([-1.0]), lambda x: x - 0.3,
            lambda z, step: project(box, z), 1e-14, 5000)
    errors = []
    for solve in (fista, reference_fista):
        with pytest.raises(ConvergenceError) as info:
            solve(*args)
        errors.append((str(info.value), info.value.residual,
                       info.value.iterations))
    assert errors[0] == errors[1]


def test_fista_takes_no_gradient_twice_on_one_array():
    # The first iteration's y is x0 and a restart's y is x+, whose
    # gradients the initial residual and the backtracking test already took.
    prob = generate_nra(10, 10, 60, seed=0)
    lagrangian_grad, _, cons, l0 = _stacked_parts(prob)
    lam = np.linspace(0.0, 50.0, prob.p)
    seen = []

    def pen_grad(y):
        seen.append(y)
        return lagrangian_grad(y, np.maximum(lam + 10.0 * cons(y), 0.0))

    _, res, it = fista(project(prob.set, np.zeros(prob.n)), pen_grad,
                       lambda z, step: project(prob.set, z), 1e-7, 200_000, l0)
    assert res <= 1e-7 and it > 20
    assert all(a is not b for a, b in zip(seen, seen[1:]))
