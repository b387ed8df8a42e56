import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ocobench import (Box, InfeasibleProblemError, generate_nra, generate_olr,
                      generate_oqcqp, project_l1_box, solve_comparator)
from ocobench.offline import _stacked_parts

from helpers import generic_problem, quad_round


def total_loss(problem, x):
    return sum(r.eval_f(x) for r in problem.rounds)


def max_violation(problem, x):
    return max(float(r.eval_g(x).max()) for r in problem.rounds)


def test_l1_box_projection_fixed_points_and_hand_cases():
    inside = np.array([0.3, -0.2])
    assert np.array_equal(project_l1_box(inside, 1.0, 1.0), inside)
    assert np.allclose(project_l1_box(np.array([2.0, 0.0]), 1.0, 5.0), [1.0, 0.0])
    # box active, l1 slack: plain clamp
    assert np.allclose(project_l1_box(np.array([3.0, -3.0]), 10.0, 1.0), [1.0, -1.0])
    assert np.array_equal(project_l1_box(np.array([5.0, -2.0]), 0.0, 1.0), [0.0, 0.0])


def test_l1_box_projection_validation():
    with pytest.raises(ValueError):
        project_l1_box(np.zeros(2), -1.0, 1.0)
    with pytest.raises(ValueError):
        project_l1_box(np.zeros(2), 1.0, 0.0)
    with pytest.raises(ValueError, match="budget"):
        project_l1_box(np.zeros(2), np.nan, 1.0)
    with pytest.raises(ValueError, match="box bound"):
        project_l1_box(np.zeros(2), 1.0, np.nan)
    # an infinite budget or bound leaves that set inactive
    assert np.array_equal(project_l1_box(np.array([3.0, -1.0]), np.inf, 2.0),
                          [2.0, -1.0])
    assert np.array_equal(project_l1_box(np.array([3.0, -1.0]), 10.0, np.inf),
                          [3.0, -1.0])


def test_l1_box_projection_against_grid():
    y = np.array([1.4, -0.9])
    a, M = 1.0, 0.6
    g = np.linspace(-M, M, 1201)
    X, Y = np.meshgrid(g, g, indexing="ij")
    mask = np.abs(X) + np.abs(Y) <= a
    d2 = (X - y[0]) ** 2 + (Y - y[1]) ** 2
    d2[~mask] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    best = np.array([g[i], g[j]])
    out = project_l1_box(y, a, M)
    assert np.linalg.norm(out - best) <= 2e-3
    assert float(np.sum((out - y) ** 2)) <= float(d2[i, j]) + 1e-6


def test_l1_box_projection_against_cvxpy():
    cp = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.normal(scale=2.0, size=5)
        a, M = 1.5, 0.7
        x = cp.Variable(5)
        cp.Problem(cp.Minimize(cp.sum_squares(x - y)),
                   [cp.norm1(x) <= a, cp.abs(x) <= M]).solve(
            solver=cp.CLARABEL, tol_gap_abs=1e-12, tol_gap_rel=1e-12,
            tol_feas=1e-12)
        assert np.allclose(project_l1_box(y, a, M), x.value, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(y=arrays(np.float64, (4,),
                elements=st.floats(-10, 10, allow_nan=False)),
       a=st.floats(0.1, 5.0), M=st.floats(0.1, 3.0))
def test_l1_box_projection_properties(y, a, M):
    out = project_l1_box(y, a, M)
    assert np.abs(out).sum() <= a + 1e-9
    assert np.abs(out).max() <= M + 1e-12
    again = project_l1_box(out, a, M)
    assert np.allclose(again, out, atol=1e-12)
    # no feasible point is closer to y
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = np.clip(rng.uniform(-M, M, 4), -M, M)
        s = np.abs(z).sum()
        if s > a:
            z *= a / s
        assert np.linalg.norm(out - y) <= np.linalg.norm(z - y) + 1e-9


def test_comparator_interior_optimum_is_unconstrained_minimum():
    c = np.array([1.5, -2.0])
    rounds = [quad_round(t, 2.0 * np.eye(2), -2.0 * c, [[1.0, 0.0]], [-10.0])
              for t in range(5)]
    prob = generic_problem(rounds, Box(np.full(2, -5.0), np.full(2, 5.0)), 2)
    x = solve_comparator(prob, 1e-8)
    assert np.allclose(x, c, atol=1e-6)


def test_comparator_1d_active_constraint():
    # min sum (x-2)^2 subject to x <= 1 -> optimum pinned at 1
    rounds = [quad_round(t, [[2.0]], [-4.0], [[1.0]], [-1.0]) for t in range(3)]
    prob = generic_problem(rounds, Box(np.array([-3.0]), np.array([3.0])), 1)
    x = solve_comparator(prob, 1e-8)
    assert abs(x[0] - 1.0) <= 1e-6


def test_comparator_nra_matches_cvxpy():
    cp = pytest.importorskip("cvxpy")
    prob = generate_nra(3, 3, 40, seed=14)
    x_pkg = solve_comparator(prob, 1e-8)
    A, b, q = prob.data["A"], prob.data["b"], prob.data["q"]
    x = cp.Variable(prob.n)
    upper = np.concatenate([prob.data["zbar"], prob.data["ybar"]])
    objective = cp.Minimize(cp.sum(q.sum(axis=0) @ cp.square(x)))
    cons = [A @ x + b.max(axis=0) <= 0, x >= 0, x <= upper]
    cp.Problem(objective, cons).solve(solver=cp.CLARABEL, tol_gap_abs=1e-10,
                                      tol_gap_rel=1e-10, tol_feas=1e-10)
    ours, ref = total_loss(prob, x_pkg), total_loss(prob, np.asarray(x.value))
    assert abs(ours - ref) <= 1e-5 * max(abs(ref), 1.0)
    assert max_violation(prob, x_pkg) <= 1e-6


def test_comparator_generic_path_handles_stacked_linear_rounds():
    # same stacked-constraint machinery the cross-checks lean on, tiny scale
    prob = generate_nra(3, 3, 12, seed=14)
    x = solve_comparator(dataclasses.replace(prob, kind="generic"), 1e-7)
    assert max_violation(prob, x) <= 1e-6
    assert total_loss(prob, x) <= total_loss(prob, prob.constants.slater_point)


def _round_sums(problem, x, weights):
    """sum_t grad f_t(x) and sum_t J_t(x)^T w_t, each summed in round order."""
    loss, coupling = np.zeros(problem.n), np.zeros(problem.n)
    for o, w_t in zip(problem.rounds, weights):
        loss += o.subgrad_f(x)
        coupling += o.jac_g(x).T @ w_t
    return loss, coupling


def _generic_quadratic():
    rng = np.random.default_rng(7)
    rounds = [quad_round(t, 2.0 * np.eye(3), rng.normal(size=3),
                         rng.normal(size=(2, 3)), rng.normal(size=2))
              for t in range(6)]
    return generic_problem(rounds, Box(np.full(3, -2.0), np.full(3, 2.0)), 3)


def assert_hinged_grad_is_the_composition(parts, y, lam, rho):
    """hinged_grad(y, lam, rho) is lagrangian_grad at [lam + rho cons(y)]_+
    bit for bit, and leaves its arguments as they came."""
    lagrangian_grad, hinged_grad, cons, _ = parts
    y_in, lam_in = y.copy(), lam.copy()
    got = hinged_grad(y, lam, rho)
    assert np.array_equal(y, y_in) and np.array_equal(lam, lam_in)
    want = lagrangian_grad(y_in, np.maximum(lam_in + rho * cons(y_in), 0.0))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [lambda: generate_nra(3, 3, 12, seed=14),
                                  lambda: generate_oqcqp(4, 2, 5.0, 15, seed=0),
                                  _generic_quadratic],
                         ids=["nra", "oqcqp", "generic"])
def test_stacked_parts_match_the_rounds_they_stack(make):
    prob = make()
    parts = _stacked_parts(prob)
    lagrangian_grad, _, cons, _ = parts
    generic_parts = _stacked_parts(dataclasses.replace(prob, kind="generic"))
    generic_grad, _, generic_cons, _ = generic_parts
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.uniform(0.0, 2.0, prob.n)
        g = np.array([o.eval_g(x) for o in prob.rounds])
        if prob.kind == "nra":
            # the aggregated rows are the worst round's rows, and a weight
            # on row i is a weight on the round that attains it
            assert np.array_equal(cons(x), g.max(axis=0))
            w = rng.uniform(0.0, 3.0, prob.p)
            weights = np.where(np.arange(len(g))[:, None] == g.argmax(axis=0),
                               w, 0.0)
        else:
            np.testing.assert_allclose(cons(x), g.ravel(), rtol=1e-12)
            w = rng.uniform(0.0, 3.0, g.size)
            weights = w.reshape(g.shape)
        loss, coupling = _round_sums(prob, x, weights)
        np.testing.assert_allclose(lagrangian_grad(x, w), loss + coupling,
                                   rtol=1e-12)
        # the generic path sums the same two accumulators in the same order
        w_all = rng.uniform(0.0, 3.0, g.size)
        loss, coupling = _round_sums(prob, x, w_all.reshape(g.shape))
        assert np.array_equal(generic_grad(x, w_all), loss + coupling)
        assert np.array_equal(generic_cons(x), g.ravel())
        # multipliers of both signs, so that the hinge both cuts and passes
        for rho in (1.0, 10.0, 1e4):
            assert_hinged_grad_is_the_composition(
                parts, x, rng.uniform(-3.0, 3.0, w.size), rho)
            assert_hinged_grad_is_the_composition(
                generic_parts, x, rng.uniform(-3.0, 3.0, g.size), rho)


def test_comparator_olr_feasible_and_beats_candidates():
    prob = generate_olr(4, 5, 40, 2.0, seed=1)
    x = solve_comparator(prob, 1e-7)
    a_min = float(prob.data["a"].min())
    assert np.abs(x).sum() <= a_min + 1e-6
    assert np.abs(x).max() <= 2.0 + 1e-9
    best = total_loss(prob, x)
    assert best <= total_loss(prob, np.zeros(4)) + 1e-7
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.uniform(-2.0, 2.0, 4)
        s = np.abs(z).sum()
        if s > a_min:
            z *= a_min / s
        assert best <= total_loss(prob, z) + 1e-7


def test_comparator_oqcqp_feasible_and_beats_candidates():
    prob = generate_oqcqp(5, 2, 4.0, 30, seed=1)
    x = solve_comparator(prob, 1e-7)
    assert max_violation(prob, x) <= 1e-6
    best = total_loss(prob, x)
    xhat = prob.data["xhat"]
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(200):
        z = xhat + rng.normal(scale=0.2, size=5)
        if np.linalg.norm(z) <= 4.0 and max_violation(prob, z) <= 0:
            checked += 1
            assert best <= total_loss(prob, z) + 1e-7
    assert checked >= 20


def test_comparator_deterministic():
    prob = generate_oqcqp(5, 2, 4.0, 20, seed=1)
    assert np.array_equal(solve_comparator(prob, 1e-7),
                          solve_comparator(prob, 1e-7))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("make", [lambda: generate_oqcqp(4, 2, 5.0, 20, seed=0),
                                  lambda: generate_olr(4, 5, 20, 2.0, seed=0)],
                         ids=["oqcqp", "olr"])
def test_comparator_refuses_a_tolerance_that_is_not_positive_and_finite(make, tol):
    # inf would return the projection of 0 as the best decision, and -1 or
    # nan would report a feasible instance as infeasible
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_comparator(make(), tol)


def test_comparator_reports_a_stalled_penalty_as_infeasible():
    # round 0 asks for x <= -1 and round 1 for x >= 1: the violation cannot
    # fall below 1 however large the penalty grows
    rounds = [quad_round(0, [[2.0]], [0.0], [[1.0]], [1.0]),
              quad_round(1, [[2.0]], [0.0], [[-1.0]], [1.0])]
    prob = generic_problem(rounds, Box(np.array([-3.0]), np.array([3.0])), 1)
    with pytest.raises(InfeasibleProblemError,
                       match=r"generic comparator \(seed 0\).*stalled"):
        solve_comparator(prob, 1e-7)


def test_comparator_rejects_overloaded_nra():
    prob = generate_nra(3, 3, 200, seed=0)
    with pytest.raises(InfeasibleProblemError):
        solve_comparator(prob, 1e-7)
