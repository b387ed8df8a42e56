from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ocobench.malm as malm_module
from ocobench import (LINEARIZED, PLAIN, PRESETS, QUADRATIC_LINEARIZED,
                      TRUNCATED, Box, ConvergenceError, EuclideanBall,
                      MalmConfig, ModelAt, RoundOracle, UnsupportedProblemError,
                      closed_form_linearized_p1, generate_nra, generate_olr,
                      generate_oqcqp, make_model,
                      multiplier_update, project, run_malm, solve_comparator,
                      solve_subproblem, subproblem_objective)
from ocobench._apg import fista
from ocobench.harness import generate_problem, run_cell
from ocobench.malm import _plain_l1_parts

from helpers import (affine_round, contains, generic_problem, quad_round,
                     run_malm_no_delay, sample_in)


def constant_round(value_f, value_g):
    return RoundOracle(
        n=1, p=1,
        eval_f=lambda x: float(value_f),
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x: np.array([float(value_g)]),
        jac_g=lambda x: np.zeros((1, 1)),
        g_kind="affine")


# The augmented Lagrangian is subproblem_objective without its prox term.

def aug_lagrangian(model, x, lam, sigma):
    return subproblem_objective(model, x, lam, 0.0, sigma, x)


def test_aug_lagrangian_hinge_vanishes():
    m = make_model(constant_round(7.0, -3.0), np.zeros(1), PLAIN)
    assert aug_lagrangian(m, np.zeros(1), np.zeros(1), 2.0) == pytest.approx(7.0)


def test_aug_lagrangian_hand_value():
    # F=2, G=3, lam=1, sigma=2 -> 2 + ((1+6)^2 - 1)/4 = 14
    m = make_model(constant_round(2.0, 3.0), np.zeros(1), PLAIN)
    assert aug_lagrangian(m, np.zeros(1), np.array([1.0]), 2.0) == pytest.approx(14.0)


def test_aug_lagrangian_zero_G_returns_F():
    m = make_model(constant_round(2.5, 0.0), np.zeros(1), PLAIN)
    for lam in (0.0, 1.0, 42.0):
        assert aug_lagrangian(m, np.zeros(1), np.array([lam]), 0.7) \
            == pytest.approx(2.5, abs=1e-12)


def test_aug_lagrangian_rejects_bad_sigma():
    m = make_model(constant_round(1.0, 1.0), np.zeros(1), PLAIN)
    with pytest.raises(ValueError):
        subproblem_objective(m, np.zeros(1), np.zeros(1), 1.0, 0.0, np.zeros(1))


def test_subproblem_objective_adds_prox_term():
    m = make_model(constant_round(2.0, 3.0), np.zeros(1), PLAIN)
    x, center = np.array([1.0]), np.array([-1.0])
    assert subproblem_objective(m, x, np.array([1.0]), 0.5, 2.0, center) \
        == pytest.approx(14.0 + 0.25 * 4.0)


def test_multiplier_update_examples():
    m = make_model(constant_round(0.0, -1.0), np.zeros(1), PLAIN)
    out = multiplier_update(np.zeros(1), m, np.zeros(1), 1.0)
    assert np.array_equal(out, [0.0])

    two = RoundOracle(
        n=1, p=2,
        eval_f=lambda x: 0.0,
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x: np.array([-1.0, 4.0]),
        jac_g=lambda x: np.zeros((2, 1)))
    m2 = make_model(two, np.zeros(1), PLAIN)
    out = multiplier_update(np.array([1.0, 0.0]), m2, np.zeros(1), 0.5)
    assert np.allclose(out, [0.5, 2.0])


def test_multiplier_update_nonexpansive_step():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = rng.normal(size=3)
        oracle = RoundOracle(
            n=1, p=3,
            eval_f=lambda x: 0.0,
            subgrad_f=lambda x: np.zeros(1),
            eval_g=lambda x, _g=g: _g.copy(),
            jac_g=lambda x: np.zeros((3, 1)))
        lam = np.abs(rng.normal(size=3))
        sigma = float(rng.uniform(0.1, 2))
        model = make_model(oracle, np.zeros(1), PLAIN)
        out = multiplier_update(lam, model, np.zeros(1), sigma)
        assert np.all(out >= 0)
        assert np.linalg.norm(out - lam) <= sigma * np.linalg.norm(g) + 1e-12


WIDE = Box(np.full(2, -100.0), np.full(2, 100.0))


def test_closed_form_inactive_hinge_branch():
    a, b = np.array([2.0, -4.0]), np.array([1.0, 1.0])
    # alpha*gamma <= a.b keeps the hinge off at -a/alpha
    out = closed_form_linearized_p1(a, b, -10.0, 2.0, 1.0, WIDE)
    assert np.allclose(out, -a / 2.0, atol=1e-12)


def test_closed_form_active_hinge_hand_case():
    out = closed_form_linearized_p1(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                    1.0, 1.0, 1.0, WIDE)
    assert np.allclose(out, [-1.0, -0.5], atol=1e-12)


def test_closed_form_branch_continuity():
    a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
    alpha, sigma = 1.3, 0.8
    gamma_star = float(a @ b) / alpha
    lo = closed_form_linearized_p1(a, b, gamma_star - 1e-9, alpha, sigma, WIDE)
    hi = closed_form_linearized_p1(a, b, gamma_star + 1e-9, alpha, sigma, WIDE)
    assert np.linalg.norm(lo - hi) <= 1e-6


def subproblem_gradient(model, lam, cfg, center):
    """The subproblem objective's gradient, with model.subgrad_F for F."""
    def grad(x):
        shifted = np.maximum(lam + cfg.sigma * model.eval_G(x), 0.0)
        return (np.asarray(model.subgrad_F(x), float) + model.jac_G(x).T @ shifted
                + cfg.alpha * (x - center))

    return grad


def subproblem_residual(model, x, lam, cfg, feasible_set, center):
    grad = subproblem_gradient(model, lam, cfg, center)(x)
    return float(np.linalg.norm(x - project(feasible_set, x - grad)))


def _matches_tight_gradient_solve(model, center, lam, cfg, feasible):
    """The solver's point is certified and within 1e-7 of a tol-1e-12 FISTA
    solve; returns it."""
    x = solve_subproblem(model, center, lam, cfg, feasible)
    assert subproblem_residual(model, x, lam, cfg, feasible, center) <= cfg.tol
    grad = subproblem_gradient(model, lam, cfg, center)
    x_ref, res_ref, _ = fista(center, grad, lambda z, step: project(feasible, z),
                              tol=1e-12, max_iters=100_000, raise_on_fail=False)
    assert res_ref <= 1e-10
    assert np.max(np.abs(x - x_ref)) <= 1e-7
    return x


def test_fista_refuses_an_iteration_cap_below_one():
    # the start misses tol, so a cap below 1 would end before any iteration
    def grad(x):
        return x - 1.0

    def prox(z, step):
        return z

    for cap in (0, -1):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            fista(np.zeros(2), grad, prox, tol=1e-9, max_iters=cap,
                  raise_on_fail=False)
    _, res, iters = fista(np.zeros(2), grad, prox, tol=1e-9, max_iters=1,
                          raise_on_fail=False)
    assert iters == 1 and res < float(np.linalg.norm(np.ones(2)))


def test_solve_subproblem_1d_plain_hand_case():
    oracle = affine_round([1.0], 0.0, [[1.0]], [-1.0])
    feasible = Box(np.array([-2.0]), np.array([2.0]))
    cfg = MalmConfig(alpha=1.0, sigma=1.0, T=1)
    m = make_model(oracle, np.zeros(1), PLAIN)
    x_next = solve_subproblem(m, np.zeros(1), np.zeros(1), cfg, feasible)
    assert abs(x_next[0] + 1.0) <= 1e-8
    lam_next = multiplier_update(np.zeros(1), m, x_next, 1.0)
    assert np.array_equal(lam_next, [0.0])


def test_solve_subproblem_prox_dominates_at_tiny_sigma():
    oracle = RoundOracle(
        n=1, p=1,
        eval_f=lambda x: 5.0,
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x: np.array([x[0] - 1.0]),
        jac_g=lambda x: np.array([[1.0]]),
        g_kind="affine")
    feasible = Box(np.array([-2.0]), np.array([2.0]))
    cfg = MalmConfig(alpha=1.0, sigma=1e-8, T=1)
    m = make_model(oracle, np.array([0.3]), PLAIN)
    x_next = solve_subproblem(m, np.array([0.3]), np.zeros(1), cfg, feasible)
    assert abs(x_next[0] - 0.3) <= 1e-6


def test_solve_subproblem_linearized_dispatch_meets_residual():
    # tight boxes force the closed form through its projection fallback
    rng = np.random.default_rng(4)
    cfg = MalmConfig(alpha=1.0, sigma=2.0, T=1, tol=1e-10)
    for _ in range(30):
        u = rng.normal(size=2)
        B = rng.normal(size=(1, 2))
        g0 = rng.normal(size=1)
        oracle = affine_round(u, float(rng.normal()), B, g0)
        feasible = Box(np.full(2, -0.4), np.full(2, 0.4))
        center = project(feasible, rng.normal(size=2))
        lam = np.abs(rng.normal(size=1))
        m = make_model(oracle, center, LINEARIZED)
        x_next = solve_subproblem(m, center, lam, cfg, feasible)
        assert contains(feasible, x_next)
        assert subproblem_residual(m, x_next, lam, cfg, feasible, center) <= 1e-10


def test_l1_subproblem_beats_random_feasible_points():
    problem = generate_olr(4, 5, 10, 2.0, seed=3)
    oracle = problem.rounds[2]
    center = project(problem.set, np.full(4, 0.5))
    lam = np.array([0.5])
    cfg = MalmConfig(alpha=2.0, sigma=1.5, T=1)
    m = make_model(oracle, center, PLAIN)
    x_next = solve_subproblem(m, center, lam, cfg, problem.set)
    best = subproblem_objective(m, x_next, lam, 2.0, 1.5, center)
    rng = np.random.default_rng(0)
    for _ in range(300):
        y = rng.uniform(-2.0, 2.0, size=4)
        assert best <= subproblem_objective(m, y, lam, 2.0, 1.5, center) + 1e-9


def test_plain_model_refuses_a_nonsmooth_g_without_l1_structure():
    # FISTA's residual on a nonsmooth g could pass with a subgradient
    # choice that does not certify optimality
    oracle = RoundOracle(
        n=2, p=1,
        eval_f=lambda x: float(x @ x),
        subgrad_f=lambda x: 2.0 * x,
        eval_g=lambda x: np.array([np.abs(x).max() - 1.0]),
        jac_g=lambda x: np.eye(2)[[int(np.argmax(np.abs(x)))]] * np.sign(x),
        g_kind="nonsmooth")
    feasible = Box(np.full(2, -2.0), np.full(2, 2.0))
    model = make_model(oracle, np.zeros(2), PLAIN)
    with pytest.raises(UnsupportedProblemError, match="smooth g_t"):
        solve_subproblem(model, np.zeros(2), np.zeros(1),
                         MalmConfig(alpha=1.0, sigma=1.0, T=1), feasible)


def test_l1_constraint_needs_a_single_constraint():
    # refused when the round is built, before any subproblem sees it
    with pytest.raises(ValueError, match="p = 1"):
        RoundOracle(
            n=2, p=2,
            eval_f=lambda x: float(x @ x),
            subgrad_f=lambda x: 2.0 * x,
            eval_g=lambda x: np.abs(x).sum() - np.array([1.0, 2.0]),
            jac_g=lambda x: np.vstack([np.sign(x), np.sign(x)]),
            g_kind="l1")


def test_l1_constraint_needs_a_box_like_set():
    oracle = generate_olr(3, 4, 2, 2.0, seed=0).rounds[1]
    model = make_model(oracle, np.zeros(3), PLAIN)
    with pytest.raises(UnsupportedProblemError, match="box-like"):
        solve_subproblem(model, np.zeros(3), np.zeros(1),
                         MalmConfig(alpha=1.0, sigma=1.0, T=1),
                         EuclideanBall(2.0, 3))


def test_config_validation():
    with pytest.raises(ValueError):
        MalmConfig(alpha=0.0, sigma=1.0, T=10)
    with pytest.raises(ValueError):
        MalmConfig(alpha=1.0, sigma=-1.0, T=10)
    with pytest.raises(ValueError):
        MalmConfig(alpha=1.0, sigma=1.0, T=10, tau=-1)
    with pytest.raises(ValueError):
        MalmConfig(alpha=1.0, sigma=1.0, T=5, tau=5)
    with pytest.raises(ValueError):
        MalmConfig(alpha=1.0, sigma=1.0, T=10, model_kind="cubic")
    with pytest.raises(ValueError):
        MalmConfig(alpha=1.0, sigma=1.0, T=10, tol=0.0)
    for kwargs in ({"T": 5.5}, {"T": 5, "tau": 1.5}, {"T": np.float64(5.0)}):
        with pytest.raises(ValueError, match="must be an integer"):
            MalmConfig(alpha=1.0, sigma=1.0, **kwargs)
    assert MalmConfig(alpha=1.0, sigma=1.0, T=np.int64(5), tau=np.int32(1)).T == 5
    for name in ("alpha", "sigma", "tol"):
        for value in (np.nan, np.inf):
            kwargs = {"alpha": 1.0, "sigma": 1.0, name: value}
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                MalmConfig(T=10, **kwargs)


def test_run_malm_initialization_and_feasibility():
    problem = generate_oqcqp(4, 2, 3.0, 30, seed=5)
    cfg = MalmConfig(alpha=3.0, sigma=0.5, T=30, tau=3)
    traj = run_malm(problem, cfg)
    x0 = project(problem.set, np.zeros(4))
    assert traj.xs.shape == (30, 4)
    assert traj.lambdas.shape == (30, 2)
    for t in range(4):
        assert np.array_equal(traj.xs[t], x0)
    assert np.all(traj.lambdas >= 0)
    assert np.all(traj.lambdas[:4] == 0)
    for t in range(30):
        assert contains(problem.set, traj.xs[t])


def test_run_malm_deterministic_and_tau0_reduction():
    problem = generate_oqcqp(4, 2, 3.0, 25, seed=8)
    cfg = MalmConfig(alpha=2.0, sigma=0.4, T=25)
    a = run_malm(problem, cfg)
    b = run_malm(problem, cfg)
    c = run_malm_no_delay(problem, cfg)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.xs, c.xs) and np.array_equal(a.lambdas, c.lambdas)


def test_run_malm_contraction_step():
    problem = generate_nra(3, 3, 60, seed=14)
    cfg = MalmConfig(alpha=1.0, sigma=0.8, T=60)
    traj = run_malm(problem, cfg)
    norms = np.linalg.norm(traj.lambdas, axis=1)
    steps = np.abs(np.diff(norms))
    assert steps.max() <= cfg.sigma * problem.constants.nu_g + 1e-10
    # multipliers move, so the check is not vacuous
    assert norms.max() > 0


def test_subproblem_decrease_along_run():
    problem = generate_oqcqp(4, 2, 3.0, 12, seed=2)
    cfg = MalmConfig(alpha=1.5, sigma=0.7, T=12)
    x = project(problem.set, np.zeros(4))
    lam = np.zeros(2)
    for t in range(12):
        m = make_model(problem.rounds[t], x, PLAIN)
        x_next = solve_subproblem(m, x, lam, cfg, problem.set)
        after = subproblem_objective(m, x_next, lam, cfg.alpha, cfg.sigma, x)
        at_center = subproblem_objective(m, x, lam, cfg.alpha, cfg.sigma, x)
        assert after <= at_center + 1e-10
        lam = multiplier_update(lam, m, x_next, cfg.sigma)
        x = x_next


def test_run_malm_constant_rounds_reach_offline_fixed_point():
    # constant QP: min ||x - (2,2)||^2 s.t. x1 + x2 <= 1 on [-2,2]^2 -> (0.5, 0.5)
    Q = 2.0 * np.eye(2)
    b = np.array([-4.0, -4.0])
    rounds = [quad_round(t, Q, b, [[1.0, 1.0]], [-1.0]) for t in range(400)]
    feasible = Box(np.full(2, -2.0), np.full(2, 2.0))
    problem = generic_problem(rounds, feasible, 2)
    cfg = MalmConfig(alpha=1.0, sigma=1.0, T=400)
    traj = run_malm(problem, cfg)
    x_star = solve_comparator(problem, 1e-9)
    assert np.allclose(x_star, [0.5, 0.5], atol=1e-6)
    assert np.linalg.norm(traj.xs[-1] - x_star) <= 1e-4


def test_run_malm_truncated_model_completes():
    problem = generate_nra(3, 3, 20, seed=14)
    cfg = MalmConfig(alpha=1.0, sigma=0.5, T=20, model_kind=TRUNCATED)
    traj = run_malm(problem, cfg)
    assert np.all(traj.lambdas >= 0)
    for t in range(20):
        assert contains(problem.set, traj.xs[t])


def test_run_malm_l1_and_closed_form_paths_on_olr():
    problem = generate_olr(4, 5, 15, 2.0, seed=1)
    for kind in (PLAIN, LINEARIZED):
        cfg = MalmConfig(alpha=2.0, sigma=0.5, T=15, model_kind=kind)
        traj = run_malm(problem, cfg)
        assert traj.xs.shape == (15, 4)
        assert np.all(np.abs(traj.xs) <= 2.0 + 1e-12)


def test_run_malm_reports_failing_round():
    # Newton lands exactly (residual 0) on round 0, whose A_0 and C_0 are
    # the identity, so the first round no path can certify at 1e-30 is
    # round 1; the independent loop pins that index
    problem = generate_oqcqp(4, 2, 3.0, 10, seed=5)
    cfg = MalmConfig(alpha=1.0, sigma=0.5, T=10, tol=1e-30)
    with pytest.raises(ConvergenceError) as exc:
        run_malm(problem, cfg)
    with pytest.raises(ConvergenceError) as independent:
        run_malm_no_delay(problem, cfg)
    assert exc.value.round_index == independent.value.round_index == 1
    assert exc.value.residual > 0


# Newton path: separable quadratic F and affine G over a box-like set.

def separable_quadratic_round(h, c, B, g0, f0=0.0):
    """f(x) = 0.5 h.(x*x) + c.x + f0 with Hessian diagonal h; g(x) = B x + g0."""
    return RoundOracle(
        n=h.size, p=g0.size,
        eval_f=lambda x: float(0.5 * h @ (x * x) + c @ x) + f0,
        subgrad_f=lambda x: h * x + c,
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        g_kind="affine", hess_f=h)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


def _symmetric_box(draw, n, bound):
    m = draw(_floats(0.1, bound))
    return Box(np.full(n, -m), np.full(n, m))


@st.composite
def newton_subproblems(draw):
    """A Newton-eligible model, prox center, multiplier, config and set."""
    kind = draw(st.sampled_from((PLAIN, LINEARIZED, QUADRATIC_LINEARIZED)))
    n = draw(st.integers(1, 6))
    # the linearized model with one constraint takes the closed form
    p = draw(st.integers(2 if kind == LINEARIZED else 1, 4))
    h = draw(arrays(float, n, elements=_floats(0.0, 3.0)))
    c = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    B = draw(arrays(float, (p, n), elements=_floats(-1.0, 1.0)))
    g0 = draw(arrays(float, p, elements=_floats(-2.0, 2.0)))
    if draw(st.booleans()):
        feasible = Box(-draw(arrays(float, n, elements=_floats(0.1, 2.0))),
                       draw(arrays(float, n, elements=_floats(0.1, 2.0))))
    else:
        feasible = _symmetric_box(draw, n, 2.0)
    center = project(feasible, draw(arrays(float, n, elements=_floats(-3.0, 3.0))))
    lam = draw(arrays(float, p, elements=_floats(0.0, 3.0)))
    cfg = MalmConfig(alpha=draw(_floats(0.5, 5.0)), sigma=draw(_floats(0.01, 5.0)),
                     T=1, tol=1e-9)
    model = make_model(separable_quadratic_round(h, c, B, g0), center, kind,
                       iota=draw(_floats(0.0, 2.0)))
    return model, center, lam, cfg, feasible


@settings(max_examples=150, deadline=None, derandomize=True)
@given(newton_subproblems(), arrays(float, 4, elements=_floats(0.0, 3.0)))
def test_newton_subproblems_match_a_tight_gradient_solve(case, other_lam):
    model, center, lam, cfg, feasible = case
    assert model.quadratic_structure() is not None
    x = _matches_tight_gradient_solve(model, center, lam, cfg, feasible)

    # [lam + sigma G(x)]_+ moves by at most sigma ||G(x)|| and is
    # nonexpansive in the multiplier
    lam_next = multiplier_update(lam, model, x, cfg.sigma)
    assert np.all(lam_next >= 0)
    assert np.linalg.norm(lam_next - lam) \
        <= cfg.sigma * np.linalg.norm(model.eval_G(x)) + 1e-12
    other = other_lam[: model.oracle.p]
    assert np.linalg.norm(multiplier_update(other, model, x, cfg.sigma) - lam_next) \
        <= np.linalg.norm(other - lam) + 1e-12


@st.composite
def closed_form_subproblems(draw):
    """A linearized model with one constraint, on a box, a symmetric box or a
    Euclidean ball, anchored away from the prox center."""
    n = draw(st.integers(1, 6))
    h = draw(arrays(float, n, elements=_floats(0.0, 3.0)))
    c = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    B = draw(arrays(float, (1, n), elements=_floats(-1.0, 1.0)))
    g0 = draw(arrays(float, 1, elements=_floats(-2.0, 2.0)))
    shape = draw(st.sampled_from(("box", "sup", "ball")))
    if shape == "box":
        feasible = Box(-draw(arrays(float, n, elements=_floats(0.1, 3.0))),
                       draw(arrays(float, n, elements=_floats(0.1, 3.0))))
    elif shape == "sup":
        feasible = _symmetric_box(draw, n, 3.0)
    else:
        feasible = EuclideanBall(draw(_floats(0.1, 3.0)), n)
    points = arrays(float, n, elements=_floats(-3.0, 3.0))
    center = project(feasible, draw(points))
    anchor = project(feasible, draw(points))
    lam = draw(arrays(float, 1, elements=_floats(0.0, 3.0)))
    cfg = MalmConfig(alpha=draw(_floats(0.5, 5.0)), sigma=draw(_floats(0.01, 5.0)),
                     T=1)
    model = make_model(separable_quadratic_round(h, c, B, g0), anchor, LINEARIZED)
    return model, center, lam, cfg, feasible


@settings(max_examples=150, deadline=None, derandomize=True)
@given(closed_form_subproblems())
def test_closed_form_subproblems_match_a_tight_gradient_solve(case):
    fallbacks = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_solve_newton", "fista"):
            solver = getattr(malm_module, name)
            mp.setattr(malm_module, name,
                       lambda *a, _solver=solver, **k:
                       fallbacks.append(_solver) or _solver(*a, **k))
        x = _matches_tight_gradient_solve(*case)
    # a minimizer strictly inside the set is the unconstrained one, which the
    # closed form gives exactly, so no other solver may run
    feasible, margin = case[-1], 1e-6
    if isinstance(feasible, EuclideanBall):
        inside = np.linalg.norm(x) < feasible.radius - margin
    else:
        inside = (np.all(x > feasible.lower + margin)
                  and np.all(x < feasible.upper - margin))
    assert not (inside and fallbacks)


def test_nra_malm_runs_without_the_gradient_solver(monkeypatch):
    def no_fista(*args, **kwargs):
        raise AssertionError("fista called on a Newton-eligible subproblem")

    monkeypatch.setattr(malm_module, "fista", no_fista)
    problem = generate_nra(3, 3, 40, seed=14)
    for alpha, sigma in ((1.0, 0.8), (10.0, 1.0)):
        traj = run_malm(problem, MalmConfig(alpha=alpha, sigma=sigma, T=40))
        assert np.linalg.norm(traj.lambdas, axis=1).max() > 0
        for t in range(40):
            assert contains(problem.set, traj.xs[t])


def test_oqcqp_malm_runs_without_the_gradient_solver(monkeypatch):
    # dense loss Hessians and quadratic constraints on a ball: every round's
    # Newton steps stay inside the ball and certify
    def no_fista(*args, **kwargs):
        raise AssertionError("fista called on a Newton-eligible subproblem")

    monkeypatch.setattr(malm_module, "fista", no_fista)
    problem = generate_oqcqp(8, 3, 10.0, 60, seed=2)
    for tau in (0, 10):
        traj = run_malm(problem, MalmConfig(alpha=1.0, sigma=1.0, T=50, tau=tau))
        assert np.linalg.norm(traj.lambdas, axis=1).max() > 0
        for t in range(50):
            assert contains(problem.set, traj.xs[t])


def test_dense_loss_hessian_takes_the_newton_path(monkeypatch):
    # a 2-D hess_f is applied by a dense solve on a box and on a ball
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    oracle = replace(quad_round(0, Q, [-3.0, 1.0], [[1.0, 1.0]], [-0.5]),
                     hess_f=Q)
    model = make_model(oracle, np.zeros(2), PLAIN)
    hess_F, hess_G = model.quadratic_structure()
    assert hess_F is Q and hess_G is None

    def no_fista(*args, **kwargs):
        raise AssertionError("fista called on a dense loss Hessian")

    monkeypatch.setattr(malm_module, "fista", no_fista)
    cfg = MalmConfig(alpha=1.0, sigma=0.8, T=1)
    for feasible in (Box(np.full(2, -2.0), np.full(2, 2.0)),
                     Box(np.full(2, -2.0), np.full(2, 0.5)),
                     EuclideanBall(2.0, 2)):
        _matches_tight_gradient_solve(model, np.zeros(2), np.array([0.3]),
                                      cfg, feasible)


def test_newton_evaluates_g_once_per_point_and_j_once_per_iterate(monkeypatch):
    # eval_f runs once per evaluated point (the start and each Armijo trial)
    # and subgrad_f once per gradient (each Newton step and the last point)
    calls = Counter()

    def tally(name, fn):
        def counted(x):
            calls[name] += 1
            return fn(x)
        return counted

    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([-3.0, 1.0])
    C = np.stack([np.eye(2), np.diag([2.0, 0.5])])
    d = np.array([[0.5, -1.0], [1.0, 1.0]])
    e = np.array([-1.0, -0.5])
    oracle = RoundOracle(
        n=2, p=2, hess_f=A, hess_g=C,
        eval_f=tally("eval_f", lambda x: float(0.5 * x @ (A @ x) + b @ x)),
        subgrad_f=tally("subgrad_f", lambda x: A @ x + b),
        eval_g=tally("eval_g", lambda x: 0.5 * ((C @ x) @ x) + d @ x + e),
        jac_g=tally("jac_g", lambda x: C @ x + d))

    def no_fista(*args, **kwargs):
        raise AssertionError("fista called on a Newton-eligible subproblem")

    monkeypatch.setattr(malm_module, "fista", no_fista)
    model = make_model(oracle, np.zeros(2), PLAIN)
    for sigma, feasible in ((50.0, Box(np.full(2, -2.0), np.full(2, 0.5))),
                            (5.0, EuclideanBall(2.0, 2))):
        calls.clear()
        cfg = MalmConfig(alpha=1.0, sigma=sigma, T=1)
        lam = np.array([0.3, 2.0])
        x = solve_subproblem(model, np.zeros(2), lam, cfg, feasible)
        # at least one Newton step and one rejected Armijo trial
        assert calls["eval_f"] > calls["subgrad_f"] >= 2
        assert calls["eval_g"] == calls["eval_f"]
        assert calls["jac_g"] == calls["subgrad_f"]
        assert subproblem_residual(model, x, lam, cfg, feasible,
                                   np.zeros(2)) <= cfg.tol


def test_uncertified_newton_point_warm_starts_the_gradient_solver(monkeypatch):
    problem = generate_nra(3, 3, 5, seed=14)
    center = project(problem.set, np.full(problem.n, 20.0))
    lam = np.linspace(0.0, 3.0, problem.p)
    cfg = MalmConfig(alpha=1.0, sigma=0.8, T=1)
    model = make_model(problem.rounds[2], center, PLAIN)
    expected = solve_subproblem(model, center, lam, cfg, problem.set)

    corner = problem.set.upper.copy()
    starts = []

    def uncertified(*args, **kwargs):
        return corner, np.inf, None

    def spy(x0, *args, **kwargs):
        starts.append(np.array(x0))
        return fista(x0, *args, **kwargs)

    monkeypatch.setattr(malm_module, "_solve_newton", uncertified)
    monkeypatch.setattr(malm_module, "fista", spy)
    x = solve_subproblem(model, center, lam, cfg, problem.set)
    assert len(starts) == 1 and np.array_equal(starts[0], corner)
    assert subproblem_residual(model, x, lam, cfg, problem.set, center) <= cfg.tol
    assert np.max(np.abs(x - expected)) <= 1e-6


def test_truncated_malm_runs_without_the_gradient_solver(monkeypatch):
    # the inner problems of the truncated model's dual take the closed form
    # (one constraint) or projected Newton (box-like set)
    def no_fista(*args, **kwargs):
        raise AssertionError("fista called on a truncated-model subproblem")

    monkeypatch.setattr(malm_module, "fista", no_fista)
    for problem, alpha in ((generate_nra(3, 3, 30, seed=14), 1.0),
                           (generate_olr(4, 5, 30, 2.0, seed=1), 0.05)):
        cfg = MalmConfig(alpha=alpha, sigma=0.5, T=30, model_kind=TRUNCATED)
        traj = run_malm(problem, cfg)
        for t in range(30):
            assert contains(problem.set, traj.xs[t])


def _truncated_inner_models(monkeypatch):
    """(f_anchor, u bytes) of each inner linearized model, per round of a
    truncated olr run whose rounds all have their dual root inside (0, 1)."""
    rounds = []
    solve, solve_model = malm_module.solve_subproblem, malm_module._solve_model

    def round_started(model, *args):
        rounds.append([])
        return solve(model, *args)

    def recording(model, *args):
        rounds[-1].append((model.f_anchor, model.u.tobytes()))
        return solve_model(model, *args)

    monkeypatch.setattr(malm_module, "solve_subproblem", round_started)
    monkeypatch.setattr(malm_module, "_solve_model", recording)
    problem = generate_olr(5, 10, 20, 10.0, seed=0)
    run_malm(problem, MalmConfig(alpha=0.05, sigma=20 ** -0.5, T=20,
                                 model_kind=TRUNCATED))
    assert len(rounds) == 19  # rounds 0..T-2 inform a scored decision
    assert all(len(inner) > 2 for inner in rounds)  # no end of (0, 1) is optimal
    return rounds


def test_truncated_rounds_solve_each_dual_value_once(monkeypatch):
    # the scaled tangent plane (mu f, mu u) names mu, so no round may repeat one
    for inner in _truncated_inner_models(monkeypatch):
        assert len(set(inner)) == len(inner)


def test_truncated_rounds_find_the_dual_root_in_few_solves(monkeypatch):
    # the dual derivative is monotone, so Brent's method needs 4-9 inner
    # solves per round here; a bisection to width 1e-12 needs 28-33
    assert max(map(len, _truncated_inner_models(monkeypatch))) <= 15


# The truncated model's dual path, the plain model with an l1 constraint and
# the plain model on a Euclidean ball: certified, equal to a tight gradient
# solve at the dual value the path selected, and not beaten by feasible
# samples.

def _box_like(draw, n):
    if draw(st.booleans()):
        return Box(-draw(arrays(float, n, elements=_floats(0.1, 2.0))),
                   draw(arrays(float, n, elements=_floats(0.1, 2.0))))
    return _symmetric_box(draw, n, 2.0)


def _config(draw):
    return MalmConfig(alpha=draw(_floats(0.5, 5.0)),
                      sigma=draw(_floats(0.01, 5.0)), T=1)


@st.composite
def truncated_subproblems(draw):
    """A truncated model with one or more affine constraints on a box-like set."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    h = draw(arrays(float, n, elements=_floats(0.0, 3.0)))
    c = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    B = draw(arrays(float, (p, n), elements=_floats(-1.0, 1.0)))
    g0 = draw(arrays(float, p, elements=_floats(-2.0, 2.0)))
    feasible = _box_like(draw, n)
    points = arrays(float, n, elements=_floats(-3.0, 3.0))
    center = project(feasible, draw(points))
    # MALM anchors at the prox center; other anchors move the hinge's crease
    anchor = center if draw(st.booleans()) else project(feasible, draw(points))
    oracle = separable_quadratic_round(h, c, B, g0, f0=draw(_floats(-1.0, 4.0)))
    model = make_model(oracle, anchor, TRUNCATED)
    lam = draw(arrays(float, p, elements=_floats(0.0, 3.0)))
    return model, center, lam, _config(draw), feasible


def l1_round(h, c, offset):
    """f(x) = 0.5 h.(x*x) + c.x with g(x) = ||x||_1 + offset."""
    return RoundOracle(
        n=h.size, p=1,
        eval_f=lambda x: float(0.5 * h @ (x * x) + c @ x),
        subgrad_f=lambda x: h * x + c,
        eval_g=lambda x: np.array([np.abs(x).sum() + offset]),
        jac_g=lambda x: np.sign(x)[None, :],
        g_kind="l1")


def _any_box(draw, n):
    """A box around the origin, or one that may exclude it."""
    if draw(st.booleans()):
        return _box_like(draw, n)
    lower = draw(arrays(float, n, elements=_floats(-2.0, 2.0)))
    return Box(lower, lower + draw(arrays(float, n, elements=_floats(0.0, 2.0))))


@st.composite
def l1_subproblems(draw):
    """A plain model whose one constraint is ||x||_1 + offset, on a box."""
    n = draw(st.integers(1, 6))
    h = draw(arrays(float, n, elements=_floats(0.0, 3.0)))
    c = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    feasible = _any_box(draw, n)
    center = project(feasible, draw(arrays(float, n, elements=_floats(-3.0, 3.0))))
    model = make_model(l1_round(h, c, draw(_floats(-3.0, 1.0))), center, PLAIN)
    lam = draw(arrays(float, 1, elements=_floats(0.0, 3.0)))
    return model, center, lam, _config(draw), feasible


@st.composite
def ball_subproblems(draw):
    """A plain model with convex quadratic constraints on a Euclidean ball.

    Unless the draw is None, the round states its Hessians, a diagonal or a
    dense PSD loss Hessian and q_i I for constraint i, so the Newton path
    runs and hands a minimizer on the ball's boundary over to FISTA.
    """
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    h = draw(arrays(float, n, elements=_floats(0.0, 3.0)))
    M = draw(arrays(float, (n, n), elements=_floats(-1.0, 1.0)))
    hessians = draw(st.sampled_from(("diagonal", "dense", None, None)))
    H = M @ M.T if hessians == "dense" else np.diag(h)
    c = draw(arrays(float, n, elements=_floats(-3.0, 3.0)))
    q = draw(arrays(float, p, elements=_floats(0.0, 2.0)))
    B = draw(arrays(float, (p, n), elements=_floats(-1.0, 1.0)))
    g0 = draw(arrays(float, p, elements=_floats(-2.0, 2.0)))
    oracle = RoundOracle(
        n=n, p=p,
        eval_f=lambda x: float(0.5 * x @ (H @ x) + c @ x),
        subgrad_f=lambda x: H @ x + c,
        eval_g=lambda x: 0.5 * q * float(x @ x) + B @ x + g0,
        jac_g=lambda x: q[:, None] * x[None, :] + B,
        hess_f=None if hessians is None else h if hessians == "diagonal" else H,
        hess_g=None if hessians is None else q[:, None, None] * np.eye(n))
    feasible = EuclideanBall(draw(_floats(0.1, 3.0)), n)
    center = project(feasible, draw(arrays(float, n, elements=_floats(-3.0, 3.0))))
    model = make_model(oracle, center, PLAIN)
    lam = draw(arrays(float, p, elements=_floats(0.0, 3.0)))
    return model, center, lam, _config(draw), feasible


def _solve_recording_dual(model, center, lam, cfg, feasible):
    """solve_subproblem's point and the tangent slope mu * u of the dual
    value it selected: the scaled u of the last inner linearized model."""
    inner = []
    solve_model = malm_module._solve_model

    def recording(m, *args):
        assert m.kind == LINEARIZED
        inner.append(m)
        return solve_model(m, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(malm_module, "_solve_model", recording)
        x = solve_subproblem(model, center, lam, cfg, feasible)
    return x, inner[-1].u


def _matches_tight_solve(x, center, smooth_grad, prox, tol):
    """x passes the prox-gradient residual check at tol and lies within 1e-7
    of a tol-1e-12 FISTA solve of the same smooth-plus-prox problem."""
    assert np.linalg.norm(x - prox(x - smooth_grad(x), 1.0)) <= tol
    x_ref, res_ref, _ = fista(center, smooth_grad, prox, tol=1e-12,
                              max_iters=100_000, raise_on_fail=False)
    assert res_ref <= 1e-10
    assert np.max(np.abs(x - x_ref)) <= 1e-7


def _no_sampled_point_is_better(model, x, lam, cfg, feasible, center):
    def value(y):
        return subproblem_objective(model, y, lam, cfg.alpha, cfg.sigma, center)

    rng = np.random.default_rng(0)
    near = [project(feasible, x + 1e-3 * rng.normal(size=x.size))
            for _ in range(50)]
    best = value(x)
    for y in [*sample_in(feasible, rng, 100), *near]:
        assert best <= value(y) + 1e-9 * (1.0 + abs(best))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(truncated_subproblems())
def test_truncated_subproblems_match_a_tight_solve_at_the_selected_dual(case):
    model, center, lam, cfg, feasible = case
    x, scaled_u = _solve_recording_dual(*case)

    def grad(y):
        shifted = np.maximum(lam + cfg.sigma * model.eval_G(y), 0.0)
        return scaled_u + model.V.T @ shifted + cfg.alpha * (y - center)

    _matches_tight_solve(x, center, grad, lambda z, step: project(feasible, z),
                         cfg.tol)
    _no_sampled_point_is_better(model, x, lam, cfg, feasible, center)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(l1_subproblems())
def test_l1_subproblems_match_a_tight_solve_at_the_selected_dual(case):
    model, center, lam, cfg, feasible = case
    x = solve_subproblem(*case)
    # the penalty's weight at x, which the exact prox uses as its threshold
    mu = max(lam[0] + cfg.sigma * float(model.eval_G(x)[0]), 0.0)

    def grad(y):
        return model.oracle.subgrad_f(y) + cfg.alpha * (y - center)

    def prox(z, step):
        soft = np.sign(z) * np.maximum(np.abs(z) - step * mu, 0.0)
        return np.clip(soft, feasible.lower, feasible.upper)

    # the certified residual is taken at the threshold of the prox's own
    # output u, with ||u - x|| <= tol: the two thresholds differ by at most
    # sigma sqrt(n) tol, which moves the fixed-threshold prox by sigma n tol
    _matches_tight_solve(x, center, grad, prox,
                         cfg.tol * (1.0 + cfg.sigma * x.size))
    _no_sampled_point_is_better(model, x, lam, cfg, feasible, center)


@st.composite
def l1_prox_inputs(draw):
    """A point, stepsize and the l1 penalty's data on a box."""
    n = draw(st.integers(1, 6))
    z = draw(arrays(float, n, elements=_floats(-4.0, 4.0)))
    oracle = l1_round(np.zeros(n), np.zeros(n), draw(_floats(-3.0, 1.0)))
    feasible = _any_box(draw, n)
    model = make_model(oracle, np.zeros(n), PLAIN)
    lam = draw(arrays(float, 1, elements=_floats(0.0, 3.0)))
    return z, draw(_floats(0.01, 5.0)), model, lam, _config(draw), feasible


@settings(max_examples=150, deadline=None, derandomize=True)
@given(l1_prox_inputs())
def test_l1_prox_is_exact(case):
    z, step, model, lam, cfg, feasible = case
    _, prox = _plain_l1_parts(model, np.zeros(z.size), lam, cfg, feasible)
    u = prox(z, step)
    assert np.all(u >= feasible.lower) and np.all(u <= feasible.upper)

    def weight(y):
        return max(lam[0] + cfg.sigma * float(model.eval_G(y)[0]), 0.0)

    def penalty(y):
        return weight(y) ** 2 / (2.0 * cfg.sigma)

    # the threshold is a fixed point: step * [lam + sigma g(u)]_+
    # soft-thresholds and clamps z back to u
    kappa = step * weight(u)
    soft = np.sign(z) * np.maximum(np.abs(z) - kappa, 0.0)
    assert np.max(np.abs(np.clip(soft, feasible.lower, feasible.upper) - u)) \
        <= 1e-9 * (1.0 + kappa)

    def value(y):
        return step * penalty(y) + 0.5 * float((y - z) @ (y - z))

    best = value(u)
    rng = np.random.default_rng(0)
    near = [project(feasible, u + 1e-3 * rng.normal(size=u.size))
            for _ in range(50)]
    for y in [*sample_in(feasible, rng, 100), *near]:
        assert best <= value(y) + 1e-12 * (1.0 + abs(best))


def test_l1_subproblem_is_one_certified_gradient_solve(monkeypatch):
    # f = x^2/2, g = |x|, prox center 1, lam = 1, alpha = sigma = 1 on
    # [-1, 1]: the optimum is 0, where the hinge weight 1 times the
    # subgradient 1 of |x| cancels the prox term's slope -1.  A FISTA solve
    # at a fixed dual value near 1 stalls above tol/4 on this case.
    solves = []

    def spy(*args, **kwargs):
        out = fista(*args, **kwargs)
        solves.append(out)
        return out

    monkeypatch.setattr(malm_module, "fista", spy)
    model = make_model(l1_round(np.ones(1), np.zeros(1), 0.0), np.ones(1), PLAIN)
    x = solve_subproblem(model, np.ones(1), np.ones(1),
                         MalmConfig(alpha=1.0, sigma=1.0, T=1),
                         Box(np.full(1, -1.0), np.full(1, 1.0)))
    assert len(solves) == 1 and solves[0][1] <= 1e-9
    assert abs(x[0]) <= 1e-12

    problem = generate_olr(4, 5, 15, 2.0, seed=1)
    solves.clear()
    run_malm(problem, MalmConfig(alpha=2.0, sigma=0.5, T=15))
    assert len(solves) == 14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ball_subproblems())
def test_ball_subproblems_match_a_tight_gradient_solve(case):
    model, center, lam, cfg, feasible = case
    x = _matches_tight_gradient_solve(*case)
    _no_sampled_point_is_better(model, x, lam, cfg, feasible, center)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(closed_form_subproblems(), newton_subproblems(),
                 ball_subproblems(), truncated_subproblems(), l1_subproblems()))
def test_handed_back_shift_gives_the_same_multiplier_bits(case):
    # every path, FISTA with the l1 prox and the truncated model's root
    # included, hands back lam + sigma G(x) at its own point, bit for bit
    model, center, lam, cfg, feasible = case
    record = {}
    x = solve_subproblem(model, center, lam, cfg, feasible, record)
    assert np.array_equal(x, solve_subproblem(model, center, lam, cfg, feasible))
    assert record["path"] in ("closed_form", "newton", "fista", TRUNCATED)
    assert np.array_equal(record["shift"], lam + cfg.sigma * model.eval_G(x))
    assert np.array_equal(multiplier_update(lam, model, x, cfg.sigma,
                                            record["shift"]),
                          multiplier_update(lam, model, x, cfg.sigma))


# (preset, T, seeds, overrides): grids on which every MALM round takes the
# closed form (olr) or Newton (nra, oqcqp with its five delays), and
# truncated runs whose inner solves take them and hand back their shift
_TRUNCATED = {"malm_model": TRUNCATED, "malm_alpha": None, "malm_sigma": None}


@pytest.mark.parametrize("preset, T, seeds, overrides", [
    ("olr-paper", 2000, (0,), {}),
    ("nra-paper", 150, (0,), {}),
    ("oqcqp-paper", 120, (0, 1, 2, 3), {}),
    ("olr-paper", 300, (0,), dict(_TRUNCATED, malm_alpha=0.05)),
    ("nra-paper", 120, (0,), _TRUNCATED),
], ids=["olr", "nra", "oqcqp", "olr-truncated", "nra-truncated"])
def test_malm_evaluates_g_once_fewer_per_round_with_the_shift(monkeypatch, preset,
                                                              T, seeds, overrides):
    if preset == "olr-paper" or overrides:
        pytest.importorskip("scipy")
    config = replace(PRESETS[preset], T=T, seeds=seeds, algos=("malm",),
                     **overrides)
    calls = Counter()
    eval_G = ModelAt.eval_G

    def counted(self, x):
        calls["eval_G"] += 1
        return eval_G(self, x)

    def run():
        calls.clear()
        trajectories = [run_cell(config, generate_problem(config, seed),
                                 "malm", tau)
                        for seed in seeds for tau in config.taus]
        return trajectories, calls["eval_G"]

    monkeypatch.setattr(ModelAt, "eval_G", counted)
    handed_back, with_shift = run()
    update = malm_module.multiplier_update
    monkeypatch.setattr(malm_module, "multiplier_update",
                        lambda lam, model, x, sigma, shift=None:
                        update(lam, model, x, sigma))
    evaluated, without_shift = run()
    rounds = len(seeds) * sum(T - tau - 1 for tau in config.taus)
    assert without_shift - with_shift == rounds
    for a, b in zip(handed_back, evaluated):
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.lambdas, b.lambdas)


@pytest.mark.parametrize("preset, T, alpha", [
    ("olr-paper", 300, 0.05),
    ("nra-paper", 120, None),
], ids=["olr-truncated", "nra-truncated"])
def test_truncated_rounds_make_one_public_solve_each(monkeypatch, preset, T,
                                                    alpha):
    # the dual root search solves its inner problems privately, so a tracer
    # that wraps the public name, as bench/tracing.py does, sees one call
    # per round
    pytest.importorskip("scipy")
    config = replace(PRESETS[preset], T=T, seeds=(0,), algos=("malm",),
                     **dict(_TRUNCATED, malm_alpha=alpha))
    calls = Counter()
    solve = malm_module.solve_subproblem

    def traced(*args, **kwargs):
        calls["solve_subproblem"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(malm_module, "solve_subproblem", traced)
    run_cell(config, generate_problem(config, 0), "malm", 0)
    assert calls["solve_subproblem"] == T - 1
