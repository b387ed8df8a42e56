import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ocobench.malm as malm_module
from ocobench import (LINEARIZED, PLAIN, QUADRATIC_LINEARIZED, TRUNCATED, Box,
                      ConvergenceError, EuclideanBall, MalmConfig,
                      RoundOracle, SupNormBall, aug_lagrangian,
                      closed_form_linearized_p1, contains, generate_nra,
                      generate_olr, generate_oqcqp, make_model,
                      multiplier_update, project, run_malm, solve_comparator,
                      solve_subproblem, subproblem_objective)
from ocobench._apg import fista
from ocobench.malm import _box_bounds, _smooth_grad

from helpers import affine_round, generic_problem, quad_round, run_malm_no_delay


def constant_round(value_f, value_g):
    return RoundOracle(
        t=0, n=1, p=1,
        eval_f=lambda x: float(value_f),
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x: np.array([float(value_g)]),
        jac_g=lambda x: np.zeros((1, 1)),
        linear_g=True)


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
        aug_lagrangian(m, np.zeros(1), np.zeros(1), 0.0)


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
        t=0, n=1, p=2,
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
            t=0, n=1, p=3,
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


def subproblem_residual(model, x, lam, cfg, feasible_set, center):
    shifted = np.maximum(lam + cfg.sigma * model.eval_G(x), 0.0)
    grad = (np.asarray(model.subgrad_F(x), float) + model.jac_G(x).T @ shifted
            + cfg.alpha * (x - center))
    return float(np.linalg.norm(x - project(feasible_set, x - grad)))


def _matches_tight_gradient_solve(model, center, lam, cfg, feasible):
    """The solver's point is certified and within 1e-7 of a tol-1e-12 FISTA
    solve; returns it."""
    x = solve_subproblem(model, center, lam, cfg, feasible)
    assert subproblem_residual(model, x, lam, cfg, feasible, center) <= cfg.tol
    grad = _smooth_grad(model, center, lam, cfg.alpha, cfg.sigma)
    x_ref, res_ref, _ = fista(center, grad, lambda z, step: project(feasible, z),
                              tol=1e-12, max_iters=100_000, raise_on_fail=False)
    assert res_ref <= 1e-10
    assert np.max(np.abs(x - x_ref)) <= 1e-7
    return x


def test_solve_subproblem_1d_plain_hand_case():
    oracle = affine_round(0, [1.0], 0.0, [[1.0]], [-1.0])
    feasible = Box(np.array([-2.0]), np.array([2.0]))
    cfg = MalmConfig(alpha=1.0, sigma=1.0, T=1)
    m = make_model(oracle, np.zeros(1), PLAIN)
    x_next = solve_subproblem(m, np.zeros(1), np.zeros(1), cfg, feasible)
    assert abs(x_next[0] + 1.0) <= 1e-8
    lam_next = multiplier_update(np.zeros(1), m, x_next, 1.0)
    assert np.array_equal(lam_next, [0.0])


def test_solve_subproblem_prox_dominates_at_tiny_sigma():
    oracle = RoundOracle(
        t=0, n=1, p=1,
        eval_f=lambda x: 5.0,
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x: np.array([x[0] - 1.0]),
        jac_g=lambda x: np.array([[1.0]]),
        linear_g=True)
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
        oracle = affine_round(0, u, float(rng.normal()), B, g0)
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


def test_run_malm_initialization_and_feasibility():
    problem = generate_oqcqp(4, 2, 3.0, 30, seed=5)
    cfg = MalmConfig(alpha=3.0, sigma=0.5, T=30, tau=3)
    traj = run_malm(problem, cfg)
    x0 = project(problem.set, np.zeros(4))
    assert traj.xs.shape == (30, 4)
    assert traj.lambdas.shape == (3 + 30 + 1, 2)
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
    problem = generate_oqcqp(4, 2, 3.0, 10, seed=5)
    cfg = MalmConfig(alpha=1.0, sigma=0.5, T=10, tol=1e-16, max_iters=2)
    with pytest.raises(ConvergenceError) as exc:
        run_malm(problem, cfg)
    assert exc.value.round_index == 0
    assert exc.value.residual > 0


# Newton path: separable quadratic F and affine G over a box-like set.

def separable_quadratic_round(h, c, B, g0):
    """f(x) = 0.5 h.(x*x) + c.x with Hessian diagonal h; g(x) = B x + g0."""
    return RoundOracle(
        t=0, n=h.size, p=g0.size,
        eval_f=lambda x: float(0.5 * h @ (x * x) + c @ x),
        subgrad_f=lambda x: h * x + c,
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        linear_g=True, hess_diag=h)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False,
                     allow_subnormal=False)


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
        feasible = SupNormBall(draw(_floats(0.1, 2.0)), n)
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
    other = other_lam[: model.p]
    assert np.linalg.norm(multiplier_update(other, model, x, cfg.sigma) - lam_next) \
        <= np.linalg.norm(other - lam) + 1e-12


@st.composite
def closed_form_subproblems(draw):
    """A linearized model with one constraint, on a box, sup-norm or
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
        feasible = SupNormBall(draw(_floats(0.1, 3.0)), n)
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
        lower, upper = _box_bounds(feasible, x.size)
        inside = np.all(x > lower + margin) and np.all(x < upper - margin)
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
        return corner, np.inf

    def spy(x0, *args, **kwargs):
        starts.append(np.array(x0))
        return fista(x0, *args, **kwargs)

    monkeypatch.setattr(malm_module, "_solve_newton", uncertified)
    monkeypatch.setattr(malm_module, "fista", spy)
    x = solve_subproblem(model, center, lam, cfg, problem.set)
    assert len(starts) == 1 and np.array_equal(starts[0], corner)
    assert subproblem_residual(model, x, lam, cfg, problem.set, center) <= cfg.tol
    assert np.max(np.abs(x - expected)) <= 1e-6
