import math

import numpy as np
import pytest

from ocobench import (Box, MalmConfig, ProblemConstants, RoundOracle,
                      Trajectory, full_series, generate_oqcqp, min_psi_bound,
                      multiplier_bound_holds, psi_bound, run_malm,
                      solve_comparator)
from ocobench.metrics import psi_from_kappas, psi_kappas

from helpers import affine_round, generic_problem

SEG = Box(np.array([-5.0]), np.array([5.0]))


def constant_g_round(t, g_values):
    g = np.asarray(g_values, dtype=float)
    return RoundOracle(
        t=t, n=1, p=g.size,
        eval_f=lambda x: 0.0,
        subgrad_f=lambda x: np.zeros(1),
        eval_g=lambda x, _g=g: _g.copy(),
        jac_g=lambda x, _p=g.size: np.zeros((_p, 1)))


def test_regret_series_hand_case():
    rounds = [affine_round(t, [1.0], 0.0, [[1.0]], [0.0]) for t in range(2)]
    prob = generic_problem(rounds, SEG, 1)
    traj = Trajectory(xs=np.array([[2.0], [1.5]]), lambdas=np.zeros((3, 1)))
    out = full_series(traj, prob, np.array([1.0]))
    assert np.allclose(out.cum_regret, [1.0, 1.5])
    assert np.allclose(out.avg_regret, [1.0, 0.75])


def test_regret_is_zero_on_the_comparator():
    rounds = [affine_round(t, [2.0], 1.0, [[1.0]], [0.0]) for t in range(4)]
    prob = generic_problem(rounds, SEG, 1)
    xs = np.full((4, 1), 0.7)
    traj = Trajectory(xs=xs, lambdas=np.zeros((5, 1)))
    out = full_series(traj, prob, np.array([0.7]))
    assert np.array_equal(out.cum_regret, np.zeros(4))


def test_violation_series_hand_case():
    rounds = [constant_g_round(0, [1.0, -1.0]), constant_g_round(1, [-3.0, 2.0])]
    prob = generic_problem(rounds, SEG, 1)
    traj = Trajectory(xs=np.zeros((2, 1)), lambdas=np.zeros((3, 2)))
    out = full_series(traj, prob, np.zeros(1))
    assert np.allclose(out.cum_vio, [[1.0, -1.0], [-2.0, 1.0]])
    assert np.allclose(out.avg_vio_max, [1.0, 0.5])
    # hinge kills the satisfied component before the norm
    assert np.allclose(out.vio_d, [1.0, 1.0])


def test_violation_series_identities_on_random_data():
    rng = np.random.default_rng(6)
    per = rng.normal(size=(12, 3))
    rounds = [constant_g_round(t, per[t]) for t in range(12)]
    prob = generic_problem(rounds, SEG, 1)
    traj = Trajectory(xs=np.zeros((12, 1)), lambdas=np.zeros((13, 3)))
    out = full_series(traj, prob, np.zeros(1))
    cum = np.cumsum(per, axis=0)
    assert np.allclose(out.cum_vio, cum, atol=1e-12)
    for t in range(12):
        assert out.vio_d[t] == pytest.approx(
            np.linalg.norm(np.maximum(cum[t], 0.0)))
        assert out.avg_vio_max[t] == pytest.approx(cum[t].max() / (t + 1))


def test_always_feasible_play_has_no_violation():
    rounds = [constant_g_round(t, [-1.0]) for t in range(6)]
    prob = generic_problem(rounds, SEG, 1)
    traj = Trajectory(xs=np.zeros((6, 1)), lambdas=np.zeros((7, 1)))
    out = full_series(traj, prob, np.zeros(1))
    assert np.all(out.vio_d == 0)
    assert np.all(out.avg_vio_max <= 0)


def test_full_series_matches_direct_recomputation():
    prob = generate_oqcqp(4, 2, 3.0, 25, seed=1)
    traj = run_malm(prob, MalmConfig(alpha=2.0, sigma=0.5, T=25))
    x_star = solve_comparator(prob, 1e-8)
    out = full_series(traj, prob, x_star)
    per = np.array([prob.rounds[t].eval_f(traj.xs[t])
                    - prob.rounds[t].eval_f(x_star) for t in range(25)])
    assert np.allclose(out.cum_regret, np.cumsum(per), atol=1e-12)
    assert out.lambda_norm.shape == (25,)
    assert np.array_equal(out.lambda_norm,
                          np.linalg.norm(traj.lambdas[:25], axis=1))


UNIT_CONSTANTS = ProblemConstants(D=1.0, kappa_f=1.0, kappa_g=1.0, nu_g=1.0,
                                  eps0=1.0, slater_point=np.zeros(1))


def test_bound_coefficients_frozen_values():
    k0, k1, k2, k3 = psi_kappas(UNIT_CONSTANTS)
    assert k0 == 4.0 and k1 == 1.0 and k2 == 0.0
    # 2 + 1/2 + 8 ln 32
    assert k3 == pytest.approx(30.225887222397812, abs=1e-12)


def test_bound_from_unit_coefficients():
    assert psi_from_kappas(1.0, 1.0, 1.0, 1.0, sigma=1.0, alpha=1.0,
                           tau=0, s=1) == pytest.approx(4.0)


def test_bound_rejects_bad_inputs():
    bad = ProblemConstants(D=1.0, kappa_f=1.0, kappa_g=1.0, nu_g=1.0,
                           eps0=0.0, slater_point=np.zeros(1))
    with pytest.raises(ValueError):
        psi_kappas(bad)
    with pytest.raises(ValueError):
        psi_bound(UNIT_CONSTANTS, 1.0, 1.0, 0, 0)


def test_bound_refuses_nu_g_below_slater_margin():
    # k2 = nu_g^2/eps0 - nu_g < 0; refused even when asserts are stripped
    low = ProblemConstants(D=1.0, kappa_f=1.0, kappa_g=1.0, nu_g=0.5,
                           eps0=1.0, slater_point=np.zeros(1))
    with pytest.raises(ValueError, match="nu_g"):
        psi_kappas(low)


def test_bound_coefficient_k2_nonnegative_on_generators():
    prob = generate_oqcqp(5, 2, 4.0, 10, seed=1)
    _, _, k2, _ = psi_kappas(prob.constants)
    assert k2 >= 0


def test_bound_monotone_in_alpha():
    lo = psi_bound(UNIT_CONSTANTS, 0.5, 1.0, 2, 7)
    hi = psi_bound(UNIT_CONSTANTS, 0.5, 4.0, 2, 7)
    assert hi > lo


def test_min_bound_matches_brute_force_window_scan():
    for tau, T in ((0, 100), (3, 57), (10, 400)):
        s_max = 2 * math.ceil(math.sqrt(T * (tau + 1)))
        brute = min(psi_bound(UNIT_CONSTANTS, 0.7, 2.0, tau, s)
                    for s in range(1, s_max + 1))
        assert min_psi_bound(UNIT_CONSTANTS, 0.7, 2.0, tau, T) \
            == pytest.approx(brute, rel=1e-15)


def test_multiplier_bound_check_on_real_and_fabricated_runs():
    prob = generate_oqcqp(4, 2, 3.0, 30, seed=1)
    cfg = MalmConfig(alpha=np.sqrt(30.0), sigma=1.0 / np.sqrt(30.0), T=30)
    traj = run_malm(prob, cfg)
    assert multiplier_bound_holds(traj, prob.constants, cfg.sigma, cfg.alpha)
    runaway = Trajectory(xs=traj.xs, lambdas=np.full((31, 2), 1e15))
    assert not multiplier_bound_holds(runaway, prob.constants,
                                      cfg.sigma, cfg.alpha)


def test_windowed_telescoping_inequality():
    # the combinatorial fact behind the bound: for nonnegative w,
    # sum_{l<s} (w_{t-tau+l} - w_{t+l+1}) <= (tau+1) max w
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = np.abs(rng.normal(size=80))
        tau = int(rng.integers(0, 6))
        t = int(rng.integers(tau, 40))
        s = int(rng.integers(1, 39))
        lhs = sum(w[t - tau + l] - w[t + l + 1] for l in range(s))
        assert lhs <= (tau + 1) * w.max() + 1e-12
