import numpy as np
import pytest

from ocobench import (BaselineConfig, Box,
                      UnsupportedProblemError, cl_step, czp_step,
                      generate_nra, generate_oqcqp, mosp_step, ny_step,
                      paper_baseline_config, project, run_baseline)

from helpers import affine_round, contains

SEG = Box(np.array([-2.0]), np.array([2.0]))
LINE = affine_round([1.0], 0.0, [[1.0]], [-1.0])  # f = x, g = x - 1


def test_mosp_step_hand_case():
    x, lam = mosp_step(np.zeros(1), np.array([2.0]), LINE, SEG,
                       alpha=0.1, mu=0.1)
    assert x[0] == pytest.approx(-0.3)
    # dual step sees the constraint at the updated decision
    assert lam[0] == pytest.approx(1.87)


def test_cl_step_hand_case():
    x, lam = cl_step(np.zeros(1), np.array([1.0]), LINE, SEG,
                     eta=0.5, delta=0.01)
    assert x[0] == pytest.approx(-1.0)
    # dual step sees the constraint at the pre-update decision
    assert lam[0] == pytest.approx(0.4975)


def test_ny_step_hand_case():
    x, lam = ny_step(np.zeros(1), np.zeros(1), LINE, SEG, alpha=1.0, nu=1.0)
    assert x[0] == pytest.approx(-0.5)
    assert lam[0] == pytest.approx(0.0)


def test_czp_step_hand_case():
    x, lam = czp_step(np.array([0.5]), np.array([1.0]),
                      np.zeros(1), np.array([1.0]),
                      LINE, SEG, eta=0.1, delta=10.0)
    assert x[0] == pytest.approx(0.3)
    assert lam[0] == pytest.approx(0.8)


def test_czp_with_current_state_matches_cl():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, lam = project(SEG, rng.normal(size=1)), np.abs(rng.normal(size=1))
        a = cl_step(x, lam, LINE, SEG, eta=0.3, delta=0.5)
        b = czp_step(x, lam, x, lam, LINE, SEG, eta=0.3, delta=0.5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_ny_delayed_with_current_state_matches_undelayed():
    # with linear constraints the delayed dual linearization is exact
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, lam = project(SEG, rng.normal(size=1)), np.abs(rng.normal(size=1))
        a = ny_step(x, lam, LINE, SEG, alpha=2.0, nu=1.5)
        b = ny_step(x, lam, LINE, SEG, alpha=2.0, nu=1.5, x_old=x, lam_old=lam)
        assert np.allclose(a[0], b[0], atol=1e-14)
        assert np.allclose(a[1], b[1], atol=1e-14)


def test_mosp_rejects_nonlinear_constraints():
    problem = generate_oqcqp(4, 2, 3.0, 10, seed=1)
    with pytest.raises(UnsupportedProblemError):
        mosp_step(np.zeros(4), np.zeros(2), problem.rounds[0], problem.set,
                  alpha=0.1, mu=0.1)


def test_paper_baseline_config_values():
    # the published schedules, with scale = max(tau, 1) T
    T = 1000
    step = float(T) ** (-1.0 / 3.0)
    assert paper_baseline_config("mosp", T).stepsizes == (step, step)
    assert paper_baseline_config("cl", T).stepsizes == (2.0 * T ** (-0.5), 0.01)
    for tau in (0, 1, 3):
        scale = float(max(tau, 1) * T)
        ny, czp = (paper_baseline_config(algo, T, tau).stepsizes
                   for algo in ("ny", "czp"))
        assert ny == (scale, scale ** 0.5)
        assert czp == (scale ** (-0.5), 10.0)
    assert paper_baseline_config("ny", T, 3).stepsizes == (3000.0, 3000.0 ** 0.5)
    with pytest.raises(ValueError):
        paper_baseline_config("ogd", T)


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig("cl", T=5, tau=5)
    with pytest.raises(ValueError):
        BaselineConfig("cl", T=5, tau=-1)
    with pytest.raises(ValueError, match="unknown baseline"):
        BaselineConfig("ogd", T=5)
    for kwargs in ({"T": 5.5}, {"T": 5, "tau": 1.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            BaselineConfig("ny", **kwargs)
    assert BaselineConfig("ny", T=np.int64(5), tau=np.int32(1)).stepsizes


def test_run_baseline_rejects_delay_for_undelayed_algos():
    # refused when the config is built, so run_baseline never starts
    for algo in ("mosp", "cl"):
        with pytest.raises(UnsupportedProblemError, match="no delayed variant"):
            BaselineConfig(algo, T=10, tau=2)
        with pytest.raises(UnsupportedProblemError, match="no delayed variant"):
            paper_baseline_config(algo, 10, tau=2)


@pytest.mark.parametrize("algo,tau", [("mosp", 0), ("cl", 0), ("ny", 0),
                                      ("ny", 3), ("czp", 0), ("czp", 3)])
def test_run_baseline_schedule_and_feasibility(algo, tau):
    problem = generate_nra(3, 3, 40, seed=14)
    traj = run_baseline(problem, paper_baseline_config(algo, 40, tau=tau))
    x0 = project(problem.set, np.zeros(problem.n))
    assert traj.xs.shape == (40, problem.n)
    assert traj.lambdas.shape == (40, problem.p)
    assert traj.tau == tau
    for t in range(tau + 1):
        assert np.array_equal(traj.xs[t], x0)
    assert np.all(traj.lambdas >= 0)
    assert np.all(traj.lambdas[: tau + 1] == 0)
    for t in range(40):
        assert contains(problem.set, traj.xs[t])


def test_run_baseline_deterministic():
    problem = generate_nra(3, 3, 30, seed=14)
    cfg = paper_baseline_config("czp", 30, tau=2)
    a = run_baseline(problem, cfg)
    b = run_baseline(problem, cfg)
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.lambdas, b.lambdas)
