from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ocobench import (Box, ConvergenceError, EuclideanBall, SupNormBall,
                      Trajectory, contains, diameter, project, project_psd)
from ocobench.core import run_schedule

BOX = Box(np.array([-1.0, 0.0, -2.0, 0.5]), np.array([1.0, 3.0, -1.0, 0.5]))
BALL = EuclideanBall(2.5, 4)
SUP = SupNormBall(1.5, 4)

finite_vec = hnp.arrays(np.float64, (4,),
                        elements=st.floats(-50, 50, allow_nan=False))


def test_project_box_clamp():
    out = project(Box(np.zeros(2), np.ones(2)), np.array([-1.0, 2.0]))
    assert np.array_equal(out, [0.0, 1.0])


def test_project_ball_radial_scaling():
    x = np.array([12.0, -16.0])
    out = project(EuclideanBall(10.0, 2), x)
    assert np.allclose(out, 0.5 * x)
    assert np.isclose(np.linalg.norm(out), 10.0)


def test_project_supnorm_clamp():
    out = project(SupNormBall(1.0, 2), np.array([0.5, -3.0]))
    assert np.array_equal(out, [0.5, -1.0])


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(BALL, np.zeros(3))
    with pytest.raises(ValueError):
        project(BOX, np.zeros(2))


def test_diameter_values():
    assert diameter(Box(np.zeros(2), np.array([3.0, 4.0]))) == 5.0
    assert diameter(EuclideanBall(10.0, 7)) == 20.0
    assert diameter(SupNormBall(1.0, 4)) == 4.0


def test_contains():
    assert contains(BOX, project(BOX, np.full(4, 9.0)))
    assert not contains(BALL, np.full(4, 9.0))


@pytest.mark.parametrize("feasible_set", [BOX, BALL, SUP])
@given(x=finite_vec, y=finite_vec)
@settings(max_examples=40, deadline=None)
def test_projection_properties(feasible_set, x, y):
    px = project(feasible_set, x)
    # idempotent: exact for the clamping sets, one rescale ulp for the ball
    if isinstance(feasible_set, EuclideanBall):
        assert np.allclose(project(feasible_set, px), px, atol=1e-12)
    else:
        assert np.array_equal(project(feasible_set, px), px)
    # nonexpansive
    py = project(feasible_set, y)
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12
    # no feasible point is closer than the projection
    z = project(feasible_set, 0.5 * (x + y))
    assert np.linalg.norm(px - x) <= np.linalg.norm(z - x) + 1e-12


def test_project_psd_diag_clamp():
    out = project_psd(np.diag([1.0, -2.0]))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_project_psd_fixed_point():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    psd = a @ a.T
    assert np.allclose(project_psd(psd), psd, atol=1e-12)


def test_project_psd_hand_2x2():
    # eigenvalues +-1; clamping -1 leaves 0.5 * ones
    out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_project_psd_min_eigenvalue():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.normal(size=(4, 4))
        vals = np.linalg.eigvalsh(project_psd(m))
        assert vals.min() >= -1e-10


def test_project_psd_rejects_nonsquare():
    with pytest.raises(ValueError):
        project_psd(np.zeros((2, 3)))


def _nearest_psd_2x2_grid(target):
    """Refined grid search over PSD [[a, c], [c, b]] down to ~1e-6."""
    best = (np.inf, None)
    lo = np.array([-3.0, -3.0, -3.0])
    hi = np.array([3.0, 3.0, 3.0])
    for _ in range(6):
        axes = [np.linspace(lo[i], hi[i], 21) for i in range(3)]
        aa, bb, cc = np.meshgrid(*axes, indexing="ij")
        ok = (aa >= 0) & (bb >= 0) & (aa * bb >= cc * cc)
        dist = ((aa - target[0, 0]) ** 2 + (bb - target[1, 1]) ** 2
                + 2 * (cc - target[0, 1]) ** 2)
        dist = np.where(ok, dist, np.inf)
        idx = np.unravel_index(np.argmin(dist), dist.shape)
        center = np.array([aa[idx], bb[idx], cc[idx]])
        best = (dist[idx], center)
        step = (hi - lo) / 20.0
        lo, hi = center - step, center + step
    a, b, c = best[1]
    return np.array([[a, c], [c, b]])


def test_project_psd_beats_brute_force_candidates():
    # the grid search pins the optimal distance to ~1e-7 even though its
    # argmin drifts along the flat PSD boundary, so compare distances only
    rng = np.random.default_rng(5)
    for _ in range(4):
        m = rng.uniform(-2, 2, size=(2, 2))
        m = 0.5 * (m + m.T)
        got = project_psd(m)
        ref = _nearest_psd_2x2_grid(m)
        assert (np.linalg.norm(got - m, "fro")
                <= np.linalg.norm(ref - m, "fro") + 1e-6)


def test_project_psd_constructed_spectra():
    # rotate a known diag spectrum; projection must clamp it in place
    rng = np.random.default_rng(9)
    for angle in rng.uniform(0.0, np.pi, 5):
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        m = R @ np.diag([2.0, -1.0]) @ R.T
        want = R @ np.diag([2.0, 0.0]) @ R.T
        assert np.allclose(project_psd(m), want, atol=1e-12)


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        EuclideanBall(-1.0, 3)
    with pytest.raises(ValueError):
        SupNormBall(0.0, 3)


def test_trajectory_T():
    traj = Trajectory(xs=np.zeros((7, 2)), lambdas=np.zeros((8, 1)))
    assert traj.T == 7


def test_convergence_error_fields():
    err = ConvergenceError("stalled", residual=0.5, iterations=9, round_index=3)
    assert err.residual == 0.5 and err.iterations == 9 and err.round_index == 3


def test_run_schedule_names_the_failing_round():
    problem = SimpleNamespace(n=1, p=1, rounds=tuple(range(6)))

    def step(t, oracle, xs, lambdas):
        if oracle == 2:
            raise ConvergenceError("stalled")
        return xs[t] + 1.0, lambdas[t]

    with pytest.raises(ConvergenceError) as exc:
        run_schedule(problem, T=5, tau=1, x0=np.zeros(1), step=step)
    assert exc.value.round_index == 2

    traj = run_schedule(SimpleNamespace(n=1, p=1, rounds=(0, 1, 3, 4)), T=4,
                        tau=1, x0=np.zeros(1), step=step)
    assert traj.xs[:, 0].tolist() == [0.0, 0.0, 1.0, 2.0]
    assert traj.lambdas.shape == (6, 1) and traj.tau == 1


def test_public_api_names_resolve_once():
    import ocobench

    names = ocobench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ocobench, name)]
    assert missing == []
