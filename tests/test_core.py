from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ocobench import (BaselineConfig, Box, ConvergenceError, EuclideanBall,
                      MalmConfig, RoundOracle, Trajectory, generate_oqcqp,
                      project, project_psd, run_baseline, run_malm)
from ocobench.core import _sorted_unique, run_schedule

from helpers import contains

BOX = Box(np.array([-1.0, 0.0, -2.0, 0.5]), np.array([1.0, 3.0, -1.0, 0.5]))
BALL = EuclideanBall(2.5, 4)
SUP = Box(np.full(4, -1.5), np.full(4, 1.5))

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
    out = project(Box(np.full(2, -1.0), np.full(2, 1.0)), np.array([0.5, -3.0]))
    assert np.array_equal(out, [0.5, -1.0])


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(BALL, np.zeros(3))
    with pytest.raises(ValueError):
        project(BOX, np.zeros(2))


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


def test_project_psd_projects_each_matrix_of_a_stack():
    rng = np.random.default_rng(17)
    for k, n in ((1, 1), (3, 2), (4, 5), (6, 8)):
        stack = rng.normal(size=(k, n, n))
        out = project_psd(stack)
        assert out.shape == (k, n, n)
        for matrix, projected in zip(stack, out):
            assert np.array_equal(projected, project_psd(matrix))
    with pytest.raises(ValueError):
        project_psd(np.zeros((4, 2, 3)))
    with pytest.raises(ValueError):
        project_psd(np.zeros(3))


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
    # NaN passes the lower <= upper test, so it needs its own check
    with pytest.raises(ValueError, match="NaN"):
        Box(np.array([np.nan, 0.0]), np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        EuclideanBall(-1.0, 3)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            EuclideanBall(value, 3)
    for dim in (2.5, 2.0):
        with pytest.raises(ValueError, match="dim must be an integer"):
            EuclideanBall(1.0, dim)
    assert EuclideanBall(1.0, np.int64(2)).dim == 2


def test_trajectory_T():
    traj = Trajectory(xs=np.zeros((7, 2)), lambdas=np.zeros((7, 1)))
    assert traj.T == 7


def test_trajectory_refuses_a_multiplier_row_count_other_than_T():
    for rows in (6, 8):
        with pytest.raises(ValueError, match=f"lambdas has {rows} rows for 7"):
            Trajectory(xs=np.zeros((7, 2)), lambdas=np.zeros((rows, 1)))


def test_convergence_error_fields():
    err = ConvergenceError("stalled", residual=0.5, iterations=9, round_index=3)
    assert err.residual == 0.5 and err.iterations == 9 and err.round_index == 3


LINE = Box(np.full(1, -10.0), np.full(1, 10.0))


class RecordedRounds:
    """Rounds 0..len-1 as ints, recording each index read."""

    def __init__(self, count):
        self.count, self.read = count, []

    def __len__(self):
        return self.count

    def __getitem__(self, s):
        self.read.append(s)
        return s


@pytest.mark.parametrize("T,tau", [(6, 0), (6, 2), (7, 3), (6, 5)])
def test_run_schedule_hands_each_step_its_rows(T, tau):
    rounds = RecordedRounds(T)
    calls = []

    def step(s, oracle, x, lam, x_old, lam_old):
        calls.append((s, oracle, *(v.copy() for v in (x, lam, x_old, lam_old))))
        return x + 1.0, lam + 1.0

    traj = run_schedule(SimpleNamespace(n=1, p=1, set=LINE, rounds=rounds),
                        T=T, tau=tau, x0=np.zeros(1), step=step)
    assert traj.xs.shape == traj.lambdas.shape == (T, 1) and traj.tau == tau
    # decision t + 1 is step s's, so row t holds max(0, t - tau)
    assert traj.lambdas[:, 0].tolist() == [max(0, t - tau) for t in range(T)]
    # T - tau - 1 steps for rounds 0..T-tau-2 in order (none at tau = T - 1),
    # each handed row t = s + tau and row s; later rounds are never read
    assert [c[0] for c in calls] == [c[1] for c in calls] \
        == rounds.read == list(range(T - tau - 1))
    for s, _, x, lam, x_old, lam_old in calls:
        assert x == traj.xs[s + tau] and lam == traj.lambdas[s + tau]
        assert x_old == traj.xs[s] and lam_old == traj.lambdas[s]


def test_run_schedule_names_the_failing_round():
    problem = SimpleNamespace(n=1, p=1, set=LINE, rounds=tuple(range(6)))

    def step(s, oracle, x, lam, x_old, lam_old):
        if oracle == 2:
            raise ConvergenceError("stalled")
        return x + 1.0, lam

    with pytest.raises(ConvergenceError) as exc:
        run_schedule(problem, T=5, tau=1, x0=np.zeros(1), step=step)
    assert exc.value.round_index == 2

    traj = run_schedule(SimpleNamespace(n=1, p=1, set=LINE, rounds=(0, 1, 3, 4)),
                        T=4, tau=1, x0=np.zeros(1), step=step)
    assert traj.xs[:, 0].tolist() == [0.0, 0.0, 1.0, 2.0]
    assert traj.lambdas.shape == (4, 1) and traj.tau == 1


def test_run_schedule_refuses_a_horizon_past_the_instance():
    problem = generate_oqcqp(4, 2, 5.0, 20, seed=0)
    with pytest.raises(ValueError, match="20 rounds"):
        run_malm(problem, MalmConfig(alpha=1.0, sigma=1.0, T=30))
    with pytest.raises(ValueError, match="20 rounds"):
        run_baseline(problem, BaselineConfig("czp", 30))


def test_run_schedule_refuses_an_x0_that_is_not_an_n_vector():
    problem = generate_oqcqp(4, 2, 5.0, 20, seed=0)
    # a scalar would broadcast to [7, 7, 7, 7], outside the R = 5 ball
    with pytest.raises(ValueError, match=r"x0 has shape \(\), expected \(4,\)"):
        run_malm(problem, MalmConfig(alpha=1.0, sigma=1.0, T=5, x0=np.array(7.0)))


def test_run_schedule_refuses_an_x0_outside_the_feasible_set():
    ball = generate_oqcqp(4, 2, 5.0, 20, seed=0)  # radius 5, ||x0|| = 14
    with pytest.raises(ValueError, match="x0 lies 9.000e\\+00 outside"):
        run_malm(ball, MalmConfig(alpha=1.0, sigma=1.0, T=5,
                                  x0=np.full(4, 7.0)))
    box = SimpleNamespace(n=1, p=1, set=LINE, rounds=(0,))
    with pytest.raises(ValueError, match="x0 lies 1.000e-06 outside"):
        run_schedule(box, T=1, tau=0, x0=np.array([10.000001]), step=None)
    # points of the sets, on their boundaries too, are played
    for problem, x0 in ((ball, np.full(4, 2.5)), (box, np.array([-10.0]))):
        traj = run_schedule(problem, T=1, tau=0, x0=x0, step=None)
        assert np.array_equal(traj.xs[0], x0)


def oracle_of_kind(g_kind, p=1):
    return RoundOracle(n=2, p=p, eval_f=lambda x: 0.0,
                       subgrad_f=lambda x: np.zeros(2),
                       eval_g=lambda x: np.zeros(p),
                       jac_g=lambda x: np.zeros((p, 2)), g_kind=g_kind)


def test_round_oracle_validates_its_constraint_kind():
    for g_kind in ("affine", "smooth", "l1", "nonsmooth"):
        assert oracle_of_kind(g_kind).g_kind == g_kind
    assert RoundOracle(n=1, p=1, eval_f=None, subgrad_f=None, eval_g=None,
                       jac_g=None).g_kind == "smooth"
    with pytest.raises(ValueError, match="unknown g_kind 'linear'"):
        oracle_of_kind("linear")
    with pytest.raises(ValueError, match="p = 2"):
        oracle_of_kind("l1", p=2)


def test_round_oracle_validates_its_dimensions():
    def sized(n, p):
        return RoundOracle(n=n, p=p, eval_f=None, subgrad_f=None, eval_g=None,
                           jac_g=None)

    assert sized(np.int64(3), np.int32(2)).p == 2
    # p = 0 would leave the metrics a max over zero constraint rows
    for n, p, match in ((2.0, 1, "n must be an integer"),
                        (2, 1.5, "p must be an integer"),
                        (2, "1", "p must be an integer"),
                        (0, 1, "n must be >= 1, got 0"),
                        (2, 0, "p must be >= 1, got 0"),
                        (2, -1, "p must be >= 1, got -1")):
        with pytest.raises(ValueError, match=match):
            sized(n, p)


def test_round_oracle_validates_its_loss_hessian():
    def with_hess(hess):
        return RoundOracle(n=2, p=1, eval_f=None, subgrad_f=None, eval_g=None,
                           jac_g=None, hess_f=hess)

    diag = with_hess([1, 2])
    assert diag.hess_f.dtype == float and np.array_equal(diag.hess_f, [1.0, 2.0])
    matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert with_hess(matrix).hess_f is matrix
    for bad in (np.ones(3), np.ones((2, 3)), [1.0, np.nan]):
        with pytest.raises(ValueError, match="hess_f"):
            with_hess(bad)
    # an asymmetric matrix: eigvalsh would read only its lower triangle
    with pytest.raises(ValueError, match="hess_f must be a symmetric matrix"):
        with_hess([[1.0, 5.0], [0.0, 1.0]])
    rounded = matrix + np.array([[0.0, 1e-13], [0.0, 0.0]])
    assert with_hess(rounded).hess_f is rounded


def test_round_oracle_validates_its_constraint_hessians():
    def with_hess(hess, g_kind="smooth"):
        return RoundOracle(n=2, p=2, eval_f=None, subgrad_f=None, eval_g=None,
                           jac_g=None, g_kind=g_kind, hess_g=hess)

    stack = np.array([np.eye(2), [[2.0, 1.0], [1.0, 2.0]]])
    assert with_hess(stack).hess_g is stack
    assert with_hess(stack.tolist()).hess_g.dtype == float
    for bad in (np.ones((2, 2)), np.ones((1, 2, 2)), np.ones((2, 2, 3)),
                np.full((2, 2, 2), np.inf)):
        with pytest.raises(ValueError, match=r"hess_g must be finite of shape \(2, 2, 2\)"):
            with_hess(bad)
    with pytest.raises(ValueError, match="hess_g must be a symmetric matrix"):
        with_hess(np.array([np.eye(2), [[1.0, 5.0], [0.0, 1.0]]]))
    rounded = stack + np.array([np.zeros((2, 2)), [[0.0, 1e-13], [0.0, 0.0]]])
    assert with_hess(rounded).hess_g is rounded
    # an affine g has zero Hessians, and l1 or nonsmooth g have none
    for g_kind in ("affine", "l1", "nonsmooth"):
        with pytest.raises(ValueError, match=f"hess_g needs g_kind 'smooth', got '{g_kind}'"):
            RoundOracle(n=2, p=1, eval_f=None, subgrad_f=None, eval_g=None,
                        jac_g=None, g_kind=g_kind, hess_g=np.eye(2)[None])


def test_public_api_names_resolve_once():
    import ocobench

    names = ocobench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ocobench, name)]
    assert missing == []


def test_sorted_unique_gives_the_bits_of_np_unique():
    # the l1 threshold's breakpoint sets: ties, signed zeros and infinities
    rng = np.random.default_rng(11)
    for draw in range(5000):
        n = int(rng.integers(0, 9))
        if draw % 2:
            abs_z = np.abs(rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=n))
        else:
            abs_z = np.round(np.abs(rng.normal(scale=2.0, size=n)), draw % 3)
        floor = rng.choice([0.0, -0.0, 0.25, 0.5], size=n)
        cap = rng.choice([0.5, 1.0, 2.0, np.inf], size=n)
        values = np.concatenate([[0.0], abs_z - cap, abs_z - floor])
        want = np.unique(values)
        assert _sorted_unique(values).tobytes() == want.tobytes()
    assert _sorted_unique(np.array([])).size == 0
