"""MALM's Newton path against its frozen copy, one subproblem at a time.

``malm._solve_newton`` takes the solve's constants once, hands each
point's hinge to the objective and its gradient, steps a ball without
free-coordinate mask copies and takes ``.dot`` products.  None of this may move a
float, so on seeded subproblems of every branch it must return the point,
the residual and the shift lam + sigma G(x) of
``test_round_pin.reference_newton`` bit for bit.  The ``.dot`` bit rule it
rests on is checked here too.
"""

import numpy as np
import pytest

from ocobench import (LINEARIZED, PLAIN, Box, EuclideanBall, MalmConfig,
                      RoundOracle, make_model)
from ocobench.malm import _solve_newton

from test_round_pin import reference_newton

N, P = 8, 4
SEEDS = range(12)
HINGED = {"none": 0, "some": 2, "all": P}


def psd(rng, scale):
    M = rng.normal(size=(N, N))
    return scale * (M @ M.T) / N


def subproblem(seed, hessian, hinged):
    """The plain model of a round with a diagonal ("diagonal") or dense
    ("dense") quadratic f and affine or quadratic g, or the linearized model
    of the diagonal round ("linearized"), with the round's lam: its first
    ``hinged`` rows have lam = 50 and offset 0, so lam + sigma G > 0 near the
    origin, and the others lam = 0 and offset -100, so lam + sigma G < 0
    there."""
    rng = np.random.default_rng(seed)
    rows = np.arange(P) < HINGED[hinged]
    lam, offset = np.where(rows, 50.0, 0.0), np.where(rows, 0.0, -100.0)
    c, D = rng.normal(size=N), rng.normal(size=(P, N))
    if hessian == "dense":
        H, C = psd(rng, 1.0), np.stack([psd(rng, 0.1) for _ in range(P)])
        oracle = RoundOracle(
            n=N, p=P, eval_f=lambda x: float(0.5 * x @ (H @ x) + c @ x),
            subgrad_f=lambda x: H @ x + c,
            eval_g=lambda x: 0.5 * ((C @ x) @ x) + D @ x + offset,
            jac_g=lambda x: C @ x + D, hess_f=H, hess_g=C)
    else:
        q = rng.uniform(0.5, 2.0, N)
        oracle = RoundOracle(
            n=N, p=P, eval_f=lambda x: float(q @ (x * x)), subgrad_f=lambda x: 2.0 * q * x,
            eval_g=lambda x: D @ x + offset, jac_g=lambda x: D, g_kind="affine",
            hess_f=2.0 * q)
    kind = LINEARIZED if hessian == "linearized" else PLAIN
    cfg = MalmConfig(alpha=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.1, 1.0), T=1)
    return make_model(oracle, rng.normal(size=N), kind), lam, cfg, rng


def assert_pinned(model, center, lam, cfg, feasible_set, x_start):
    structure = model.quadratic_structure()
    x, res, shift = _solve_newton(model, center, lam, cfg, feasible_set, x_start,
                                  *structure)
    x_ref, res_ref = reference_newton(model, center, lam, cfg, feasible_set,
                                      x_start, *structure)
    assert x.tobytes() == x_ref.tobytes() and res == res_ref
    assert shift.tobytes() == (lam + cfg.sigma * model.eval_G(x_ref)).tobytes()
    return res


def hinged_at(model, lam, cfg, x):
    return int(np.count_nonzero(lam + cfg.sigma * model.eval_G(x) > 0.0))


@pytest.mark.parametrize("hessian", ["diagonal", "dense"])
@pytest.mark.parametrize("hinged", sorted(HINGED))
def test_box_steps_match_the_frozen_newton(hessian, hinged):
    # A prox center at scale 3 puts the solution on the box [-1, 1]^n.
    box = Box(-np.ones(N), np.ones(N))
    certified = 0
    for seed in SEEDS:
        model, lam, cfg, rng = subproblem(seed, hessian, hinged)
        center = 3.0 * rng.normal(size=N)
        assert hinged_at(model, lam, cfg, box.project(center)) == HINGED[hinged]
        certified += assert_pinned(model, center, lam, cfg, box, center) <= cfg.tol
    assert certified >= len(SEEDS) // 2


@pytest.mark.parametrize("hessian", ["diagonal", "dense"])
@pytest.mark.parametrize("hinged", sorted(HINGED))
def test_a_step_with_no_free_coordinate_matches_the_frozen_newton(hessian, hinged):
    # Half a tolerance below the upper bounds, with the prox center far
    # above them, every coordinate is fixed but the residual exceeds tol.
    box = Box(-np.ones(N), np.ones(N))
    for seed in SEEDS:
        model, lam, cfg, rng = subproblem(seed, hessian, hinged)
        x_start = box.upper - 0.5 * cfg.tol
        res = assert_pinned(model, box.upper + 1e4, lam, cfg, box, x_start)
        assert hinged_at(model, lam, cfg, x_start) == HINGED[hinged]
        assert res <= cfg.tol


@pytest.mark.parametrize("hessian", ["dense", "linearized"])
@pytest.mark.parametrize("hinged", sorted(HINGED))
def test_ball_steps_match_the_frozen_newton(hessian, hinged):
    # A ball wide enough for every step: the solve ends certified inside.
    ball = EuclideanBall(1e3, N)
    for seed in SEEDS:
        model, lam, cfg, rng = subproblem(seed, hessian, hinged)
        center = 0.1 * rng.normal(size=N)
        assert hinged_at(model, lam, cfg, center) == HINGED[hinged]
        assert assert_pinned(model, center, lam, cfg, ball, center) <= cfg.tol


@pytest.mark.parametrize("hessian", ["dense", "linearized"])
def test_a_trial_point_outside_the_ball_matches_the_frozen_newton(hessian):
    # The prox center lies far outside the unit ball, so the first full
    # step from the origin leaves it and Newton returns the origin.
    ball = EuclideanBall(1.0, N)
    for seed in SEEDS:
        model, lam, cfg, rng = subproblem(seed, hessian, "some")
        x_start = np.zeros(N)
        assert assert_pinned(model, 1e3 * rng.normal(size=N), lam, cfg, ball,
                             x_start) > cfg.tol


def test_dot_products_match_matmul_at_newtons_shapes():
    # One BLAS call either way.  Only a product of two one-element operands
    # differs: .dot returns it, @ adds it to +0.0, so a -0.0 turns +0.0.
    rng = np.random.default_rng(0)
    for _ in range(2000):
        k, n = rng.integers(0, P + 1), rng.integers(1, 33)
        W = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=(k, n))
        W[:, rng.random(n) < 0.3] = 0.0
        WD, r, y = W / rng.uniform(0.1, 10.0, n), rng.normal(size=n), rng.normal(size=k)
        pairs = [(W.T @ W, W.T.dot(W)), (WD @ W.T, WD.dot(W.T)), (r @ r, r.dot(r))]
        if k * n != 1:
            pairs += [(WD.T @ y, WD.T.dot(y)), (W @ r, W.dot(r))]
        for want, got in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
