"""Handmade rounds and problems shared across test modules."""

import numpy as np

from ocobench import (QUADRATIC_LINEARIZED, ConvergenceError, MalmConfig,
                      ProblemInstance, RoundOracle, Trajectory, make_model,
                      multiplier_update, solve_subproblem)
from ocobench.malm import _default_x0


def affine_round(t, u, c0, B, g0):
    """f(x) = u.x + c0 with affine constraints g(x) = B x + g0."""
    u = np.asarray(u, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    g0 = np.atleast_1d(np.asarray(g0, dtype=float))
    return RoundOracle(
        t=t, n=u.size, p=g0.size,
        eval_f=lambda x: float(u @ x) + c0,
        subgrad_f=lambda x: u.copy(),
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        linear_g=True)


def quad_round(t, Q, b, B, g0):
    """f(x) = 0.5 x.Q x + b.x with affine constraints."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    g0 = np.atleast_1d(np.asarray(g0, dtype=float))
    return RoundOracle(
        t=t, n=b.size, p=g0.size,
        eval_f=lambda x: 0.5 * float(x @ Q @ x) + float(b @ x),
        subgrad_f=lambda x: Q @ x + b,
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        linear_g=True)


def generic_problem(rounds, feasible_set, n, constants=None):
    rounds = tuple(rounds)
    return ProblemInstance(kind="generic", set=feasible_set, rounds=rounds,
                           constants=constants, n=n, p=rounds[0].p,
                           T=len(rounds), seed=0)


def sample_in(feasible_set, rng, count):
    """Uniform-ish sample of feasible points, shape (count, n)."""
    from ocobench import Box, EuclideanBall, SupNormBall, project

    if isinstance(feasible_set, Box):
        lo, hi = feasible_set.lower, feasible_set.upper
        return rng.uniform(lo, hi, size=(count, lo.size))
    if isinstance(feasible_set, SupNormBall):
        m, n = feasible_set.bound, feasible_set.dim
        return rng.uniform(-m, m, size=(count, n))
    if isinstance(feasible_set, EuclideanBall):
        pts = rng.normal(size=(count, feasible_set.dim))
        radii = rng.uniform(0, feasible_set.radius, size=count) ** 1.0
        pts *= (radii / np.maximum(np.linalg.norm(pts, axis=1), 1e-12))[:, None]
        return pts
    raise TypeError(type(feasible_set))


def run_malm_no_delay(problem, cfg: MalmConfig) -> Trajectory:
    """Undelayed schedule: oracle t anchors and updates round t directly.

    An independent loop, not the package's delayed-feedback driver, so that
    comparing the two at tau = 0 checks the delayed schedule's indexing.
    """
    if cfg.tau != 0:
        raise ValueError("the undelayed schedule requires tau = 0")
    T = cfg.T
    x0 = _default_x0(problem, cfg)
    xs = np.empty((T + 1, problem.n))
    xs[0] = x0
    lambdas = np.zeros((T + 1, problem.p))

    for t in range(T):
        oracle = problem.rounds[t]
        anchor = xs[t]
        iota = 0.0
        if cfg.model_kind == QUADRATIC_LINEARIZED and problem.strong_convexity is not None:
            iota = problem.strong_convexity(t)
        model = make_model(oracle, anchor, cfg.model_kind, iota=iota)
        try:
            x_next = solve_subproblem(model, anchor, lambdas[t], cfg, problem.set)
        except ConvergenceError as err:
            err.round_index = t
            raise
        xs[t + 1] = x_next
        lambdas[t + 1] = multiplier_update(lambdas[t], model, x_next, cfg.sigma)

    return Trajectory(xs=xs[:T].copy(), lambdas=lambdas, tau=0)
