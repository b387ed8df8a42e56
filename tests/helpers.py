"""Handmade rounds and problems shared across test modules."""

import numpy as np

from ocobench import (QUADRATIC_LINEARIZED, ConvergenceError, MalmConfig,
                      ProblemInstance, RoundOracle, Trajectory, make_model,
                      multiplier_update, project, solve_subproblem)
from ocobench.metrics import psi_from_kappas, psi_kappas


def affine_round(u, c0, B, g0):
    """f(x) = u.x + c0 with affine constraints g(x) = B x + g0."""
    u = np.asarray(u, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    g0 = np.atleast_1d(np.asarray(g0, dtype=float))
    return RoundOracle(
        n=u.size, p=g0.size,
        eval_f=lambda x: float(u @ x) + c0,
        subgrad_f=lambda x: u.copy(),
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        g_kind="affine")


def quad_round(t, Q, b, B, g0):
    """f(x) = 0.5 x.Q x + b.x with affine constraints; callers pass the
    round index ``t``, which a round does not record."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    g0 = np.atleast_1d(np.asarray(g0, dtype=float))
    return RoundOracle(
        n=b.size, p=g0.size,
        eval_f=lambda x: 0.5 * float(x @ Q @ x) + float(b @ x),
        subgrad_f=lambda x: Q @ x + b,
        eval_g=lambda x: B @ x + g0,
        jac_g=lambda x: B.copy(),
        g_kind="affine")


def generic_problem(rounds, feasible_set, n, constants=None):
    """An instance of ``rounds`` on ``feasible_set``; ``n`` is kept for the
    callers that pass it, the instance takes its dimension from the set."""
    return ProblemInstance(kind="generic", set=feasible_set,
                           rounds=tuple(rounds), constants=constants, seed=0)


def contains(feasible_set, point, tol=1e-9):
    """Membership test up to ``tol``: the point is its own projection."""
    return bool(np.linalg.norm(project(feasible_set, point)
                               - np.asarray(point, float)) <= tol)


def sample_in(feasible_set, rng, count):
    """Uniform-ish sample of feasible points, shape (count, n)."""
    from ocobench import Box, EuclideanBall

    if isinstance(feasible_set, Box):
        lo, hi = feasible_set.lower, feasible_set.upper
        return rng.uniform(lo, hi, size=(count, lo.size))
    if isinstance(feasible_set, EuclideanBall):
        pts = rng.normal(size=(count, feasible_set.dim))
        radii = rng.uniform(0, feasible_set.radius, size=count) ** 1.0
        pts *= (radii / np.maximum(np.linalg.norm(pts, axis=1), 1e-12))[:, None]
        return pts
    raise TypeError(type(feasible_set))


def run_malm_no_delay(problem, cfg: MalmConfig) -> Trajectory:
    """Undelayed schedule: oracle t anchors and updates round t directly,
    for the rounds t = 0..T-2 whose feedback informs decision t + 1.

    An independent loop, not the package's delayed-feedback driver, so that
    comparing the two at tau = 0 checks the delayed schedule's indexing.
    """
    if cfg.tau != 0:
        raise ValueError("the undelayed schedule requires tau = 0")
    T = cfg.T
    xs = np.empty((T, problem.n))
    xs[0] = project(problem.set, np.zeros(problem.n)) if cfg.x0 is None \
        else cfg.x0
    lambdas = np.zeros((T, problem.p))

    for t in range(T - 1):
        oracle = problem.rounds[t]
        anchor = xs[t]
        iota = problem.strong_convexity(t) \
            if cfg.model_kind == QUADRATIC_LINEARIZED else 0.0
        model = make_model(oracle, anchor, cfg.model_kind, iota=iota)
        try:
            x_next = solve_subproblem(model, anchor, lambdas[t], cfg, problem.set)
        except ConvergenceError as err:
            err.round_index = t
            raise
        xs[t + 1] = x_next
        lambdas[t + 1] = multiplier_update(lambdas[t], model, x_next, cfg.sigma)

    return Trajectory(xs=xs, lambdas=lambdas, tau=0)


def psi_bound(constants, sigma, alpha, tau, s):
    """Multiplier-norm bound k0 + (tau+1) k1 (alpha/s) + k2 sigma + k3 sigma s
    at one window length s >= 1."""
    if s < 1:
        raise ValueError("window length s must be a positive integer")
    return psi_from_kappas(*psi_kappas(constants), sigma, alpha, tau, int(s))
