"""Regret and violation series plus the theoretical multiplier-norm bound.

All cumulative series are plain prefix sums of per-round terms, so they can
be recomputed exactly from a stored trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, ProblemConstants, Trajectory

_BOUND_SLACK = 1e-8  # float slack allowed above the multiplier-norm bound


@dataclass(frozen=True)
class MetricsSeries:
    """Per-round metric columns.

    ``cum_regret[t]`` sums rounds 0..t of f_s(x_s) - f_s(x*);
    ``cum_vio[t, i]`` sums g_s^(i)(x_s); ``avg_vio_max`` is the worst
    time-averaged component; ``lambda_norm[t]`` is the multiplier norm held
    when decision t was submitted.
    """

    cum_regret: Array
    avg_regret: Array
    cum_vio: Array
    avg_vio_max: Array
    lambda_norm: Array


def full_series(trajectory: Trajectory, problem, x_star: Array) -> MetricsSeries:
    """Every metric column of a trajectory against a fixed comparator.

    Parameters
    ----------
    trajectory : Trajectory
        Decisions x_0..x_{T-1} matched to rounds 0..T-1.
    problem : ProblemInstance
        Supplies the round losses and constraints.
    x_star : ndarray
        Fixed comparator decision.
    """
    T = trajectory.T
    regret = np.empty(T)
    vio = np.empty((T, problem.p))
    for t in range(T):
        oracle = problem.rounds[t]
        regret[t] = oracle.eval_f(trajectory.xs[t]) - oracle.eval_f(x_star)
        vio[t] = oracle.eval_g(trajectory.xs[t])
    cum_regret = np.cumsum(regret)
    cum_vio = np.cumsum(vio, axis=0)
    return MetricsSeries(
        cum_regret=cum_regret,
        avg_regret=cum_regret / np.arange(1, T + 1),
        cum_vio=cum_vio,
        avg_vio_max=cum_vio.max(axis=1) / np.arange(1, T + 1),
        lambda_norm=np.linalg.norm(trajectory.lambdas[:T], axis=1))


def psi_kappas(constants: ProblemConstants):
    """The four coefficients of the multiplier-norm bound.

    Raises
    ------
    ValueError
        If the Slater margin is nonpositive (the bound is undefined).
    """
    eps0, nu_g = constants.eps0, constants.nu_g
    if eps0 <= 0.0:
        raise ValueError(
            f"multiplier bound needs a positive Slater margin, got {eps0:.3e}")
    k0 = 4.0 * constants.kappa_f * constants.D / eps0
    k1 = constants.D ** 2 / eps0
    k2 = nu_g ** 2 / eps0 - nu_g
    k3 = 2.0 * nu_g + eps0 / 2.0 \
        + (8.0 * nu_g ** 2 / eps0) * math.log(32.0 * nu_g ** 2 / eps0 ** 2)
    # nu_g >= eps0 whenever nu_g truly bounds ||G|| (the Slater point
    # certifies it), which is what makes k2 nonnegative.
    if not k2 >= 0.0:
        raise ValueError(f"multiplier bound needs nu_g >= eps0, got nu_g "
                         f"{nu_g:.3e} below eps0 {eps0:.3e}")
    return k0, k1, k2, k3


def psi_from_kappas(k0: float, k1: float, k2: float, k3: float,
                    sigma: float, alpha: float, tau: int, s: int) -> float:
    return k0 + (tau + 1) * k1 * (alpha / s) + k2 * sigma + k3 * sigma * s


def min_psi_bound(constants: ProblemConstants, sigma: float, alpha: float,
                  tau: int, T: int) -> float:
    """Sharpest bound over the admissible window lengths 1..2*ceil(sqrt(T(tau+1)))."""
    k0, k1, k2, k3 = psi_kappas(constants)
    s_max = 2 * math.ceil(math.sqrt(T * (tau + 1)))
    s = np.arange(1, max(s_max, 1) + 1, dtype=float)
    return float(psi_from_kappas(k0, k1, k2, k3, sigma, alpha, tau, s).min())


def multiplier_bound_holds(trajectory: Trajectory, constants: ProblemConstants,
                           sigma: float, alpha: float) -> bool:
    """Whether max_t ||lambda_t|| stays within the bound (with float slack)."""
    max_norm = float(np.linalg.norm(trajectory.lambdas, axis=1).max())
    bound = min_psi_bound(constants, sigma, alpha, trajectory.tau, trajectory.T)
    return max_norm <= bound + _BOUND_SLACK
