"""Reference online primal-dual algorithms: MOSP, CL, NY, CZP, delayed NY.

All five share the pattern of a projected primal gradient step against the
current Lagrangian followed by a hinged dual step.  Each step takes the
decision x and multiplier lam (and, delayed, those of the received round)
and returns the next pair.  ``oracle.jac_g(x)`` is the p x n matrix whose
rows are the constraint (sub)gradients, so its transpose times lam is the
primal coupling term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Array, FeasibleSet, RoundOracle, Trajectory,
                   UnsupportedProblemError, project, run_schedule)


@dataclass(frozen=True)
class BaselineConfig:
    """Algorithm selector plus stepsizes; ``paper_baseline_config`` fills the
    published settings for a given horizon and delay."""

    algo: str
    T: int
    tau: int = 0
    alpha: Optional[float] = None
    mu: Optional[float] = None
    eta: Optional[float] = None
    delta: Optional[float] = None
    nu: Optional[float] = None

    def __post_init__(self):
        if self.T <= self.tau:
            raise ValueError("time horizon T must exceed the delay tau")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        for name in ("alpha", "mu", "eta", "nu"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive when set")


def paper_baseline_config(algo: str, T: int, tau: int = 0) -> BaselineConfig:
    """Published parameter settings per algorithm, horizon and delay."""
    if algo == "mosp":
        step = float(T) ** (-1.0 / 3.0)
        return BaselineConfig("mosp", T, 0, alpha=step, mu=step)
    if algo == "cl":
        return BaselineConfig("cl", T, 0, eta=2.0 * T ** (-0.5), delta=0.01)
    if algo == "ny":
        if tau >= 1:
            return BaselineConfig("ny", T, tau, alpha=float(tau * T),
                                  nu=float(tau * T) ** 0.5)
        return BaselineConfig("ny", T, 0, alpha=float(T), nu=float(T) ** 0.5)
    if algo == "czp":
        if tau >= 1:
            return BaselineConfig("czp", T, tau, eta=float(tau * T) ** (-0.5),
                                  delta=10.0)
        return BaselineConfig("czp", T, 0, eta=float(T) ** (-0.5), delta=10.0)
    raise ValueError(f"unknown baseline {algo!r}")


def mosp_step(x: Array, lam: Array, oracle: RoundOracle,
              feasible_set: FeasibleSet, alpha: float, mu: float) -> tuple:
    """Saddle-point step; the primal update is exact only for linear g_t."""
    if not oracle.linear_g:
        raise UnsupportedProblemError(
            "the saddle-point baseline requires linear constraints")
    x_new = project(feasible_set,
                    x - alpha * (oracle.subgrad_f(x) + oracle.jac_g(x).T @ lam))
    lam_new = np.maximum(lam + mu * oracle.eval_g(x_new), 0.0)
    return x_new, lam_new


def cl_step(x: Array, lam: Array, oracle: RoundOracle,
            feasible_set: FeasibleSet, eta: float, delta: float) -> tuple:
    """Primal-dual gradient on f_t + lam.g_t - (delta/2)||lam||^2.

    Note the dual step evaluates g_t at the current decision, not the new one.
    """
    x_new = project(feasible_set,
                    x - eta * (oracle.subgrad_f(x) + oracle.jac_g(x).T @ lam))
    lam_new = np.maximum(lam + eta * (oracle.eval_g(x) - delta * eta * lam), 0.0)
    return x_new, lam_new


def ny_step(x: Array, lam: Array, oracle: RoundOracle,
            feasible_set: FeasibleSet, alpha: float, nu: float,
            x_old: Optional[Array] = None,
            lam_old: Optional[Array] = None) -> tuple:
    """Virtual-queue style step, in its primal-dual form.

    Undelayed (no ``x_old``), the dual update uses g_t at the new decision.
    With delay the received round is older: ``x_old``/``lam_old`` are the
    decision and multiplier from when it was generated, gradients and the
    Jacobian are taken at ``x_old`` and the dual update linearizes g
    around it.
    """
    if x_old is None:
        x_new = project(feasible_set,
                        x - (nu * oracle.subgrad_f(x) + oracle.jac_g(x).T @ lam)
                        / (2.0 * alpha))
        lam_new = np.maximum(lam + oracle.eval_g(x_new), 0.0)
        return x_new, lam_new
    jac_old = oracle.jac_g(x_old)
    x_new = project(feasible_set,
                    x - (nu * oracle.subgrad_f(x_old) + jac_old.T @ lam_old)
                    / (2.0 * alpha))
    lam_new = np.maximum(lam + oracle.eval_g(x_old) + jac_old @ (x_new - x_old), 0.0)
    return x_new, lam_new


def czp_step(x: Array, lam: Array, x_old: Array, lam_old: Array,
             oracle: RoundOracle, feasible_set: FeasibleSet, eta: float,
             delta: float) -> tuple:
    """Delayed variant of the CL step; ``oracle`` is the round received now,
    ``x_old``/``lam_old`` the decision and multiplier from when it was
    generated."""
    x_new = project(feasible_set,
                    x - eta * (oracle.subgrad_f(x_old) + oracle.jac_g(x_old).T @ lam_old))
    lam_new = np.maximum(lam + eta * (oracle.eval_g(x_old) - delta * eta * lam_old), 0.0)
    return x_new, lam_new


def run_baseline(problem, config: BaselineConfig) -> Trajectory:
    """Drive a baseline over the delayed-feedback schedule.

    Mirrors the proximal method's schedule: blind first tau + 1 decisions at
    project(C, 0), zero initial multipliers, oracle t - tau consumed at step
    t.  Decisions 0..T-1 are returned with the full multiplier sequence.
    """
    algo, tau = config.algo, config.tau
    if algo in ("mosp", "cl") and tau != 0:
        raise UnsupportedProblemError(f"{algo} has no delayed variant")

    def step(t, oracle, xs, lambdas):
        x, lam = xs[t], lambdas[t]
        if algo == "mosp":
            return mosp_step(x, lam, oracle, problem.set, config.alpha, config.mu)
        if algo == "cl":
            return cl_step(x, lam, oracle, problem.set, config.eta, config.delta)
        if algo == "ny" and tau == 0:
            return ny_step(x, lam, oracle, problem.set, config.alpha, config.nu)
        if algo == "ny":
            return ny_step(x, lam, oracle, problem.set, config.alpha, config.nu,
                           xs[t - tau], lambdas[t - tau])
        if algo == "czp":
            return czp_step(x, lam, xs[t - tau], lambdas[t - tau], oracle,
                            problem.set, config.eta, config.delta)
        raise ValueError(f"unknown baseline {algo!r}")

    return run_schedule(problem, config.T, tau,
                        project(problem.set, np.zeros(problem.n)), step)
