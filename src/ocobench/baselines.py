"""Reference online primal-dual algorithms: MOSP, CL, NY, CZP, delayed NY.

All five share the pattern of a projected primal gradient step against the
current Lagrangian followed by a hinged dual step.  ``J(x)`` denotes the
n x p matrix whose columns are the constraint (sub)gradients, so that
J(x) @ lam is the primal coupling term and J(x).T @ d maps a primal
displacement to constraint space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Array, FeasibleSet, RoundOracle, Trajectory,
                   UnsupportedProblemError, project, run_schedule)


@dataclass(frozen=True)
class BaselineState:
    x: Array
    lam: Array


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


def jacobian(oracle: RoundOracle, x: Array) -> Array:
    """Constraint Jacobian in column convention: shape (n, p)."""
    return oracle.constraint_jacobian(x).T


def mosp_step(state: BaselineState, oracle: RoundOracle, feasible_set: FeasibleSet,
              alpha: float, mu: float) -> BaselineState:
    """Saddle-point step; the primal update is exact only for linear g_t."""
    if not oracle.linear_g:
        raise UnsupportedProblemError(
            "the saddle-point baseline requires linear constraints")
    x, lam = state.x, state.lam
    x_new = project(feasible_set,
                    x - alpha * (oracle.subgrad_f(x) + jacobian(oracle, x) @ lam))
    lam_new = np.maximum(lam + mu * oracle.eval_g(x_new), 0.0)
    return BaselineState(x_new, lam_new)


def cl_step(state: BaselineState, oracle: RoundOracle, feasible_set: FeasibleSet,
            eta: float, delta: float) -> BaselineState:
    """Primal-dual gradient on f_t + lam.g_t - (delta/2)||lam||^2.

    Note the dual step evaluates g_t at the current decision, not the new one.
    """
    x, lam = state.x, state.lam
    x_new = project(feasible_set,
                    x - eta * (oracle.subgrad_f(x) + jacobian(oracle, x) @ lam))
    lam_new = np.maximum(lam + eta * (oracle.eval_g(x) - delta * eta * lam), 0.0)
    return BaselineState(x_new, lam_new)


def ny_step(state: BaselineState, oracle: RoundOracle, feasible_set: FeasibleSet,
            alpha: float, nu: float, tau: int = 0,
            delayed: Optional[BaselineState] = None) -> BaselineState:
    """Virtual-queue style step, in its primal-dual form.

    With tau = 0 the dual update uses g_t at the new decision.  With delay
    the received round is tau steps old: gradients and the Jacobian are taken
    at the old decision and the dual update linearizes g around it.
    """
    x, lam = state.x, state.lam
    if tau == 0:
        x_new = project(feasible_set,
                        x - (nu * oracle.subgrad_f(x) + jacobian(oracle, x) @ lam)
                        / (2.0 * alpha))
        lam_new = np.maximum(lam + oracle.eval_g(x_new), 0.0)
        return BaselineState(x_new, lam_new)
    x_old, lam_old = delayed.x, delayed.lam
    jac_old = jacobian(oracle, x_old)
    x_new = project(feasible_set,
                    x - (nu * oracle.subgrad_f(x_old) + jac_old @ lam_old)
                    / (2.0 * alpha))
    lam_new = np.maximum(lam + oracle.eval_g(x_old) + jac_old.T @ (x_new - x_old), 0.0)
    return BaselineState(x_new, lam_new)


def czp_step(state: BaselineState, delayed: BaselineState, oracle: RoundOracle,
             feasible_set: FeasibleSet, eta: float, delta: float) -> BaselineState:
    """Delayed variant of the CL step; ``oracle`` is the round received now,
    ``delayed`` the decision/multiplier from when it was generated."""
    x, lam = state.x, state.lam
    x_old, lam_old = delayed.x, delayed.lam
    x_new = project(feasible_set,
                    x - eta * (oracle.subgrad_f(x_old) + jacobian(oracle, x_old) @ lam_old))
    lam_new = np.maximum(lam + eta * (oracle.eval_g(x_old) - delta * eta * lam_old), 0.0)
    return BaselineState(x_new, lam_new)


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
        state = BaselineState(xs[t], lambdas[t])
        delayed = BaselineState(xs[t - tau], lambdas[t - tau])
        if algo == "mosp":
            new = mosp_step(state, oracle, problem.set, config.alpha, config.mu)
        elif algo == "cl":
            new = cl_step(state, oracle, problem.set, config.eta, config.delta)
        elif algo == "ny":
            new = ny_step(state, oracle, problem.set, config.alpha, config.nu,
                          tau=tau, delayed=delayed)
        elif algo == "czp":
            new = czp_step(state, delayed, oracle, problem.set, config.eta,
                           config.delta)
        else:
            raise ValueError(f"unknown baseline {algo!r}")
        return new.x, new.lam

    return run_schedule(problem, config.T, tau,
                        project(problem.set, np.zeros(problem.n)), step, algo)
