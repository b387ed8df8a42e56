"""Shared domain types: feasible sets, projections, round oracles, constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    Carries the final residual and, when raised from an online run, the
    round index at which the failure occurred.  ``cell`` names the
    experiment cell (problem, algo, seed, tau) when the harness ran it.
    """

    def __init__(self, message: str, residual: float = np.nan,
                 iterations: int = -1, round_index: Optional[int] = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.round_index = round_index
        self.cell: Optional[dict] = None


class InfeasibleProblemError(RuntimeError):
    """The offline comparator problem has no feasible point.

    ``cell`` names the experiment cell (problem, seed) when the harness ran
    it.
    """

    cell: Optional[dict] = None


class UnsupportedProblemError(ValueError):
    """An algorithm was asked to run on a problem class it cannot handle."""


class ProblemArgumentError(ValueError):
    """A problem generator was given an argument outside its domain."""


def _check_vector(x: Array, n: int, name: str = "point") -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    return x


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {lower <= x <= upper}."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be 1-D vectors of equal length")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class EuclideanBall:
    """Euclidean ball {||x|| <= radius} in R^dim."""

    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class SupNormBall:
    """Sup-norm ball {||x||_inf <= bound} in R^dim."""

    bound: float
    dim: int

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


FeasibleSet = Box | EuclideanBall | SupNormBall


def project(feasible_set: FeasibleSet, point: Array) -> Array:
    """Euclidean projection of ``point`` onto ``feasible_set``.

    Parameters
    ----------
    feasible_set : Box, EuclideanBall or SupNormBall
    point : ndarray
        Vector whose dimension must match the set.

    Returns
    -------
    ndarray
        The closest point of the set; idempotent and nonexpansive.
    """
    if isinstance(feasible_set, Box):
        x = _check_vector(point, feasible_set.dim)
        return np.minimum(np.maximum(x, feasible_set.lower), feasible_set.upper)
    if isinstance(feasible_set, EuclideanBall):
        x = _check_vector(point, feasible_set.dim)
        nrm = float(np.linalg.norm(x))
        if nrm <= feasible_set.radius:
            return x.copy()
        return x * (feasible_set.radius / nrm)
    if isinstance(feasible_set, SupNormBall):
        x = _check_vector(point, feasible_set.dim)
        m = feasible_set.bound
        return np.minimum(np.maximum(x, -m), m)
    raise TypeError(f"unknown feasible set type: {type(feasible_set)!r}")


def diameter(feasible_set: FeasibleSet) -> float:
    """Exact Euclidean diameter of the set."""
    if isinstance(feasible_set, Box):
        return float(np.linalg.norm(feasible_set.upper - feasible_set.lower))
    if isinstance(feasible_set, EuclideanBall):
        return 2.0 * feasible_set.radius
    if isinstance(feasible_set, SupNormBall):
        return 2.0 * feasible_set.bound * float(np.sqrt(feasible_set.dim))
    raise TypeError(f"unknown feasible set type: {type(feasible_set)!r}")


def contains(feasible_set: FeasibleSet, point: Array, tol: float = 1e-9) -> bool:
    """Membership test up to ``tol`` (used by preconditions, not hot loops)."""
    return bool(np.linalg.norm(project(feasible_set, point) - np.asarray(point, float)) <= tol)


def project_psd(matrix: Array) -> Array:
    """Frobenius-nearest positive semidefinite matrix.

    The input is symmetrized defensively as (X + X^T)/2 before the
    eigendecomposition; negative eigenvalues are clamped to zero.
    """
    sym = np.asarray(matrix, dtype=float)
    if sym.ndim != 2 or sym.shape[0] != sym.shape[1]:
        raise ValueError("project_psd expects a square matrix")
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.T


@dataclass(frozen=True)
class RoundOracle:
    """Per-round bundle of the loss f_t and constraint map g_t.

    ``eval_f``/``subgrad_f`` give the loss value and a subgradient;
    ``eval_g`` returns the p-vector of constraint values and ``jac_g`` the
    (p, n) matrix whose row i is a subgradient of component i.  At kinks the
    generators return the zero subgradient choice (``np.sign`` convention
    for the l1 norm).

    ``linear_g`` marks exactly-affine constraints (enables algorithms that
    require them), ``l1_g`` marks the structure g(x) = ||x||_1 + const with
    p = 1, and ``smooth_g`` tells the subproblem solver whether a gradient
    method may be applied to the plain model directly.  ``hess_diag``, when
    given, is the constant Hessian diagonal of a separable quadratic f_t,
    which then equals its second-order expansion at any point exactly.
    """

    t: int
    n: int
    p: int
    eval_f: Callable[[Array], float]
    subgrad_f: Callable[[Array], Array]
    eval_g: Callable[[Array], Array]
    jac_g: Callable[[Array], Array]
    linear_g: bool = False
    l1_g: bool = False
    smooth_g: bool = True
    hess_diag: Optional[Array] = None


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level constants used by the theoretical bound evaluator.

    ``D`` is the exact set diameter; ``kappa_f``/``kappa_g`` are analytic
    subgradient bounds; ``nu_g`` bounds ||G(y)|| over the set for every model
    kind; ``eps0`` is the Slater margin of ``slater_point`` (may come out
    nonpositive for generated instances whose rounds admit no strictly
    feasible point, in which case bound evaluation refuses to run).
    """

    D: float
    kappa_f: float
    kappa_g: float
    nu_g: float
    eps0: float
    slater_point: Array


@dataclass(frozen=True)
class Trajectory:
    """Algorithm output: decisions paired with oracles 0..T-1.

    ``xs`` has shape (T, n): row t is the decision measured against round t.
    ``lambdas`` holds the full multiplier sequence produced while consuming
    all T oracles (length tau + T + 1 for the delayed schedule); entry t is
    the multiplier held when decision t is submitted.
    """

    xs: Array
    lambdas: Array
    tau: int = 0

    @property
    def T(self) -> int:
        return self.xs.shape[0]


def run_schedule(problem, T: int, tau: int, x0: Array, step) -> Trajectory:
    """Drive an online algorithm over the delayed-feedback schedule.

    The first tau + 1 decisions are the blind initial action ``x0`` and the
    multipliers start at zero.  At each step t = tau .. tau+T-1 the oracle
    of round t - tau arrives and ``step(t, oracle, xs, lambdas)`` returns the
    decision and multiplier for step t + 1; tau = 0 is the undelayed
    schedule.  A ConvergenceError from the step gets the round index
    t - tau.  Decisions 0..T-1 are returned with the full multiplier
    sequence.
    """
    xs = np.empty((tau + T + 1, problem.n))
    xs[: tau + 1] = x0
    lambdas = np.zeros((tau + T + 1, problem.p))
    for t in range(tau, tau + T):
        try:
            xs[t + 1], lambdas[t + 1] = step(t, problem.rounds[t - tau],
                                             xs, lambdas)
        except ConvergenceError as err:
            err.round_index = t - tau
            raise
    return Trajectory(xs=xs[:T].copy(), lambdas=lambdas, tau=tau)
