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
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("box bounds must not be NaN")
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
        if not 0.0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


FeasibleSet = Box | EuclideanBall


def project(feasible_set: FeasibleSet, point: Array) -> Array:
    """Euclidean projection of ``point`` onto ``feasible_set``.

    Parameters
    ----------
    feasible_set : Box or EuclideanBall
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
    raise TypeError(f"unknown feasible set type: {type(feasible_set)!r}")


def _l1_threshold(abs_z: Array, floor, cap, a: float, w: float) -> float:
    """The threshold theta >= 0 where sum_i clip(|z_i| - theta, floor_i, cap_i)
    falls to the budget a + w theta (w >= 0).

    The sum is nonincreasing and piecewise linear in theta, with breakpoints
    where a coordinate leaves its cap or reaches its floor; the root lies on
    the segment where the sorted breakpoint values cross the budget (Duchi
    et al., ICML 2008).  Returns 0 when the sum at theta = 0 is already
    within the budget.  A root past the last breakpoint, where every
    coordinate sits at its floor, clips z to the same point as the last
    breakpoint does, which is returned instead.
    """
    bps = np.unique(np.concatenate([[0.0], abs_z - cap, abs_z - floor]))
    bps = bps[bps >= 0.0]

    def excess(theta):
        return float(np.minimum(np.maximum(abs_z - theta, floor), cap).sum()) \
            - w * theta

    vals = np.array([excess(b) for b in bps])
    idx = int(np.searchsorted(-vals, -a))
    if idx == 0:
        return 0.0
    if idx == bps.size:
        return float(bps[-1])
    hi_bp, hi_val = float(bps[idx]), float(vals[idx])
    lo_bp, lo_val = float(bps[idx - 1]), vals[idx - 1]
    if hi_val == a:
        return hi_bp
    slope = (hi_val - lo_val) / (hi_bp - lo_bp)
    return lo_bp + (a - lo_val) / slope


def project_psd(matrix: Array) -> Array:
    """Frobenius-nearest positive semidefinite matrix, or of each matrix of
    a (..., n, n) stack.

    The input is symmetrized defensively as (X + X^T)/2 before the
    eigendecomposition; negative eigenvalues are clamped to zero.
    """
    sym = np.asarray(matrix, dtype=float)
    if sym.ndim < 2 or sym.shape[-2] != sym.shape[-1]:
        raise ValueError("project_psd expects a square matrix or a stack of them")
    sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)


@dataclass(frozen=True)
class RoundOracle:
    """Per-round bundle of the loss f_t and constraint map g_t.

    ``eval_f``/``subgrad_f`` give the loss value and a subgradient;
    ``eval_g`` returns the p-vector of constraint values and ``jac_g`` the
    (p, n) matrix whose row i is a subgradient of component i.  At kinks the
    generators return the zero subgradient choice (``np.sign`` convention
    for the l1 norm).

    ``g_kind`` says what g_t is: ``"affine"`` (exactly affine, which
    algorithms such as the saddle-point baseline require), ``"smooth"``
    (differentiable, so a gradient method may run on the plain model),
    ``"l1"`` (g(x) = ||x||_1 + const with p = 1) or ``"nonsmooth"``.
    ``hess_f``, when given, is the constant Hessian of a quadratic f_t, an
    n-vector for a diagonal Hessian or an (n, n) matrix otherwise; f_t then
    equals its second-order expansion at any point exactly.  ``hess_g``,
    allowed only for a ``"smooth"`` g_t, is the (p, n, n) stack of the
    constant Hessians of a quadratic g_t (an affine g_t's are zero).  Each
    matrix is symmetric up to 1e-12 of its array's largest entry.
    """

    n: int
    p: int
    eval_f: Callable[[Array], float]
    subgrad_f: Callable[[Array], Array]
    eval_g: Callable[[Array], Array]
    jac_g: Callable[[Array], Array]
    g_kind: str = "smooth"
    hess_f: Optional[Array] = None
    hess_g: Optional[Array] = None

    def __post_init__(self):
        if self.g_kind not in ("affine", "smooth", "l1", "nonsmooth"):
            raise ValueError(f"unknown g_kind {self.g_kind!r}")
        if self.g_kind == "l1" and self.p != 1:
            raise ValueError(f"an l1 constraint has p = 1, got p = {self.p}")
        if self.hess_g is not None and self.g_kind != "smooth":
            raise ValueError(f"hess_g needs g_kind 'smooth', got {self.g_kind!r}")
        n = self.n
        for name, shapes in (("hess_f", ((n,), (n, n))),
                             ("hess_g", ((self.p, n, n),))):
            if getattr(self, name) is None:
                continue
            H = np.asarray(getattr(self, name), float)
            object.__setattr__(self, name, H)
            scale = np.abs(H).max() if H.shape in shapes else np.nan
            if not scale < np.inf:
                raise ValueError(f"{name} must be finite of shape "
                                 f"{' or '.join(map(str, shapes))}, got {H.shape}")
            if H.ndim > 1 and np.abs(H - np.swapaxes(H, -1, -2)).max() > 1e-12 * scale:
                raise ValueError(f"{name} must be a symmetric matrix")


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level constants used by the theoretical bound evaluator.

    ``D`` is the exact set diameter; ``kappa_f`` is an analytic subgradient
    bound of the losses; ``nu_g`` bounds ||G(y)|| over the set for every model
    kind; ``eps0`` is the Slater margin of ``slater_point`` (may come out
    nonpositive for generated instances whose rounds admit no strictly
    feasible point, in which case bound evaluation refuses to run).
    """

    D: float
    kappa_f: float
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


def run_schedule(problem, T: int, tau: int, step,
                 x0: Optional[Array] = None) -> Trajectory:
    """Drive an online algorithm over the delayed-feedback schedule.

    The first tau + 1 decisions are the blind initial action ``x0``, by
    default project(C, 0), and the multipliers start at zero.  At each step
    t = tau .. tau+T-1 the oracle of round t - tau arrives and
    ``step(t, oracle, xs, lambdas)`` returns the decision and multiplier for
    step t + 1; tau = 0 is the undelayed schedule.  A ConvergenceError from
    the step gets the round index t - tau.  Decisions 0..T-1 are returned
    with the full multiplier sequence.  A T past the instance's last round
    or an ``x0`` that is not an n-vector raises ValueError up front.
    """
    if T > len(problem.rounds):
        raise ValueError(f"T = {T} exceeds the instance's "
                         f"{len(problem.rounds)} rounds")
    xs = np.empty((tau + T + 1, problem.n))
    xs[: tau + 1] = project(problem.set, np.zeros(problem.n)) if x0 is None \
        else _check_vector(x0, problem.n, "x0")
    lambdas = np.zeros((tau + T + 1, problem.p))
    for t in range(tau, tau + T):
        try:
            xs[t + 1], lambdas[t + 1] = step(t, problem.rounds[t - tau],
                                             xs, lambdas)
        except ConvergenceError as err:
            err.round_index = t - tau
            raise
    return Trajectory(xs=xs[:T].copy(), lambdas=lambdas, tau=tau)
