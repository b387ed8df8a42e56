"""Model-based augmented Lagrangian method, without and with feedback delay.

The per-round subproblem is

    min_{x in C}  F(x) + (1/(2 sigma)) (||[lam + sigma G(x)]_+||^2 - ||lam||^2)
                  + (alpha/2) ||x - prox_center||^2

solved by a closed form (single affine constraint, linearized model), by a
Newton method (F and G quadratics of constant Hessians, where the objective
is LC^1 and piecewise quadratic; projected steps on a box, interior steps
on a Euclidean ball), or by an accelerated proximal gradient method.  The
truncated model's hinge is reduced to smooth inner problems through a
scalar dual variable; the plain model's l1 constraint keeps its
squared-hinge penalty in an exact prox.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._apg import fista
from .core import (Array, Box, FeasibleSet, Trajectory,
                   UnsupportedProblemError, _l1_threshold, project,
                   run_schedule)
from .models import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                     TRUNCATED, ModelAt, make_model)


@dataclass(frozen=True)
class MalmConfig:
    """Parameters of a MALM run.

    ``alpha`` is the proximal stepsize, ``sigma`` the penalty, ``tau`` the
    feedback delay and ``model_kind`` one of the four model names.  ``tol``
    bounds the returned subproblem solution's projected-gradient residual.
    ``x0`` overrides the default initial action project(C, 0).
    """

    alpha: float
    sigma: float
    T: int
    tau: int = 0
    model_kind: str = PLAIN
    tol: float = 1e-9
    x0: Optional[Array] = None

    def __post_init__(self):
        for name in ("alpha", "sigma", "tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.T <= self.tau:
            raise ValueError("time horizon T must exceed the delay tau")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")


def subproblem_objective(model: ModelAt, x: Array, lam: Array,
                         alpha: float, sigma: float, prox_center: Array) -> float:
    """The augmented Lagrangian plus the proximal term.

    F(x) + (||[lam + sigma G(x)]_+||^2 - ||lam||^2)/(2 sigma)
    + (alpha/2)||x - prox_center||^2.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lam = np.asarray(lam, dtype=float)
    shifted = np.maximum(lam + sigma * model.eval_G(x), 0.0)
    d = np.asarray(x, float) - np.asarray(prox_center, float)
    return (float(model.eval_F(x))
            + (float(shifted @ shifted) - float(lam @ lam)) / (2.0 * sigma)
            + 0.5 * alpha * float(d @ d))


def multiplier_update(lam: Array, model: ModelAt, x_next: Array, sigma: float) -> Array:
    """Componentwise [lam + sigma G(x_next)]_+."""
    return np.maximum(np.asarray(lam, float) + sigma * model.eval_G(x_next), 0.0)


def closed_form_linearized_p1(a: Array, b: Array, gamma: float,
                              alpha: float, sigma: float,
                              feasible_set: FeasibleSet) -> Array:
    """Project the exact minimizer of (alpha/2)||x||^2 + a.x + (sigma/2)[b.x + gamma]_+^2.

    If the hinge is inactive at the unconstrained minimizer -a/alpha, that
    point is optimal.  Otherwise the active quadratic gives the linear system
    (alpha I + sigma b b^T) x = -(a + sigma gamma b), solved by the rank-one
    inverse update.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if alpha * gamma <= float(a @ b):
        xbar = -a / alpha
    else:
        w = a + sigma * gamma * b
        denom = alpha * (alpha + sigma * float(b @ b))
        xbar = -w / alpha + (sigma * float(b @ w) / denom) * b
    return project(feasible_set, xbar)


def _smooth_grad(model: ModelAt, prox_center: Array, lam: Array,
                 alpha: float, sigma: float):
    """Gradient closure of the subproblem objective, with model.subgrad_F for F."""
    lam = np.asarray(lam, dtype=float)
    center = np.asarray(prox_center, dtype=float)
    grad_F = model.subgrad_F

    def grad(x: Array) -> Array:
        shifted = np.maximum(lam + sigma * model.eval_G(x), 0.0)
        return (np.asarray(grad_F(x), float)
                + model.jac_G(x).T @ shifted
                + alpha * (x - center))

    return grad


def _solve_truncated(model: ModelAt, prox_center: Array, lam: Array,
                     cfg: MalmConfig, feasible_set: FeasibleSet) -> Array:
    """Handle the hinged objective [f + <u, x-a>]_+ through its scalar dual.

    [w]_+ = max_{0 <= mu <= 1} mu w, so for each fixed mu the inner problem
    is the linearized model with the tangent plane of f scaled by mu, which
    solve_subproblem certifies at tol/4.  The dual function is concave with
    derivative equal to the hinge argument at the inner solution, whose root
    Brent's method locates; no mu is solved twice.  The inner certificate
    uses mu * u, an epsilon-subgradient selection of the hinge at the
    returned point, so it also certifies the truncated objective.
    """
    from scipy.optimize import brentq  # only the truncated model needs it

    inner_cfg = replace(cfg, tol=0.25 * cfg.tol)
    anchor, f_anchor, u = model.anchor, model.f_anchor, model.u
    solved = {}

    def solve_at(mu: float):
        if mu not in solved:
            scaled = replace(model, kind=LINEARIZED, f_anchor=mu * f_anchor, u=mu * u)
            x = solve_subproblem(scaled, prox_center, lam, inner_cfg, feasible_set)
            solved[mu] = x, f_anchor + float(u @ (x - anchor))
        return solved[mu]

    x, h = solve_at(0.0)
    if h <= 0.0:
        return x
    x, h = solve_at(1.0)
    if h >= 0.0:
        return x
    width = min(cfg.tol / (4.0 * (1.0 + float(np.linalg.norm(u)))), 1e-12)
    mu = brentq(lambda m: solve_at(m)[1], 0.0, 1.0, xtol=width, maxiter=200,
                disp=False)
    return solved[mu][0]


def _plain_l1_parts(model: ModelAt, prox_center: Array, lam: Array,
                    cfg: MalmConfig, feasible_set: Box):
    """Gradient and prox of the plain model with g(x) = ||x||_1 + c.

    The gradient is that of f + (alpha/2)||x - prox_center||^2.  The prox is
    the exact one of the squared-hinge penalty plus the box indicator: the
    penalty is phi(||x||_1) with phi(r) = [lam + sigma (r + c)]_+^2 / (2 sigma),
    convex and nondecreasing, so prox(z, step) soft-thresholds z at
    kappa = step * phi'(r) and clamps it to the box, where r is the l1 norm
    of that point.  Since r falls as kappa grows, kappa is the one root of
    r(kappa) = kappa / (step sigma) - lam / sigma - c, found by
    ``_l1_threshold`` on the coordinates' magnitudes: each lies between the
    magnitude of the box point nearest 0 and the bound on z's side.
    """
    sigma = cfg.sigma
    lower, upper = feasible_set.lower, feasible_set.upper
    floor = np.abs(np.clip(0.0, lower, upper))
    c = float(model.oracle.eval_g(np.zeros(lower.size))[0])
    budget = -(float(lam[0]) / sigma + c)

    def grad(x: Array) -> Array:
        return model.subgrad_F(x) + cfg.alpha * (x - prox_center)

    def prox(z: Array, step: float) -> Array:
        abs_z = np.abs(z)
        cap = np.where(z >= 0.0, np.abs(upper), np.abs(lower))
        kappa = _l1_threshold(abs_z, floor, cap, budget, 1.0 / (step * sigma))
        return np.clip(np.sign(z) * np.maximum(abs_z - kappa, 0.0), lower, upper)

    return grad, prox


# FISTA's iteration cap on a subproblem.  Newton: step cap, Armijo
# slope fraction, smallest trial step and the relative rounding allowance of
# the objective values the line search compares.
_FISTA_MAX_ITERS = 100_000
_NEWTON_MAX_STEPS = 50
_ARMIJO = 1e-4
_MIN_STEP = 1e-12
_ROUNDING = 1e-14


def _solve_newton(model: ModelAt, prox_center: Array, lam: Array,
                  cfg: MalmConfig, feasible_set: FeasibleSet, x_start: Array,
                  hess_F: Array, hess_G: Optional[Array]):
    """Newton method for a subproblem whose F and G are quadratics.

    With s = [lam + sigma G(x)]_+, J = jac_G(x) and S the rows where s > 0,
    the objective's generalized Hessian (Qi-Sun, Math. Program. 1993) is
    B + sigma J_S^T J_S with B = hess_F + alpha I + sum_{i in S} s_i hess_G[i].
    A diagonal B gives the direction by division and a Woodbury solve of
    size |S| <= p; a dense B by one dense solve with B + sigma J_S^T J_S.  On a
    box, each step fixes the coordinates within tol of a bound their
    gradient pushes against (Bertsekas, SIAM J. Control Optim. 1982), scales
    them by B's diagonal and searches the projection arc; on a Euclidean
    ball the steps stay inside.  The line search is Armijo on the subproblem
    objective, from the projection of ``x_start``.  Returns the last point
    and its projected-gradient residual, above tol when the step cap is
    reached, no decrease is found or a trial point leaves the ball.
    """
    alpha, sigma, tol = cfg.alpha, cfg.sigma, cfg.tol
    grad = _smooth_grad(model, prox_center, lam, alpha, sigma)
    box = isinstance(feasible_set, Box)
    if hess_G is None and np.ndim(hess_F) == 1:
        base, diag = None, hess_F + alpha
    else:
        base = np.diag(hess_F) if np.ndim(hess_F) == 1 else hess_F
        base = base + alpha * np.eye(x_start.size)

    def objective(x: Array) -> float:
        return subproblem_objective(model, x, lam, alpha, sigma, prox_center)

    x = project(feasible_set, x_start)
    value = objective(x)
    steps = 0
    while True:
        g = grad(x)
        res = float(np.linalg.norm(x - project(feasible_set, x - g)))
        if res <= tol or steps == _NEWTON_MAX_STEPS:
            return x, res
        steps += 1
        shifted = lam + sigma * model.eval_G(x)
        hinged = shifted > 0.0
        free = ~(((x <= feasible_set.lower + tol) & (g > 0.0))
                 | ((x >= feasible_set.upper - tol) & (g < 0.0))) \
            if box else np.ones(x.size, dtype=bool)
        # rows picked last keep W C-contiguous: BLAS sums depend on layout
        W = model.jac_G(x)[:, free][hinged]
        if base is None:
            direction = g / diag
            if hinged.any() and free.any():
                r, WD = direction[free], W / diag[free]
                K = np.eye(W.shape[0]) / sigma + WD @ W.T
                direction[free] = r - WD.T @ np.linalg.solve(K, W @ r)
        else:
            B = base if hess_G is None else \
                base + (hess_G[hinged].T @ shifted[hinged]).T
            direction = g / np.diag(B)
            if free.any():
                direction[free] = np.linalg.solve(
                    B[:, free][free] + sigma * (W.T @ W), g[free])
        rounding = _ROUNDING * (1.0 + abs(value))
        step = 1.0
        while True:
            x_new = x - step * direction
            if box:
                x_new = project(feasible_set, x_new)
            elif np.linalg.norm(x_new) > feasible_set.radius:
                return x, res
            value_new = objective(x_new)
            if value_new <= value + _ARMIJO * float(g @ (x_new - x)) + rounding:
                break
            step *= 0.5
            if step < _MIN_STEP:
                return x, res
        x, value = x_new, value_new


def solve_subproblem(model: ModelAt, prox_center: Array, lam: Array,
                     cfg: MalmConfig, feasible_set: FeasibleSet) -> Array:
    """Minimize the augmented Lagrangian plus proximal term over the set.

    The truncated model goes to its dual root search, whose inner problems
    come back here as linearized models.  Any other model starts at the prox
    center and tries, in order: the closed form for a single affine
    constraint under the linearized model; the Newton method when F and G
    are quadratics of constant Hessians (``ModelAt.quadratic_structure``),
    on a box or inside a ball; and the accelerated proximal gradient
    method, warm-started from the point the path before it could not
    certify.  For the plain model with an l1
    constraint FISTA runs on f plus the prox term, with the penalty and the
    box in its exact prox.  The result satisfies the proximal-gradient
    residual bound cfg.tol.
    """
    prox_center = np.asarray(prox_center, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if model.kind == TRUNCATED:
        return _solve_truncated(model, prox_center, lam, cfg, feasible_set)
    grad = _smooth_grad(model, prox_center, lam, cfg.alpha, cfg.sigma)
    x = prox_center

    if model.kind == LINEARIZED and model.oracle.p == 1:
        a = model.u - cfg.alpha * prox_center
        b = model.V[0]
        gamma = (lam[0] / cfg.sigma + model.g_anchor[0]
                 - float(model.V[0] @ model.anchor))
        x = closed_form_linearized_p1(a, b, gamma, cfg.alpha, cfg.sigma,
                                      feasible_set)
        if np.linalg.norm(x - project(feasible_set, x - grad(x))) <= cfg.tol:
            return x

    structure = model.quadratic_structure()
    if structure is not None:
        x, res = _solve_newton(model, prox_center, lam, cfg, feasible_set, x,
                               *structure)
        if res <= cfg.tol:
            return x

    if model.kind == PLAIN and model.oracle.g_kind == "l1":
        if not isinstance(feasible_set, Box):
            raise UnsupportedProblemError(
                "plain model with an l1 constraint needs a box-like feasible set")
        grad, prox = _plain_l1_parts(model, prox_center, lam, cfg, feasible_set)
        l0 = cfg.alpha + 1.0
    else:
        if model.kind == PLAIN and model.oracle.g_kind == "nonsmooth":
            raise UnsupportedProblemError(
                "plain model requires a smooth g_t (or the l1 structure)")

        def prox(z: Array, step: float) -> Array:
            return project(feasible_set, z)

        jac = model.jac_G(prox_center)
        l0 = cfg.alpha + model.iota + cfg.sigma * float(np.sum(jac * jac)) + 1.0
    x, _, _ = fista(x, grad, prox, tol=cfg.tol, max_iters=_FISTA_MAX_ITERS,
                    l0=l0)
    return x


def run_malm(problem, cfg: MalmConfig) -> Trajectory:
    """MALM on the delayed-feedback schedule (undelayed at tau = 0).

    The first tau + 1 decisions are the blind initial action; at each step
    t = tau .. tau+T-1 the oracle of round t - tau arrives, the model is
    anchored at x_{t-tau} (also the prox center) and the multiplier is
    updated with the model value at the new decision.  Decisions 0..T-1 are
    returned with the full multiplier sequence.
    """
    tau = cfg.tau

    def step(t, oracle, xs, lambdas):
        anchor = xs[t - tau]
        iota = problem.strong_convexity(t - tau) \
            if cfg.model_kind == QUADRATIC_LINEARIZED else 0.0
        model = make_model(oracle, anchor, cfg.model_kind, iota=iota)
        x_next = solve_subproblem(model, anchor, lambdas[t], cfg, problem.set)
        return x_next, multiplier_update(lambdas[t], model, x_next, cfg.sigma)

    return run_schedule(problem, cfg.T, tau, step, cfg.x0)
