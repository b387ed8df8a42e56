"""Model-based augmented Lagrangian method, without and with feedback delay.

The per-round subproblem is

    min_{x in C}  F(x) + (1/(2 sigma)) (||[lam + sigma G(x)]_+||^2 - ||lam||^2)
                  + (alpha/2) ||x - prox_center||^2

solved by a closed form (single affine constraint, linearized model), by a
projected Newton method (separable quadratic F and affine G over a box-like
set, where the objective is piecewise quadratic), or by an accelerated
projected gradient method.  Nonsmooth cases (truncated model hinge, plain
model with an l1 constraint) are reduced to smooth inner problems through a
scalar dual variable and certified against the original objective with the
dual-informed subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._apg import fista
from .core import (Array, Box, ConvergenceError, FeasibleSet, SupNormBall,
                   Trajectory, UnsupportedProblemError, project, run_schedule)
from .models import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                     TRUNCATED, ModelAt, make_model)


@dataclass(frozen=True)
class MalmConfig:
    """Parameters of a MALM run.

    ``alpha`` is the proximal stepsize, ``sigma`` the penalty, ``tau`` the
    feedback delay and ``model_kind`` one of the four model names.  ``tol``
    and ``max_iters`` are the subproblem solver's termination contract.
    ``x0`` overrides the default initial action project(C, 0).
    """

    alpha: float
    sigma: float
    T: int
    tau: int = 0
    model_kind: str = PLAIN
    tol: float = 1e-9
    max_iters: int = 100_000
    x0: Optional[Array] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.sigma <= 0:
            raise ValueError("alpha and sigma must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.T <= self.tau:
            raise ValueError("time horizon T must exceed the delay tau")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def aug_lagrangian(model: ModelAt, x: Array, lam: Array, sigma: float) -> float:
    """Augmented Lagrangian F(x) + (||[lam + sigma G(x)]_+||^2 - ||lam||^2)/(2 sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lam = np.asarray(lam, dtype=float)
    shifted = np.maximum(lam + sigma * model.eval_G(x), 0.0)
    return float(model.eval_F(x)) + (float(shifted @ shifted) - float(lam @ lam)) / (2.0 * sigma)


def subproblem_objective(model: ModelAt, x: Array, lam: Array,
                         alpha: float, sigma: float, prox_center: Array) -> float:
    """aug_lagrangian plus the proximal term (alpha/2)||x - prox_center||^2."""
    d = np.asarray(x, float) - np.asarray(prox_center, float)
    return aug_lagrangian(model, x, lam, sigma) + 0.5 * alpha * float(d @ d)


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
                 alpha: float, sigma: float, mu_f: Optional[float] = None):
    """Gradient closure of the (smoothed) subproblem objective.

    ``mu_f`` replaces a truncated model's hinge by the fixed combination
    mu_f * (linearization); None means use model.subgrad_F directly.
    """
    lam = np.asarray(lam, dtype=float)
    center = np.asarray(prox_center, dtype=float)

    if mu_f is None:
        grad_F = model.subgrad_F
    else:
        u = model.u

        def grad_F(x: Array) -> Array:
            return mu_f * u

    def grad(x: Array) -> Array:
        shifted = np.maximum(lam + sigma * model.eval_G(x), 0.0)
        return (np.asarray(grad_F(x), float)
                + model.jac_G(x).T @ shifted
                + alpha * (x - center))

    return grad


def _initial_lipschitz(model: ModelAt, prox_center: Array, alpha: float,
                       sigma: float) -> float:
    jac = model.jac_G(np.asarray(prox_center, float))
    return alpha + model.iota + sigma * float(np.sum(jac * jac)) + 1.0


def _solve_smooth(model: ModelAt, prox_center: Array, lam: Array,
                  cfg: MalmConfig, feasible_set: FeasibleSet,
                  x_start: Optional[Array] = None, mu_f: Optional[float] = None,
                  tol: Optional[float] = None):
    grad = _smooth_grad(model, prox_center, lam, cfg.alpha, cfg.sigma, mu_f)

    def prox(z: Array, step: float) -> Array:
        return project(feasible_set, z)

    x0 = np.asarray(prox_center if x_start is None else x_start, dtype=float)
    return fista(x0, grad, prox,
                 tol=cfg.tol if tol is None else tol,
                 max_iters=cfg.max_iters,
                 l0=_initial_lipschitz(model, prox_center, cfg.alpha, cfg.sigma))


def _solve_truncated(model: ModelAt, prox_center: Array, lam: Array,
                     cfg: MalmConfig, feasible_set: FeasibleSet) -> Array:
    """Handle the hinged objective [f + <u, x-a>]_+ through its scalar dual.

    [w]_+ = max_{0 <= mu <= 1} mu w, so for each fixed mu the inner problem
    is smooth; the dual function is concave with derivative equal to the
    hinge argument at the inner solution, located by bisection.
    """
    tol = cfg.tol
    inner_tol = 0.25 * tol
    anchor, f_anchor, u = model.anchor, model.f_anchor, model.u

    def hinge_arg(mu: float, x: Array) -> float:
        return f_anchor + float(u @ (x - anchor))

    def solve_inner(mu: float, x_start: Optional[Array]) -> Array:
        x, _, _ = _solve_smooth(model, prox_center, lam, cfg, feasible_set,
                                x_start=x_start, mu_f=mu, tol=inner_tol)
        return x

    x_lo = solve_inner(0.0, None)
    if hinge_arg(0.0, x_lo) <= 0.0:
        return _certify_truncated(model, prox_center, lam, cfg, feasible_set, x_lo, 0.0)
    x_hi = solve_inner(1.0, x_lo)
    if hinge_arg(1.0, x_hi) >= 0.0:
        return _certify_truncated(model, prox_center, lam, cfg, feasible_set, x_hi, 1.0)

    # Dual derivative changes sign inside (0, 1): bisect it until the hinge
    # argument at the inner solution reaches the inner solver's noise floor,
    # so the final mu is dual-optimal up to that floor and mu * u is a valid
    # epsilon-subgradient selection of the hinge at the returned point.
    u_norm = float(np.linalg.norm(u))
    width_target = min(tol / (4.0 * (1.0 + u_norm)), 1e-12)
    h_floor = 4.0 * u_norm * inner_tol / cfg.alpha + 1e-15 * (1.0 + abs(f_anchor))
    mu, x_fin = _bisect_dual(solve_inner, hinge_arg, 1.0, x_hi, width_target,
                             lambda h: abs(h) <= h_floor)
    return _certify_truncated(model, prox_center, lam, cfg, feasible_set, x_fin, mu)


def _bisect_dual(solve_inner, slope, hi: float, x_start: Array,
                 width_target: float, at_floor):
    """Bisect a concave scalar dual on [0, hi] by the sign of its slope.

    ``solve_inner(mu, x_warm)`` is the warm-started inner minimizer for the
    dual variable mu and ``slope(mu, x)`` the dual derivative there, which is
    nonnegative at 0 and negative at ``hi``.  The search stops when the
    interval is ``width_target`` wide or when ``at_floor(slope)`` says the
    slope is within the inner solver's noise floor.  Returns mu and the
    inner solution at mu.
    """
    lo = 0.0
    x_warm = x_start
    for _ in range(200):
        if hi - lo <= width_target:
            break
        mid = 0.5 * (lo + hi)
        x_warm = solve_inner(mid, x_warm)
        s = slope(mid, x_warm)
        if at_floor(s):
            lo = hi = mid
            break
        if s >= 0.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return mu, solve_inner(mu, x_warm)


def _certify_truncated(model: ModelAt, prox_center: Array, lam: Array,
                       cfg: MalmConfig, feasible_set: FeasibleSet,
                       x: Array, mu: float) -> Array:
    # Residual of the true objective using the dual-informed subgradient
    # mu * u of the hinge (a valid selection at the crease).
    grad_mu = _smooth_grad(model, prox_center, lam, cfg.alpha, cfg.sigma, mu_f=mu)
    res = float(np.linalg.norm(x - project(feasible_set, x - grad_mu(x))))
    if res <= cfg.tol:
        return x
    raise ConvergenceError(
        f"truncated-model subproblem residual {res:.3e} above tol {cfg.tol:.1e}",
        residual=res)


def _box_bounds(feasible_set: FeasibleSet, n: int):
    """Lower and upper bound vectors of a Box or SupNormBall."""
    if isinstance(feasible_set, Box):
        return feasible_set.lower, feasible_set.upper
    return np.full(n, -feasible_set.bound), np.full(n, feasible_set.bound)


def _solve_plain_l1(model: ModelAt, prox_center: Array, lam: Array,
                    cfg: MalmConfig, feasible_set: FeasibleSet) -> Array:
    """Plain model whose single constraint is g(x) = ||x||_1 + c.

    The squared hinge satisfies [v]_+^2/2 = max_{mu>=0} (mu v - mu^2/2), so
    for fixed mu the subproblem is smooth-plus-(mu ||x||_1), handled by the
    proximal gradient method with a soft-threshold-and-clamp prox.  The
    optimal mu solves mu = [lam + sigma (||x(mu)||_1 + c)]_+ by bisection on
    the concave dual's derivative.
    """
    if not isinstance(feasible_set, (Box, SupNormBall)):
        raise UnsupportedProblemError(
            "plain model with an l1 constraint needs a box-like feasible set")
    oracle = model.oracle
    tol = cfg.tol
    inner_tol = 0.25 * tol
    sigma, alpha = cfg.sigma, cfg.alpha
    lam0 = float(np.asarray(lam, float)[0])
    center = np.asarray(prox_center, dtype=float)
    c = float(oracle.eval_g(np.zeros(oracle.n))[0])

    lo_b, hi_b = _box_bounds(feasible_set, oracle.n)

    def smooth_grad(x: Array) -> Array:
        return np.asarray(oracle.subgrad_f(x), float) + alpha * (x - center)

    def solve_inner(mu: float, x_start: Array) -> Array:
        def prox(z: Array, step: float) -> Array:
            soft = np.sign(z) * np.maximum(np.abs(z) - step * mu, 0.0)
            return np.minimum(np.maximum(soft, lo_b), hi_b)

        x, _, _ = fista(x_start, smooth_grad, prox,
                        tol=inner_tol, max_iters=cfg.max_iters,
                        l0=alpha + 1.0)
        return x

    def dual_slope(mu: float, x: Array) -> float:
        return lam0 / sigma + float(np.abs(x).sum()) + c - mu / sigma

    x_cur = solve_inner(0.0, center)
    if dual_slope(0.0, x_cur) <= 0.0:
        return _certify_plain_l1(x_cur, 0.0, smooth_grad, lo_b, hi_b, tol)

    mu_hi = max(lam0 + sigma * (float(np.abs(x_cur).sum()) + c), 0.0) + 1.0
    x_hi = solve_inner(mu_hi, x_cur)
    while dual_slope(mu_hi, x_hi) > 0.0:
        mu_hi *= 2.0
        x_hi = solve_inner(mu_hi, x_hi)
        if mu_hi > 1e18:
            raise ConvergenceError("l1 dual variable diverged", residual=np.inf)

    # Bisect the concave dual's derivative; the optimal mu reproduces the
    # hinge weight [lam + sigma (||x||_1 + c)]_+ at the solution, so the
    # slope scale tells how far mu * sign(x) is from a true subgradient of
    # the penalty.  Stop at the inner solver's noise floor.
    n = oracle.n
    slope_floor = (4.0 * np.sqrt(n) * inner_tol / alpha
                   + tol / (4.0 * sigma * np.sqrt(n)))
    mu, x_fin = _bisect_dual(solve_inner, dual_slope, mu_hi, x_hi,
                             1e-13 * (1.0 + mu_hi),
                             lambda slope: abs(slope) * sigma <= slope_floor)
    return _certify_plain_l1(x_fin, mu, smooth_grad, lo_b, hi_b, tol)


def _certify_plain_l1(x: Array, mu: float, smooth_grad, lo_b: Array,
                      hi_b: Array, tol: float) -> Array:
    # Componentwise optimal subgradient of mu ||x||_1: the sign where x is
    # nonzero, and at zeros the element of [-mu, mu] minimizing the residual.
    base = smooth_grad(x)
    s = base + mu * np.sign(x)
    zero = (x == 0.0)
    if np.any(zero):
        s_lo, s_hi = base[zero] - mu, base[zero] + mu
        s[zero] = np.minimum(np.maximum(0.0, s_lo), s_hi)
    stepped = np.minimum(np.maximum(x - s, lo_b), hi_b)
    res = float(np.linalg.norm(x - stepped))
    if res <= tol:
        return x
    raise ConvergenceError(
        f"l1-constrained subproblem residual {res:.3e} above tol {tol:.1e}",
        residual=res)


# Projected Newton: step cap, Armijo slope fraction, smallest trial step and
# the relative rounding allowance of the objective values the line search
# compares.
_NEWTON_MAX_STEPS = 50
_ARMIJO = 1e-4
_MIN_STEP = 1e-12
_ROUNDING = 1e-14


def _solve_newton(model: ModelAt, prox_center: Array, lam: Array,
                  cfg: MalmConfig, feasible_set: FeasibleSet, curvature: Array,
                  V: Array, x_start: Optional[Array] = None):
    """Projected Newton method for a piecewise-quadratic subproblem over a box.

    With F quadratic of Hessian diag(curvature) and G(x) = V x + const, the
    objective's generalized Hessian is D + sigma V_S^T V_S with
    D = diag(curvature + alpha) and S the rows whose shifted multiplier
    lam + sigma G(x) is positive.  Each step fixes the box coordinates that
    sit within tol of a bound their gradient pushes against (Bertsekas,
    SIAM J. Control Optim. 1982), takes the Newton direction on the others
    by a Woodbury solve of size |S| <= p, scales the fixed ones by D, and
    searches the projection arc by Armijo on the subproblem objective.
    Returns the last point and its projected-gradient residual, which is
    above tol when the step cap is reached or the line search finds no
    decrease.
    """
    alpha, sigma, tol = cfg.alpha, cfg.sigma, cfg.tol
    grad = _smooth_grad(model, prox_center, lam, alpha, sigma)
    lower, upper = _box_bounds(feasible_set, curvature.size)
    diag = curvature + alpha

    def objective(x: Array) -> float:
        return subproblem_objective(model, x, lam, alpha, sigma, prox_center)

    x = project(feasible_set, prox_center if x_start is None else x_start)
    value = objective(x)
    steps = 0
    while True:
        g = grad(x)
        res = float(np.linalg.norm(x - project(feasible_set, x - g)))
        if res <= tol or steps == _NEWTON_MAX_STEPS:
            return x, res
        steps += 1
        fixed = (((x <= lower + tol) & (g > 0.0))
                 | ((x >= upper - tol) & (g < 0.0)))
        free = ~fixed
        hinged = lam + sigma * model.eval_G(x) > 0.0
        direction = g / diag
        if hinged.any() and free.any():
            W = V[np.ix_(hinged, free)]
            WD = W / diag[free]
            r = direction[free]
            K = np.eye(W.shape[0]) / sigma + WD @ W.T
            direction[free] = r - WD.T @ np.linalg.solve(K, W @ r)
        rounding = _ROUNDING * (1.0 + abs(value))
        step = 1.0
        while True:
            x_new = project(feasible_set, x - step * direction)
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

    Paths, in the order they are tried: the closed form for a single affine
    constraint under the linearized model; the projected Newton method when
    the model has constant diagonal curvature and an affine G
    (``ModelAt.quadratic_structure``) and the set is a box or sup-norm
    ball; the dual bisections of the truncated model and of the plain model
    with an l1 constraint; and the accelerated projected gradient method,
    which also takes over, warm-started, from a closed-form or Newton point
    that fails the residual check.  The result satisfies the
    projected-(sub)gradient residual bound cfg.tol.
    """
    prox_center = np.asarray(prox_center, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x_start = None

    if model.kind == LINEARIZED and model.p == 1:
        a = model.u - cfg.alpha * prox_center
        b = model.V[0]
        gamma = (lam[0] / cfg.sigma + model.g_anchor[0]
                 - float(model.V[0] @ model.anchor))
        x_cf = closed_form_linearized_p1(a, b, gamma, cfg.alpha, cfg.sigma,
                                         feasible_set)
        grad = _smooth_grad(model, prox_center, lam, cfg.alpha, cfg.sigma)
        res = float(np.linalg.norm(x_cf - project(feasible_set, x_cf - grad(x_cf))))
        if res <= cfg.tol:
            return x_cf
        x_start = x_cf

    structure = model.quadratic_structure()
    if structure is not None and isinstance(feasible_set, (Box, SupNormBall)):
        x_nt, res = _solve_newton(model, prox_center, lam, cfg, feasible_set,
                                  *structure, x_start=x_start)
        if res <= cfg.tol:
            return x_nt
        x_start = x_nt
    elif model.kind == TRUNCATED:
        return _solve_truncated(model, prox_center, lam, cfg, feasible_set)
    elif model.kind == PLAIN:
        if model.oracle.l1_g:
            if model.p != 1:
                raise UnsupportedProblemError("l1 constraint handling assumes p = 1")
            return _solve_plain_l1(model, prox_center, lam, cfg, feasible_set)
        if not model.oracle.smooth_g:
            raise UnsupportedProblemError(
                "plain model requires a smooth g_t (or the l1 structure)")

    x, _, _ = _solve_smooth(model, prox_center, lam, cfg, feasible_set,
                            x_start=x_start)
    return x


def _default_x0(problem, cfg: MalmConfig) -> Array:
    if cfg.x0 is not None:
        return np.asarray(cfg.x0, dtype=float)
    return project(problem.set, np.zeros(problem.n))


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
        iota = 0.0
        if cfg.model_kind == QUADRATIC_LINEARIZED and problem.strong_convexity is not None:
            iota = problem.strong_convexity(t - tau)
        model = make_model(oracle, anchor, cfg.model_kind, iota=iota)
        x_next = solve_subproblem(model, anchor, lambdas[t], cfg, problem.set)
        return x_next, multiplier_update(lambdas[t], model, x_next, cfg.sigma)

    return run_schedule(problem, cfg.T, tau, _default_x0(problem, cfg), step)
