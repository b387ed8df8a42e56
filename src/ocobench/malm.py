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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._apg import fista
from .core import (Array, Box, FeasibleSet, Trajectory,
                   UnsupportedProblemError, _check_horizon, _dot,
                   _l1_threshold, _rmatvec, project, run_schedule)
from .models import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                     TRUNCATED, ModelAt, make_model)


@dataclass(frozen=True)
class MalmConfig:
    """Parameters of a MALM run.

    ``alpha`` is the proximal stepsize, ``sigma`` the penalty, ``tau`` the
    feedback delay and ``model_kind`` one of the four model names.  ``tol``
    bounds the returned subproblem solution's projected-gradient residual.
    ``x0``, a point of C, overrides the default initial action
    project(C, 0).  ``T`` and ``tau`` are Python or numpy integers.
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
        _check_horizon(self.T, (self.tau,))
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
    lam, x = np.asarray(lam, dtype=float), np.asarray(x, dtype=float)
    return _value(model, x, float(lam.dot(lam)),
                  np.maximum(lam + sigma * model.eval_G(x), 0.0), alpha, sigma,
                  np.asarray(prox_center, dtype=float))


def _value(model: ModelAt, x: Array, lam_sq: float, hinge: Array, alpha: float,
           sigma: float, center: Array) -> float:
    """The subproblem objective at x, given lam_sq = ||lam||^2 and the hinge
    [lam + sigma G(x)]_+."""
    d = x - center
    return (float(model.eval_F(x)) + (float(hinge.dot(hinge)) - lam_sq) / (2.0 * sigma)
            + 0.5 * alpha * float(d.dot(d)))


def _gradient(model: ModelAt, x: Array, hinge: Array, J: Array, alpha: float,
              center: Array) -> Array:
    """Its gradient at x, with model.subgrad_F for F, the hinge and J = jac_G(x)."""
    return (np.asarray(model.subgrad_F(x), float) + _rmatvec(J, hinge)
            + alpha * (x - center))


def multiplier_update(lam: Array, model: ModelAt, x_next: Array, sigma: float,
                      shift: Optional[Array] = None) -> Array:
    """Componentwise [lam + sigma G(x_next)]_+.  ``shift``, when given, is
    lam + sigma G(x_next) as the subproblem solve evaluated it, so G is not
    evaluated again."""
    if shift is None:
        shift = np.asarray(lam, float) + sigma * model.eval_G(x_next)
    return np.maximum(shift, 0.0)


def closed_form_linearized_p1(a: Array, b: Array, gamma: float,
                              alpha: float, sigma: float,
                              feasible_set: FeasibleSet) -> Array:
    """Project the exact minimizer of (alpha/2)||x||^2 + a.x + (sigma/2)[b.x + gamma]_+^2.

    If the hinge is inactive at the unconstrained minimizer -a/alpha, that
    point is optimal.  Otherwise the active quadratic gives the linear system
    (alpha I + sigma b b^T) x = -(a + sigma gamma b), solved by the rank-one
    inverse update.  (S, n) rows of a and b with S values gamma give the S
    points, each with its own bits.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows = a.ndim == 2
    column = (lambda v: v[:, None]) if rows else (lambda v: v)
    inactive = alpha * gamma <= _dot(a, b)
    xbar = -a / alpha
    if not (inactive.all() if rows else inactive):
        w = a + column(sigma * gamma) * b
        denom = alpha * (alpha + sigma * _dot(b, b))
        active = -w / alpha + column(sigma * _dot(b, w) / denom) * b
        xbar = np.where(inactive[:, None], xbar, active) if rows else active
    return feasible_set.project(xbar) if rows else project(feasible_set, xbar)


def _solve_truncated(model: ModelAt, prox_center: Array, lam: Array,
                     cfg: MalmConfig, feasible_set: FeasibleSet):
    """Handle the hinged objective [f + <u, x-a>]_+ through its scalar dual.

    [w]_+ = max_{0 <= mu <= 1} mu w, so for each fixed mu the inner problem
    is the linearized model with the tangent plane of f scaled by mu, which
    ``_solve_model`` certifies at tol/4.  The dual function is concave with
    derivative equal to the hinge argument at the inner solution, whose root
    Brent's method locates; no mu is solved twice.  The inner certificate
    uses mu * u, an epsilon-subgradient selection of the hinge at the
    returned point, so it also certifies the truncated objective.  The inner
    models share G with ``model``, so the root's inner solve returns the
    shift at the returned point too.
    """
    from scipy.optimize import brentq  # only the truncated model needs it

    inner_cfg = replace(cfg, tol=0.25 * cfg.tol)
    anchor, f_anchor, u = model.anchor, model.f_at_anchor, model.u
    solved = {}

    def slope(mu: float) -> float:
        if mu not in solved:
            scaled = replace(model, kind=LINEARIZED, f_anchor=mu * f_anchor, u=mu * u)
            x, _, shift = _solve_model(scaled, prox_center, lam, inner_cfg,
                                       feasible_set)
            solved[mu] = x, shift, f_anchor + float(u @ (x - anchor))
        return solved[mu][2]

    if slope(0.0) <= 0.0:
        mu = 0.0
    elif slope(1.0) >= 0.0:
        mu = 1.0
    else:
        width = min(cfg.tol / (4.0 * (1.0 + math.sqrt(float(u.dot(u))))), 1e-12)
        mu = brentq(slope, 0.0, 1.0, xtol=width, maxiter=200, disp=False)
    x, shift, _ = solved[mu]
    return x, TRUNCATED, shift


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
    ball every coordinate is free and the steps stay inside.  The line
    search is Armijo on the subproblem objective, from the projection of
    ``x_start``, at one G(x) per point, through the shift lam + sigma G(x),
    and one J per iterate.  Returns the last point, its projected-gradient
    residual, above tol when the step cap is reached, no decrease is found
    or a trial point leaves the ball, and its shift.
    """
    alpha, sigma, tol = cfg.alpha, cfg.sigma, cfg.tol
    eval_G, jac_G, lam_sq = model.eval_G, model.jac_G, float(lam.dot(lam))
    project, box = feasible_set.project, isinstance(feasible_set, Box)
    if box:
        near_lower, near_upper = feasible_set.lower + tol, feasible_set.upper - tol
    if hess_G is None and np.ndim(hess_F) == 1:
        base, diag, eye = None, hess_F + alpha, np.eye(lam.size) / sigma
    else:
        base = np.diag(hess_F) if np.ndim(hess_F) == 1 else hess_F
        base = base + alpha * np.eye(x_start.size)

    def evaluate(x: Array) -> tuple:
        shift = lam + sigma * eval_G(x)
        hinge = np.maximum(shift, 0.0)
        return _value(model, x, lam_sq, hinge, alpha, sigma, prox_center), shift, hinge

    x = project(x_start)
    value, shift, hinge = evaluate(x)
    steps = 0
    while True:
        J = jac_G(x)
        g = _gradient(model, x, hinge, J, alpha, prox_center)
        r = x - project(x - g)
        res = math.sqrt(float(r.dot(r)))
        if res <= tol or steps == _NEWTON_MAX_STEPS:
            return x, res, shift
        steps += 1
        hinged = shift > 0.0
        free = ~(((x <= near_lower) & (g > 0.0)) | ((x >= near_upper) & (g < 0.0))) \
            if box else slice(None)
        any_free = not box or free.any()
        # rows picked last keep W C-contiguous: BLAS sums depend on layout
        W = J[:, free][hinged]
        if base is None:
            direction = g / diag
            if hinged.any() and any_free:
                r, WD = direction[free], W / diag[free]
                K = eye[:len(W), :len(W)] + WD.dot(W.T)
                direction[free] = r - WD.T.dot(np.linalg.solve(K, W.dot(r)))
        else:
            B = base if hess_G is None else \
                base + (hess_G[hinged].T @ shift[hinged]).T
            direction = g / np.diag(B)
            if any_free:
                direction[free] = np.linalg.solve(
                    B[:, free][free] + sigma * W.T.dot(W), g[free])
        rounding = _ROUNDING * (1.0 + abs(value))
        step = 1.0
        while True:
            x_new = x - step * direction
            if box:
                x_new = project(x_new)
            elif math.sqrt(float(x_new.dot(x_new))) > feasible_set.radius:
                return x, res, shift
            value_new, shift_new, hinge_new = evaluate(x_new)
            if value_new <= value + _ARMIJO * float(g.dot(x_new - x)) + rounding:
                break
            step *= 0.5
            if step < _MIN_STEP:
                return x, res, shift
        x, value, shift, hinge = x_new, value_new, shift_new, hinge_new


def solve_subproblem(model: ModelAt, prox_center: Array, lam: Array,
                     cfg: MalmConfig, feasible_set: FeasibleSet,
                     record: Optional[dict] = None) -> Array:
    """Minimize the augmented Lagrangian plus proximal term over the set.

    The truncated model goes to its dual root search, any other model to
    ``_solve_model``; either certifies the point x at cfg.tol.  ``record``,
    a dict when given, gets the path that returned x under "path"
    ("closed_form", "newton", "fista" or "truncated") and the shift
    lam + sigma G(x) under "shift", which ``multiplier_update`` takes.  The
    linearized model of a group's round (p = 1) takes (S, n) and (S, 1)
    rows and gives S rows, with one path per row.
    """
    prox_center = np.asarray(prox_center, dtype=float)
    lam = np.asarray(lam, dtype=float)
    solve = _solve_truncated if model.kind == TRUNCATED else _solve_model
    x, path, shift = solve(model, prox_center, lam, cfg, feasible_set)
    if record is not None:
        record["path"], record["shift"] = path, shift
    return x


def _solve_model(model: ModelAt, prox_center: Array, lam: Array,
                 cfg: MalmConfig, feasible_set: FeasibleSet):
    """Solve the subproblem of any model but the truncated one.

    One gradient and prox pair: the whole objective's gradient with the
    projection or, for the plain model with an l1 constraint, that of f plus
    the prox term with the penalty and the box in an exact prox.  From the
    prox center it tries, in order: the closed form for a single affine
    constraint under the linearized model; the Newton method when F and G
    are quadratics of constant Hessians (``ModelAt.quadratic_structure``),
    on a box or inside a ball; and FISTA on the pair, warm-started from the
    point the path before it could not certify.  Returns the point x, whose
    residual for the pair is at most cfg.tol, the path and the shift
    lam + sigma G(x) that its certificate took (FISTA's is evaluated at x).
    A group's rows take the closed form together; a row that misses its
    certificate is solved alone, on its instance's own model.
    """
    sigma = cfg.sigma
    l1 = model.kind == PLAIN and model.oracle.g_kind == "l1"
    if l1:
        if not isinstance(feasible_set, Box):
            raise UnsupportedProblemError(
                "plain model with an l1 constraint needs a box-like feasible set")
        grad, prox = _plain_l1_parts(model, prox_center, lam, cfg, feasible_set)
    elif model.kind == PLAIN and model.oracle.g_kind == "nonsmooth":
        raise UnsupportedProblemError(
            "plain model requires a smooth g_t (or the l1 structure)")
    else:
        def grad(x: Array) -> Array:
            return _gradient(model, x, np.maximum(lam + sigma * model.eval_G(x), 0.0),
                             model.jac_G(x), cfg.alpha, prox_center)

        def prox(z: Array, step: float) -> Array:
            return feasible_set.project(z)

    x = prox_center
    if model.kind == LINEARIZED and model.oracle.p == 1:
        b = model.V[..., 0, :]
        gamma = lam.T[0] / sigma + model.g_anchor.T[0] - _dot(b, model.anchor)
        x = closed_form_linearized_p1(model.u - cfg.alpha * prox_center, b, gamma,
                                      cfg.alpha, sigma, feasible_set)
        shift = lam + sigma * model.eval_G(x)
        r = x - feasible_set.project(x - _gradient(
            model, x, np.maximum(shift, 0.0), model.jac_G(x), cfg.alpha, prox_center))
        certified = np.sqrt(_dot(r, r)) <= cfg.tol
        if x.ndim == 2:
            paths = ["closed_form"] * len(x)
            if not certified.all():
                for i in np.flatnonzero(~certified):
                    alone = make_model(model.oracle.rows[i], model.anchor[i], model.kind)
                    x[i], paths[i], shift[i] = _solve_model(alone, prox_center[i],
                                                            lam[i], cfg, feasible_set)
            return x, tuple(paths), shift
        if certified:
            return x, "closed_form", shift

    structure = model.quadratic_structure()
    if structure is not None:
        x, res, shift = _solve_newton(model, prox_center, lam, cfg, feasible_set,
                                      x, *structure)
        if res <= cfg.tol:
            return x, "newton", shift

    jac = 0.0 if l1 else model.jac_G(prox_center)  # the l1 prox holds G
    l0 = cfg.alpha + model.iota + sigma * float(np.sum(jac * jac)) + 1.0
    x, _, _ = fista(x, grad, prox, tol=cfg.tol, max_iters=_FISTA_MAX_ITERS,
                    l0=l0)
    return x, "fista", lam + sigma * model.eval_G(x)


def run_malm(problem, cfg: MalmConfig) -> Trajectory:
    """MALM on ``run_schedule``'s delayed-feedback schedule (undelayed at
    tau = 0).

    When round s's oracle arrives, the model is anchored at x_s, the
    decision played in round s, which is also the prox center; the
    subproblem takes the multiplier held now, and the multiplier is updated
    with the model value at the new decision, through the shift the solve
    returns there.  A group of instances (one Trajectory each) steps in
    lockstep under the linearized model, and each instance runs alone under
    any other.
    """
    if hasattr(problem, "instances") and cfg.model_kind != LINEARIZED:
        return tuple(run_malm(instance, cfg) for instance in problem.instances)

    def step(s, oracle, x, lam, x_old, lam_old):
        iota = problem.strong_convexity(s) \
            if cfg.model_kind == QUADRATIC_LINEARIZED else 0.0
        model = make_model(oracle, x_old, cfg.model_kind, iota=iota)
        solved = {}
        x_next = solve_subproblem(model, x_old, lam, cfg, problem.set, solved)
        return x_next, multiplier_update(lam, model, x_next, cfg.sigma,
                                         solved["shift"])

    return run_schedule(problem, cfg.T, cfg.tau, step, cfg.x0)
