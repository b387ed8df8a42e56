"""Best fixed decision in hindsight: minimize the summed losses subject to
every round's constraints over the feasible set.

Structure is exploited where it is exact: the network problem's constraints
aggregate to A x <= -max_t b_t, and the regression problem's reduce to an
l1 ball intersected with the sup-norm box, solved by projected gradient.
Everything else goes through an augmented-Lagrangian loop over the stacked
per-round constraints.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ._apg import fista
from .core import (Array, ConvergenceError, InfeasibleProblemError,
                   _l1_threshold, project)
from .problems import ProblemInstance

_MAX_OUTER = 100
_RHO_CAP = 1e13


def project_l1_box(point: Array, a: float, M: float) -> Array:
    """Euclidean projection onto {||x||_1 <= a} intersected with {||x||_inf <= M}.

    Both sets are sign-symmetric, so the projection keeps signs and applies
    a soft threshold followed by the box clamp; the threshold solves the
    piecewise-linear budget equation by sorting its breakpoints
    (``core._l1_threshold``).

    Parameters
    ----------
    point : ndarray
        Point to project.
    a : float
        l1 budget, a >= 0.
    M : float
        Box half-width, M > 0.

    Returns
    -------
    ndarray
        The unique nearest point of the intersection.
    """
    if a < 0:
        raise ValueError("l1 budget a must be nonnegative")
    if M <= 0:
        raise ValueError("box bound M must be positive")
    z = np.asarray(point, dtype=float)
    abs_z = np.abs(z)
    if np.minimum(abs_z, M).sum() <= a:
        return np.clip(z, -M, M)
    if a == 0.0:
        return np.zeros_like(z)
    theta = _l1_threshold(abs_z, 0.0, M, a, 0.0)
    return np.sign(z) * np.minimum(np.maximum(abs_z - theta, 0.0), M)


def _al_loop(grad, cons, weighted_jac, feasible_set, x0, tol, l0, label):
    """Minimize the objective with gradient ``grad`` over the set subject to
    cons(x) <= 0 componentwise.

    Outer multiplier steps on the hinged penalty, inner accelerated projected
    gradient; the penalty grows tenfold whenever the worst violation fails to
    halve, and a stalled violation under a huge penalty reports infeasibility.
    Once the multipliers settle and the point is feasible to ``tol``, the
    returned point is re-solved against the fixed-multiplier Lagrangian: its
    gradient carries no penalty amplification, so the stationarity residual
    can be certified at ``tol`` even when the hinged penalty gradient is too
    noisy for that.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = np.zeros_like(cons(x))
    rho = 1.0
    viol_prev = np.inf

    def prox(z, step):
        return project(feasible_set, z)

    for _ in range(_MAX_OUTER):
        def pen_grad(y, _lam=lam, _rho=rho):
            hinge = np.maximum(_lam + _rho * cons(y), 0.0)
            return grad(y) + weighted_jac(y, hinge)

        inner_tol = max(tol, min(1e-3, 0.1 * viol_prev))
        x, res, _ = fista(x, pen_grad, prox, tol=inner_tol,
                          max_iters=200_000, l0=l0, raise_on_fail=False)
        gv = cons(x)
        viol = float(np.maximum(gv, 0.0).max(initial=0.0))
        lam_new = np.maximum(lam + rho * gv, 0.0)
        dual_move = float(np.linalg.norm(lam_new - lam))
        lam = lam_new
        if viol <= tol \
                and dual_move <= max(tol, 1e-6) * (1.0 + float(np.linalg.norm(lam))):
            return _polish(grad, cons, weighted_jac, prox, x, lam, tol, l0,
                           label)
        if viol > 0.5 * viol_prev and viol > tol:
            rho *= 10.0
        if rho > _RHO_CAP and viol > max(10.0 * tol, 1e-8):
            raise InfeasibleProblemError(
                f"{label}: constraint residual {viol:.3e} stalled under "
                f"penalty {rho:.1e}; no round-universal feasible point")
        viol_prev = viol
    raise InfeasibleProblemError(
        f"{label}: augmented-Lagrangian loop failed to converge "
        f"(last violation {viol_prev:.3e})")


def _polish(grad, cons, weighted_jac, prox, x, lam, tol, l0, label):
    """Certify stationarity on the Lagrangian at the converged multipliers.

    With lam fixed the gradient is grad(x) + J(x)^T lam, free of the rho-scaled
    hinge cancellations, so the projected-gradient residual is measurable down
    to tol.  Feasibility of the polished point is rechecked before returning.
    """
    def lagr_grad(y):
        return grad(y) + weighted_jac(y, lam)

    x_pol, res, _ = fista(x, lagr_grad, prox, tol=0.5 * tol,
                          max_iters=200_000, l0=l0, raise_on_fail=False)
    viol = float(np.maximum(cons(x_pol), 0.0).max(initial=0.0))
    if res <= tol and viol <= tol:
        return x_pol
    raise ConvergenceError(
        f"{label}: polish left residual {res:.3e} / violation {viol:.3e} "
        f"above tolerance {tol:.1e}",
        residual=max(res, viol))


def _solve_nra(problem: ProblemInstance, tol: float) -> Array:
    if problem.constants is not None and problem.constants.eps0 < -1e-9:
        raise InfeasibleProblemError(
            f"nra seed {problem.seed}: Slater margin {problem.constants.eps0:.3e}"
            " is negative; no decision satisfies every round")
    A = problem.data["A"]
    b_max = problem.data["b"].max(axis=0)
    q_sum = problem.data["q"].sum(axis=0)

    def grad(x):
        return 2.0 * q_sum * x

    def cons(x):
        return A @ x + b_max

    def weighted_jac(x, w):
        return A.T @ w

    x0 = project(problem.set, np.zeros(problem.n))
    return _al_loop(grad, cons, weighted_jac, problem.set, x0, tol,
                    l0=2.0 * float(q_sum.max()) + 1.0,
                    label=f"nra comparator (seed {problem.seed})")


def _solve_olr(problem: ProblemInstance, tol: float) -> Array:
    a_min = float(problem.data["a"].min())
    M = float(problem.set.upper[0])
    Z = (problem.data["labels"][:, :, None] * problem.data["u"]) \
        .reshape(-1, problem.n)

    def grad(x):
        return -(Z.T @ expit(-(Z @ x)))

    def prox(z, step):
        return project_l1_box(z, a_min, M)

    x, _, _ = fista(np.zeros(problem.n), grad, prox, tol=tol,
                    max_iters=500_000, l0=1.0)
    return x


def _solve_oqcqp(problem: ProblemInstance, tol: float) -> Array:
    A_bar = problem.data["A"].sum(axis=0)
    b_bar = problem.data["b"].sum(axis=0)
    C_all, d_all, e_all = (problem.data[k] for k in ("C", "d", "e"))
    T, p = e_all.shape

    def grad(x):
        return A_bar @ x + b_bar

    def cons(x):
        return (0.5 * ((C_all @ x) @ x) + d_all @ x + e_all).ravel()

    def weighted_jac(x, w):
        jac = C_all @ x + d_all
        return np.einsum("tp,tpn->n", w.reshape(T, p), jac)

    x0 = project(problem.set, np.zeros(problem.n))
    l0 = float(np.linalg.eigvalsh(A_bar)[-1]) + 1.0
    return _al_loop(grad, cons, weighted_jac, problem.set, x0, tol,
                    l0=l0, label=f"oqcqp comparator (seed {problem.seed})")


def _solve_generic(problem: ProblemInstance, tol: float) -> Array:
    """Stacked-constraint fallback for hand-built instances.

    Assumes smooth losses and constraints (it feeds subgradients to an
    accelerated method); fine for the smooth test problems it serves.
    """
    rounds = problem.rounds

    def grad(x):
        out = np.zeros(problem.n)
        for o in rounds:
            out += o.subgrad_f(x)
        return out

    def cons(x):
        return np.concatenate([o.eval_g(x) for o in rounds])

    def weighted_jac(x, w):
        out = np.zeros(problem.n)
        at = 0
        for o in rounds:
            out += o.jac_g(x).T @ w[at:at + o.p]
            at += o.p
        return out

    x0 = project(problem.set, np.zeros(problem.n))
    return _al_loop(grad, cons, weighted_jac, problem.set, x0, tol,
                    l0=1.0, label=f"{problem.kind} comparator")


def solve_comparator(problem: ProblemInstance, tol: float = 1e-7) -> Array:
    """Best fixed decision: argmin over the set of the summed losses subject
    to every round's constraints.

    Parameters
    ----------
    problem : ProblemInstance
        Instance whose rounds define the objective and constraints.
    tol : float
        Feasibility and projected-gradient-residual tolerance.

    Returns
    -------
    ndarray
        A point of the feasible set with max_{t,i} g_t^(i) <= tol and
        penalized-objective residual <= tol.  Deterministic given
        (problem, tol).

    Raises
    ------
    InfeasibleProblemError
        When no decision satisfies all rounds at once (stalled constraint
        residual under a huge penalty, or a certified negative margin).
    """
    if problem.kind == "nra":
        return _solve_nra(problem, tol)
    if problem.kind == "olr":
        return _solve_olr(problem, tol)
    if problem.kind == "oqcqp":
        return _solve_oqcqp(problem, tol)
    return _solve_generic(problem, tol)
