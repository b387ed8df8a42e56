"""Best fixed decision in hindsight: minimize the summed losses subject to
every round's constraints over the feasible set.

The regression problem's constraints reduce to an l1 ball intersected with
the sup-norm box, solved by Newton steps while they stay inside it and by
projected gradient once one leaves it; its sigmoid is the rounds' own,
from the C library's ``exp``, so no family here needs scipy.  Every other
family goes through one augmented-Lagrangian loop (method of multipliers)
over its stacked constraints, of which the network problem's aggregate
exactly to A x <= -max_t b_t; its penalty steps are MALM's plain-model
subproblem of that aggregated round, which MALM's projected Newton method
solves.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from ._apg import fista
from .core import (Array, ConvergenceError, InfeasibleProblemError,
                   _l1_threshold, project)
from .malm import _solve_newton
from .models import PLAIN, make_model
from .problems import ProblemInstance, _diag_quadratic_round, _expit_neg

_MAX_OUTER = 100
_RHO_CAP = 1e13
# Newton steps the olr comparator takes before it hands over to FISTA.
_OLR_NEWTON_STEPS = 10


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
    if not a >= 0:
        raise ValueError(f"l1 budget a must be nonnegative, got {a!r}")
    if not M > 0:
        raise ValueError(f"box bound M must be positive, got {M!r}")
    z = np.asarray(point, dtype=float)
    abs_z = np.abs(z)
    if np.minimum(abs_z, M).sum() <= a:
        return np.clip(z, -M, M)
    if a == 0.0:
        return np.zeros_like(z)
    theta = _l1_threshold(abs_z, 0.0, M, a, 0.0)
    return np.sign(z) * np.minimum(np.maximum(abs_z - theta, 0.0), M)


def _stacked_parts(problem: ProblemInstance):
    """(lagrangian_grad, hinged_grad, cons, l0): (x, w) -> grad sum_t f_t(x)
    + J(x)^T w; (x, lam, rho) -> that at w = [lam + rho cons(x)]_+, in one
    pass; the stacked constraints cons(x) <= 0; and a Lipschitz guess.

    Any kind but ``nra`` and ``oqcqp`` stacks its rounds' oracles, assuming
    smooth losses and constraints, as the hand-built test instances have.
    """
    data = problem.data
    if problem.kind == "nra":
        A = data["A"]
        b_max = data["b"].max(axis=0)
        two_q, A_t = 2.0 * data["q"].sum(axis=0), A.T

        # .dot is the same gemv as @ at a third of the call cost.
        def lagrangian_grad(x, w):
            return two_q * x + A_t.dot(w)

        def hinged_grad(x, lam, rho):
            w = A.dot(x)
            w += b_max
            w *= rho
            w += lam
            return A_t.dot(np.maximum(w, 0.0, out=w)) + two_q * x

        def cons(x):
            return A.dot(x) + b_max

        return lagrangian_grad, hinged_grad, cons, float(two_q.max()) + 1.0

    if problem.kind == "oqcqp":
        A_bar = data["A"].sum(axis=0)
        b_bar = data["b"].sum(axis=0)
        # Flat (T p, n) rows, one gemv per product; Cx is shared, d added into it.
        n = problem.n
        C, d, e = data["C"].reshape(-1, n), data["d"].reshape(-1, n), data["e"].ravel()

        def cons(x, Cx=None):
            Cx = C.dot(x).reshape(-1, n) if Cx is None else Cx
            return 0.5 * Cx.dot(x) + d.dot(x) + e

        def lagrangian_grad(x, w, Cx=None):
            Cx = C.dot(x).reshape(-1, n) if Cx is None else Cx
            Cx += d
            return A_bar.dot(x) + b_bar + Cx.T.dot(w)

        def hinged_grad(x, lam, rho):
            Cx = C.dot(x).reshape(-1, n)
            return lagrangian_grad(x, np.maximum(lam + rho * cons(x, Cx), 0.0), Cx)

        return (lagrangian_grad, hinged_grad, cons,
                float(np.linalg.eigvalsh(A_bar)[-1]) + 1.0)

    rounds = problem.rounds

    def lagrangian_grad(x, w):
        loss, coupling = np.zeros(problem.n), np.zeros(problem.n)
        at = 0
        for o in rounds:
            loss += o.subgrad_f(x)
            coupling += o.jac_g(x).T @ w[at:at + o.p]
            at += o.p
        return loss + coupling

    def hinged_grad(x, lam, rho):
        return lagrangian_grad(x, np.maximum(lam + rho * cons(x), 0.0))

    def cons(x):
        return np.concatenate([o.eval_g(x) for o in rounds])

    return lagrangian_grad, hinged_grad, cons, 1.0


def _al_loop(problem: ProblemInstance, tol: float) -> Array:
    """Minimize the summed losses over the set subject to the stacked
    constraints, from the blind start Pi_C(0).

    Outer multiplier steps on the hinged penalty, inner accelerated projected
    gradient; ``nra``'s inner steps take MALM's projected Newton method first,
    on the aggregated round (sum_t q_t, A, max_t b_t) at alpha = 0 and
    sigma = rho, and FISTA from its point when it misses ``inner_tol``.
    The penalty grows tenfold whenever the worst violation fails to
    halve, and a stalled violation under a huge penalty reports infeasibility.
    Once the multipliers settle and the point is feasible to ``tol``, it is
    polished on the fixed-multiplier Lagrangian, whose gradient carries no
    penalty amplification, so the residual is certified at ``tol`` even when
    the hinged penalty gradient is too noisy for that; feasibility is
    rechecked.
    """
    lagrangian_grad, hinged_grad, cons, l0 = _stacked_parts(problem)
    label = f"{problem.kind} comparator (seed {problem.seed})"
    x = project(problem.set, np.zeros(problem.n))
    newton = None
    if problem.kind == "nra":
        data = problem.data
        q = data["q"].sum(axis=0)
        if q.min() > 0.0:  # Newton divides by hess_f = 2q
            newton = make_model(_diag_quadratic_round(
                q, data["b"].max(axis=0), data["A"], 2.0 * q), x, PLAIN)
    lam = np.zeros_like(cons(x))
    rho = 1.0
    viol_prev = np.inf

    def prox(z, step, _project=problem.set.project):
        return _project(z)

    for _ in range(_MAX_OUTER):
        inner_tol = max(tol, min(1e-3, 0.1 * viol_prev))
        res = np.inf
        if newton is not None:
            # _solve_newton reads only these three of a MalmConfig
            cfg = SimpleNamespace(alpha=0.0, sigma=rho, tol=inner_tol)
            x, res, _ = _solve_newton(newton, x, lam, cfg, problem.set, x,
                                      newton.oracle.hess_f, None)
        if res > inner_tol:
            x, res, _ = fista(x, lambda y: hinged_grad(y, lam, rho), prox,
                              tol=inner_tol, max_iters=200_000, l0=l0,
                              raise_on_fail=False)
        gv = cons(x)
        viol = float(np.maximum(gv, 0.0).max(initial=0.0))
        lam_new = np.maximum(lam + rho * gv, 0.0)
        dual_move = float(np.linalg.norm(lam_new - lam))
        lam = lam_new
        if viol <= tol \
                and dual_move <= max(tol, 1e-6) * (1.0 + float(np.linalg.norm(lam))):
            x, res, _ = fista(x, lambda y: lagrangian_grad(y, lam), prox,
                              tol=0.5 * tol, max_iters=200_000, l0=l0,
                              raise_on_fail=False)
            viol = float(np.maximum(cons(x), 0.0).max(initial=0.0))
            if res <= tol and viol <= tol:
                return x
            raise ConvergenceError(
                f"{label}: polish left residual {res:.3e} / violation "
                f"{viol:.3e} above tolerance {tol:.1e}",
                residual=max(res, viol))
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


def _solve_olr(problem: ProblemInstance, tol: float) -> Array:
    """Minimize the summed logistic loss over the l1 ball of the smallest
    budget intersected with the box.

    Newton steps from 0, with H = Z^T diag(s (1 - s)) Z at s = expit(-Z x),
    return the first point whose projected-gradient residual is within
    ``tol``, which takes a few steps where x* is inside the set.  A step
    that leaves the set, a singular H or the step cap hands the last point
    inside the set to FISTA, which certifies the same residual.
    """
    a_min = float(problem.data["a"].min())
    M = float(problem.set.upper[0])
    Z = problem.data["Z"].reshape(-1, problem.n)

    def grad(x):
        return -(Z.T @ _expit_neg((Z @ x).tolist()))

    def prox(z, step):
        return project_l1_box(z, a_min, M)

    x = np.zeros(problem.n)
    for _ in range(_OLR_NEWTON_STEPS):
        # at x = 0 every entry of Z x is +-0, whose sigmoid is exactly 0.5
        s = _expit_neg((Z @ x).tolist()) if x.any() else np.full(len(Z), 0.5)
        g = -(Z.T @ s)
        r = x - prox(x - g, 1.0)
        if math.sqrt(float(r.dot(r))) <= tol:
            return x
        w = 1.0 - s
        w *= s
        # H row by row: each temporary is one column of Z, not a copy of Z
        H = np.array([Z.T @ (w * z) for z in Z.T])
        try:
            x_new = x - np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        abs_x = np.abs(x_new)
        # also false for a non-finite step
        if not (abs_x.sum() <= a_min and abs_x.max() <= M):
            break
        x = x_new
    x, _, _ = fista(x, grad, prox, tol=tol, max_iters=500_000, l0=1.0)
    return x


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
    ValueError
        When ``tol`` is not positive and finite.
    InfeasibleProblemError
        When no decision satisfies all rounds at once (stalled constraint
        residual under a huge penalty, or a certified negative margin).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if problem.kind == "olr":
        return _solve_olr(problem, tol)
    if problem.kind == "nra" and problem.constants is not None \
            and problem.constants.eps0 < -1e-9:
        raise InfeasibleProblemError(
            f"nra seed {problem.seed}: Slater margin {problem.constants.eps0:.3e}"
            " is negative; no decision satisfies every round")
    return _al_loop(problem, tol)
