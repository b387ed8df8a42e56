"""Accelerated projected/proximal gradient used by the subproblem and offline solvers."""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .core import Array, ConvergenceError

# Iterations without a new best residual before giving up on further progress.
_STALL_WINDOW = 2000


def fista(x0: Array,
          smooth_grad: Callable[[Array], Array],
          prox: Callable[[Array, float], Array],
          tol: float,
          max_iters: int,
          l0: float = 1.0,
          raise_on_fail: bool = True) -> Tuple[Array, float, int]:
    """Minimize s(x) + h(x) where ``smooth_grad`` is grad s and ``prox`` handles h.

    Parameters
    ----------
    x0 : ndarray
        Starting point (should already satisfy h(x0) < inf).
    smooth_grad : callable
        Gradient of the smooth part (the method never needs its value).
    prox : callable
        prox(z, step) = argmin_u step*h(u) + ||u - z||^2 / 2.  For a pure
        set constraint this is the projection and ignores ``step``.
    tol : float
        Termination threshold on the fixed-point residual
        ||x - prox(x - grad(x), 1)||.
    max_iters : int
        Iteration cap; exceeding it raises ConvergenceError (or returns the
        best point when ``raise_on_fail`` is False).
    l0 : float
        Initial curvature estimate; the backtracking adapts it in both
        directions, so this only needs the right order of magnitude.

    Returns
    -------
    (x, residual, iterations)
    """
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    t_momentum = 1.0
    L = max(float(l0), 1e-12)

    g = smooth_grad(x)
    res = float(np.linalg.norm(x - prox(x - g, 1.0)))
    if res <= tol:
        return x, res, 0
    x_best, res_best, it_best = x.copy(), res, 0

    for it in range(1, int(max_iters) + 1):
        gy = smooth_grad(y)
        # Adaptive backtracking on the secant curvature <g(x+) - g(y), d>
        # <= L ||d||^2.  A value-based test is useless here: near
        # convergence the objective values agree to float precision while
        # both sides of the secant test still scale as ||d||^2.  The shrink
        # lets L recover from overshoots instead of ratcheting up until
        # steps round to zero.
        L = max(L * 0.9, 1e-12)
        while True:
            x_new = prox(y - gy / L, 1.0 / L)
            d = x_new - y
            dd = float(d @ d)
            if dd == 0.0:
                gnew = gy
                break
            gnew = smooth_grad(x_new)
            noise = 1e-15 * (1.0 + float(np.abs(gy) @ np.abs(d)))
            if float((gnew - gy) @ d) <= L * dd + noise:
                break
            L *= 2.0
            if not np.isfinite(L) or L > 1e30:
                raise ConvergenceError(
                    "backtracking failed: curvature not bounded at any step",
                    residual=np.inf, iterations=it)

        # Gradient-based adaptive restart of the momentum.
        if float((y - x_new) @ (x_new - x)) > 0.0:
            t_momentum = 1.0
            y = x_new.copy()
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            y = x_new + ((t_momentum - 1.0) / t_next) * (x_new - x)
            t_momentum = t_next
        x = x_new

        res = float(np.linalg.norm(x - prox(x - gnew, 1.0)))
        if res <= tol:
            return x, res, it
        if res < res_best:
            x_best, res_best, it_best = x.copy(), res, it
        elif it - it_best >= _STALL_WINDOW:
            # Bouncing on the float noise floor of the gradient; more
            # iterations cannot improve on the best point already seen.
            break

    if raise_on_fail:
        raise ConvergenceError(
            f"projected gradient stalled at residual {res_best:.3e} after {it} iterations",
            residual=res_best, iterations=it)
    return x_best, res_best, it

