"""Accelerated projected/proximal gradient used by the subproblem and offline solvers."""

from __future__ import annotations

import math
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

    The callbacks are called exactly as ``smooth_grad(x)`` and ``prox(z, step)``,
    the shapes ``bench/tracing.py`` wraps.  FISTA writes only into arrays it
    created itself, never into what a callback returned.

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
        Iteration cap, at least 1; exceeding it raises ConvergenceError (or
        returns the best point when ``raise_on_fail`` is False).
    l0 : float
        Initial curvature estimate; the backtracking adapts it in both
        directions, so this only needs the right order of magnitude.

    Returns
    -------
    (x, residual, iterations)
    """
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")
    x = np.asarray(x0, dtype=float).copy()
    y = x
    t_momentum = 1.0
    L = max(float(l0), 1e-12)

    # math.sqrt(r.dot(r)) is what np.linalg.norm computes for a real vector.
    # gy is y's gradient when already taken (y is x0, or x+ after a restart).
    gy = smooth_grad(x)
    r = x - prox(x - gy, 1.0)
    res = math.sqrt(float(r.dot(r)))
    if res <= tol:
        return x, res, 0
    x_best, res_best, it_best = x, res, 0

    for it in range(1, int(max_iters) + 1):
        gy = smooth_grad(y) if gy is None else gy
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
            dd = float(d.dot(d))
            if dd == 0.0:
                gnew = gy
                break
            gnew = smooth_grad(x_new)
            # The allowance is >= 0: needed only when curv > L ||d||^2.
            curv = float((gnew - gy).dot(d))
            if curv <= L * dd or curv <= L * dd + 1e-15 * (
                    1.0 + float(np.abs(gy).dot(np.abs(d)))):
                break
            L *= 2.0
            if not np.isfinite(L) or L > 1e30:
                raise ConvergenceError(
                    "backtracking failed: curvature not bounded at any step",
                    residual=np.inf, iterations=it)

        # Gradient-based adaptive restart when (y - x+).step = -d.step > 0.
        step = x_new - x
        if float(d.dot(step)) < 0.0:
            t_momentum = 1.0
            y, gy = x_new, gnew
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            step *= (t_momentum - 1.0) / t_next
            step += x_new
            y, gy = step, None
            t_momentum = t_next
        x = x_new

        r = x - prox(x - gnew, 1.0)
        res = math.sqrt(float(r.dot(r)))
        if res <= tol:
            return x, res, it
        if res < res_best:
            x_best, res_best, it_best = x, res, it
        elif it - it_best >= _STALL_WINDOW:
            # Bouncing on the float noise floor of the gradient; more
            # iterations cannot improve on the best point already seen.
            break

    if raise_on_fail:
        raise ConvergenceError(
            f"projected gradient stalled at residual {res_best:.3e} after {it} iterations",
            residual=res_best, iterations=it)
    return x_best, res_best, it

