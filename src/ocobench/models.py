"""Conservative model constructors: plain, linearized, quadratic, truncated.

A model (F, G) lower-bounds the round's (f_t, g_t) on the feasible set and
agrees with it at the anchor point.  The subproblem solvers rely on the
structured fields (anchor values, chosen subgradients) rather than the
generic methods, so ``make_model`` captures those at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, RoundOracle

PLAIN = "plain"
LINEARIZED = "linearized"
QUADRATIC_LINEARIZED = "quadratic_linearized"
TRUNCATED = "truncated"

MODEL_KINDS = (PLAIN, LINEARIZED, QUADRATIC_LINEARIZED, TRUNCATED)


@dataclass(frozen=True)
class ModelAt:
    """Conservative approximation pair (F, G) anchored at ``anchor``.

    For the linearized family, ``f_anchor``/``u`` and ``g_anchor``/``V``
    hold the captured values and subgradients at the anchor (V rows are the
    constraint subgradients), and ``iota`` is the curvature of the quadratic
    variant; the truncated model hinges the tangent plane of f at zero.  For
    the plain model those fields stay None and the methods pass straight
    through to the oracle.
    """

    kind: str
    anchor: Array
    p: int
    oracle: RoundOracle
    f_anchor: Optional[float] = None
    u: Optional[Array] = None
    g_anchor: Optional[Array] = None
    V: Optional[Array] = None
    iota: float = 0.0

    def eval_F(self, x: Array) -> float:
        if self.kind == PLAIN:
            return float(self.oracle.eval_f(x))
        d = np.asarray(x, float) - self.anchor
        lin = self.f_anchor + float(self.u @ d)
        if self.kind == QUADRATIC_LINEARIZED:
            return lin + 0.5 * self.iota * float(d @ d)
        return max(lin, 0.0) if self.kind == TRUNCATED else lin

    def subgrad_F(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return np.asarray(self.oracle.subgrad_f(x), dtype=float)
        if self.kind == QUADRATIC_LINEARIZED:
            return self.u + self.iota * (np.asarray(x, float) - self.anchor)
        if self.kind == TRUNCATED and not self.eval_F(x) > 0.0:
            return np.zeros_like(self.u)
        return self.u.copy()

    def eval_G(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return np.asarray(self.oracle.eval_g(x), dtype=float)
        return self.g_anchor + self.V @ (np.asarray(x, float) - self.anchor)

    def jac_G(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return self.oracle.jac_g(x)
        return self.V

    def quadratic_structure(self) -> Optional[tuple]:
        """(h, V) when F has the constant Hessian diag(h) and G(x) = V x + const.

        None when there is no such pair: the truncated model's hinge, or a
        plain model whose oracle gives no ``hess_diag`` or whose
        constraints are not affine.
        """
        if self.kind == TRUNCATED:
            return None
        if self.kind == PLAIN:
            oracle = self.oracle
            if oracle.hess_diag is None or not oracle.linear_g:
                return None
            V = oracle.jac_g(np.zeros(oracle.n))
            return (np.asarray(oracle.hess_diag, dtype=float),
                    np.asarray(V, dtype=float))
        return np.full(self.V.shape[1], self.iota), self.V


def make_model(oracle: RoundOracle, anchor: Array, kind: str,
               iota: float = 0.0) -> ModelAt:
    """The model of ``kind`` for the round ``oracle``, anchored at ``anchor``.

    ``plain`` is F = f_t, G = g_t (the anchor plays no role).  The others
    capture the oracle's values and subgradients at the anchor:
    ``linearized`` is the tangent planes of f_t and g_t,
    ``quadratic_linearized`` adds the curvature ``iota`` of an
    iota-strongly-convex loss, and ``truncated`` hinges the tangent plane
    of f_t at zero, which still lower-bounds f_t only where f_t >= 0 on the
    set (caller-asserted).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    anchor = np.asarray(anchor, dtype=float)
    if kind == PLAIN:
        return ModelAt(kind=kind, anchor=anchor, p=oracle.p, oracle=oracle)
    if kind != QUADRATIC_LINEARIZED:
        iota = 0.0
    elif iota < 0:
        raise ValueError("iota must be nonnegative")
    return ModelAt(kind=kind, anchor=anchor, p=oracle.p, oracle=oracle,
                   f_anchor=float(oracle.eval_f(anchor)),
                   u=np.asarray(oracle.subgrad_f(anchor), dtype=float),
                   g_anchor=np.asarray(oracle.eval_g(anchor), dtype=float),
                   V=np.asarray(oracle.jac_g(anchor), dtype=float),
                   iota=float(iota))
