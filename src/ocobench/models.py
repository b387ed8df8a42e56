"""Conservative model constructors: plain, linearized, quadratic, truncated.

A model (F, G) lower-bounds the round's (f_t, g_t) on the feasible set and
agrees with it at the anchor point.  The subproblem solvers rely on the
structured fields (anchor values, chosen subgradients) rather than the
generic methods, so ``make_model`` captures those at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import Array, RoundOracle, _matvec

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
    variant (0 for the others), so F(x) = f_anchor + <u, d> + (iota/2)||d||^2
    with d = x - anchor, which the truncated model hinges at zero.  A
    ``f_anchor`` of None is f_t(anchor), taken on the first read of
    ``f_at_anchor``.  For the plain model those fields stay None and the
    methods pass straight through to the oracle.  The linearized model of
    round t of a ``problems.InstanceGroup`` stacks each field per instance.
    """

    kind: str
    anchor: Array
    oracle: RoundOracle
    f_anchor: Optional[float] = None
    u: Optional[Array] = None
    g_anchor: Optional[Array] = None
    V: Optional[Array] = None
    iota: float = 0.0

    @cached_property
    def f_at_anchor(self) -> float:
        """f_t at the anchor: ``f_anchor`` when given, else the oracle's
        value, taken on the first read.  F's value reads it; the closed form
        and the linearized gradients do not."""
        return float(self.oracle.eval_f(self.anchor)) if self.f_anchor is None \
            else self.f_anchor

    def eval_F(self, x: Array) -> float:
        if self.kind == PLAIN:
            return float(self.oracle.eval_f(x))
        d = np.asarray(x, float) - self.anchor
        value = (self.f_at_anchor + float(self.u.dot(d))
                 + 0.5 * self.iota * float(d.dot(d)))
        return max(value, 0.0) if self.kind == TRUNCATED else value

    def subgrad_F(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return np.asarray(self.oracle.subgrad_f(x), dtype=float)
        if self.kind == TRUNCATED and not self.eval_F(x) > 0.0:
            return np.zeros_like(self.u)
        if self.iota == 0.0:
            return self.u  # shared with the model: callers only read it
        return self.u + self.iota * (np.asarray(x, float) - self.anchor)

    def eval_G(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return np.asarray(self.oracle.eval_g(x), dtype=float)
        return self.g_anchor + _matvec(self.V, np.asarray(x, float) - self.anchor)

    def jac_G(self, x: Array) -> Array:
        if self.kind == PLAIN:
            return self.oracle.jac_g(x)
        return self.V

    def quadratic_structure(self) -> Optional[tuple]:
        """(hess_F, hess_G) when F and G are quadratics of constant Hessians.

        hess_F is an n-vector (a diagonal) or an (n, n) matrix; hess_G is the
        oracle's (p, n, n) ``hess_g`` for a plain model with quadratic
        constraints and None when G is affine.  None when there is no such
        pair: the truncated model's hinge, or a plain model whose oracle
        gives no ``hess_f``, or whose constraints are neither affine nor
        given a ``hess_g``.
        """
        if self.kind == TRUNCATED:
            return None
        if self.kind == PLAIN:
            oracle = self.oracle
            if oracle.hess_f is None or (oracle.g_kind != "affine"
                                         and oracle.hess_g is None):
                return None
            return oracle.hess_f, oracle.hess_g
        return np.full(self.V.shape[1], self.iota), None


def make_model(oracle: RoundOracle, anchor: Array, kind: str,
               iota: float = 0.0) -> ModelAt:
    """The model of ``kind`` for the round ``oracle``, anchored at ``anchor``.

    ``plain`` is F = f_t, G = g_t (the anchor plays no role).  The others
    capture the oracle's subgradients and g_t's value at the anchor, and
    f_t's value there when first read:
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
        return ModelAt(kind=kind, anchor=anchor, oracle=oracle)
    if kind != QUADRATIC_LINEARIZED:
        iota = 0.0
    elif not 0 <= iota < np.inf:
        raise ValueError(f"iota must be nonnegative and finite, got {iota!r}")
    return ModelAt(kind=kind, anchor=anchor, oracle=oracle,
                   u=np.asarray(oracle.subgrad_f(anchor), dtype=float),
                   g_anchor=np.asarray(oracle.eval_g(anchor), dtype=float),
                   V=np.asarray(oracle.jac_g(anchor), dtype=float),
                   iota=float(iota))
