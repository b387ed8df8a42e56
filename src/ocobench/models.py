"""Conservative model constructors: plain, linearized, quadratic, truncated.

A model (F, G) lower-bounds the round's (f_t, g_t) on the feasible set and
agrees with it at the anchor point.  The subproblem solvers rely on the
structured fields (anchor values, chosen subgradients) rather than the
generic methods, so the builders capture those at construction time.
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
    through to the oracle.  ``nu_g`` is an upper bound on ||G(y)|| over the
    feasible set when the caller supplies one (generators do; handmade
    oracles may leave it None).
    """

    kind: str
    anchor: Optional[Array]
    p: int
    oracle: Optional[RoundOracle] = None
    f_anchor: Optional[float] = None
    u: Optional[Array] = None
    g_anchor: Optional[Array] = None
    V: Optional[Array] = None
    iota: float = 0.0
    nu_g: Optional[float] = None

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
            return self.oracle.constraint_jacobian(x)
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
            if oracle is None or oracle.hess_diag is None or not oracle.linear_g:
                return None
            V = oracle.constraint_jacobian(np.zeros(oracle.n))
            return (np.asarray(oracle.hess_diag, dtype=float),
                    np.asarray(V, dtype=float))
        return np.full(self.V.shape[1], self.iota), self.V


def _anchored(kind: str, oracle: RoundOracle, anchor: Array,
              nu_g: Optional[float], iota: float = 0.0) -> ModelAt:
    """Capture the oracle's values and subgradients at the anchor."""
    anchor = np.asarray(anchor, dtype=float)
    return ModelAt(kind=kind, anchor=anchor, p=oracle.p, oracle=oracle,
                   f_anchor=float(oracle.eval_f(anchor)),
                   u=np.asarray(oracle.subgrad_f(anchor), dtype=float),
                   g_anchor=np.asarray(oracle.eval_g(anchor), dtype=float),
                   V=np.asarray(oracle.constraint_jacobian(anchor), dtype=float),
                   iota=float(iota), nu_g=nu_g)


def build_linearized(oracle: RoundOracle, anchor: Array,
                     nu_g: Optional[float] = None) -> ModelAt:
    """First-order model: tangent planes of f_t and g_t at the anchor."""
    return _anchored(LINEARIZED, oracle, anchor, nu_g)


def build_quadratic_linearized(oracle: RoundOracle, anchor: Array, iota: float,
                               nu_g: Optional[float] = None) -> ModelAt:
    """Linearized model of an iota-strongly-convex loss plus its curvature."""
    if iota < 0:
        raise ValueError("iota must be nonnegative")
    return _anchored(QUADRATIC_LINEARIZED, oracle, anchor, nu_g, iota)


def build_truncated(oracle: RoundOracle, anchor: Array,
                    nu_g: Optional[float] = None) -> ModelAt:
    """Hinged tangent plane [f + <u, x - anchor>]_+; needs f_t >= 0 on the set.

    The nonnegativity of f_t is caller-asserted; it is what makes the hinge
    still a lower bound of f_t.
    """
    return _anchored(TRUNCATED, oracle, anchor, nu_g)


def build_plain(oracle: RoundOracle, anchor: Optional[Array] = None,
                nu_g: Optional[float] = None) -> ModelAt:
    """Identity model F = f_t, G = g_t; the anchor plays no role."""
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)
    return ModelAt(kind=PLAIN, anchor=anchor, p=oracle.p, oracle=oracle,
                   nu_g=nu_g)


def make_model(oracle: RoundOracle, anchor: Array, kind: str,
               nu_g: Optional[float] = None, iota: float = 0.0) -> ModelAt:
    """Dispatch to the builder named by ``kind``."""
    if kind == PLAIN:
        return build_plain(oracle, anchor, nu_g=nu_g)
    if kind == LINEARIZED:
        return build_linearized(oracle, anchor, nu_g=nu_g)
    if kind == QUADRATIC_LINEARIZED:
        return build_quadratic_linearized(oracle, anchor, iota, nu_g=nu_g)
    if kind == TRUNCATED:
        return build_truncated(oracle, anchor, nu_g=nu_g)
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
