"""MALM and the baselines against frozen copies of their earlier rounds.

Each round now computes every quantity once: the subproblem solve hands the
shift lam + sigma G(x) it evaluated at its point to ``multiplier_update``,
the model takes f_t at the anchor only when a path reads F's value, and the
small products are ``.dot`` calls (the same BLAS kernels as ``@``).  None
of this may move a float, so the decisions and multipliers of ``run_malm``
and ``run_baseline`` must be bit-identical to runs of the copies below:
the earlier model, closed-form and Newton paths, multiplier update, olr,
nra and oqcqp oracles and baseline steps, with FISTA as
``test_apg.reference_fista``.  The live nra and oqcqp oracles take ``.dot``
products too, so each of their methods is also checked against the frozen
ones directly.
"""

import dataclasses
from itertools import repeat
from typing import Optional

import numpy as np
import pytest

from ocobench import (LINEARIZED, PLAIN, QUADRATIC_LINEARIZED, PRESETS, Box,
                      MalmConfig, RoundOracle, project, run_baseline, run_malm)
from ocobench.baselines import BaselineConfig
from ocobench.core import run_schedule
from ocobench.harness import generate_problem, malm_config_for

from test_apg import reference_fista


@dataclasses.dataclass(frozen=True)
class ReferenceModel:
    """The earlier ``models.ModelAt``, less the truncated kind."""

    kind: str
    anchor: np.ndarray
    oracle: RoundOracle
    f_anchor: Optional[float] = None
    u: Optional[np.ndarray] = None
    g_anchor: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    iota: float = 0.0

    def eval_F(self, x):
        if self.kind == PLAIN:
            return float(self.oracle.eval_f(x))
        d = np.asarray(x, float) - self.anchor
        return self.f_anchor + float(self.u @ d) + 0.5 * self.iota * float(d @ d)

    def subgrad_F(self, x):
        if self.kind == PLAIN:
            return np.asarray(self.oracle.subgrad_f(x), dtype=float)
        return self.u + self.iota * (np.asarray(x, float) - self.anchor)

    def eval_G(self, x):
        if self.kind == PLAIN:
            return np.asarray(self.oracle.eval_g(x), dtype=float)
        return self.g_anchor + self.V @ (np.asarray(x, float) - self.anchor)

    def jac_G(self, x):
        if self.kind == PLAIN:
            return self.oracle.jac_g(x)
        return self.V

    def quadratic_structure(self):
        if self.kind == PLAIN:
            oracle = self.oracle
            if oracle.hess_f is None or (oracle.g_kind != "affine"
                                         and oracle.hess_g is None):
                return None
            return oracle.hess_f, oracle.hess_g
        return np.full(self.V.shape[1], self.iota), None


def reference_make_model(oracle, anchor, kind, iota=0.0):
    """The earlier ``models.make_model``, less its input checks."""
    anchor = np.asarray(anchor, dtype=float)
    if kind == PLAIN:
        return ReferenceModel(kind=kind, anchor=anchor, oracle=oracle)
    if kind != QUADRATIC_LINEARIZED:
        iota = 0.0
    return ReferenceModel(kind=kind, anchor=anchor, oracle=oracle,
                          f_anchor=float(oracle.eval_f(anchor)),
                          u=np.asarray(oracle.subgrad_f(anchor), dtype=float),
                          g_anchor=np.asarray(oracle.eval_g(anchor), dtype=float),
                          V=np.asarray(oracle.jac_g(anchor), dtype=float),
                          iota=float(iota))


def reference_value(model, x, lam, shift, alpha, sigma, center):
    hinge = np.maximum(shift, 0.0)
    d = x - center
    return (float(model.eval_F(x))
            + (float(hinge @ hinge) - float(lam @ lam)) / (2.0 * sigma)
            + 0.5 * alpha * float(d @ d))


def reference_gradient(model, x, shift, J, alpha, center):
    return (np.asarray(model.subgrad_F(x), float) + J.T @ np.maximum(shift, 0.0)
            + alpha * (x - center))


def reference_multiplier_update(lam, model, x_next, sigma):
    return np.maximum(np.asarray(lam, float) + sigma * model.eval_G(x_next), 0.0)


def reference_closed_form(a, b, gamma, alpha, sigma, feasible_set):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if alpha * gamma <= float(a @ b):
        xbar = -a / alpha
    else:
        w = a + sigma * gamma * b
        denom = alpha * (alpha + sigma * float(b @ b))
        xbar = -w / alpha + (sigma * float(b @ w) / denom) * b
    return project(feasible_set, xbar)


def reference_newton(model, prox_center, lam, cfg, feasible_set, x_start,
                     hess_F, hess_G):
    """The earlier ``malm._solve_newton``, its constants written out."""
    alpha, sigma, tol = cfg.alpha, cfg.sigma, cfg.tol
    box = isinstance(feasible_set, Box)
    if hess_G is None and np.ndim(hess_F) == 1:
        base, diag = None, hess_F + alpha
    else:
        base = np.diag(hess_F) if np.ndim(hess_F) == 1 else hess_F
        base = base + alpha * np.eye(x_start.size)

    def evaluate(x):
        shift = lam + sigma * model.eval_G(x)
        return reference_value(model, x, lam, shift, alpha, sigma,
                               prox_center), shift

    x = project(feasible_set, x_start)
    value, shift = evaluate(x)
    steps = 0
    while True:
        J = model.jac_G(x)
        g = reference_gradient(model, x, shift, J, alpha, prox_center)
        res = float(np.linalg.norm(x - project(feasible_set, x - g)))
        if res <= tol or steps == 50:
            return x, res
        steps += 1
        hinged = shift > 0.0
        free = ~(((x <= feasible_set.lower + tol) & (g > 0.0))
                 | ((x >= feasible_set.upper - tol) & (g < 0.0))) \
            if box else np.ones(x.size, dtype=bool)
        W = J[:, free][hinged]
        if base is None:
            direction = g / diag
            if hinged.any() and free.any():
                r, WD = direction[free], W / diag[free]
                K = np.eye(W.shape[0]) / sigma + WD @ W.T
                direction[free] = r - WD.T @ np.linalg.solve(K, W @ r)
        else:
            B = base if hess_G is None else \
                base + (hess_G[hinged].T @ shift[hinged]).T
            direction = g / np.diag(B)
            if free.any():
                direction[free] = np.linalg.solve(
                    B[:, free][free] + sigma * (W.T @ W), g[free])
        rounding = 1e-14 * (1.0 + abs(value))
        step = 1.0
        while True:
            x_new = x - step * direction
            if box:
                x_new = project(feasible_set, x_new)
            elif np.linalg.norm(x_new) > feasible_set.radius:
                return x, res
            value_new, shift_new = evaluate(x_new)
            if value_new <= value + 1e-4 * float(g @ (x_new - x)) + rounding:
                break
            step *= 0.5
            if step < 1e-12:
                return x, res
        x, value, shift = x_new, value_new, shift_new


def reference_solve(model, prox_center, lam, cfg, feasible_set):
    """The earlier ``malm.solve_subproblem`` for smooth non-truncated models."""
    prox_center = np.asarray(prox_center, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x = prox_center

    def grad(x):
        return reference_gradient(model, x, lam + cfg.sigma * model.eval_G(x),
                                  model.jac_G(x), cfg.alpha, prox_center)

    def prox(z, step):
        return project(feasible_set, z)

    if model.kind == LINEARIZED and model.oracle.p == 1:
        a = model.u - cfg.alpha * prox_center
        b = model.V[0]
        gamma = (lam[0] / cfg.sigma + model.g_anchor[0]
                 - float(model.V[0] @ model.anchor))
        x = reference_closed_form(a, b, gamma, cfg.alpha, cfg.sigma, feasible_set)
        if np.linalg.norm(x - prox(x - grad(x), 1.0)) <= cfg.tol:
            return x

    structure = model.quadratic_structure()
    if structure is not None:
        x, res = reference_newton(model, prox_center, lam, cfg, feasible_set, x,
                                  *structure)
        if res <= cfg.tol:
            return x

    jac = model.jac_G(prox_center)
    l0 = cfg.alpha + model.iota + cfg.sigma * float(np.sum(jac * jac)) + 1.0
    x, _, _ = reference_fista(x, grad, prox, tol=cfg.tol, max_iters=100_000,
                              l0=l0)
    return x


def reference_run_malm(problem, cfg):
    def step(s, oracle, x, lam, x_old, lam_old):
        iota = problem.strong_convexity(s) \
            if cfg.model_kind == QUADRATIC_LINEARIZED else 0.0
        model = reference_make_model(oracle, x_old, cfg.model_kind, iota=iota)
        x_next = reference_solve(model, x_old, lam, cfg, problem.set)
        return x_next, reference_multiplier_update(lam, model, x_next, cfg.sigma)

    return run_schedule(problem, cfg.T, cfg.tau, step, cfg.x0)


def reference_mosp_step(x, lam, oracle, feasible_set, alpha, mu):
    x_new = project(feasible_set,
                    x - alpha * (oracle.subgrad_f(x) + oracle.jac_g(x).T @ lam))
    lam_new = np.maximum(lam + mu * oracle.eval_g(x_new), 0.0)
    return x_new, lam_new


def reference_ny_step(x, lam, oracle, feasible_set, alpha, nu, x_old=None,
                      lam_old=None):
    if x_old is None:
        x_new = project(feasible_set,
                        x - (nu * oracle.subgrad_f(x) + oracle.jac_g(x).T @ lam)
                        / (2.0 * alpha))
        lam_new = np.maximum(lam + oracle.eval_g(x_new), 0.0)
        return x_new, lam_new
    jac_old = oracle.jac_g(x_old)
    x_new = project(feasible_set,
                    x - (nu * oracle.subgrad_f(x_old) + jac_old.T @ lam_old)
                    / (2.0 * alpha))
    lam_new = np.maximum(lam + oracle.eval_g(x_old) + jac_old @ (x_new - x_old), 0.0)
    return x_new, lam_new


def reference_czp_step(x, lam, x_old, lam_old, oracle, feasible_set, eta, delta):
    x_new = project(feasible_set,
                    x - eta * (oracle.subgrad_f(x_old) + oracle.jac_g(x_old).T @ lam_old))
    lam_new = np.maximum(lam + eta * (oracle.eval_g(x_old) - delta * eta * lam_old), 0.0)
    return x_new, lam_new


def reference_run_baseline(problem, config):
    algo = config.algo
    a, b = config.stepsizes

    def step(s, oracle, x, lam, x_old, lam_old):
        if algo == "mosp":
            return reference_mosp_step(x, lam, oracle, problem.set, a, b)
        if algo == "ny" and config.tau == 0:
            return reference_ny_step(x, lam, oracle, problem.set, a, b)
        if algo == "ny":
            return reference_ny_step(x, lam, oracle, problem.set, a, b, x_old,
                                     lam_old)
        return reference_czp_step(x, lam, x_old, lam_old, oracle, problem.set,
                                  a, b)

    return run_schedule(problem, config.T, config.tau, step)


def reference_olr_rounds(problem):
    """The earlier ``problems._logistic_round`` oracles of an olr instance."""
    from scipy.special import expit

    def logistic_round(Z_t, a_t, n):
        def eval_f(x):
            return float(np.logaddexp(0.0, -(Z_t @ x)).sum())

        def subgrad_f(x):
            return -(Z_t.T @ expit(-(Z_t @ x)))

        def eval_g(x):
            return np.array([np.abs(x).sum() - a_t])

        def jac_g(x):
            return np.sign(x)[None, :]

        return RoundOracle(n=n, p=1, eval_f=eval_f, subgrad_f=subgrad_f,
                           eval_g=eval_g, jac_g=jac_g, g_kind="l1")

    Z_all = problem.data["labels"][:, :, None] * problem.data["u"]
    return tuple(logistic_round(Z_t, float(a_t), problem.n)
                 for Z_t, a_t in zip(Z_all, problem.data["a"]))


def reference_nra_rounds(problem):
    """The earlier ``problems._diag_quadratic_round`` oracles of an nra
    instance."""
    def diag_quadratic_round(q_t, b_t, A, hess_t):
        p, n = A.shape

        def eval_f(x):
            return float(q_t @ (x * x))

        def subgrad_f(x):
            return 2.0 * q_t * x

        def eval_g(x):
            return A @ x + b_t

        def jac_g(x):
            return A

        return RoundOracle(n=n, p=p, eval_f=eval_f, subgrad_f=subgrad_f,
                           eval_g=eval_g, jac_g=jac_g, g_kind="affine",
                           hess_f=hess_t)

    q, b, A = (problem.data[k] for k in ("q", "b", "A"))
    return tuple(map(diag_quadratic_round, q, b, repeat(A), 2.0 * q))


def reference_oqcqp_rounds(problem):
    """The earlier ``problems._quadratic_round`` oracles of an oqcqp
    instance."""
    def quadratic_round(A_t, b_t, C_t, d_t, e_t):
        n = b_t.shape[0]
        p = e_t.shape[0]

        def eval_f(x):
            return float(0.5 * x @ (A_t @ x) + b_t @ x)

        def subgrad_f(x):
            return A_t @ x + b_t

        def eval_g(x):
            return 0.5 * ((C_t @ x) @ x) + d_t @ x + e_t

        def jac_g(x):
            return C_t @ x + d_t

        return RoundOracle(n=n, p=p, eval_f=eval_f, subgrad_f=subgrad_f,
                           eval_g=eval_g, jac_g=jac_g, hess_f=A_t, hess_g=C_t)

    return tuple(map(quadratic_round,
                     *(problem.data[k] for k in ("A", "b", "C", "d", "e"))))


FROZEN_ROUNDS = {"olr": reference_olr_rounds, "nra": reference_nra_rounds,
                 "oqcqp": reference_oqcqp_rounds}


# family -> (preset, seed, T, delays, MALM models, MALM (alpha, sigma) pairs
# besides the preset's, baselines by delay).  The extra pairs make the
# multipliers active, which at the preset's stepsizes they are only on nra.
CASES = {
    "olr": ("olr-paper", 0, 300, (0, 3), (LINEARIZED, QUADRATIC_LINEARIZED),
            ((3.0, 0.2),), {0: ("cl", "ny"), 3: ("ny", "czp")}),
    "nra": ("nra-paper", 0, 60, (0,), (PLAIN, LINEARIZED), ((3.0, 0.37),),
            {0: ("mosp", "cl", "ny")}),
    "oqcqp": ("oqcqp-paper", 2, 60, (0, 5), (PLAIN, LINEARIZED), ((1.0, 0.13),),
              {0: ("czp", "ny"), 5: ("czp", "ny")}),
}


def _instance(family):
    if family == "olr":
        pytest.importorskip("scipy")
    preset, seed, T, taus = CASES[family][:4]
    config = dataclasses.replace(PRESETS[preset], T=T, taus=taus,
                                 algos=("malm",))
    problem = generate_problem(config, seed)
    frozen = dataclasses.replace(problem, rounds=FROZEN_ROUNDS[family](problem))
    return config, problem, frozen


def _same(traj, ref):
    assert np.array_equal(traj.xs, ref.xs)
    assert np.array_equal(traj.lambdas, ref.lambdas)
    return bool(ref.lambdas.any())


@pytest.mark.parametrize("family", sorted(CASES))
def test_malm_rounds_match_the_frozen_rounds(family):
    config, problem, frozen = _instance(family)
    _, _, T, taus, models, pairs, _ = CASES[family]
    active = []
    for model in models:
        for tau in taus:
            preset_cfg = malm_config_for(
                dataclasses.replace(config, malm_model=model), tau)
            for cfg in (preset_cfg, *(dataclasses.replace(preset_cfg, alpha=a, sigma=s)
                                      for a, s in pairs)):
                active.append(_same(run_malm(problem, cfg),
                                    reference_run_malm(frozen, cfg)))
    assert all(active) if family == "nra" else any(active)


@pytest.mark.parametrize("family", sorted(CASES))
def test_baseline_steps_match_the_frozen_steps(family):
    _, problem, frozen = _instance(family)
    T, baselines = CASES[family][2], CASES[family][-1]
    active = [_same(run_baseline(problem, BaselineConfig(algo, T, tau)),
                    reference_run_baseline(frozen, BaselineConfig(algo, T, tau)))
              for tau, algos in baselines.items() for algo in algos]
    assert any(active)


@pytest.mark.parametrize("family", ["nra", "oqcqp"])
def test_quadratic_round_oracles_match_the_frozen_oracles(family):
    _, problem, frozen = _instance(family)
    rng = np.random.default_rng(5)
    for round_, ref in zip(problem.rounds, frozen.rounds):
        # scales 1e-3 to 1e3, with zero entries, and the origin
        for x in (*(scale * rng.normal(size=problem.n) * (rng.random(problem.n) < 0.7)
                    for scale in (1e-3, 1.0, 10.0, 1e3)), np.zeros(problem.n)):
            for name in ("eval_f", "subgrad_f", "eval_g", "jac_g"):
                got, want = getattr(round_, name)(x), getattr(ref, name)(x)
                assert type(got) is type(want) and np.array_equal(got, want)
