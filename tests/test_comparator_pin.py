"""``solve_comparator`` against a frozen copy of its earlier solver.

The comparator gradients were made cheaper (one in-place pass for the
hinged ``nra`` penalty gradient with ``.dot`` gemvs, a negation moved
inside the ``olr`` product) and FISTA dropped temporaries.  Those changes
keep the floating-point operations and their operands, so the ``nra`` and
generic x* must be bit-identical to the copy below, which runs on
``test_apg.reference_fista``: a moved float there would move every regret
column of those runs, the benchmark's references included.

The ``oqcqp`` comparator takes its stacked products on flat (T p, n) rows,
one gemv each, where the copy below takes numpy's batched (T, p, n, n)
products.  Only the summation order differs, so x* moves by rounding
alone: it is held to 1e-10 of the copy's, within the benchmark's
``cum_regret`` tolerance, and to the comparator's own certificate, a
violation and a fixed-multiplier projected residual within ``tol``.

The ``olr`` comparator moved x* on purpose: it takes Newton steps while they
stay inside the l1 ball and the box, and hands over to FISTA where one
leaves it.  Where x* is interior it is held to 1e-9 of the frozen solver's
and to a certified residual; where the first step leaves the set, FISTA
starts at 0 as before and must return the frozen bits.  A frozen copy of
that Newton-first solver pins its first step, which fills the sigmoid at
x = 0 with 0.5 instead of evaluating it, to the same bits.
"""

import dataclasses
import math

import numpy as np
import pytest

from ocobench import (ConvergenceError, InfeasibleProblemError, generate_nra,
                      generate_olr, generate_oqcqp, project, solve_comparator)
from ocobench import offline
from ocobench._apg import fista
from ocobench.offline import project_l1_box
from ocobench.problems import _expit_neg

from test_apg import reference_fista

_MAX_OUTER = 100
_RHO_CAP = 1e13


def reference_stacked_parts(problem):
    """The earlier ``offline._stacked_parts``, verbatim."""
    data = problem.data
    if problem.kind == "nra":
        A = data["A"]
        b_max = data["b"].max(axis=0)
        two_q, A_t = 2.0 * data["q"].sum(axis=0), A.T

        def lagrangian_grad(x, w):
            return two_q * x + A_t @ w

        def cons(x):
            return A @ x + b_max

        return lagrangian_grad, cons, float(two_q.max()) + 1.0

    if problem.kind == "oqcqp":
        A_bar = data["A"].sum(axis=0)
        b_bar = data["b"].sum(axis=0)
        C_all, d_all, e_all = (data[k] for k in ("C", "d", "e"))
        T, p = e_all.shape

        def lagrangian_grad(x, w):
            return A_bar @ x + b_bar \
                + np.einsum("tp,tpn->n", w.reshape(T, p), C_all @ x + d_all)

        def cons(x):
            return (0.5 * ((C_all @ x) @ x) + d_all @ x + e_all).ravel()

        return lagrangian_grad, cons, float(np.linalg.eigvalsh(A_bar)[-1]) + 1.0

    rounds = problem.rounds

    def lagrangian_grad(x, w):
        loss, coupling = np.zeros(problem.n), np.zeros(problem.n)
        at = 0
        for o in rounds:
            loss += o.subgrad_f(x)
            coupling += o.jac_g(x).T @ w[at:at + o.p]
            at += o.p
        return loss + coupling

    def cons(x):
        return np.concatenate([o.eval_g(x) for o in rounds])

    return lagrangian_grad, cons, 1.0


def reference_al_loop(problem, tol):
    """The earlier ``offline._al_loop``, verbatim but for its FISTA."""
    lagrangian_grad, cons, l0 = reference_stacked_parts(problem)
    label = f"{problem.kind} comparator (seed {problem.seed})"
    x = project(problem.set, np.zeros(problem.n))
    lam = np.zeros_like(cons(x))
    rho = 1.0
    viol_prev = np.inf

    def prox(z, step, _project=problem.set.project):
        return _project(z)

    for _ in range(_MAX_OUTER):
        def pen_grad(y, _lam=lam, _rho=rho):
            return lagrangian_grad(y, np.maximum(_lam + _rho * cons(y), 0.0))

        inner_tol = max(tol, min(1e-3, 0.1 * viol_prev))
        x, res, _ = reference_fista(x, pen_grad, prox, tol=inner_tol,
                                    max_iters=200_000, l0=l0,
                                    raise_on_fail=False)
        gv = cons(x)
        viol = float(np.maximum(gv, 0.0).max(initial=0.0))
        lam_new = np.maximum(lam + rho * gv, 0.0)
        dual_move = float(np.linalg.norm(lam_new - lam))
        lam = lam_new
        if viol <= tol \
                and dual_move <= max(tol, 1e-6) * (1.0 + float(np.linalg.norm(lam))):
            x, res, _ = reference_fista(x, lambda y: lagrangian_grad(y, lam),
                                        prox, tol=0.5 * tol, max_iters=200_000,
                                        l0=l0, raise_on_fail=False)
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


def reference_solve_olr(problem, tol):
    """The earlier ``offline._solve_olr``, verbatim but for its FISTA."""
    from scipy.special import expit

    a_min = float(problem.data["a"].min())
    M = float(problem.set.upper[0])
    Z = (problem.data["labels"][:, :, None] * problem.data["u"]) \
        .reshape(-1, problem.n)

    def grad(x):
        return -(Z.T @ expit(-(Z @ x)))

    def prox(z, step):
        return project_l1_box(z, a_min, M)

    x, _, _ = reference_fista(np.zeros(problem.n), grad, prox, tol=tol,
                              max_iters=500_000, l0=1.0)
    return x


@pytest.mark.parametrize("make", [
    lambda: generate_nra(10, 10, 150, seed=0),
    lambda: dataclasses.replace(generate_nra(3, 3, 12, seed=14), kind="generic"),
], ids=["nra", "generic"])
def test_comparator_floats_match_the_frozen_solver(make):
    prob = make()
    assert np.array_equal(solve_comparator(prob, 1e-7),
                          reference_al_loop(prob, 1e-7))


@pytest.mark.parametrize("T, seed", [(120, s) for s in range(5)] + [(1000, 3)])
def test_oqcqp_comparator_agrees_with_the_frozen_solver_and_certifies(
        monkeypatch, T, seed):
    # the flat rows move x* by rounding only; the polish's multipliers are
    # the w of its lagrangian_grad calls, which nothing else makes
    weights = []
    stacked_parts = offline._stacked_parts

    def spy(problem):
        lagrangian_grad, hinged_grad, cons, l0 = stacked_parts(problem)

        def recording(x, w, *args):
            weights.append(w)
            return lagrangian_grad(x, w, *args)

        return recording, hinged_grad, cons, l0

    monkeypatch.setattr(offline, "_stacked_parts", spy)
    prob = generate_oqcqp(8, 3, 10.0, T, seed=seed)
    x = solve_comparator(prob, 1e-7)
    assert np.max(np.abs(x - reference_al_loop(prob, 1e-7))) <= 1e-10
    # the certificate, on the frozen solver's batched products
    lagrangian_grad, cons, _ = reference_stacked_parts(prob)
    assert float(cons(x).max()) <= 1e-7
    r = x - prob.set.project(x - lagrangian_grad(x, weights[-1]))
    assert float(np.linalg.norm(r)) <= 1e-7


def olr_residual(problem, x):
    """The projected-gradient residual ||x - P(x - grad sum_t f_t(x))|| over
    the l1 ball of the smallest budget intersected with the box."""
    from scipy.special import expit

    Z = (problem.data["labels"][:, :, None] * problem.data["u"]) \
        .reshape(-1, problem.n)
    grad = -(Z.T @ expit(-(Z @ x)))
    r = x - project_l1_box(x - grad, float(problem.data["a"].min()),
                           float(problem.set.upper[0]))
    return float(np.linalg.norm(r))


def summed_loss(problem, x):
    return float(problem.values(np.broadcast_to(x, (problem.T, problem.n)))[0].sum())


def fista_starts(monkeypatch):
    """The starting points of every ``offline.fista`` call from now on."""
    starts = []
    fista = offline.fista

    def spy(x0, *args, **kwargs):
        starts.append(np.array(x0))
        return fista(x0, *args, **kwargs)

    monkeypatch.setattr(offline, "fista", spy)
    return starts


def test_olr_comparator_floats_match_the_frozen_solver():
    # Newton moves x* on purpose: within 1e-9 of the frozen FISTA solution,
    # with the same summed loss and a certified residual
    pytest.importorskip("scipy")
    prob = generate_olr(5, 10, 2000, 10.0, seed=0)
    x, ref = solve_comparator(prob, 1e-7), reference_solve_olr(prob, 1e-7)
    assert np.max(np.abs(x - ref)) <= 1e-9
    assert summed_loss(prob, x) == pytest.approx(summed_loss(prob, ref), rel=1e-9)
    assert olr_residual(prob, x) <= 1e-7


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_olr_comparator_on_the_preset_shape_takes_no_fista_step(monkeypatch, seed):
    # x* lies inside the l1 ball there, so Newton certifies it
    pytest.importorskip("scipy")
    starts = fista_starts(monkeypatch)
    prob = generate_olr(5, 10, 2000, 10.0, seed=seed)
    x = solve_comparator(prob, 1e-7)
    assert starts == []
    assert olr_residual(prob, x) <= 1e-7


@pytest.mark.parametrize("args", [
    (4, 5, 40, 2.0, 0), (4, 5, 40, 2.0, 1), (4, 5, 40, 2.0, 2),
    (5, 10, 2000, 0.01, 0),
], ids=["a0", "a1", "a2", "box"])
def test_olr_comparator_hands_a_binding_budget_to_fista(monkeypatch, args):
    # the first Newton step leaves the set, so FISTA starts at 0 as the
    # frozen solver does, and returns its bits
    pytest.importorskip("scipy")
    starts = fista_starts(monkeypatch)
    prob = generate_olr(*args)
    x = solve_comparator(prob, 1e-7)
    assert len(starts) == 1 and np.array_equal(starts[0], np.zeros(prob.n))
    assert olr_residual(prob, x) <= 1e-7
    assert np.array_equal(x, reference_solve_olr(prob, 1e-7))


@pytest.mark.parametrize("seed", range(5))
def test_olr_comparator_falls_back_on_a_rank_deficient_hessian(monkeypatch, seed):
    # two samples in five dimensions: H has rank 2, so the Newton step is
    # refused (LinAlgError) or leaves the set, and FISTA certifies the point
    pytest.importorskip("scipy")
    starts = fista_starts(monkeypatch)
    prob = generate_olr(5, 1, 2, 1.0, seed=seed)
    x = solve_comparator(prob, 1e-7)
    assert len(starts) == 1
    assert olr_residual(prob, x) <= 1e-7
    assert np.max(np.abs(x - reference_solve_olr(prob, 1e-7))) <= 1e-6


def reference_newton_solve_olr(problem, tol):
    """The earlier Newton-first ``offline._solve_olr``, with its step cap
    inlined: it evaluates the sigmoid at x = 0 too."""
    a_min = float(problem.data["a"].min())
    M = float(problem.set.upper[0])
    Z = problem.data["Z"].reshape(-1, problem.n)

    def grad(x):
        return -(Z.T @ np.array(_expit_neg((Z @ x).tolist())))

    def prox(z, step):
        return project_l1_box(z, a_min, M)

    x = np.zeros(problem.n)
    for _ in range(10):
        s = np.array(_expit_neg((Z @ x).tolist()))
        g = -(Z.T @ s)
        r = x - prox(x - g, 1.0)
        if math.sqrt(float(r.dot(r))) <= tol:
            return x
        w = 1.0 - s
        w *= s
        H = np.array([Z.T @ (w * z) for z in Z.T])
        try:
            x_new = x - np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        abs_x = np.abs(x_new)
        if not (abs_x.sum() <= a_min and abs_x.max() <= M):
            break
        x = x_new
    x, _, _ = fista(x, grad, prox, tol=tol, max_iters=500_000, l0=1.0)
    return x


@pytest.mark.parametrize("args", [
    (5, 10, 2000, 10.0, 0), (5, 10, 2000, 10.0, 5), (5, 10, 2000, 10.0, 13),
    (4, 5, 40, 2.0, 0),
], ids=["pool0", "pool5", "pool13", "binding"])
def test_olr_comparator_at_zero_matches_the_sigmoid_step(args):
    # the first Newton step fills the sigmoid with 0.5 instead of evaluating
    # it at x = 0; every float stays, through the FISTA hand-over too
    prob = generate_olr(*args)
    assert np.array_equal(solve_comparator(prob, 1e-7),
                          reference_newton_solve_olr(prob, 1e-7))


def test_olr_comparator_warm_starts_fista_at_the_last_newton_point(monkeypatch):
    # with the step cap at one, FISTA starts from the Newton point inside
    # the set and certifies the same x*
    pytest.importorskip("scipy")
    monkeypatch.setattr(offline, "_OLR_NEWTON_STEPS", 1)
    starts = fista_starts(monkeypatch)
    prob = generate_olr(5, 10, 2000, 10.0, seed=0)
    x = solve_comparator(prob, 1e-7)
    assert len(starts) == 1 and np.any(starts[0] != 0.0)
    assert np.abs(starts[0]).sum() <= float(prob.data["a"].min())
    assert olr_residual(prob, x) <= 1e-7
    assert np.max(np.abs(x - reference_solve_olr(prob, 1e-7))) <= 1e-9
