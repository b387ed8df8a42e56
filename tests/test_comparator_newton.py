"""The ``nra`` comparator's penalty steps on MALM's projected Newton method.

Each penalty step of the augmented-Lagrangian loop minimizes, over the box,
sum_t q_t x^2 + (1/(2 rho)) ||[lam + rho (A x + max_t b_t)]_+||^2.  That is
MALM's plain-model subproblem of the aggregated round at alpha = 0 and
sigma = rho, which ``malm._solve_newton`` solves where sum_t q_t > 0; FISTA
runs from its point where it misses the inner tolerance, and always for
the polish that certifies x*.
"""

import dataclasses

import numpy as np
import pytest

from ocobench import generate_nra, solve_comparator
from ocobench import offline

from test_comparator_pin import (assert_agrees_and_certifies, fista_starts,
                                 reference_al_loop, reference_stacked_parts)


def newton_results(monkeypatch):
    """The residual and inner tolerance of every ``offline._solve_newton``
    call from now on."""
    results = []
    solve_newton = offline._solve_newton

    def spy(model, prox_center, lam, cfg, *args):
        found = solve_newton(model, prox_center, lam, cfg, *args)
        results.append((found[1], cfg.tol))
        return found

    monkeypatch.setattr(offline, "_solve_newton", spy)
    return results


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_newton_takes_every_penalty_step_on_the_pool_seeds(monkeypatch, seed):
    # FISTA runs once per solve, for the polish: no inner solve falls back
    starts, results = fista_starts(monkeypatch), newton_results(monkeypatch)
    solve_comparator(generate_nra(10, 10, 150, seed=seed), 1e-7)
    assert len(starts) == 1
    assert results and all(res <= inner_tol for res, inner_tol in results)


def test_fista_takes_the_step_newton_misses(monkeypatch):
    # a Newton that returns its start uncertified hands FISTA the point the
    # frozen solver starts from, on the same gradient: its bits, certified
    def missing(model, prox_center, lam, cfg, feasible_set, x_start, *args):
        return x_start, np.inf, None

    monkeypatch.setattr(offline, "_solve_newton", missing)
    starts = fista_starts(monkeypatch)
    assert_agrees_and_certifies(monkeypatch, generate_nra(10, 10, 150, seed=0), 0.0)
    assert len(starts) > 1


def test_a_zero_curvature_coordinate_keeps_newton_out(monkeypatch):
    # Newton divides by hess_f = 2 sum_t q_t; with a zero entry the loop
    # runs on FISTA alone, as the frozen solver does
    results = newton_results(monkeypatch)
    prob = generate_nra(10, 10, 150, seed=0)
    q = prob.data["q"].copy()
    q[:, 1] = 0.0
    prob = dataclasses.replace(prob, data={**prob.data, "q": q})
    x = solve_comparator(prob, 1e-7)
    assert results == []
    assert np.array_equal(x, reference_al_loop(prob, 1e-7))
    assert float(reference_stacked_parts(prob)[1](x).max()) <= 1e-7


def test_the_preset_size_certifies_where_newton_misses(monkeypatch):
    # at T=10,000 seed 4 the penalty reaches the stiff regime, where some
    # Newton solves end above their tolerance and FISTA finishes them
    results = newton_results(monkeypatch)
    assert_agrees_and_certifies(monkeypatch, generate_nra(10, 10, 10_000, seed=4), 1e-9)
    assert any(res > inner_tol for res, inner_tol in results)
