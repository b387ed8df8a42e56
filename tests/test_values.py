"""A generated instance's stacked ``values`` against its round oracles.

The stacked forms must reproduce the per-round floats bit for bit, at every
preset algorithm's decisions and at the comparator, because the CSVs are
scored from them.  No case needs scipy.
"""

import dataclasses

import numpy as np
import pytest

from ocobench import (PRESETS, Box, RoundOracle, Trajectory, full_series,
                      generate_olr, solve_comparator)
from ocobench.harness import generate_problem, run_cell

from helpers import affine_round, generic_problem

# family -> (preset, T, seeds); delays run up to T - 1 where the
# algorithm has a delayed variant
FAMILIES = {
    "nra": ("nra-paper", 40, (0, 2, 4)),
    "olr": ("olr-paper", 60, (0, 1, 2)),
    "oqcqp": ("oqcqp-paper", 30, (0, 1, 2)),
}


def round_by_round(problem, xs):
    f = np.array([problem.rounds[t].eval_f(x) for t, x in enumerate(xs)])
    g = np.array([problem.rounds[t].eval_g(x) for t, x in enumerate(xs)])
    return f, g


def assert_same_values(problem, xs):
    f, g = problem.values(xs)
    f_ref, g_ref = round_by_round(problem, xs)
    assert f.shape == (len(xs),) and g.shape == (len(xs), problem.p)
    assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)


def preset_cells(family, seed):
    preset, T, _ = FAMILIES[family]
    base = PRESETS[preset]
    problem = generate_problem(dataclasses.replace(base, T=T, taus=(0,)), seed)
    cells = []
    for algo in base.algos:
        taus = (0,) if algo in ("mosp", "cl") else (0, 3, T - 1)
        config = dataclasses.replace(base, algos=(algo,), T=T, taus=taus,
                                     seeds=(seed,))
        cells += [run_cell(config, problem, algo, tau) for tau in taus]
    return problem, cells


@pytest.mark.parametrize("family, seed", [
    (family, seed) for family, (_, _, seeds) in FAMILIES.items()
    for seed in seeds])
def test_stacked_values_match_the_round_oracles(family, seed):
    problem, cells = preset_cells(family, seed)
    assert problem.stacked is not None
    for traj in cells:
        assert_same_values(problem, traj.xs)
        assert_same_values(problem, traj.xs[: traj.T // 2])
    x_star = solve_comparator(problem, 1e-7)
    shape = (problem.T, problem.n)
    assert_same_values(problem, np.broadcast_to(x_star, shape))
    assert_same_values(problem, np.tile(x_star, (problem.T, 1)))


def spied(problem, calls):
    """``problem`` with every round oracle counting its calls by name: each
    round becomes a ``RoundOracle`` of its n, p, g_kind and Hessians whose
    four methods count, then call the round's own.  A stacked form is kept,
    for the counting rounds, which give the same values."""
    def wrap(name, fn):
        def counted(x):
            calls[name] = calls.get(name, 0) + 1
            return fn(x)
        return counted

    rounds = tuple(RoundOracle(
        n=oracle.n, p=oracle.p, g_kind=oracle.g_kind, hess_f=oracle.hess_f,
        hess_g=oracle.hess_g,
        **{name: wrap(name, getattr(oracle, name))
           for name in ("eval_f", "subgrad_f", "eval_g", "jac_g")})
        for oracle in problem.rounds)
    stacked = problem.stacked and (rounds, problem.stacked[1])
    return dataclasses.replace(problem, rounds=rounds, stacked=stacked)


@pytest.mark.parametrize("family", ["nra", "olr", "oqcqp"])
def test_full_series_reads_no_round_oracle_of_a_generated_instance(family):
    problem, cells = preset_cells(family, FAMILIES[family][2][0])
    x_star = solve_comparator(problem, 1e-7)
    traj = cells[-1]
    calls = {}
    series = full_series(traj, spied(problem, calls), x_star)
    assert calls == {}
    # The same instance without its stacked form is scored round by round,
    # to the same bits.
    looped = spied(dataclasses.replace(problem, stacked=None), calls)
    reference = full_series(traj, looped, x_star)
    assert calls == {"eval_f": 2 * traj.T, "eval_g": 2 * traj.T}
    for column in dataclasses.fields(series):
        assert np.array_equal(getattr(series, column.name),
                              getattr(reference, column.name))


def test_a_hand_built_instance_is_scored_round_by_round():
    rounds = [affine_round([float(t)], 1.0, [[1.0], [-2.0]], [0.5, -t])
              for t in range(4)]
    problem = generic_problem(rounds, Box(np.array([-5.0]), np.array([5.0])), 1)
    assert problem.stacked is None
    xs = np.array([[0.5], [-1.0], [2.0], [0.25]])
    f, g = problem.values(xs)
    assert np.array_equal(f, [1.0, 0.0, 5.0, 1.75])
    assert np.array_equal(g, [[1.0, -1.0], [-0.5, 1.0], [2.5, -6.0],
                              [0.75, -3.5]])
    series = full_series(Trajectory(xs=xs, lambdas=np.zeros((4, 2))),
                         problem, np.zeros(1))
    assert np.array_equal(series.cum_regret, np.cumsum(f - 1.0))
    assert np.array_equal(series.cum_vio, np.cumsum(g, axis=0))


def test_an_instance_with_swapped_rounds_is_scored_by_its_own_rounds():
    # Seed 0's instance with seed 1's rounds keeps seed 0's arrays, which
    # no longer describe its rounds.
    own, other = (generate_olr(5, 10, 50, 10.0, seed) for seed in (0, 1))
    mixed = dataclasses.replace(own, rounds=other.rounds)
    xs = np.full((50, 5), 0.3)
    f, g = mixed.values(xs)
    assert np.array_equal(f, other.values(xs)[0])
    assert np.array_equal(g, other.values(xs)[1])
    assert_same_values(mixed, xs)
    assert not np.array_equal(f, own.values(xs)[0])


def test_a_stacked_form_that_is_not_a_pair_is_refused():
    # ``stacked`` is (rounds, fn); a bare fn would fail only when scored.
    problem = generate_olr(5, 10, 50, 10.0, 0)
    with pytest.raises(TypeError, match="pair"):
        dataclasses.replace(problem, stacked=problem.stacked[1])
