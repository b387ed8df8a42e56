"""Lockstep seeds: every olr seed of a (tau, algorithm) cell stepped at once.

A group of S instances runs the linearized closed form and the baseline
steps on (S, n) rows.  Each seed must get the bits of its own run, so the
group runs are compared with ``np.array_equal`` against the frozen per-seed
rounds of ``test_round_pin``, at S = 1, 2 and 4.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ocobench.baselines as baselines
import ocobench.harness as harness
import ocobench.malm as malm
from ocobench import (LINEARIZED, PRESETS, QUADRATIC_LINEARIZED,
                      ConvergenceError, ExperimentConfig, generate_nra,
                      generate_olr, generate_oqcqp, run_baseline,
                      run_experiment, run_malm)
from ocobench.baselines import BaselineConfig
from ocobench.cli import main
from ocobench.core import _dot, _matvec, _rmatvec
from ocobench.harness import generate_problem, malm_config_for
from ocobench.problems import group_instances

from test_round_pin import reference_run_baseline, reference_run_malm

T = 300
CONFIG = dataclasses.replace(PRESETS["olr-paper"], T=T)
# (algorithm, delay, (alpha, sigma) or None for the preset's): the pair
# (3.0, 0.2) makes the multipliers active.  CL has no delayed variant.
CELLS = [("malm", 0, None), ("malm", 0, (3.0, 0.2)), ("malm", 3, None),
         ("malm", 3, (3.0, 0.2)), ("cl", 0, None), ("czp", 0, None),
         ("czp", 3, None), ("ny", 0, None), ("ny", 3, None)]


def instance(seed, M=10.0):
    return _instance(seed, M)


@lru_cache(maxsize=None)
def _instance(seed, M):
    return generate_problem(dataclasses.replace(
        CONFIG, problem_params={**CONFIG.problem_params, "M": M}), seed)


def malm_config(tau, pair):
    cfg = malm_config_for(CONFIG, tau)
    return cfg if pair is None else dataclasses.replace(
        cfg, alpha=pair[0], sigma=pair[1])


def run_group(seeds, algo, tau, pair, M=10.0):
    group = group_instances([instance(seed, M) for seed in seeds])
    if algo == "malm":
        return run_malm(group, malm_config(tau, pair))
    return run_baseline(group, BaselineConfig(algo, T, tau))


@lru_cache(maxsize=None)
def reference(seed, algo, tau, pair, M=10.0):
    if algo == "malm":
        return reference_run_malm(instance(seed, M), malm_config(tau, pair))
    return reference_run_baseline(instance(seed, M), BaselineConfig(algo, T, tau))


def assert_each_seed_matches(trajs, seeds, algo, tau, pair, M=10.0):
    assert len(trajs) == len(seeds)
    for seed, traj in zip(seeds, trajs):
        ref = reference(seed, algo, tau, pair, M)
        assert traj.tau == tau
        assert np.array_equal(traj.xs, ref.xs)
        assert np.array_equal(traj.lambdas, ref.lambdas)


@pytest.mark.parametrize("seeds", [(2,), (1, 3), (0, 1, 2, 3)],
                         ids=["S1", "S2", "S4"])
@pytest.mark.parametrize("algo,tau,pair", CELLS)
def test_group_rows_match_the_frozen_per_seed_rounds(algo, tau, pair, seeds):
    assert_each_seed_matches(run_group(seeds, algo, tau, pair), seeds, algo,
                             tau, pair)


def test_the_active_pair_moves_the_multipliers():
    assert all(reference(seed, "malm", tau, (3.0, 0.2)).lambdas.any()
               for seed in range(4) for tau in (0, 3))


@pytest.mark.parametrize("tau", [0, 3])
def test_rows_that_miss_the_closed_form_take_newton_alone(tau, monkeypatch):
    # On the box [-0.2, 0.2]^5 the projected closed form misses its
    # certificate in about a quarter of the rounds, in different rounds
    # for different seeds.
    alone = []
    solve_model = malm._solve_model

    def spy(model, *args):
        found = solve_model(model, *args)
        if model.anchor.ndim == 1:
            alone.append(found[1])
        return found

    monkeypatch.setattr(malm, "_solve_model", spy)
    seeds = (0, 1, 2)
    trajs = run_group(seeds, "malm", tau, (1.0, 1.0), M=0.2)
    assert alone and set(alone) == {"newton"}
    assert_each_seed_matches(trajs, seeds, "malm", tau, (1.0, 1.0), M=0.2)


def test_a_seed_made_to_miss_its_certificate_is_solved_alone(monkeypatch):
    # Seed 3's row of each group closed form is moved off the minimizer, so
    # its certificate fails in every round and only that seed goes through
    # _solve_model alone, on its own round, where the closed form holds.
    closed_form = malm.closed_form_linearized_p1

    def off_for_the_second_row(a, b, gamma, alpha, sigma, feasible_set):
        x = closed_form(a, b, gamma, alpha, sigma, feasible_set)
        if x.ndim == 2:
            x[1] = feasible_set.project(x[1] + 1.0)
        return x

    alone = []
    solve_model = malm._solve_model

    def spy(model, prox_center, lam, cfg, feasible_set):
        found = solve_model(model, prox_center, lam, cfg, feasible_set)
        if model.anchor.ndim == 1:
            alone.append((model.oracle, found[1]))
        else:
            assert found[1][0] == found[1][2] == "closed_form"
        return found

    monkeypatch.setattr(malm, "closed_form_linearized_p1", off_for_the_second_row)
    monkeypatch.setattr(malm, "_solve_model", spy)
    seeds = (0, 3, 1)
    for tau in (0, 3):
        alone.clear()
        trajs = run_group(seeds, "malm", tau, (3.0, 0.2))
        assert len(alone) == T - 1 - tau
        assert all(oracle is instance(3).rounds[s]
                   for s, (oracle, _) in enumerate(alone))
        assert {path for _, path in alone} == {"closed_form"}
        assert_each_seed_matches(trajs, seeds, "malm", tau, (3.0, 0.2))


def test_other_models_run_each_instance_alone():
    group = group_instances([instance(0), instance(1)])
    cfg = dataclasses.replace(malm_config(3, None),
                              model_kind=QUADRATIC_LINEARIZED)
    for traj, seed in zip(run_malm(group, cfg), (0, 1)):
        ref = run_malm(instance(seed), cfg)
        assert np.array_equal(traj.xs, ref.xs)
        assert np.array_equal(traj.lambdas, ref.lambdas)


def test_only_generated_olr_instances_of_one_shape_and_box_form_a_group():
    olr = [generate_olr(5, 10, 20, 10.0, seed) for seed in (0, 1)]
    group = group_instances(olr)
    assert group.Z.shape == (20, 2, 10, 5) and group.a.shape == (20, 2)
    assert len(group.rounds) == 20 and group.rounds[4].rows == (
        olr[0].rounds[4], olr[1].rounds[4])
    assert group_instances([generate_nra(3, 3, 20, 0)]) is None
    assert group_instances([generate_oqcqp(4, 2, 5.0, 20, 0)]) is None
    assert group_instances([olr[0], generate_olr(5, 10, 20, 2.0, 1)]) is None
    assert group_instances([olr[0], generate_olr(5, 10, 21, 10.0, 1)]) is None
    assert group_instances([olr[0], generate_olr(4, 10, 20, 10.0, 1)]) is None
    hand_built = dataclasses.replace(olr[1], data={})
    assert group_instances([olr[0], hand_built]) is None


# The products at olr's shapes (k = 10 samples, n = 5): Z x, Z^T s, the
# l1 row V (1, n) times a step, and row dots; each row of the stacked form
# against the 1-D .dot of that row.
_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def stacks(draw, k):
    S = draw(st.integers(1, 6))
    M = draw(arrays(float, (S, k, 5), elements=_floats))
    x = draw(arrays(float, (S, 5), elements=_floats))
    y = draw(arrays(float, (S, k), elements=_floats))
    return M, x, y


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stacks(10), stacks(1))
def test_batched_products_give_each_row_its_dot_bits(features, rows):
    for M, x, y in (features, rows):
        Mx, My, xy = _matvec(M, x), _rmatvec(M, y), _dot(x, M[:, 0])
        assert Mx.shape == y.shape and My.shape == x.shape and xy.shape == x.shape[:1]
        for i in range(len(M)):
            assert np.array_equal(Mx[i], M[i].dot(x[i]))
            assert np.array_equal(My[i], M[i].T.dot(y[i]))
            assert xy[i] == float(x[i].dot(M[i, 0]))
            assert _dot(x[i], M[i, 0]) == xy[i]


def test_experiment_bytes_do_not_depend_on_the_grouping(tmp_path, monkeypatch):
    # The box M = 0.2 sends some rows alone through Newton; the rows are
    # written in tau, algo, seed order either way.
    config = ExperimentConfig(problem="olr", algos=("malm", "czp", "ny"), T=120,
                              taus=(0, 3), seeds=(0, 1, 2),
                              problem_params={"M": 0.2}, malm_alpha=1.0,
                              malm_sigma=1.0, malm_model=LINEARIZED)
    grouped = run_experiment(dataclasses.replace(config, out=str(tmp_path / "g.csv")))
    monkeypatch.setattr(harness, "group_instances", lambda instances: None)
    alone = run_experiment(dataclasses.replace(config, out=str(tmp_path / "a.csv")))
    with open(grouped, "rb") as g, open(alone, "rb") as a:
        assert g.read() == a.read()


def fail_at(monkeypatch, failures):
    """Make ``czp_step`` (CL's step) raise on the given (seed, round)
    pairs, found through the instances the harness generates."""
    instances = {}
    generate = harness.generate_problem

    def recording(config, seed):
        instances[seed] = generate(config, seed)
        return instances[seed]

    step = baselines.czp_step

    def failing(x, lam, x_old, lam_old, oracle, *args):
        targets = [instances[seed].rounds[s] for seed, s in failures]
        if any(row is target for row in getattr(oracle, "rows", (oracle,))
               for target in targets):
            raise ConvergenceError("stalled")
        return step(x, lam, x_old, lam_old, oracle, *args)

    monkeypatch.setattr(harness, "generate_problem", recording)
    monkeypatch.setattr(baselines, "czp_step", failing)


def test_a_failure_of_the_second_seed_names_its_cell_and_round(
        tmp_path, monkeypatch, capsys):
    fail_at(monkeypatch, [(1, 3)])
    out = tmp_path / "f.csv"
    code = main(["--preset", "olr-paper", "--T", "60", "--seed", "0,1,2",
                 "--out", str(out)])
    assert code == 3 and not out.exists()
    assert ("(problem olr, algo cl, seed 1, tau 0, round 3)"
            in capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_a_failure_names_the_cell_the_seed_order_meets_first(tmp_path,
                                                             monkeypatch):
    # In lockstep seed 1's round 3 comes before seed 0's round 50; seed by
    # seed, seed 0 fails first.
    fail_at(monkeypatch, [(0, 50), (1, 3)])
    config = dataclasses.replace(PRESETS["olr-paper"], T=60, seeds=(0, 1),
                                 out=str(tmp_path / "f.csv"))
    with pytest.raises(ConvergenceError) as exc:
        run_experiment(config)
    assert exc.value.cell == {"problem": "olr", "algo": "cl", "seed": 0, "tau": 0}
    assert exc.value.round_index == 50
    assert not list(tmp_path.iterdir())
