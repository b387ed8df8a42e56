"""The olr round: one slotted object per round, for an instance or a group.

Round t of an ``olr`` instance reads row t of its features Z and budgets
a; round t of a lockstep group reads row t of their stacked copies and
takes (S, n) rows.  Neither may move a float, so each method is compared
with ``np.array_equal`` against two frozen per-round oracles: the earlier
closures of ``test_round_pin`` (scipy's sigmoid) and the earlier
``problems._logistic_round`` with its list sigmoid, which needs no scipy.
"""

import dataclasses
import math

import numpy as np
import pytest

import ocobench.problems as problems
from ocobench import BaselineConfig, RoundOracle, generate_olr, run_baseline
from ocobench.cli import main
from ocobench.problems import _expit_neg, group_instances

from test_round_pin import reference_olr_rounds

METHODS = ("eval_f", "subgrad_f", "eval_g", "jac_g")


def list_sigmoid_neg(v):
    """The earlier ``problems._sigmoid_neg``, verbatim."""
    try:
        return 1.0 / (1.0 + math.exp(v))
    except OverflowError:
        return 0.0


def list_expit_neg(u):
    """The earlier ``problems._expit_neg``, verbatim."""
    try:
        return [1.0 / (1.0 + math.exp(v)) for v in u]
    except OverflowError:
        return [list_sigmoid_neg(v) for v in u]


def closure_rounds(problem):
    """The earlier ``problems._logistic_round`` oracles, with its sigmoid."""
    def logistic_round(Z_t, a_t, n):
        def eval_f(x):
            return float(np.logaddexp(0.0, -Z_t.dot(x)).sum())

        def subgrad_f(x):
            return -Z_t.T.dot(np.array(list_expit_neg(Z_t.dot(x).tolist())))

        return RoundOracle(n=n, p=1, eval_f=eval_f, subgrad_f=subgrad_f,
                           eval_g=lambda x: (np.abs(x).sum(-1) - a_t)[..., None],
                           jac_g=lambda x: np.sign(x)[..., None, :], g_kind="l1")

    return tuple(logistic_round(Z_t, float(a_t), problem.n)
                 for Z_t, a_t in zip(problem.data["Z"], problem.data["a"]))


@pytest.fixture(params=["closures", "scipy"])
def frozen(request):
    """Instance -> its frozen per-round oracles."""
    if request.param == "scipy":
        pytest.importorskip("scipy")
        return reference_olr_rounds
    return closure_rounds


SEEDS = (0, 1, 2, 3)
INSTANCES = {seed: generate_olr(5, 10, 300, 10.0, seed) for seed in SEEDS}


def points(rng, shape):
    """Random points at several scales, with zero entries (sign's kink)
    and, at the largest, Z x past exp's overflow."""
    for scale in (1e-3, 1.0, 10.0, 1e3):
        x = scale * rng.normal(size=shape)
        x[..., 1] = 0.0
        yield x
    yield np.zeros(shape)


def assert_same(got, ref):
    assert type(got) is type(ref)
    assert np.array_equal(got, ref)


def test_instance_rounds_match_the_frozen_rounds(frozen):
    rng = np.random.default_rng(7)
    for seed, problem in INSTANCES.items():
        assert all(r.n == 5 and r.p == 1 and r.g_kind == "l1" and r.hess_f is None
                   and r.hess_g is None and not hasattr(r, "rows")
                   for r in problem.rounds)
        for round_, ref in zip(problem.rounds, frozen(problem)):
            for x in points(rng, 5):
                for name in METHODS:
                    assert_same(getattr(round_, name)(x), getattr(ref, name)(x))


@pytest.mark.parametrize("seeds", [(2,), (1, 3), (0, 1, 2, 3)],
                         ids=["S1", "S2", "S4"])
def test_group_rows_match_each_instances_frozen_round(frozen, seeds):
    rng = np.random.default_rng(len(seeds))
    group = group_instances([INSTANCES[seed] for seed in seeds])
    refs = [frozen(INSTANCES[seed]) for seed in seeds]
    for t, round_ in enumerate(group.rounds):
        assert round_.rows == tuple(INSTANCES[seed].rounds[t] for seed in seeds)
        for X in points(rng, (len(seeds), 5)):
            for name in METHODS:
                rows = getattr(round_, name)(X)
                assert len(rows) == len(seeds)
                for row, x, ref in zip(rows, X, refs):
                    assert np.array_equal(row, getattr(ref[t], name)(x))


def test_the_sigmoid_is_the_earlier_list_bit_for_bit():
    rng = np.random.default_rng(0)
    for u in (rng.normal(0.0, 30.0, 20_000), [], [0.0, -0.0, 709.0, 710.0, -746.0],
              np.linspace(700.0, 720.0, 81)):
        got = _expit_neg(list(u))
        assert isinstance(got, np.ndarray) and got.dtype == float
        assert np.array_equal(got, list_expit_neg(list(u)))


@pytest.mark.parametrize("algo,tau", [("cl", 0), ("ny", 3)])
def test_a_group_steps_the_arrays_its_instances_rounds_read(algo, tau):
    # Seed 0's instance with seed 1's rounds: its data still holds seed 0's
    # Z and a, which the group must not step.
    mixed = dataclasses.replace(generate_olr(5, 10, 50, 10.0, 0),
                                rounds=generate_olr(5, 10, 50, 10.0, 1).rounds)
    config = BaselineConfig(algo, 50, tau)
    group = group_instances([mixed, generate_olr(5, 10, 50, 10.0, 2)])
    alone = run_baseline(mixed, config)
    assert np.array_equal(run_baseline(group, config)[0].xs, alone.xs)
    assert not np.array_equal(
        alone.xs, run_baseline(generate_olr(5, 10, 50, 10.0, 0), config).xs)


def test_rounds_that_read_other_rows_or_pairs_step_alone():
    olr = [generate_olr(5, 10, 20, 10.0, seed) for seed in (0, 1)]
    assert group_instances(olr) is not None
    for rounds in (olr[1].rounds[::-1], olr[0].rounds[:10] + olr[1].rounds[10:],
                   closure_rounds(olr[1])):
        other = dataclasses.replace(olr[1], rounds=rounds)
        assert group_instances([olr[0], other]) is None


def test_a_grouped_grid_calls_no_method_of_an_instances_round(tmp_path,
                                                             monkeypatch):
    # The lockstep cells step the group's own rounds and the metrics read
    # the stacked values, so the instances' rounds are never called.
    calls = {"group": 0, "instance": 0}

    def spy(name, method):
        def counted(self, x):
            calls["group" if hasattr(self, "rows") else "instance"] += 1
            return method(x) if name == "jac_g" else method(self, x)
        return counted

    for name in METHODS:
        monkeypatch.setattr(problems._LogisticRound, name,
                            spy(name, getattr(problems._LogisticRound, name)))
    out = tmp_path / "grid.csv"
    assert main(["--preset", "olr-paper", "--T", "300", "--seed", "0,1,2",
                 "--algo", "malm,cl,ny", "--out", str(out)]) == 0
    assert out.exists() and calls["instance"] == 0 and calls["group"] > 0
