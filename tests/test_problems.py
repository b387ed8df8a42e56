import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ocobench.problems as problems
from ocobench import (Box, ConvergenceError, EuclideanBall,
                      ProblemArgumentError, generate_nra, generate_olr,
                      generate_oqcqp)
from ocobench.cli import main
from ocobench.problems import _expit_neg, _slater_margin

from helpers import affine_round, contains, generic_problem, sample_in


def make(kind, T, seed):
    if kind == "nra":
        return generate_nra(3, 3, T, seed=seed)
    if kind == "olr":
        return generate_olr(4, 5, T, 2.0, seed=seed)
    return generate_oqcqp(5, 2, 4.0, T, seed=seed)


GOOD_SEED = {"nra": 14, "olr": 1, "oqcqp": 1}
G_KIND = {"nra": "affine", "olr": "l1", "oqcqp": "smooth"}


def test_nra_shapes_and_incidence_matrix():
    tiny = generate_nra(1, 1, 5, seed=0)
    assert tiny.n == 2 and tiny.p == 2
    assert np.array_equal(tiny.data["A"], [[-1.0, 0.0], [1.0, -1.0]])

    big = generate_nra(10, 10, 3, seed=0)
    assert big.n == 110 and big.p == 20
    assert big.data["A"].shape == (20, 110)
    # site rows carry no offset; only request rows do
    assert np.array_equal(big.data["b"][:, 10:], np.zeros((3, 10)))


def test_nra_incidence_layout():
    # edge (j, k) is column k*J + j; processing edge y^k is column J*K + k
    J, K = 2, 3
    A = generate_nra(J, K, 3, seed=0).data["A"]
    want = np.zeros((J + K, J * K + K))
    for j in range(J):
        for k in range(K):
            want[j, k * J + j] = -1.0
            want[J + k, k * J + j] = 1.0
    for k in range(K):
        want[J + k, J * K + k] = -1.0
    assert np.array_equal(A, want)
    # column 1 is edge (j=1, k=0): out of stream 1, into site 0 (row J)
    assert np.array_equal(A[:, 1], [0.0, -1.0, 1.0, 0.0, 0.0])


def test_nra_round_matches_data_arrays():
    prob = generate_nra(3, 3, 20, seed=14)
    rng = np.random.default_rng(0)
    A, b, q = prob.data["A"], prob.data["b"], prob.data["q"]
    for t in (0, 7, 19):
        x = sample_in(prob.set, rng, 1)[0]
        oracle = prob.rounds[t]
        assert oracle.eval_f(x) == pytest.approx(float(q[t] @ (x * x)))
        assert np.allclose(oracle.eval_g(x), A @ x + b[t])
        assert np.allclose(oracle.jac_g(x), A)


def test_nra_loss_equals_its_second_order_expansion():
    # hess_f is what lets the subproblem solver treat f_t as an exact
    # separable quadratic
    prob = generate_nra(3, 3, 20, seed=14)
    rng = np.random.default_rng(1)
    for t in (0, 5, 19):
        oracle = prob.rounds[t]
        assert np.array_equal(oracle.hess_f, 2.0 * prob.data["q"][t])
        a, x = sample_in(prob.set, rng, 2)
        d = x - a
        expansion = (oracle.eval_f(a) + float(oracle.subgrad_f(a) @ d)
                     + 0.5 * float(oracle.hess_f @ (d * d)))
        assert oracle.eval_f(x) == pytest.approx(expansion, rel=1e-13, abs=1e-10)


def test_nra_max_offset_decides_universal_feasibility():
    prob = generate_nra(3, 3, 30, seed=14)
    A, b = prob.data["A"], prob.data["b"]
    rng = np.random.default_rng(1)
    for x in sample_in(prob.set, rng, 50):
        worst = max(float((A @ x + b[t]).max()) for t in range(30))
        assert worst == pytest.approx(float((A @ x + b.max(axis=0)).max()))


def test_nra_slater_margin_certificate():
    prob = generate_nra(3, 3, 60, seed=14)
    eps0, xhat = prob.constants.eps0, prob.constants.slater_point
    assert eps0 > 0
    assert contains(prob.set, xhat)
    for t in range(60):
        assert np.all(prob.rounds[t].eval_g(xhat) <= -eps0 + 1e-9)


SLATER_CASES = ([(10, 10, 150, s) for s in range(40)]
                + [(1, 1, 5, s) for s in range(10)]
                + [(3, 3, 12, s) for s in range(10)])


def test_nra_slater_margin_matches_linprog_and_certifies_every_refusal():
    linprog = pytest.importorskip("scipy.optimize").linprog
    refused, refused_by_linprog = set(), set()
    for J, K, T, seed in SLATER_CASES:
        prob = generate_nra(J, K, T, seed)
        A, xbar = prob.data["A"], prob.set.upper
        b_max = prob.data["b"].max(axis=0)
        eps0, xhat = prob.constants.eps0, prob.constants.slater_point
        E, p = prob.n, prob.p
        res = linprog(np.append(np.zeros(E), -1.0),
                      A_ub=np.hstack([A, np.ones((p, 1))]), b_ub=-b_max,
                      bounds=[(0.0, ub) for ub in xbar] + [(None, None)],
                      method="highs")
        assert res.success
        assert abs(eps0 + res.fun) <= 1e-9 * max(1.0, abs(eps0))
        assert contains(prob.set, xhat, tol=0.0)
        for oracle in prob.rounds:
            assert np.all(oracle.eval_g(xhat) <= -eps0)
        if -res.fun < -1e-9:
            refused_by_linprog.add((J, K, T, seed))
        if eps0 < -1e-9:
            refused.add((J, K, T, seed))
            # min over the box of lam^T (A x + b_max) is positive: no point
            # of the box meets every worst-case demand.
            _, lam = _slater_margin(A, b_max, xbar)
            assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-9
            assert lam @ b_max + np.minimum(A.T @ lam, 0.0) @ xbar > 0.0
    assert refused == refused_by_linprog
    assert {seed for J, K, T, seed in refused if J == 10} == {
        1, 3, 5, 6, 7, 9, 10, 12, 16, 17, 18, 19, 20, 23, 24, 25, 27, 28, 29,
        31, 32, 33, 35, 36, 37, 38, 39}


@pytest.mark.parametrize("break_it", ["pivot cap", "bad multipliers"])
def test_uncertified_slater_margin_exits_3_naming_the_cell(
        break_it, tmp_path, monkeypatch, capsys):
    if break_it == "pivot cap":
        monkeypatch.setattr(problems, "_SLATER_MAX_PIVOTS", 1)
    else:
        def solver(A, b_max, upper):
            return np.zeros(A.shape[1]), np.full(A.shape[0], 1.0 / A.shape[0])
        monkeypatch.setattr(problems, "_slater_margin", solver)
    with pytest.raises(ConvergenceError, match="nra seed 2: Slater-margin LP"):
        generate_nra(10, 10, 40, 2)
    out = tmp_path / "x.csv"
    code = main(["--problem", "nra", "--T", "40", "--seed", "0,2",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric failure (problem nra, seed 0): nra seed 0: Slater-margin LP" in err
    assert not out.exists()


def test_nra_reports_nonpositive_margin_for_overloaded_instances():
    prob = generate_nra(3, 3, 200, seed=0)
    assert prob.constants.eps0 < 0


def test_olr_values_at_origin():
    prob = generate_olr(4, 5, 30, 2.0, seed=1)
    zero = np.zeros(4)
    u, labels = prob.data["u"], prob.data["labels"]
    for t in (0, 11, 29):
        oracle = prob.rounds[t]
        assert oracle.eval_f(zero) == pytest.approx(5 * np.log(2.0))
        want = -0.5 * (labels[t][:, None] * u[t]).sum(axis=0)
        assert np.allclose(oracle.subgrad_f(zero), want)
        assert oracle.eval_g(zero)[0] == pytest.approx(-prob.data["a"][t])


def test_olr_budget_walk_and_flags():
    prob = generate_olr(4, 5, 200, 2.0, seed=1)
    a = prob.data["a"]
    assert a[0] == 1.0
    assert np.all(a >= 0)
    assert np.all(np.abs(np.diff(a)) <= 0.5 / np.arange(1, 200) + 1e-15)
    assert prob.p == 1
    assert isinstance(prob.set, Box)
    assert np.array_equal(prob.set.lower, np.full(4, -2.0))
    assert np.array_equal(prob.set.upper, np.full(4, 2.0))
    assert prob.constants.eps0 == pytest.approx(a.min())


def assert_expit_neg_is_scipys(u):
    expit = pytest.importorskip("scipy.special").expit
    got = np.array(_expit_neg(list(u)))
    assert np.array_equal(got, expit(-np.array(u, dtype=float)), equal_nan=True)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_expit_neg_is_scipys_expit_bit_for_bit(u):
    assert_expit_neg_is_scipys(u)


def test_expit_neg_is_scipys_expit_at_the_edges():
    # math.exp raises from the first double past log(max float) on, where
    # C's exp returns inf; near -745 it underflows through the subnormals
    top = math.log(sys.float_info.max)
    near_top = [top]
    for _ in range(3):
        near_top += [np.nextafter(near_top[-1], np.inf),
                     np.nextafter(near_top[0], -np.inf)]
    with pytest.raises(OverflowError):
        math.exp(max(near_top))
    tiny = 5e-324
    edges = [np.inf, -np.inf, np.nan, 0.0, -0.0, tiny, -tiny,
             sys.float_info.min, -sys.float_info.min,
             np.nextafter(sys.float_info.min, 0.0), 709.0, -709.0,
             *near_top, *(-v for v in near_top),
             *np.linspace(-746.0, -744.0, 401), *np.linspace(744.0, 746.0, 5)]
    for v in edges:
        assert_expit_neg_is_scipys([v])
    # one overflow mid-list sends every entry through the second pass
    assert_expit_neg_is_scipys(edges)
    assert_expit_neg_is_scipys(np.random.default_rng(0).normal(0.0, 30.0, 10_000))


def test_oqcqp_slater_pins_and_psd_drift():
    prob = generate_oqcqp(5, 2, 4.0, 40, seed=1)
    xhat, h = prob.data["xhat"], prob.data["h"]
    assert isinstance(prob.set, EuclideanBall) and prob.set.radius == 4.0
    assert contains(prob.set, xhat)
    for t in (0, 13, 39):
        assert np.allclose(prob.rounds[t].eval_g(xhat), -h[t], atol=1e-12)
    assert np.array_equal(prob.data["A"][0], np.eye(5))
    assert np.array_equal(prob.data["C"][0], np.stack([np.eye(5)] * 2))
    assert np.linalg.eigvalsh(prob.data["A"]).min() >= -1e-10
    assert np.linalg.eigvalsh(prob.data["C"]).min() >= -1e-10
    assert prob.constants.eps0 == pytest.approx(h.min())


@pytest.mark.parametrize("kind", ["nra", "olr", "oqcqp"])
def test_generator_reproducible_and_prefix_stable(kind):
    a = make(kind, 30, GOOD_SEED[kind])
    b = make(kind, 30, GOOD_SEED[kind])
    longer = make(kind, 50, GOOD_SEED[kind])
    rng = np.random.default_rng(3)
    xs = sample_in(a.set, rng, 5)
    for t in (0, 15, 29):
        for x in xs:
            assert a.rounds[t].eval_f(x) == b.rounds[t].eval_f(x)
            assert np.array_equal(a.rounds[t].eval_g(x), b.rounds[t].eval_g(x))
            # growing T extends the instance without rewriting early rounds
            assert a.rounds[t].eval_f(x) == longer.rounds[t].eval_f(x)
            assert np.array_equal(a.rounds[t].eval_g(x),
                                  longer.rounds[t].eval_g(x))


@pytest.mark.parametrize("kind", ["nra", "olr", "oqcqp"])
def test_rounds_are_convex_with_valid_subgradients(kind):
    prob = make(kind, 20, GOOD_SEED[kind])
    rng = np.random.default_rng(11)
    for t in range(0, 20, 4):
        oracle = prob.rounds[t]
        for _ in range(6):
            x, y = sample_in(prob.set, rng, 2)
            mid = 0.5 * (x + y)
            assert oracle.eval_f(mid) <= \
                0.5 * (oracle.eval_f(x) + oracle.eval_f(y)) + 1e-9
            assert oracle.eval_f(y) >= oracle.eval_f(x) \
                + float(oracle.subgrad_f(x) @ (y - x)) - 1e-9
            gx, gy = oracle.eval_g(x), oracle.eval_g(y)
            assert np.all(oracle.eval_g(mid) <= 0.5 * (gx + gy) + 1e-9)
            for i in range(prob.p):
                assert gy[i] >= gx[i] \
                    + float(oracle.jac_g(x)[i] @ (y - x)) - 1e-9


@pytest.mark.parametrize("kind", ["nra", "olr", "oqcqp"])
def test_constants_and_structure(kind):
    prob = make(kind, 25, GOOD_SEED[kind])
    c = prob.constants
    assert c.D > 0 and c.kappa_f > 0 and c.nu_g > 0
    assert len(prob.rounds) == 25 and prob.T == 25
    assert prob.rounds[0].n == prob.n and prob.rounds[0].p == prob.p
    assert {r.g_kind for r in prob.rounds} == {G_KIND[kind]}
    assert prob.strong_convexity(0) >= 0


def test_strong_convexity_moduli():
    nra = generate_nra(3, 3, 10, seed=14)
    assert nra.strong_convexity(0) > 0
    olr = generate_olr(4, 5, 10, 2.0, seed=1)
    assert olr.strong_convexity(3) == 0.0
    oqcqp = generate_oqcqp(5, 2, 4.0, 10, seed=1)
    assert oqcqp.strong_convexity(0) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["nra", "olr", "oqcqp"])
def test_strong_convexity_is_the_smallest_eigenvalue_of_each_round(kind):
    # the per-family formulas the rounds' own Hessians replaced, bit for bit
    prob = make(kind, 60, GOOD_SEED[kind])
    if kind == "nra":
        c, price = prob.data["c"], prob.data["price"]
        want = [2.0 * min(float(c.min()), float(price[t].min()))
                for t in range(prob.T)]
    elif kind == "oqcqp":
        want = np.maximum(np.linalg.eigvalsh(prob.data["A"])[:, 0], 0.0)
    else:
        want = np.zeros(prob.T)
    assert [prob.strong_convexity(t) for t in range(prob.T)] == list(want)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_nra(0, 1, 5, seed=0)
    with pytest.raises(ValueError):
        generate_olr(0, 5, 5, 2.0, seed=0)
    with pytest.raises(ValueError):
        generate_oqcqp(4, 2, -1.0, 5, seed=0)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite R"):
            generate_oqcqp(4, 2, value, 5, seed=0)
        with pytest.raises(ValueError, match="finite M"):
            generate_olr(4, 5, 5, value, seed=0)
    with pytest.raises(ProblemArgumentError, match="T = 0"):
        generate_nra(3, 3, 0, seed=0)
    with pytest.raises(ProblemArgumentError, match="T = 0"):
        generate_olr(4, 5, 0, 2.0, seed=0)
    with pytest.raises(ProblemArgumentError, match="T = 0"):
        generate_oqcqp(4, 2, 1.0, 0, seed=0)


# each generator with valid arguments, in order
_GENERATORS = {
    "nra": (generate_nra, (2, 3, 5, 0)),
    "olr": (generate_olr, (4, 5, 5, 2.0, 0)),
    "oqcqp": (generate_oqcqp, (4, 2, 1.0, 5, 0)),
}


@pytest.mark.parametrize("kind, position, name, value", [
    ("nra", 0, "J", 2.5), ("nra", 2, "T", 5.0), ("nra", 1, "K", np.float64(3)),
    ("olr", 2, "T", 5.0), ("olr", 1, "k", 0),
    ("oqcqp", 1, "p", 1.5), ("oqcqp", 3, "T", "5"),
    *((kind, -1, "seed", seed) for kind in ("nra", "olr", "oqcqp")
      for seed in (0.5, -1, np.float64(1.0))),
])
def test_generators_refuse_a_non_integer_count_or_seed(kind, position, name,
                                                       value):
    generate, args = _GENERATORS[kind]
    args = list(args)
    args[position] = value
    with pytest.raises(ProblemArgumentError, match=re.escape(f"{name} = {value!r}")):
        generate(*args)


def test_nra_feasible_set_is_capacity_box():
    prob = generate_nra(2, 3, 5, seed=14)
    assert isinstance(prob.set, Box)
    assert np.array_equal(prob.set.lower, np.zeros(prob.n))
    assert np.array_equal(prob.set.upper,
                          np.concatenate([prob.data["zbar"], prob.data["ybar"]]))


def test_instance_refuses_rounds_that_disagree_on_shape():
    box = Box(np.full(2, -1.0), np.full(2, 1.0))
    one_row = affine_round([1.0, 0.0], 0.0, [[1.0, 1.0]], [-1.0])
    two_rows = affine_round([1.0, 0.0], 0.0, np.eye(2), [-1.0, -1.0])
    three_wide = affine_round([1.0, 0.0, 0.0], 0.0, [[1.0, 1.0, 1.0]], [-1.0])
    assert generic_problem([one_row, one_row], box, 2).T == 2
    with pytest.raises(ValueError, match=r"round 1 has \(n, p\) = \(2, 2\), not \(2, 1\)"):
        generic_problem([one_row, two_rows], box, 2)
    with pytest.raises(ValueError, match=r"round 0 has \(n, p\) = \(3, 1\)"):
        generic_problem([three_wide], box, 2)
    with pytest.raises(ValueError, match="at least one round"):
        generic_problem([], box, 2)
