from dataclasses import replace

import numpy as np
import pytest

from ocobench import (LINEARIZED, MODEL_KINDS, PLAIN, QUADRATIC_LINEARIZED,
                      TRUNCATED, RoundOracle, generate_nra, generate_olr,
                      generate_oqcqp, make_model)

from helpers import sample_in


def square_round():
    # 1-D f(x) = x^2, g(x) = x - 5 (slack on [-2, 2])
    return RoundOracle(
        n=1, p=1,
        eval_f=lambda x: float(x[0] ** 2),
        subgrad_f=lambda x: np.array([2.0 * x[0]]),
        eval_g=lambda x: np.array([x[0] - 5.0]),
        jac_g=lambda x: np.array([[1.0]]),
        g_kind="affine")


def l1_round():
    # g(x) = ||x||_1 - 2 with the zero-subgradient choice at kinks
    return RoundOracle(
        n=2, p=1,
        eval_f=lambda x: float(x @ x),
        subgrad_f=lambda x: 2.0 * x,
        eval_g=lambda x: np.array([np.abs(x).sum() - 2.0]),
        jac_g=lambda x: np.sign(x)[None, :],
        g_kind="l1")


def test_linearized_tangent_line():
    m = make_model(square_round(), np.array([1.0]), LINEARIZED)
    # F(x) = 1 + 2 (x - 1)
    assert m.eval_F(np.array([1.0])) == pytest.approx(1.0, abs=1e-15)
    assert m.eval_F(np.array([3.0])) == pytest.approx(5.0, abs=1e-12)
    for y in np.linspace(-2, 2, 9):
        assert m.eval_F(np.array([y])) <= y ** 2 + 1e-12


def test_linearized_kink_zero_subgradient():
    m = make_model(l1_round(), np.zeros(2), LINEARIZED)
    # subgradient 0 at the kink makes G constant -2
    for y in ([0.3, -1.0], [2.0, 2.0], [0.0, 0.0]):
        assert m.eval_G(np.array(y))[0] == pytest.approx(-2.0, abs=1e-15)


def test_quadratic_linearized_degenerate_iota():
    rng = np.random.default_rng(0)
    lin = make_model(square_round(), np.array([0.7]), LINEARIZED)
    quad = make_model(square_round(), np.array([0.7]), QUADRATIC_LINEARIZED,
                      iota=0.0)
    for _ in range(10):
        y = rng.uniform(-2, 2, size=1)
        assert quad.eval_F(y) == pytest.approx(lin.eval_F(y), abs=1e-14)


def test_quadratic_linearized_recovers_square():
    # f(x) = x^2 is 2-strongly convex; iota=2 reproduces it exactly
    m = make_model(square_round(), np.array([1.0]), QUADRATIC_LINEARIZED,
                   iota=2.0)
    for y in np.linspace(-2, 2, 11):
        assert m.eval_F(np.array([y])) == pytest.approx(y ** 2, abs=1e-12)
    assert m.eval_F(np.array([1.0])) == pytest.approx(1.0, abs=1e-15)


def test_quadratic_linearized_rejects_negative_iota():
    for iota in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            make_model(square_round(), np.array([0.0]), QUADRATIC_LINEARIZED,
                       iota=iota)


def test_truncated_hinge():
    m = make_model(square_round(), np.array([1.0]), TRUNCATED)
    lin = make_model(square_round(), np.array([1.0]), LINEARIZED)
    # tangent 1 + 2(y-1) = -3 at y = -1, = 5 at y = 3
    assert m.eval_F(np.array([-1.0])) == 0.0
    assert m.eval_F(np.array([3.0])) == pytest.approx(5.0, abs=1e-12)
    for y in np.linspace(-3, 3, 13):
        ya = np.array([y])
        assert m.eval_F(ya) >= lin.eval_F(ya) - 1e-15
        assert m.eval_F(ya) <= y ** 2 + 1e-12  # f >= 0 here


def test_plain_identity():
    oracle = square_round()
    m = make_model(oracle, np.zeros(1), PLAIN)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.uniform(-2, 2, size=1)
        assert m.eval_F(y) == oracle.eval_f(y)
        assert np.array_equal(m.eval_G(y), oracle.eval_g(y))


def test_quadratic_structure_of_each_model():
    # F's constant Hessian and G's constant Hessians (None when G is affine)
    nra = generate_nra(2, 2, 3, seed=14)
    oracle, anchor = nra.rounds[1], np.full(nra.n, 1.0)
    h, hess_G = make_model(oracle, anchor, PLAIN).quadratic_structure()
    assert np.array_equal(h, 2.0 * nra.data["q"][1]) and hess_G is None
    h, hess_G = make_model(oracle, anchor, LINEARIZED).quadratic_structure()
    assert np.array_equal(h, np.zeros(nra.n)) and hess_G is None
    h, hess_G = make_model(oracle, anchor, QUADRATIC_LINEARIZED,
                           iota=0.7).quadratic_structure()
    assert np.array_equal(h, np.full(nra.n, 0.7)) and hess_G is None
    assert make_model(oracle, anchor, TRUNCATED).quadratic_structure() is None
    # the plain oqcqp model: a dense loss Hessian and quadratic constraints
    oqcqp = generate_oqcqp(3, 2, 2.0, 2, seed=1)
    A, C = make_model(oqcqp.rounds[1], np.zeros(3), PLAIN).quadratic_structure()
    assert np.array_equal(A, oqcqp.data["A"][1])
    assert np.array_equal(C, oqcqp.data["C"][1])
    h, hess_G = make_model(oqcqp.rounds[1], np.zeros(3),
                           LINEARIZED).quadratic_structure()
    assert np.array_equal(h, np.zeros(3)) and hess_G is None
    # the plain model needs a loss Hessian and affine or Hessian-carrying g
    smooth_without_hessians = replace(oqcqp.rounds[0], hess_g=None)
    for other in (square_round(), l1_round(), smooth_without_hessians):
        assert make_model(other, np.zeros(other.n), PLAIN).quadratic_structure() is None


def test_make_model_dispatch_and_unknown_kind():
    oracle = square_round()
    anchor = np.array([0.5])
    for kind in MODEL_KINDS:
        m = make_model(oracle, anchor, kind)
        assert m.kind == kind
    with pytest.raises(ValueError):
        make_model(oracle, anchor, "secant")


SMALL_INSTANCES = [
    ("nra", lambda: generate_nra(3, 3, 40, seed=14),
     (PLAIN, LINEARIZED, QUADRATIC_LINEARIZED, TRUNCATED)),
    ("olr", lambda: generate_olr(4, 5, 40, 2.0, seed=1),
     (PLAIN, LINEARIZED, QUADRATIC_LINEARIZED, TRUNCATED)),
    # OQCQP losses take negative values, outside the truncated model's domain
    ("oqcqp", lambda: generate_oqcqp(5, 2, 4.0, 40, seed=1),
     (PLAIN, LINEARIZED, QUADRATIC_LINEARIZED)),
]


@pytest.mark.parametrize("name,gen,kinds", SMALL_INSTANCES)
def test_model_invariants_on_generators(name, gen, kinds):
    problem = gen()
    rng = np.random.default_rng(7)
    const = problem.constants
    for kind in kinds:
        for t in range(0, problem.T, 9):
            oracle = problem.rounds[t]
            anchor = sample_in(problem.set, rng, 1)[0]
            iota = problem.strong_convexity(t) \
                if kind == QUADRATIC_LINEARIZED else 0.0
            m = make_model(oracle, anchor, kind, iota=iota)
            # anchoring equalities
            assert m.eval_F(anchor) == pytest.approx(
                float(oracle.eval_f(anchor)), abs=1e-12, rel=1e-12)
            assert np.allclose(m.eval_G(anchor), oracle.eval_g(anchor),
                               atol=1e-12)
            for y in sample_in(problem.set, rng, 8):
                fy, gy = float(oracle.eval_f(y)), oracle.eval_g(y)
                # conservativeness
                assert m.eval_F(y) <= fy + 1e-10
                assert np.all(m.eval_G(y) <= gy + 1e-10)
                # model values stay within the nu_g bound
                assert np.linalg.norm(m.eval_G(y)) <= const.nu_g + 1e-9
                # one-sided Lipschitz lower bounds from the anchor
                d = float(np.linalg.norm(y - anchor))
                assert m.eval_F(y) >= float(oracle.eval_f(anchor)) \
                    - const.kappa_f * d - 1e-9
                row_norms = np.linalg.norm(oracle.jac_g(anchor), axis=1)
                assert np.all(m.eval_G(y) >= oracle.eval_g(anchor)
                              - row_norms * d - 1e-9)


@pytest.mark.parametrize("name,gen,kinds", SMALL_INSTANCES)
def test_anchor_subgradients_are_valid(name, gen, kinds):
    problem = gen()
    rng = np.random.default_rng(13)
    for t in range(0, problem.T, 13):
        oracle = problem.rounds[t]
        anchor = sample_in(problem.set, rng, 1)[0]
        u = np.asarray(oracle.subgrad_f(anchor), float)
        fa = float(oracle.eval_f(anchor))
        ga = oracle.eval_g(anchor)
        jac = oracle.jac_g(anchor)
        for y in sample_in(problem.set, rng, 6):
            gap = y - anchor
            assert float(oracle.eval_f(y)) >= fa + float(u @ gap) - 1e-9
            assert np.all(oracle.eval_g(y) >= ga + jac @ gap - 1e-9)
