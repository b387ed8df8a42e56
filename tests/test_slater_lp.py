"""The `nra` Slater-margin LP on its own, with no scipy: its primal and dual
certificates on `nra` shapes and on random dense LPs, its dominance start,
eps0 on 40 seeds against values frozen from the earlier solver (which
inverted the basis at every pivot), and how often it factorizes the basis."""

import numpy as np
import pytest

import ocobench.problems as problems
from ocobench import generate_nra
from ocobench.problems import _slater_margin

# eps0 of generate_nra(10, 10, 150, seed), frozen from the solver that
# inverted the basis at every pivot, started at x = 0 and took the columns in
# the generator's order.
FROZEN_EPS0 = {
    0: 5.539937410548049, 1: -1.076136354653812, 2: 3.6481708198975866,
    3: -3.25850237658463, 4: 2.8830377054129315, 5: -4.9703194931637285,
    6: -3.4959061833729663, 7: -9.94612965695832, 8: 5.176864089016561,
    9: -0.7233867431552738, 10: -6.304153799894237, 11: 3.996992795069417,
    12: -6.381186784764594, 13: 2.1853710658390355, 14: 4.656153593104818,
    15: 6.032209979543552, 16: -4.688579626088824, 17: -3.047985408765882,
    18: -3.9598940761192694, 19: -2.1935754564445347, 20: -3.535491350601802,
    21: 8.881607994569748, 22: 0.6964678336727133, 23: -3.0899406444309534,
    24: -3.0162566840080274, 25: -2.474104509073584, 26: 6.080244847142254,
    27: -0.9956599001476434, 28: -5.244413759899928, 29: -4.894050883056252,
    30: 1.7359816413585207, 31: -1.5088910199889654, 32: -0.5214879180853913,
    33: -5.248193707040215, 34: 3.5157873351048465, 35: -0.7225610262097746,
    36: -8.21918253379306, 37: -4.509502462084782, 38: -7.30745982447408,
    39: -6.082839306167315,
}
REFUSED = {1, 3, 5, 6, 7, 9, 10, 12, 16, 17, 18, 19, 20, 23, 24, 25, 27, 28,
           29, 31, 32, 33, 35, 36, 37, 38, 39}


def certified_margin(A, b_max, upper):
    """The LP's margin, after checking the contract every caller relies on."""
    x, lam = _slater_margin(A, b_max, upper)
    margin = -float((A @ x + b_max).max())
    dual = -float(lam @ b_max + np.minimum(A.T @ lam, 0.0) @ upper)
    assert np.all(lam >= 0.0) and abs(lam.sum() - 1.0) <= 1e-9
    assert np.all((x >= 0.0) & (x <= upper))
    assert abs(dual - margin) <= 1e-9 * max(1.0, abs(margin))
    return margin


def nra_lp(J, K, T, seed):
    prob = generate_nra(J, K, T, seed)
    return prob, prob.data["A"], prob.data["b"].max(axis=0), prob.set.upper


def random_lp(seed):
    """A dense A of mixed signs, about a third of whose columns have no
    positive entry, with a finite box."""
    rng = np.random.default_rng(seed)
    p, E = int(rng.integers(2, 25)), int(rng.integers(2, 40))
    A = rng.normal(size=(p, E))
    nonpositive = rng.random(E) < 0.35
    A[:, nonpositive] = -np.abs(A[:, nonpositive])
    return A, 5.0 * rng.normal(size=p), rng.uniform(0.1, 10.0, E)


@pytest.mark.parametrize("J,K", [(1, 1), (3, 3), (5, 20), (20, 5), (15, 15)])
@pytest.mark.parametrize("seed", range(5))
def test_certificate_on_nra_shapes(J, K, seed):
    prob, A, b_max, upper = nra_lp(J, K, 30, seed)
    assert certified_margin(A, b_max, upper) == prob.constants.eps0


@pytest.mark.parametrize("seed", range(12))
def test_certificate_on_random_dense_lps(seed):
    certified_margin(*random_lp(seed))


def test_eps0_pinned_on_40_seeds_with_the_same_refusals():
    refused = set()
    for seed, frozen in FROZEN_EPS0.items():
        eps0 = generate_nra(10, 10, 150, seed).constants.eps0  # certified
        assert abs(eps0 - frozen) <= 1e-9 * max(1.0, abs(frozen)), seed
        if eps0 < -1e-9:
            refused.add(seed)
    assert refused == REFUSED


@pytest.mark.parametrize("case", ["nra", "random"])
def test_columns_without_a_positive_entry_start_at_their_upper_bound(
        case, monkeypatch):
    if case == "nra":
        _, A, b_max, upper = nra_lp(4, 3, 20, 0)
    else:
        A, b_max, upper = random_lp(3)
    up = (A <= 0.0).all(axis=0)
    assert up.any() and not up.all()
    if case == "nra":  # the K processing amounts y
        assert np.flatnonzero(up).tolist() == [12, 13, 14]
    monkeypatch.setattr(problems, "_SLATER_MAX_PIVOTS", 0)  # the start itself
    x, lam = _slater_margin(A, b_max, upper)
    assert np.array_equal(x, np.where(up, upper, 0.0))
    slacks = b_max.max() - b_max - A @ x
    assert np.all(slacks >= b_max.max() - b_max) and np.all(slacks >= 0.0)
    assert not lam.any()  # no multipliers without the exit's factorization


def test_the_basis_is_factorized_at_the_exit_not_at_every_pivot(monkeypatch):
    calls = []
    for name in ("inv", "solve", "lstsq", "pinv"):
        real = getattr(problems.np.linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(problems.np.linalg, name, spy)
    generate_nra(10, 10, 150, 0)  # about 50 pivots
    assert 1 <= len(calls) <= 3, calls
