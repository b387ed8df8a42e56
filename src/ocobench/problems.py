"""Seeded generators for the three benchmark problems.

Each generator draws every random quantity from its own named substream of a
single splittable seed, in a fixed order, as one-shot arrays (random walks
are cumulative sums of pre-drawn steps).  Growing T therefore extends an
instance without perturbing earlier rounds, and the same seed reproduces the
same oracles bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Optional

import numpy as np

from .core import (Array, Box, ConvergenceError, EuclideanBall, FeasibleSet,
                   ProblemArgumentError, ProblemConstants, RoundOracle,
                   _dot, _matvec, _rmatvec, project_psd)

_SLATER_MAX_PIVOTS = 2000  # Bland's rule cannot cycle; this caps a troubled solve


@dataclass(frozen=True)
class ProblemInstance:
    """A feasible set, a stream of per-round oracles, and analytic constants.

    ``data`` keeps the raw generated arrays (matrices, walks, margins) so the
    offline comparator and the tests can work with the numbers directly
    instead of probing the rounds.  ``stacked``, when given, is the pair
    (rounds, fn): fn maps an (m, n) stack of points to the values that
    ``values`` returns for those rounds, from the generated arrays.  The
    dimension n is the set's, p and T are the rounds'; no rounds, or rounds
    whose n or p disagree, raise ValueError, and a ``stacked`` that is not a
    pair raises TypeError.
    """

    kind: str
    set: FeasibleSet
    rounds: tuple
    constants: Optional[ProblemConstants]
    seed: int
    data: dict = field(default_factory=dict)
    stacked: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("an instance needs at least one round")
        if self.stacked is not None and not (isinstance(self.stacked, tuple)
                                             and len(self.stacked) == 2):
            raise TypeError("stacked must be the pair (rounds, fn)")
        for t, oracle in enumerate(self.rounds):
            if (oracle.n, oracle.p) != (self.n, self.p):
                raise ValueError(f"round {t} has (n, p) = ({oracle.n}, "
                                 f"{oracle.p}), not ({self.n}, {self.p})")

    @property
    def n(self) -> int:
        return self.set.dim

    @property
    def p(self) -> int:
        return self.rounds[0].p

    @property
    def T(self) -> int:
        return len(self.rounds)

    def strong_convexity(self, t: int) -> float:
        """The strong-convexity modulus of f_t: the smallest eigenvalue of
        round t's ``hess_f``, floored at 0, and 0 for a round without one."""
        hess = self.rounds[t].hess_f
        if hess is None:
            return 0.0
        low = hess.min() if hess.ndim == 1 else np.linalg.eigvalsh(hess)[0]
        return max(float(low), 0.0)

    def values(self, xs: Array) -> tuple:
        """(f (m,), g (m, p)): f_t(xs[t]) and g_t(xs[t]) for the first
        m = len(xs) rounds, bit for bit what the round oracles return; from
        the stacked arrays when the generator gave them for these rounds,
        else round by round (as after ``dataclasses.replace`` swaps them)."""
        if self.stacked is not None and self.stacked[0] is self.rounds:
            return self.stacked[1](xs)
        f = np.empty(len(xs))
        g = np.empty((len(xs), self.p))
        for t, x in enumerate(xs):
            f[t] = self.rounds[t].eval_f(x)
            g[t] = self.rounds[t].eval_g(x)
        return f, g


def _check_counts(seed: int, **counts) -> None:
    """Refuse a count below 1, a negative seed or either one not an integer."""
    for name, value in (*counts.items(), ("seed", seed)):
        least = 0 if name == "seed" else 1
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ProblemArgumentError(
                f"{name} must be an integer >= {least}, got {name} = {value!r}")


def _rngs(seed: int, count: int) -> list:
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(c) for c in children]


def _walk(first: Array, steps: Array) -> Array:
    """The random walk ``first``, then ``first`` plus each partial sum of
    ``steps`` (stacked along axis 0)."""
    return np.concatenate([first[None], first + np.cumsum(steps, axis=0)])


def _diag_quadratic_round(q_t: Array, b_t: Array, A: Array,
                          hess_t: Array) -> RoundOracle:
    p, n = A.shape

    def eval_f(x):
        return float(q_t.dot(x * x))

    def subgrad_f(x):
        return 2.0 * q_t * x

    def eval_g(x):
        return A.dot(x) + b_t

    def jac_g(x):
        return A

    return RoundOracle(n=n, p=p, eval_f=eval_f, subgrad_f=subgrad_f,
                       eval_g=eval_g, jac_g=jac_g, g_kind="affine",
                       hess_f=hess_t)


def _slater_margin(A: Array, b_max: Array, upper: Array):
    """(x_hat, lam) for max eps s.t. A x + b_max + eps <= 0 over [0, upper]:
    a bounded-variable primal simplex on e = eps + max(b_max) under Bland's
    least-index rule, the x_j indexed by falling upper bound, from the
    dominance start (e = 0; x_j at its bound if its column of A has no positive
    entry, else at 0), with B^-1 and the reduced costs in product form until
    one refactorized basis admits no move.  The free e enters first and never
    leaves, so ``lam`` (clipped at 0) sums to one.  The caller certifies."""
    order = sorted(range(len(upper)), key=upper.__getitem__, reverse=True)
    A, upper = A[:, order], upper[order]  # wide boxes enter first
    p, E = A.shape
    M = np.hstack([A, np.ones((p, 1)), np.eye(p)])  # columns x, e, slacks
    hi = np.r_[upper, np.full(p + 1, np.inf)]  # lower bounds: 0, but e is free
    x0 = np.where((A <= 0.0).all(axis=0) & np.isfinite(upper), upper, 0.0)
    v = np.r_[x0, 0.0, b_max.max() - b_max - A @ x0]  # A @ x0 <= 0: slacks grow
    basis = np.arange(E + 1, E + 1 + p)
    e_row = np.eye(1, E + 1 + p, E)[0]  # the objective e
    B_inv, lam, d, exact = np.eye(p), np.zeros(p), e_row.copy(), False
    for _ in range(_SLATER_MAX_PIVOTS):
        movable = ((d > 1e-12) & (v < hi)) | ((d < -1e-12) & (v > 0.0))
        j = int(movable.argmax())
        if not movable[j]:
            if exact:
                break
            B_inv = np.linalg.inv(M[:, basis])  # refactorize once, at the exit
            lam, exact = B_inv[basis == E][0], True
            d = e_row - lam @ M  # reduced costs, exact for this basis
            d[basis] = 0.0
            continue
        exact = False
        sign = 1.0 if d[j] > 0.0 else -1.0
        a = B_inv @ M[:, j]
        col = sign * a  # the basic values fall by col per unit
        v_b = v[basis]
        room = np.where(col > 0.0, v_b, hi[basis] - v_b)
        room[basis == E] = np.inf  # the free e never leaves
        ratio = np.divide(np.maximum(room, 0.0), np.abs(col),
                          out=np.full(p, np.inf), where=np.abs(col) > 1e-12)
        t = ratio.min()
        step = min(t, hi[j])
        v[basis] = v_b - step * col
        v[j] += sign * step
        if hi[j] <= t:
            continue  # x_j crossed its box: a bound flip, the basis stays
        r = min(np.flatnonzero(ratio <= t + 1e-12 * max(1.0, t)), key=basis.__getitem__)
        v[basis[r]] = 0.0 if col[r] > 0.0 else hi[basis[r]]
        basis[r] = j
        pr = B_inv[r] / a[r]
        B_inv -= np.outer(a, pr)
        B_inv[r] = pr
        d -= d[j] * (pr @ M)
        d[basis] = 0.0
    back = sorted(range(E), key=order.__getitem__)  # the caller's column order
    return np.clip(v[:E], 0.0, upper)[back], np.maximum(lam, 0.0)


def generate_nra(J: int, K: int, T: int, seed: int) -> ProblemInstance:
    """Network resource allocation: route J request streams through K sites.

    Decision x stacks the JK routing amounts z^{jk} (index k*J + j) followed
    by the K processing amounts y^k.  Round t charges
    f_t(x) = sum c^{jk} (z^{jk})^2 + sum p_t^k (y^k)^2 and imposes the linear
    node-balance constraints g_t(x) = A x + b_t <= 0: each request stream j
    must be fully routed (b_t^j is its demand) and each site may process no
    more than it receives.  The feasible set is the box [0, xbar] of link and
    site capacities.

    Parameters
    ----------
    J, K : int
        Number of request streams and of processing sites.
    T : int
        Number of rounds.
    seed : int
        Instance seed; all randomness derives from it.

    Returns
    -------
    ProblemInstance
        With p = J + K linear constraints, n = JK + K variables, and
        constants including the Slater margin found by a max-margin linear
        program over the worst-case demands (the margin can come out
        nonpositive: demands are drawn independently of capacities and about
        half the seeds admit no single decision feasible for every round).
        An LP solve its certificates do not confirm raises ConvergenceError.
    """
    _check_counts(seed, J=J, K=K, T=T)
    rng_zbar, rng_ybar, rng_price, rng_request = _rngs(seed, 4)

    E, p = J * K + K, J + K
    zbar = rng_zbar.uniform(10.0, 100.0, J * K)
    ybar = rng_ybar.uniform(100.0, 200.0, K)
    c = 40.0 / zbar
    wave = np.sin(np.pi * np.arange(T) / 12.0)
    price = wave[:, None] + rng_price.uniform(1.0, 3.0, (T, K))
    request = 50.0 * wave[:, None] + rng_request.uniform(99.0, 101.0, (T, J))

    # Node-incidence matrix: edge (j, k), column k*J + j, leaves stream node
    # j and enters site node k; the processing edge y^k leaves site node k.
    edge, site = np.arange(J * K), np.arange(K)
    A = np.zeros((p, E))
    A[edge % J, edge] = -1.0
    A[J + edge // J, edge] = 1.0
    A[J + site, J * K + site] = -1.0

    b_all = np.hstack([request, np.zeros((T, K))])
    q_all = np.hstack([np.broadcast_to(c, (T, J * K)), price])

    xbar = np.concatenate([zbar, ybar])
    feasible_set = Box(np.zeros(E), xbar)

    # Each round's hess_f 2 q_t is a row of one array, not a copy of its own.
    rounds = tuple(_diag_quadratic_round(q_t, b_t, A, hess_t)
                   for q_t, b_t, hess_t in zip(q_all, b_all, 2.0 * q_all))

    def stacked(xs):
        m = len(xs)
        f = (q_all[:m, None, :] @ (xs * xs)[:, :, None])[:, 0, 0]
        return f, (A[None] @ xs[:, :, None])[..., 0] + b_all[:m]

    D = float(np.linalg.norm(xbar))
    q_max = np.concatenate([c, price.max(axis=0)])
    kappa_f = float(np.linalg.norm(2.0 * q_max * xbar))
    row_norms = np.linalg.norm(A, axis=1)
    # Componentwise range of Ax + b_t over the box and over t.
    b_max = b_all.max(axis=0)
    hi = np.maximum(A, 0.0) @ xbar + b_max
    lo = np.minimum(A, 0.0) @ xbar + b_all.min(axis=0)
    gamma = np.maximum(np.abs(hi), np.abs(lo))
    nu_g = float(np.linalg.norm(gamma + row_norms * D))

    # The point certifies eps0 from below, the multipliers from above.
    slater, lam = _slater_margin(A, b_max, xbar)
    eps0 = -float((A @ slater + b_max).max())
    dual = -float(lam @ b_max + np.minimum(A.T @ lam, 0.0) @ xbar)
    if not (abs(lam.sum() - 1.0) <= 1e-9
            and abs(dual - eps0) <= 1e-9 * max(1.0, abs(eps0))):
        raise ConvergenceError(f"nra seed {seed}: Slater-margin LP uncertified: "
                               f"margin {eps0:.6e}, dual bound {dual:.6e}")

    constants = ProblemConstants(D=D, kappa_f=kappa_f, nu_g=nu_g, eps0=eps0,
                                 slater_point=slater)
    return ProblemInstance(
        kind="nra", set=feasible_set, rounds=rounds, constants=constants,
        seed=seed, data={"A": A, "b": b_all, "q": q_all, "zbar": zbar,
                         "ybar": ybar, "c": c, "price": price},
        stacked=(rounds, stacked))


def _sigmoid_neg(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(v))
    except OverflowError:  # C's exp returns inf here, and 1 / (1 + inf) is 0
        return 0.0


def _expit_neg(u: list) -> Array:
    """1 / (1 + exp(v)) for each float v of ``u``: ``scipy.special.expit(-u)``
    bit for bit, since ``math.exp`` is the C library's ``exp`` that scipy
    calls (numpy's own SIMD ``exp`` is not).  The second pass runs only
    where an ``exp`` overflows."""
    try:
        return 1.0 / (1.0 + np.fromiter(map(math.exp, u), float, len(u)))
    except OverflowError:
        return np.array([_sigmoid_neg(v) for v in u])


class _LogisticRound:
    """Round t of the logistic loss over features ``Z`` (T, k, n) and of the
    l1 budget ``a`` (T,).  Over a group's stacked (T, S, k, n) and (T, S)
    it takes (S, n) rows, each with its instance's bits, and ``rows`` holds
    the instances' own round t (a round of one instance has no ``rows``)."""

    __slots__ = ("Z", "a", "t", "rows")
    p, g_kind, hess_f, hess_g = 1, "l1", None, None

    def __init__(self, Z: Array, a: Array, t: int, rows: Optional[tuple] = None):
        self.Z, self.a, self.t = Z, a, t
        if rows is not None:
            self.rows = rows

    @property
    def n(self) -> int:
        return self.Z.shape[-1]

    def eval_f(self, x: Array):
        """f(x) = sum log(1 + exp(-Z_t x)), or (S,) values for (S, n) rows."""
        f = np.logaddexp(0.0, -_matvec(self.Z[self.t], x)).sum(-1)
        return float(f) if x.ndim == 1 else f

    def subgrad_f(self, x: Array) -> Array:
        """The gradient -Z_t^T sigmoid(-Z_t x)."""
        Z_t = self.Z[self.t]
        z = _matvec(Z_t, x)
        return -_rmatvec(Z_t, _expit_neg(z.ravel().tolist()).reshape(z.shape))

    def eval_g(self, x: Array) -> Array:
        """g(x) = ||x||_1 - a_t as a (1,) vector, or (S, 1)."""
        return (np.abs(x).sum(-1) - self.a[self.t])[..., None]

    @staticmethod
    def jac_g(x: Array) -> Array:
        """g's (1, n) subgradient sign(x), or (S, 1, n)."""
        return np.sign(x)[..., None, :]


class InstanceGroup:
    """S generated ``olr`` instances of one shape and box that
    ``run_schedule`` steps in lockstep, through a stacked copy of the
    features ``Z`` (T, S, k, n) and budgets ``a`` (T, S) their rounds read."""

    p = 1

    def __init__(self, instances):
        self.instances = tuple(instances)
        self.set, self.n, T = instances[0].set, instances[0].n, instances[0].T
        self.Z = np.stack([inst.rounds[0].Z[:T] for inst in instances], axis=1)
        self.a = np.stack([inst.rounds[0].a[:T] for inst in instances], axis=1)
        self.rounds = tuple(map(partial(_LogisticRound, self.Z, self.a), range(T),
                                zip(*(inst.rounds for inst in instances))))


def _reads_one_pair(rounds) -> bool:
    """Whether each round t is a _LogisticRound on row t of one (Z, a)."""
    first = rounds[0]
    return all(type(r) is _LogisticRound and r.Z is first.Z and r.a is first.a
               and r.t == t for t, r in enumerate(rounds))


def _rows_keep_their_bits(Z: Array) -> bool:
    """Whether ``_matvec``, ``_rmatvec`` and ``_dot`` give each row of the
    stacked (S, k, n) features ``Z``, and of its (S, 1, n) l1 row, the bits
    of that row's 1-D ``.dot``, at contiguous points made of Z's entries, as
    the rounds pass them: the batched kernel's summation order is the numpy
    build's."""
    x, w = Z[:, 0].copy(), Z[:, -1].copy()
    pairs = [(_dot(x, w), [float(a.dot(b)) for a, b in zip(x, w)])]
    for M in (Z, np.sign(Z[:, :1])):
        y = M[:, :, 0].copy()
        pairs += [(_matvec(M, x), [m.dot(v) for m, v in zip(M, x)]),
                  (_rmatvec(M, y), [m.T.dot(v) for m, v in zip(M, y)])]
    return all(batched.tobytes() == np.array(rows).tobytes() for batched, rows in pairs)


def group_instances(instances) -> Optional[InstanceGroup]:
    """The lockstep group of generated ``olr`` instances of one shape and
    box, each of whose rounds reads one (Z, a) pair, once the group's first
    round shows that its stacked products keep each row's bits; None for
    any other instances, which step alone."""
    first = instances[0]
    if all(inst.kind == "olr" and "Z" in inst.data and _reads_one_pair(inst.rounds)
           and inst.T == first.T
           and inst.rounds[0].Z.shape[1:] == first.rounds[0].Z.shape[1:]
           and np.array_equal(inst.set.lower, first.set.lower)
           and np.array_equal(inst.set.upper, first.set.upper)
           for inst in instances):
        group = InstanceGroup(instances)
        if _rows_keep_their_bits(group.Z[0]):
            return group
    return None


def generate_olr(n: int, k: int, T: int, M: float, seed: int) -> ProblemInstance:
    """Online logistic regression with a drifting sparsity budget.

    Round t presents k labelled feature vectors and charges the logistic
    loss f_t(x) = sum_i log(1 + exp(-l_{i,t} u_{i,t}^T x)); the constraint
    g_t(x) = ||x||_1 - a_t <= 0 caps the l1 norm by a budget a_t that
    performs a hinged random walk.  Features drift by steps shrinking as
    1/(2t), labels are independent signs, and the feasible set is the box
    [-M, M]^n.

    Parameters
    ----------
    n : int
        Feature dimension.
    k : int
        Samples per round.
    T : int
        Number of rounds.
    M : float
        Sup-norm bound of the feasible set.
    seed : int
        Instance seed.

    Returns
    -------
    ProblemInstance
        With p = 1; the origin is the Slater point and eps0 = min_t a_t.
    """
    _check_counts(seed, n=n, k=k, T=T)
    if not 0.0 < M < np.inf:
        raise ProblemArgumentError(f"need a finite M > 0, got M = {M!r}")
    rng_u_init, rng_u_steps, rng_labels, rng_a_steps = _rngs(seed, 4)

    # Walk steps at paper round t are U[-1/(2t), 1/(2t)]; the first stored
    # round is t = 1.
    scale = 1.0 / (2.0 * np.arange(1, T, dtype=float))
    u_all = _walk(rng_u_init.uniform(-1.0, 1.0, (k, n)),
                  rng_u_steps.uniform(-1.0, 1.0, (T - 1, k, n))
                  * scale[:, None, None])

    labels = 2.0 * rng_labels.integers(0, 2, (T, k)) - 1.0
    a_steps = rng_a_steps.uniform(-1.0, 1.0, T - 1) * scale
    # The hinged walk on Python floats: the same sums, in the same order.
    a = np.fromiter(accumulate(a_steps.tolist(), lambda a_t, step: max(a_t + step, 0.0),
                               initial=1.0), float, T)

    Z_all = labels[:, :, None] * u_all
    feasible_set = Box(np.full(n, -M), np.full(n, M))
    rounds = tuple(map(partial(_LogisticRound, Z_all, a), range(T)))

    def stacked(xs):
        m = len(xs)
        f = np.logaddexp(0.0, -(Z_all[:m] @ xs[:, :, None])[..., 0]).sum(1)
        return f, (np.abs(xs).sum(1) - a[:m])[:, None]

    D = 2.0 * M * float(np.sqrt(n))
    kappa_f = float(np.linalg.norm(u_all, axis=2).sum(axis=1).max())
    kappa_g = float(np.sqrt(n))
    # g ranges over [-a_t, n M - a_t] on the set.
    gamma = max(float(a.max()), n * M - float(a.min()))
    nu_g = gamma + kappa_g * D
    constants = ProblemConstants(D=D, kappa_f=kappa_f, nu_g=nu_g,
                                 eps0=float(a.min()), slater_point=np.zeros(n))

    return ProblemInstance(
        kind="olr", set=feasible_set, rounds=rounds, constants=constants,
        seed=seed, data={"u": u_all, "labels": labels, "a": a, "Z": Z_all},
        stacked=(rounds, stacked))


def _quadratic_round(A_t: Array, b_t: Array, C_t: Array, d_t: Array,
                     e_t: Array) -> RoundOracle:
    n = b_t.shape[0]
    p = e_t.shape[0]

    def eval_f(x):
        return float((0.5 * x).dot(A_t.dot(x)) + b_t.dot(x))

    def subgrad_f(x):
        return A_t.dot(x) + b_t

    def eval_g(x):
        return 0.5 * (C_t @ x).dot(x) + d_t.dot(x) + e_t

    def jac_g(x):
        return C_t @ x + d_t

    return RoundOracle(n=n, p=p, eval_f=eval_f, subgrad_f=subgrad_f,
                       eval_g=eval_g, jac_g=jac_g, hess_f=A_t, hess_g=C_t)


def _symmetrize_steps(raw: Array) -> Array:
    """Mirror the upper triangle of each stacked matrix onto the lower."""
    upper = np.triu(raw)
    return upper + np.swapaxes(np.triu(raw, 1), -1, -2)


def generate_oqcqp(n: int, p: int, R: float, T: int, seed: int) -> ProblemInstance:
    """Quadratic losses under p drifting quadratic constraints on a ball.

    f_t(x) = (1/2) x^T A_t x + b_t^T x with A_1 = I and A_{t+1} the positive
    semidefinite projection of A_t plus a small symmetric perturbation; each
    constraint g_t^(i)(x) = (1/2) x^T C_t^(i) x + d_t^(i)^T x + e_t^(i) drifts
    the same way.  A single interior point xhat is drawn per instance and
    each offset e_t^(i) is chosen so that g_t^(i)(xhat) = -h_t^(i) with
    h_t^(i) ~ U[0, 1], so xhat is a Slater point with margin min h.

    Parameters
    ----------
    n : int
        Decision dimension.
    p : int
        Number of quadratic constraints.
    R : float
        Radius of the Euclidean-ball feasible set.
    T : int
        Number of rounds.
    seed : int
        Instance seed.

    Returns
    -------
    ProblemInstance
        Smooth in both loss and constraints; ``strong_convexity(t)`` is the
        smallest eigenvalue of A_t.
    """
    _check_counts(seed, n=n, p=p, T=T)
    if not 0.0 < R < np.inf:
        raise ProblemArgumentError(f"need a finite R > 0, got R = {R!r}")
    (rng_A, rng_C, rng_b_init, rng_b_steps, rng_d_init, rng_d_steps,
     rng_h, rng_xhat) = _rngs(seed, 8)

    steps = T - 1
    # A_t and its C_t^(i) walk as one (p+1)-stack, A_t first.
    raw = np.empty((steps, p + 1, n, n))
    raw[:, 0] = rng_A.uniform(-0.1, 0.1, (steps, n, n))
    raw[:, 1:] = rng_C.uniform(-0.1, 0.1, (steps, p, n, n))
    deltas = _symmetrize_steps(raw)
    walk = np.empty((T, p + 1, n, n))
    walk[0] = np.eye(n)
    for t in range(1, T):
        walk[t] = project_psd(walk[t - 1] + deltas[t - 1])
    A_all, C_all = walk[:, 0], walk[:, 1:]

    b_all = _walk(rng_b_init.uniform(-1.0, 1.0, n),
                  rng_b_steps.uniform(-0.1, 0.1, (steps, n)))
    d_all = _walk(rng_d_init.uniform(-1.0, 1.0, (p, n)),
                  rng_d_steps.uniform(-0.1, 0.1, (steps, p, n)))

    h = rng_h.uniform(0.0, 1.0, (T, p))
    bound = R / np.sqrt(n)
    xhat = rng_xhat.uniform(-bound, bound, n)
    # Offsets pin g^(i)(xhat) = -h^(i) < 0 so xhat is strictly feasible.
    e_all = -0.5 * ((C_all @ xhat) @ xhat) - d_all @ xhat - h

    feasible_set = EuclideanBall(R, n)
    rounds = tuple(_quadratic_round(*parts)
                   for parts in zip(A_all, b_all, C_all, d_all, e_all))

    def stacked(xs):
        m, col = len(xs), xs[:, :, None]
        f = 0.5 * (xs[:, None, :] @ (A_all[:m] @ col))[:, 0, 0] \
            + (b_all[:m, None, :] @ col)[:, 0, 0]
        g = 0.5 * ((C_all[:m] @ xs[:, None, :, None])[..., 0] @ col)[..., 0] \
            + (d_all[:m] @ col)[..., 0] + e_all[:m]
        return f, g

    D = 2.0 * R
    A_eigs = np.linalg.eigvalsh(A_all)
    kappa_f = float((A_eigs[:, -1] * R + np.linalg.norm(b_all, axis=1)).max())
    C_eigs = np.linalg.eigvalsh(C_all)[..., -1]
    d_norms = np.linalg.norm(d_all, axis=2)
    kappa_g_per = (C_eigs * R + d_norms).max(axis=0)
    gamma = (0.5 * C_eigs * R * R + d_norms * R + np.abs(e_all)).max(axis=0)
    nu_g = float(np.linalg.norm(gamma + kappa_g_per * D))
    constants = ProblemConstants(D=D, kappa_f=kappa_f, nu_g=nu_g,
                                 eps0=float(h.min()), slater_point=xhat)
    return ProblemInstance(
        kind="oqcqp", set=feasible_set, rounds=rounds, constants=constants,
        seed=seed, data={"A": A_all, "b": b_all, "C": C_all, "d": d_all,
                         "e": e_all, "h": h, "xhat": xhat},
        stacked=(rounds, stacked))
