"""The bound chains are tight where the paper says they are.

A chain lower <= value <= upper that holds is not yet the paper's chain: a
constant halved in one bound still holds.  These tests pin the constants
from the other side, on the registered checks:

- equality cases, where lower = value = upper within rounding: f = square
  in thm4.1, uniform r in cor3.1 and thm3.1, constant points in cf and
  thm4.1, and r = p in thm3.2 and prop3.1;
- the Taylor limit: on points within a relative jitter eps of one centre,
  the curvature bounds m and M differ from the curvature at the centre by
  O(eps), so each bound's distance from the value is O(eps) relative to
  the chain's terms.  A wrong constant leaves a distance of O(1).

They stay tests, not registered cases: the registry holds only the
paper's claims, and tightness is a property of the bounds, not a claim.
"""

import math

import numpy as np
import pytest

from qentropy import REGISTRY, ProbDist
from qentropy.verify import sample_simplex

Q_GRID = (0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 4.0)
ROUNDING = 1e-12
EPS = 1e-3
# the curvature at the points is within a factor 1 + O((q + 1) eps) of the
# curvature at their centre, for q <= 4 and centres below 10 (thm4.1: 3)
TAYLOR_K = 16.0
DRAWS = 200


def _report(claim):
    return getattr(claim, "report", claim)


def _assert_equal_chain(claim, magnitude: float):
    """lower = value = upper, each within ROUNDING of the inputs' magnitude."""
    rep = _report(claim)
    tol = ROUNDING * (1.0 + magnitude)
    assert rep.upper - rep.lower <= tol, rep
    assert abs(rep.value - rep.lower) <= tol, rep
    assert abs(rep.upper - rep.value) <= tol, rep


def _draws():
    """(rng, n, q) of each seeded draw."""
    for seed in range(DRAWS):
        rng = np.random.default_rng(seed)
        yield rng, int(rng.integers(1, 17)), Q_GRID[seed % len(Q_GRID)]


def _uniform(n: int) -> ProbDist:
    return ProbDist(np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# equality cases
# ---------------------------------------------------------------------------


def test_square_makes_the_smooth_jensen_chain_an_equality():
    # f'' = 2 everywhere: m = M = 2, and the gap is the spread
    for rng, n, q in _draws():
        p, xs = sample_simplex(n, rng), rng.uniform(0.1, 10.0, n)
        [claim] = REGISTRY["thm4.1"].check({"f": "square", "xs": xs, "p": p}, q)
        _assert_equal_chain(claim, float(p.weights @ xs**2))


@pytest.mark.parametrize("cid, psis", [
    ("cor3.1", (None,)),
    ("thm3.1", ("identity", "log", "lnq")),
])
def test_uniform_r_makes_the_max_entropy_gap_chain_an_equality(cid, psis):
    # n min r = n max r = 1 and the gap and braced gap are both 0
    for _, n, q in _draws():
        for psi in psis:
            inputs = {"r": _uniform(n)} if psi is None else {"psi": psi, "r": _uniform(n)}
            [claim] = REGISTRY[cid].check(inputs, q)
            _assert_equal_chain(claim, 1.0)


def test_constant_points_make_the_am_gm_chain_an_equality():
    for rng, n, _ in _draws():
        c = float(rng.uniform(0.1, 10.0))
        [claim] = REGISTRY["cf"].check({"xs": np.full(n, c), "p": sample_simplex(n, rng)}, None)
        _assert_equal_chain(claim, c)


@pytest.mark.parametrize("f, at", [
    ("square", lambda c: c * c),
    ("exp", lambda c: math.exp(c)),
    ("quartic", lambda c: c**4),
    ("neg_lnq", lambda c: 1.0 + c),
])
def test_constant_points_make_the_smooth_jensen_chain_an_equality(f, at):
    for rng, n, q in _draws():
        c = float(rng.uniform(0.1, 10.0))
        p = sample_simplex(n, rng)
        [claim] = REGISTRY["thm4.1"].check({"f": f, "xs": np.full(n, c), "p": p}, q)
        _assert_equal_chain(claim, at(c))


@pytest.mark.parametrize("f", ["tsallis", "xlogx", "neglog"])
def test_r_equal_to_p_makes_the_f_divergence_sandwich_an_equality(f):
    # D_f(p||p) = 0, and so is the sandwich's factor
    for rng, n, q in _draws():
        p = sample_simplex(n, rng)
        [claim] = REGISTRY["thm3.2"].check({"f": f, "p": p, "r": p}, q)
        _assert_equal_chain(claim, 1.0)


@pytest.mark.parametrize("f, psi", [
    ("square", "identity"), ("neg_lnq", "identity"), ("xlogx", "identity"), ("neg_lnq", "log"),
])
def test_r_equal_to_p_makes_the_ratio_sandwich_an_equality(f, psi):
    # every ratio r_j / p_j is 1: both bounds are the Jensen gap itself
    for rng, n, q in _draws():
        p, xs = sample_simplex(n, rng), rng.uniform(0.1, 10.0, n)
        [claim] = REGISTRY["prop3.1"].check({"f": f, "psi": psi, "xs": xs, "p": p, "r": p}, q)
        _assert_equal_chain(claim, abs(claim.value))


# ---------------------------------------------------------------------------
# the Taylor limit
# ---------------------------------------------------------------------------


def _jittered(rng, n: int, centre: float) -> np.ndarray:
    """n points within a relative jitter EPS of centre."""
    return centre * (1.0 + EPS * rng.uniform(-1.0, 1.0, n))


def _near_uniform(rng, n: int) -> ProbDist:
    """Masses within a relative jitter of about EPS of 1/n."""
    w = _jittered(rng, n, 1.0)
    return ProbDist(w / w.sum())


def _assert_first_order(rep, terms: float):
    """Each bound within O(EPS) of the value, on either side, relative to terms."""
    assert terms > 0.0, rep
    assert abs(rep.value - rep.lower) <= TAYLOR_K * EPS * terms, rep
    assert abs(rep.upper - rep.value) <= TAYLOR_K * EPS * terms, rep


def _taylor_draws():
    """(rng, n, q) of each seeded draw, n >= 2 and q > 0."""
    for seed in range(DRAWS):
        rng = np.random.default_rng(1000 + seed)
        yield rng, int(rng.integers(2, 17)), Q_GRID[1 + seed % (len(Q_GRID) - 1)]


def test_smooth_jensen_chain_with_exp_is_tight_to_first_order():
    # m = exp(min x), M = exp(max x): both within O(EPS) of f'' at the mean
    for rng, n, q in _taylor_draws():
        xs = _jittered(rng, n, float(rng.uniform(0.1, 3.0)))
        [rep] = REGISTRY["thm4.1"].check({"f": "exp", "xs": xs, "p": sample_simplex(n, rng)}, q)
        _assert_first_order(rep, rep.upper)


def test_am_gm_chain_is_tight_to_first_order():
    # the gap is V / (2 xbar) + O(EPS V): both bounds divide V by 2 min x or 2 max x
    for rng, n, _ in _taylor_draws():
        xs = _jittered(rng, n, float(rng.uniform(0.1, 10.0)))
        [rep] = REGISTRY["cf"].check({"xs": xs, "p": sample_simplex(n, rng)}, None)
        _assert_first_order(rep, rep.upper)


def _cross_entropy_chains():
    """The three thm4.2 chains on near-uniform p and r, for each draw.

    1/p and 1/r cluster at n, where -ln_q'' = q n^(-q-1), and the tightest
    constants m_q, M_q are within O((q + 1) EPS) of it.
    """
    for rng, n, q in _taylor_draws():
        p, r = _near_uniform(rng, n), _near_uniform(rng, n)
        yield REGISTRY["thm4.2"].check({"p": p, "r": r}, q)


@pytest.mark.parametrize("which", [1, 2], ids=["cross_term", "maxent"])
def test_variance_chains_are_tight_to_first_order(which):
    # (m_q/2) spread <= gap <= (M_q/2) spread
    for chains in _cross_entropy_chains():
        _assert_first_order(chains[which], chains[which].upper)


def test_cross_entropy_sandwich_is_tight_to_first_order():
    # the sandwich's terms are (M_q/2) P and (M_q/2) R, the variance chains' uppers
    for sandwich, cross, maxent in _cross_entropy_chains():
        _assert_first_order(sandwich, maxent.upper + cross.upper)
