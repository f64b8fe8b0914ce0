"""Each bound chain evaluates its shared vectors once, with the same bits.

The refined max-entropy bound, the psi-mean gap bound and the thm4.2
sandwiches all evaluate ln_q and psi at the inverse probabilities.  Each
public bound evaluates psi(1/r) once, takes 1/r and ln_q(1/r) from the
arrays the distribution carries, and derives every reported quantity from
them, using the exact expressions of the helpers it used to call.  These
tests pin every returned float with ``==`` against the composition of the
public helpers (and ``np.mean`` for the braced gaps), so a bit that moves
is a failure, not a tolerance question, and check that the carried arrays
give the same floats whichever chain or q filled them.  A chain that is a
special case of another (cor3.1 of thm3.1, the max-entropy variance bounds
of the cross-term chain, cor4.1 of thm4.1) gives that chain's bits.
"""

import dataclasses
import math

import numpy as np
import pytest

from qentropy import (
    BoundReport,
    DomainError,
    GeneratorPsi,
    ProbDist,
    SecondDerivativeRange,
    cross_term_gap_sandwich,
    dual_generator,
    f_divergence,
    f_divergence_sandwich,
    identity_generator,
    lnq_generator,
    log_generator,
    maxent_variance_bounds,
    neg_qlog_generator,
    neglog_generator,
    pairwise_spread,
    q_exp,
    q_log,
    quasilinear_vs_tsallis_bounds,
    refined_maxent_bounds,
    smooth_jensen_sandwich,
    tsallis_cross_entropy_sandwich,
    tsallis_entropy,
    tsallis_generator,
    tsallis_quasilinear_entropy,
    xlogx_generator,
)
from qentropy import divergence
from qentropy.qmath import _LNQ_DOMAIN, _ln_q
from qentropy.verify import DEFAULT_Q_GRID, REGISTRY

SIZES = (2, 16, 1024)
MQ, BIG_MQ = 0.25, 3.0


def _dist(rng, n):
    w = rng.exponential(size=n) + 1e-3
    return ProbDist(w / w.sum())


def _pair(n, q):
    rng = np.random.default_rng([n, int(q * 1000)])
    return _dist(rng, n), _dist(rng, n)


GRID = [(n, q) for n in SIZES for q in DEFAULT_Q_GRID]
IDS = [f"n{n}-q{q:g}" for n, q in GRID]


def _psis(q):
    return {
        "identity": identity_generator(),
        "log": log_generator(),
        "lnq": lnq_generator(q),
    }


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_refined_maxent_bits(n, q):
    _, r = _pair(n, q)
    rep = refined_maxent_bounds(r, q)
    inv = 1.0 / r.weights
    braced = q_log(float(np.mean(inv)), q) - float(np.mean(_ln_q(inv, q)))
    assert rep.value == q_log(float(n), q) - tsallis_entropy(r, q)
    assert rep.lower == n * r._lo * braced
    assert rep.upper == n * r._hi * braced


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_quasilinear_vs_tsallis_bits(n, q):
    _, r = _pair(n, q)
    inv = 1.0 / r.weights
    for name, psi in _psis(q).items():
        rep = quasilinear_vs_tsallis_bounds(psi, r, q)
        braced = q_log(
            float(psi.inverse(np.asarray(np.mean(psi.forward(inv))))), q
        ) - float(np.mean(_ln_q(inv, q)))
        assert rep.value == tsallis_quasilinear_entropy(psi, r, q) - tsallis_entropy(r, q), name
        assert rep.lower == n * r._lo * braced, name
        assert rep.upper == n * r._hi * braced, name


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_spread_bounds_bits(n, q):
    p, r = _pair(n, q)
    w = p.weights
    spread_p = pairwise_spread(1.0 / w, p)
    spread_r = pairwise_spread(1.0 / r.weights, p)

    rep = maxent_variance_bounds(p, q, MQ, BIG_MQ)
    assert (rep.lower, rep.value, rep.upper) == (
        0.5 * MQ * spread_p,
        q_log(float(n), q) - tsallis_entropy(p, q),
        0.5 * BIG_MQ * spread_p,
    )

    rep = cross_term_gap_sandwich(p, r, q, MQ, BIG_MQ)
    assert (rep.lower, rep.upper) == (0.5 * MQ * spread_r, 0.5 * BIG_MQ * spread_r)

    rep = tsallis_cross_entropy_sandwich(p, r, q, MQ, BIG_MQ)
    base = q_log(float((w / r.weights).sum()), q) - q_log(float(n), q)
    assert rep.value == float(w @ _ln_q(1.0 / r.weights, q)) - float(w @ _ln_q(1.0 / w, q))
    assert rep.lower == base + 0.5 * MQ * spread_p - 0.5 * BIG_MQ * spread_r
    assert rep.upper == base + 0.5 * BIG_MQ * spread_p - 0.5 * MQ * spread_r


def _bits(*xs):
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_special_cases_are_their_general_chains(n, q):
    # the refined max-entropy bounds are the psi-gap chain at the identity
    # generator, and the max-entropy variance bounds the cross-term chain at r = p
    p, r = _pair(n, q)
    refined = refined_maxent_bounds(r, q)
    general = quasilinear_vs_tsallis_bounds(identity_generator(), r, q)
    assert _bits(refined.lower, refined.upper) == _bits(general.lower, general.upper)
    assert _bits(refined.value) == _bits(q_log(float(n), q) - tsallis_entropy(r, q))
    maxent = maxent_variance_bounds(p, q, MQ, BIG_MQ)
    cross = cross_term_gap_sandwich(p, p, q, MQ, BIG_MQ)
    assert _bits(*dataclasses.astuple(maxent)) == _bits(*dataclasses.astuple(cross))


def _variance_form(inputs, q):
    """cor4.1 as the paper states it: curvature times half the p-weighted variance of xs."""
    xs, w = inputs["xs"], inputs["p"].weights
    lo, hi = float(xs.min()), float(xs.max())
    f, m, big_m = {
        "square": (np.square, 2.0, 2.0),
        "exp": (np.exp, math.exp(lo), math.exp(hi)),
        "quartic": (lambda x: np.asarray(x) ** 4, 12.0 * lo * lo, 12.0 * hi * hi),
        "neg_lnq": (neg_qlog_generator(q).eval, q * hi ** (-q - 1.0), q * lo ** (-q - 1.0)),
    }[inputs["f"].partition("[")[0]]
    mean = float(w @ xs)
    gap = float(w @ np.asarray(f(xs), dtype=float)) - float(np.asarray(f(mean), dtype=float))
    spread = float(w @ (xs - mean) ** 2)
    return BoundReport(0.5 * m * spread, gap, 0.5 * big_m * spread)


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_cor41_claims_are_thm41s_and_its_variance_form(n, q):
    rng = np.random.default_rng([n, int(q * 1000)])
    for _ in range(8):
        inputs = REGISTRY["cor4.1"].draw(rng, n, q)
        [claim] = REGISTRY["cor4.1"].check(inputs, q)
        assert REGISTRY["thm4.1"].check(inputs, q) == [claim]
        want = _variance_form(inputs, q)
        assert _bits(*dataclasses.astuple(claim)) == _bits(*dataclasses.astuple(want))


# the chains that take 1/w and ln_q(1/w) from the distributions they are given
ROUTED = {
    "refined_maxent": lambda p, r, q: refined_maxent_bounds(r, q),
    "quasilinear_vs_tsallis": lambda p, r, q: quasilinear_vs_tsallis_bounds(
        lnq_generator(q), r, q
    ),
    "maxent_variance": lambda p, r, q: maxent_variance_bounds(p, q, MQ, BIG_MQ),
    "cross_term_gap": lambda p, r, q: cross_term_gap_sandwich(p, r, q, MQ, BIG_MQ),
    "cross_entropy": lambda p, r, q: tsallis_cross_entropy_sandwich(p, r, q, MQ, BIG_MQ),
}


def _fresh(d):
    return ProbDist(d.weights)


def _on_fresh(p, r, q):
    return {name: chain(_fresh(p), _fresh(r), q) for name, chain in ROUTED.items()}


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_carried_arrays_give_the_fresh_bits(n, q):
    # the same floats on fresh distributions, after every other chain filled
    # the arrays first (in either order), and with q alternating on one object
    p, r = _pair(n, q)
    fresh = _on_fresh(p, r, q)
    for names in (list(ROUTED), list(reversed(ROUTED))):
        p2, r2 = _fresh(p), _fresh(r)
        for _ in range(2):
            for name in names:
                assert ROUTED[name](p2, r2, q) == fresh[name], name
    other = DEFAULT_Q_GRID[(DEFAULT_Q_GRID.index(q) + 1) % len(DEFAULT_Q_GRID)]
    fresh_other = _on_fresh(p, r, other)
    for _ in range(2):
        for name, chain in ROUTED.items():
            assert chain(p, r, q) == fresh[name], name
            assert chain(p, r, other) == fresh_other[name], name


def test_carried_arrays_are_read_only_and_outside_eq_and_repr():
    p, r = _pair(16, 2.0)
    text = repr(r)
    for chain in ROUTED.values():
        chain(p, r, 2.0)
    inv, (qf, lnq_inv) = vars(r)["_inv"], vars(r)["_lnq_inv"]
    assert qf == 2.0
    assert inv.tolist() == (1.0 / r.weights).tolist()
    assert lnq_inv.tolist() == _ln_q(1.0 / r.weights, 2.0).tolist()
    for arr in (inv, lnq_inv):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert repr(r) == text == repr(_fresh(r))
    assert r == _fresh(r) and _fresh(r) == r
    for clone in (dataclasses.replace(r), dataclasses.replace(r, weights=r.weights)):
        assert clone == r
        assert "_inv" not in vars(clone) and "_lnq_inv" not in vars(clone)


@pytest.mark.parametrize("name", ROUTED)
def test_an_overflowing_inverse_raises_again_and_is_not_carried(name):
    # 1/5e-324 overflows a double: every call raises q_log's domain error,
    # before anything is divided or carried
    tiny = ProbDist([5e-324, 1.0])
    for _ in range(2):
        with pytest.raises(DomainError, match=f"^{_LNQ_DOMAIN}$"):
            ROUTED[name](tiny, tiny, 2.0)
    assert "_inv" not in vars(tiny) and "_lnq_inv" not in vars(tiny)


def test_cross_entropy_sandwich_checks_both_spreads_before_any_surprisal():
    # 1/1e-160 is finite but its spread overflows: r's spread raises before
    # the surprisal of p (whose spread came first) is derived
    p, wide = _pair(2, 2.0)[0], ProbDist([1e-160, 1.0 - 1e-160])
    with pytest.raises(DomainError, match="overflows a double"):
        tsallis_cross_entropy_sandwich(p, wide, 2.0, MQ, BIG_MQ)
    assert "_inv" in vars(p) and "_lnq_inv" not in vars(p)


def _family(q):
    return (xlogx_generator(), neglog_generator(), tsallis_generator(q), neg_qlog_generator(q))


@pytest.mark.parametrize("n, q", GRID, ids=IDS)
def test_f_divergence_sandwich_bits(n, q):
    # the reference is the checked route: sum_j t_j f*(p_j/t_j) over t = p^2/r,
    # with q_log evals
    p, r = _pair(n, q)
    for f in _family(q):
        rep = f_divergence_sandwich(f, p, r)
        t = p.weights**2 / r.weights
        factor = float(t @ np.asarray(dual_generator(f).eval(p.weights / t))) - float(
            np.asarray(f.eval(np.asarray(float(t.sum()))))
        )
        ratios = r.weights / p.weights
        assert rep.value == f_divergence(f, p, r), f.label
        assert rep.lower == float(ratios.min()) * factor, f.label
        assert rep.upper == float(ratios.max()) * factor, f.label


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0, 4.0])
def test_f_divergence_sandwich_of_the_family_calls_no_checked_q_log(q, monkeypatch):
    p, r = _pair(16, q)
    reports = [f_divergence_sandwich(f, p, r) for f in _family(q)]

    def checked(*args):
        raise AssertionError("q_log called")

    monkeypatch.setattr(divergence, "q_log", checked)
    assert [f_divergence_sandwich(f, p, r) for f in _family(q)] == reports


def test_eval_within_falls_back_to_the_checked_eval():
    # bounds that prove nothing leave the checks, and their errors, to eval
    g = neg_qlog_generator(4.0)
    x = np.array([0.5, 2.0])
    assert divergence._eval_within(g, x, 0.0, 2.0).tolist() == g.eval(x).tolist()
    assert divergence._eval_within(g, x, 0.5, np.inf).tolist() == g.eval(x).tolist()
    f = tsallis_generator(4.0)
    assert divergence._eval_within(f, x, 0.5, 2.0).tolist() == f.eval(x).tolist()
    with pytest.raises(DomainError, match="overflows"):
        divergence._eval_within(g, np.array([1e-300]), 1e-300, 1e-300)
    with pytest.raises(DomainError, match="finite x > 0"):
        divergence._eval_within(f, np.array([np.inf]), 1.0, np.inf)


def test_quasilinear_vs_tsallis_evaluates_psi_once():
    calls = []

    def forward(x):
        calls.append(1)
        return q_log(x, 0.5)

    psi = GeneratorPsi(
        forward=forward,
        inverse=lambda y: q_exp(y, 0.5),
        label="counting-lnq",
    )
    calls.clear()
    _, r = _pair(16, 0.5)
    quasilinear_vs_tsallis_bounds(psi, r, 0.5)
    assert len(calls) == 1


def test_smooth_jensen_rejects_nan_points():
    # the interval check skips a NaN; the spread's finiteness check catches it
    p = ProbDist([0.5, 0.5])
    drange = SecondDerivativeRange(0.0, 2.0, (0.0, 1.0))
    with pytest.raises(DomainError, match="xs must be finite"):
        smooth_jensen_sandwich(np.square, drange, [0.5, np.nan], p)


def test_quasilinear_vs_tsallis_accepts_an_array_like_forward():
    # validation accepts a forward that returns a list; the chain must too
    psi = GeneratorPsi(
        forward=lambda x: list(np.log(x)),
        inverse=np.exp,
        label="list-log",
    )
    r = ProbDist([0.25, 0.75])
    assert quasilinear_vs_tsallis_bounds(psi, r, 0.5) == quasilinear_vs_tsallis_bounds(
        log_generator(), r, 0.5
    )
